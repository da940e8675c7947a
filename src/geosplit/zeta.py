"""Truncated Selberg-type Euler products and the two identity checks.

Everything is evaluated over one shared set of base classes of SL2(Z) with
norm below the cutoff, so both sides of each identity are finite sums over
the same data and agree class-by-class up to floating-point error.  Sums
use compensated (Kahan) accumulation in a fixed order (trace, then class),
and every check can be re-run under mpmath to confirm the discrepancy is
pure rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .core import Family, SubgroupSpec, canon, prime_factors
from .cosets import build_coset_table, capped_key_count
from .geodesics import classes_below, max_trace, residue_keys, residue_types


class _Arith:
    def factors(self, e, t_max):
        """-log(1 - N^{-e}) for the norm N of trace t, at index t for every
        trace 3 <= t <= t_max."""
        return [None] * 3 + [self.euler_term(self.log_norm(t), e) for t in range(3, t_max + 1)]


class FloatArith(_Arith):
    """Plain doubles with compensated summation."""

    def total(self, terms):
        """The compensated (Kahan) sum of the terms in order."""
        total = c = 0.0
        for x in terms:
            y = x - c
            t = total + y
            c = (t - total) - y
            total = t
        return total

    def log_norm(self, t):
        # log N(gamma) = 2 log((t + sqrt(t^2-4))/2)
        return 2.0 * math.log((t + math.sqrt(t * t - 4.0)) / 2.0)

    def euler_term(self, log_n, s):
        # -log(1 - N^{-s})
        return -math.log1p(-math.exp(-s * log_n))

    def frac(self, a, b):
        return a / b


class MPArith(_Arith):
    """mpmath at a configurable precision, same interface."""

    def __init__(self, dps=40):
        import mpmath

        self.mp = mpmath
        self.dps = dps
        mpmath.mp.dps = max(mpmath.mp.dps, dps)

    def total(self, terms):
        """The terms added in order to mpf(0)."""
        return sum(terms, self.mp.mpf(0))

    def log_norm(self, t):
        t = self.mp.mpf(t)
        return 2 * self.mp.log((t + self.mp.sqrt(t * t - 4)) / 2)

    def euler_term(self, log_n, s):
        return -self.mp.log1p(-self.mp.e ** (-self.mp.mpf(s) * log_n))

    def frac(self, a, b):
        return self.mp.mpf(a) / self.mp.mpf(b)


def _arith(use_mpmath, dps=40):
    return MPArith(dps) if use_mpmath else FloatArith()


@dataclass
class ZetaTruncation:
    s: float
    cutoff: float
    log_value: float
    term_count: int


class ClassData:
    """Base classes with per-subgroup splitting types, shared by all the
    checks at cutoffs up to the one it was built at.

    `t_max` is the largest trace of that cutoff; a check at a cutoff x uses
    the classes of trace <= max_trace(x) and is refused with ValueError when
    that exceeds `t_max`.  A given class list must reach `t_max` as well
    (`geodesics.classes_below`).
    """

    def __init__(self, x, classes=None, jobs=1):
        self.cutoff = float(x)
        self.t_max = max_trace(x)
        self.classes = classes_below(x, self.t_max, classes, jobs)
        self._tables = {}
        self._memo = {}  # subgroup -> {residue: (type, order)}

    def trace_bound(self, x):
        """max_trace(x); ValueError if the data stops below it."""
        t_max = max_trace(x)
        if t_max > self.t_max:
            raise ValueError(
                f"cutoff {x} needs traces up to {t_max}, but the class data was "
                f"built at cutoff {self.cutoff} and stops at trace {self.t_max}"
            )
        return t_max

    def restrict(self, x):
        sub = ClassData.__new__(ClassData)
        sub.cutoff = float(x)
        sub.t_max = self.trace_bound(x)
        sub.classes = [c for c in self.classes if c[0] <= sub.t_max]
        sub._tables = self._tables
        sub._memo = self._memo
        return sub

    def _table(self, subgroup):
        if subgroup not in self._tables:
            self._tables[subgroup] = build_coset_table(subgroup)
        return self._tables[subgroup]

    def _residue_memo(self, subgroup, keys):
        return residue_types(keys, self._table(subgroup), self._memo.setdefault(subgroup, {}))

    def types(self, subgroup):
        """(splitting type, order of the reduction) of every class, aligned
        with `classes`; subgroup None means the trivial cover (type (1),
        order 1)."""
        if subgroup is None:
            return [((1,), 1)] * len(self.classes)
        keys = residue_keys(self.classes, subgroup.level)
        memo = self._residue_memo(subgroup, keys)
        return [memo[g] for g in keys]

    def type_and_order(self, m, subgroup):
        """Splitting type in the subgroup and the order of the reduction;
        subgroup None means the trivial cover (type (1), order 1)."""
        if subgroup is None:
            return (1,), 1
        g = canon(m.a, m.b, m.c, m.d, subgroup.level)
        return self._residue_memo(subgroup, [g])[g]


def require_s_above_one(s):
    if s <= 1:
        raise ValueError("require s > 1")


def require_odd_prime(p):
    if p < 3 or p % 2 == 0 or prime_factors(p) != [p]:
        raise ValueError(f"require an odd prime p, got {p}")


def _class_data(x, data, covers, jobs=1):
    """`data`, or else the class data at cutoff x; either way only after
    the coset key cap of every cover (None for the trivial one) is checked,
    so an over-cap cover is refused before any class is enumerated."""
    for cover in covers:
        if cover is not None:
            capped_key_count(cover)
    return ClassData(x, jobs=jobs) if data is None else data


def zeta_lambda_log(s, x, subgroup, lam, data: ClassData | None = None) -> ZetaTruncation:
    """log of the truncated Euler product over classes of the given type."""
    require_s_above_one(s)
    data = _class_data(x, data, [subgroup])
    t_max = data.trace_bound(x)
    ar = FloatArith()
    lam = tuple(lam)
    traces = [t for (t, _, _), (got, _) in zip(data.classes, data.types(subgroup))
              if t <= t_max and got == lam]
    factor = ar.factors(s, t_max)
    return ZetaTruncation(s, float(x), ar.total(map(factor.__getitem__, traces)), len(traces))


def zeta_gamma_log(s, x, data: ClassData | None = None) -> ZetaTruncation:
    """Truncated log zeta of the base group itself."""
    return zeta_lambda_log(s, x, None, (1,), data)


def venkov_zograf_check(s, x, subgroup: SubgroupSpec | None, data: ClassData | None = None,
                        use_mpmath=False, dps=40, jobs=1):
    """|LHS - RHS| for the cover-zeta factorization at matched truncation.

    LHS groups by class: sum over classes of -log det(I - sigma(g) N^-s),
    the determinant expanded through the cycle type.  RHS groups by type:
    for each type lambda and each part m_i, the lambda-product at m_i * s.
    The identity is exact per class, so the discrepancy is pure rounding.
    Each side is one stream of terms, summed by `ar.total`: the factors come
    from one table per exponent and each class's LHS terms from a memo by
    (trace, type).  Without `data`, the classes are enumerated with `jobs`
    processes.
    """
    require_s_above_one(s)
    data = _class_data(x, data, [subgroup], jobs)
    t_max = data.trace_bound(x)
    ar = _arith(use_mpmath, dps)
    types = data.types(subgroup)

    def kept():  # (trace, type) of each class, a fresh pass each call
        return ((t, lam) for (t, _, _), (lam, _) in zip(data.classes, types) if t <= t_max)

    terms = dict.fromkeys(kept())
    factor = {e: ar.factors(e, t_max) for e in {part * s for _, lam in terms for part in lam}}
    for t, lam in terms:
        terms[t, lam] = tuple(factor[part * s][t] for part in lam)
    lhs = ar.total(chain.from_iterable(map(terms.__getitem__, kept())))
    by_type = {}
    for t, lam in kept():
        by_type.setdefault(lam, []).append(t)
    rhs = ar.total(chain.from_iterable(map(factor[part * s].__getitem__, by_type[lam])
                                       for lam in sorted(by_type) for part in sorted(lam)))
    return {
        "lhs_log": float(lhs),
        "rhs_log": float(rhs),
        "discrepancy": abs(float(lhs - rhs)),
        "term_count": sum(map(len, by_type.values())),
    }


def ratio_identity_check(p, s, x, data: ClassData | None = None, use_mpmath=False, dps=40,
                         jobs=1):
    """|log LHS - log RHS| for the prime-level ratio identity

        { zeta^(p,p)(s)^p / zeta^(p,p)(ps) }^((p-1)/2)
            = zeta_{Gamma1(p)}(s)^p / zeta_{Gamma(p)}(s),

    all four factors expanded over one base-class set via the cover
    factorization.  Classes entering zeta^(p,p) are exactly those whose
    reduction mod p has order p.  Each side is one stream of terms, built
    as in `venkov_zograf_check`.  Without `data`, the classes are
    enumerated with `jobs` processes.
    """
    require_s_above_one(s)
    require_odd_prime(p)
    sub1 = SubgroupSpec(Family.GAMMA1, p)
    subp = SubgroupSpec(Family.GAMMA, p)
    data = _class_data(x, data, [sub1, subp], jobs)
    t_max = data.trace_bound(x)
    ar = _arith(use_mpmath, dps)
    half = ar.frac(p - 1, 2)
    types1, typesp = data.types(sub1), data.types(subp)

    def kept():  # (trace, Gamma1 type, Gamma type) of each class, a fresh pass each call
        return ((t, lam1, lamp) for (t, _, _), (lam1, _), (lamp, _)
                in zip(data.classes, types1, typesp) if t <= t_max)

    full = [t for (t, _, _), (_, order) in zip(data.classes, types1)
            if t <= t_max and order == p]
    terms = dict.fromkeys(kept())
    exponents = {s, p * s} | {part * s for _, lam1, lamp in terms for part in lam1 + lamp}
    factor = {e: ar.factors(e, t_max) for e in exponents}
    for t, lam1, lamp in terms:
        terms[t, lam1, lamp] = (tuple(p * factor[part * s][t] for part in lam1)
                                + tuple(-factor[part * s][t] for part in lamp))
    lhs_of = {t: half * (p * factor[s][t] - factor[p * s][t]) for t in set(full)}
    lhs = ar.total(map(lhs_of.__getitem__, full))
    rhs = ar.total(chain.from_iterable(map(terms.__getitem__, kept())))
    return {
        "p": p,
        "s": s,
        "cutoff": float(x),
        "lhs_log": float(lhs),
        "rhs_log": float(rhs),
        "discrepancy": abs(float(lhs - rhs)),
        "term_count": sum(1 for t, _, _ in data.classes if t <= t_max),
    }
