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

from .core import Family, SubgroupSpec, canon, prime_factors
from .cosets import build_coset_table, capped_key_count
from .geodesics import classes_below, max_trace, residue_keys, residue_types


class KahanSum:
    def __init__(self):
        self.total = 0.0
        self._c = 0.0

    def add(self, x):
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


class FloatArith:
    """Plain doubles with compensated summation."""

    def __init__(self):
        self._factors = {}

    def acc(self):
        return KahanSum()

    def log_norm(self, t):
        # log N(gamma) = 2 log((t + sqrt(t^2-4))/2)
        return 2.0 * math.log((t + math.sqrt(t * t - 4.0)) / 2.0)

    def euler_term(self, log_n, s):
        # -log(1 - N^{-s})
        return -math.log1p(-math.exp(-s * log_n))

    def factor(self, t, e):
        """-log(1 - N^{-e}) for the norm N of trace t, memoized per (t, e)."""
        key = (t, e)
        got = self._factors.get(key)
        if got is None:
            got = self._factors[key] = self.euler_term(self.log_norm(t), e)
        return got

    def frac(self, a, b):
        return a / b


class MPArith:
    """mpmath at a configurable precision, same interface."""

    def __init__(self, dps=40):
        import mpmath

        self.mp = mpmath
        self.dps = dps
        mpmath.mp.dps = max(mpmath.mp.dps, dps)

    def acc(self):
        class Acc:
            def __init__(self, mp):
                self.total = mp.mpf(0)

            def add(self, x):
                self.total += x

        return Acc(self.mp)

    def log_norm(self, t):
        t = self.mp.mpf(t)
        return 2 * self.mp.log((t + self.mp.sqrt(t * t - 4)) / 2)

    def euler_term(self, log_n, s):
        return -self.mp.log1p(-self.mp.e ** (-self.mp.mpf(s) * log_n))

    def factor(self, t, e):
        return self.euler_term(self.log_norm(t), e)

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
    acc = ar.acc()
    count = 0
    for (t, _, _), (got, _) in zip(data.classes, data.types(subgroup)):
        if t <= t_max and got == lam:
            acc.add(ar.factor(t, s))
            count += 1
    return ZetaTruncation(s, float(x), acc.total, count)


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
    Without `data`, the classes are enumerated with `jobs` processes.
    """
    require_s_above_one(s)
    data = _class_data(x, data, [subgroup], jobs)
    t_max = data.trace_bound(x)
    ar = _arith(use_mpmath, dps)
    lhs = ar.acc()
    by_type = {}
    for (t, _, _), (lam, _) in zip(data.classes, data.types(subgroup)):
        if t > t_max:
            continue
        for part in lam:
            lhs.add(ar.factor(t, part * s))
        by_type.setdefault(lam, []).append(t)
    rhs = ar.acc()
    for lam in sorted(by_type):
        for part in sorted(lam):
            for t in by_type[lam]:
                rhs.add(ar.factor(t, part * s))
    return {
        "lhs_log": float(lhs.total),
        "rhs_log": float(rhs.total),
        "discrepancy": abs(float(lhs.total - rhs.total)),
        "term_count": sum(len(v) for v in by_type.values()),
    }


def ratio_identity_check(p, s, x, data: ClassData | None = None, use_mpmath=False, dps=40,
                         jobs=1):
    """|log LHS - log RHS| for the prime-level ratio identity

        { zeta^(p,p)(s)^p / zeta^(p,p)(ps) }^((p-1)/2)
            = zeta_{Gamma1(p)}(s)^p / zeta_{Gamma(p)}(s),

    all four factors expanded over one base-class set via the cover
    factorization.  Classes entering zeta^(p,p) are exactly those whose
    reduction mod p has order p.  Without `data`, the classes are
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
    lhs = ar.acc()
    rhs = ar.acc()
    count = 0
    for (t, _, _), (lam1, order), (lamp, _) in zip(data.classes, data.types(sub1),
                                                   data.types(subp)):
        if t > t_max:
            continue
        count += 1
        if order == p:
            lhs.add(half * (p * ar.factor(t, s) - ar.factor(t, p * s)))
        for part in lam1:
            rhs.add(p * ar.factor(t, part * s))
        for part in lamp:
            rhs.add(-ar.factor(t, part * s))
    return {
        "p": p,
        "s": s,
        "cutoff": float(x),
        "lhs_log": float(lhs.total),
        "rhs_log": float(rhs.total),
        "discrepancy": abs(float(lhs.total - rhs.total)),
        "term_count": count,
    }
