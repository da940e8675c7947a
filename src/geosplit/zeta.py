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

from .core import Family, SubgroupSpec, order_in_xi_tuple, prime_factors
from .cosets import build_coset_table, splitting_type_cycles
from .geodesics import enumerate_primitive_classes, norm_below


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

    def acc(self):
        return KahanSum()

    def log_norm(self, t):
        # log N(gamma) = 2 log((t + sqrt(t^2-4))/2)
        return 2.0 * math.log((t + math.sqrt(t * t - 4.0)) / 2.0)

    def euler_term(self, log_n, s):
        # -log(1 - N^{-s})
        return -math.log1p(-math.exp(-s * log_n))

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
    """Base classes with norms and per-subgroup splitting types, shared by
    all the checks at one cutoff."""

    def __init__(self, x, classes=None, jobs=1):
        self.cutoff = float(x)
        if classes is None:
            classes = enumerate_primitive_classes(x, jobs=jobs)
        self.classes = [(t, f, m) for (t, f, m) in classes if norm_below(t, x)]
        self._tables = {}
        self._memo = {}

    def restrict(self, x):
        sub = ClassData.__new__(ClassData)
        sub.cutoff = float(x)
        sub.classes = [(t, f, m) for (t, f, m) in self.classes if norm_below(t, x)]
        sub._tables = self._tables
        sub._memo = self._memo
        return sub

    def _table(self, subgroup):
        if subgroup not in self._tables:
            self._tables[subgroup] = build_coset_table(subgroup)
        return self._tables[subgroup]

    def type_and_order(self, m, subgroup):
        """Splitting type in the subgroup and the order of the reduction;
        subgroup None means the trivial cover (type (1), order 1)."""
        if subgroup is None:
            return (1,), 1
        g = m.reduce_mod(subgroup.level).tuple
        key = (subgroup, g)
        got = self._memo.get(key)
        if got is None:
            lam = splitting_type_cycles(g, self._table(subgroup))
            got = (lam, order_in_xi_tuple(g, subgroup.level))
            self._memo[key] = got
        return got


def zeta_lambda_log(s, x, subgroup, lam, data: ClassData | None = None) -> ZetaTruncation:
    """log of the truncated Euler product over classes of the given type."""
    if s <= 1:
        raise ValueError("require s > 1")
    if data is None:
        data = ClassData(x)
    ar = FloatArith()
    lam = tuple(lam)
    acc = ar.acc()
    count = 0
    for t, f, m in data.classes:
        if not norm_below(t, x):
            continue
        if data.type_and_order(m, subgroup)[0] != lam:
            continue
        acc.add(ar.euler_term(ar.log_norm(t), s))
        count += 1
    return ZetaTruncation(s, float(x), acc.total, count)


def zeta_gamma_log(s, x, data: ClassData | None = None) -> ZetaTruncation:
    """Truncated log zeta of the base group itself."""
    if s <= 1:
        raise ValueError("require s > 1")
    if data is None:
        data = ClassData(x)
    ar = FloatArith()
    acc = ar.acc()
    count = 0
    for t, f, m in data.classes:
        if norm_below(t, x):
            acc.add(ar.euler_term(ar.log_norm(t), s))
            count += 1
    return ZetaTruncation(s, float(x), acc.total, count)


def venkov_zograf_check(s, x, subgroup: SubgroupSpec | None, data: ClassData | None = None,
                        use_mpmath=False, dps=40):
    """|LHS - RHS| for the cover-zeta factorization at matched truncation.

    LHS groups by class: sum over classes of -log det(I - sigma(g) N^-s),
    the determinant expanded through the cycle type.  RHS groups by type:
    for each type lambda and each part m_i, the lambda-product at m_i * s.
    The identity is exact per class, so the discrepancy is pure rounding.
    """
    if s <= 1:
        raise ValueError("require s > 1")
    if data is None:
        data = ClassData(x)
    ar = _arith(use_mpmath, dps)
    lhs = ar.acc()
    by_type = {}
    for t, f, m in data.classes:
        if not norm_below(t, x):
            continue
        lam = data.type_and_order(m, subgroup)[0]
        log_n = ar.log_norm(t)
        for part in lam:
            lhs.add(ar.euler_term(log_n, part * s))
        by_type.setdefault(lam, []).append(log_n)
    rhs = ar.acc()
    for lam in sorted(by_type):
        for part in sorted(lam):
            for log_n in by_type[lam]:
                rhs.add(ar.euler_term(log_n, part * s))
    return {
        "lhs_log": float(lhs.total),
        "rhs_log": float(rhs.total),
        "discrepancy": abs(float(lhs.total - rhs.total)),
        "term_count": sum(len(v) for v in by_type.values()),
    }


def ratio_identity_check(p, s, x, data: ClassData | None = None, use_mpmath=False, dps=40):
    """|log LHS - log RHS| for the prime-level ratio identity

        { zeta^(p,p)(s)^p / zeta^(p,p)(ps) }^((p-1)/2)
            = zeta_{Gamma1(p)}(s)^p / zeta_{Gamma(p)}(s),

    all four factors expanded over one base-class set via the cover
    factorization.  Classes entering zeta^(p,p) are exactly those whose
    reduction mod p has order p.
    """
    if p < 3 or p % 2 == 0 or prime_factors(p) != [p]:
        raise ValueError(f"require an odd prime p, got {p}")
    if s <= 1:
        raise ValueError("require s > 1")
    if data is None:
        data = ClassData(x)
    ar = _arith(use_mpmath, dps)
    sub1 = SubgroupSpec(Family.GAMMA1, p)
    subp = SubgroupSpec(Family.GAMMA, p)
    half = ar.frac(p - 1, 2)
    lhs = ar.acc()
    rhs = ar.acc()
    count = 0
    for t, f, m in data.classes:
        if not norm_below(t, x):
            continue
        count += 1
        log_n = ar.log_norm(t)
        lam1, order = data.type_and_order(m, sub1)
        lamp = data.type_and_order(m, subp)[0]
        if order == p:
            lhs.add(half * (p * ar.euler_term(log_n, s) - ar.euler_term(log_n, p * s)))
        for part in lam1:
            rhs.add(p * ar.euler_term(log_n, part * s))
        for part in lamp:
            rhs.add(-ar.euler_term(log_n, part * s))
    return {
        "p": p,
        "s": s,
        "cutoff": float(x),
        "lhs_log": float(lhs.total),
        "rhs_log": float(rhs.total),
        "discrepancy": abs(float(lhs.total - rhs.total)),
        "term_count": count,
    }
