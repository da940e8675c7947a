"""Truncated Selberg-type Euler products and the two identity checks.

Everything is evaluated over one shared set of base classes of SL2(Z) with
norm below the cutoff, so both sides of each identity are finite sums over
the same data and agree class-by-class up to floating-point error.  Sums
use compensated (Kahan) accumulation in a fixed order (trace, then class),
and every check can be re-run under mpmath, in a private context that
leaves the process-wide precision alone, to confirm the discrepancy is
pure rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import Family, SubgroupSpec, partition, prime_factors
from .cosets import build_coset_table, capped_key_count
from .geodesics import classes_below, max_trace, residue_types, residues_mod


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
    """mpmath at a given precision in a context of its own, same interface."""

    def __init__(self, dps=40):
        import mpmath

        self.mp = mpmath.MPContext()
        self.mp.dps = dps

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
    that exceeds `t_max`.  Given classes (`PrimitiveClasses`) must reach
    `t_max` as well (`geodesics.classes_below`).  The reduction mod N is
    made once per level and shared by the subgroups of that level.
    """

    def __init__(self, x, classes=None, jobs=1):
        self.cutoff = float(x)
        self.t_max = max_trace(x)
        self.classes = classes_below(x, self.t_max, classes, jobs)
        self._residues = {}  # level -> (distinct residue keys, residue index of each class)
        self._types = {}  # subgroup -> [(type, order)] per residue of its level

    def trace_bound(self, x):
        """max_trace(x); ValueError if the data stops below it."""
        t_max = max_trace(x)
        if t_max > self.t_max:
            raise ValueError(
                f"cutoff {x} needs traces up to {t_max}, but the class data was "
                f"built at cutoff {self.cutoff} and stops at trace {self.t_max}"
            )
        return t_max

    def types(self, subgroup):
        """The (splitting type, order of the reduction) of every distinct
        residue mod the level, and the index of each class's residue,
        aligned with `classes`; subgroup None means the trivial cover, one
        pair (partition([1]), 1)."""
        if subgroup is None:
            return [(partition([1]), 1)], np.zeros(len(self.classes), dtype=np.intp)
        if subgroup.level not in self._residues:
            self._residues[subgroup.level] = residues_mod(self.classes, subgroup.level)
        keys, inverse = self._residues[subgroup.level]
        if subgroup not in self._types:
            self._types[subgroup] = residue_types(keys, build_coset_table(subgroup))
        return self._types[subgroup], inverse

    def kept(self, t_max, subgroup):
        """The traces of the classes of trace <= t_max, the types of the
        distinct residues and the residue index of each of those classes."""
        trace = self.classes.below(t_max).trace
        pairs, index = self.types(subgroup)
        return trace, pairs, index[:len(trace)]


def require_s_above_one(s):
    """Refuse s <= 1, and an s that is not finite (nan passes `s <= 1`)."""
    if isinstance(s, float) and not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
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


def _flat(tables):
    """The tables end to end as one object array, and the offset of each by
    key: a term stream is an index array into it."""
    flat, offset = [], {}
    for key, table in tables.items():
        offset[key] = len(flat)
        flat += table
    return np.array(flat, dtype=object), offset


# classes per block of a class-ordered term stream: bounds the index arrays
# a check holds at once to about a MB
_STREAM_CLASSES = 1 << 12


def _class_stream(rows, index, trace):
    """Index arrays into a flat table, class by class in class order: for
    class i, offset + trace[i] for each offset in rows[index[i]], in row
    order; one array per block of _STREAM_CLASSES classes."""
    width = np.array([len(r) for r in rows], dtype=np.int64)
    offsets = np.array([o for r in rows for o in r], dtype=np.int64)
    start = np.cumsum(width) - width
    for lo in range(0, len(index), _STREAM_CLASSES):
        block, t = index[lo:lo + _STREAM_CLASSES], trace[lo:lo + _STREAM_CLASSES]
        count = width.take(block)
        pos = np.arange(count.sum()) + np.repeat(start.take(block) - (np.cumsum(count) - count),
                                                 count)
        yield offsets.take(pos) + np.repeat(t, count)


def _type_stream(pairs, index, trace, offset, s):
    """Index arrays into a flat table, type by type in sorted order, then
    part by part in sorted order: offset[part * s] + t for the trace t of
    every class of that type, in class order."""
    lams = sorted({lam for lam, _ in pairs})
    lam_of = np.array([lams.index(lam) for lam, _ in pairs], dtype=np.int64).take(index)
    order = np.argsort(lam_of, kind="stable")
    bounds = lam_of.take(order).searchsorted(np.arange(len(lams) + 1))
    for lam, lo, hi in zip(lams, bounds, bounds[1:]):
        for part in sorted(lam):
            yield offset[part * s] + trace.take(order[lo:hi])


def _sum(ar, flat, stream):
    """`ar.total` of the terms a stream of index arrays picks from flat."""
    return ar.total(chain.from_iterable(flat.take(block).tolist() for block in stream))


def zeta_lambda_log(s, x, subgroup, lam, data: ClassData | None = None) -> ZetaTruncation:
    """log of the truncated Euler product over classes of the given type."""
    require_s_above_one(s)
    data = _class_data(x, data, [subgroup])
    t_max = data.trace_bound(x)
    trace, pairs, index = data.kept(t_max, subgroup)
    lam = partition(lam)
    traces = trace[np.array([got == lam for got, _ in pairs], dtype=bool).take(index)]
    ar = FloatArith()
    flat, _ = _flat({s: ar.factors(s, t_max)})
    return ZetaTruncation(s, float(x), _sum(ar, flat, [traces]), len(traces))


def zeta_gamma_log(s, x, data: ClassData | None = None) -> ZetaTruncation:
    """Truncated log zeta of the base group itself."""
    return zeta_lambda_log(s, x, None, (1,), data)


def venkov_zograf_check(s, x, subgroup: SubgroupSpec | None, data: ClassData | None = None,
                        use_mpmath=False, jobs=1):
    """|LHS - RHS| for the cover-zeta factorization at matched truncation.

    LHS groups by class: sum over classes of -log det(I - sigma(g) N^-s),
    the determinant expanded through the cycle type.  RHS groups by type:
    for each type lambda and each part m_i, the lambda-product at m_i * s.
    The identity is exact per class, so the discrepancy is pure rounding.
    Each side is one stream of terms, summed by `ar.total`: an index array
    into the factor tables, one table per exponent, laid end to end.
    Without `data`, the classes are enumerated with `jobs` processes.
    """
    require_s_above_one(s)
    data = _class_data(x, data, [subgroup], jobs)
    t_max = data.trace_bound(x)
    trace, pairs, index = data.kept(t_max, subgroup)
    ar = MPArith() if use_mpmath else FloatArith()
    exponents = sorted({part * s for lam, _ in pairs for part, _ in lam.runs})
    flat, offset = _flat({e: ar.factors(e, t_max) for e in exponents})
    rows = [[offset[part * s] for part in lam] for lam, _ in pairs]
    lhs = _sum(ar, flat, _class_stream(rows, index, trace))
    rhs = _sum(ar, flat, _type_stream(pairs, index, trace, offset, s))
    return {
        "lhs_log": float(lhs),
        "rhs_log": float(rhs),
        "discrepancy": abs(float(lhs - rhs)),
        "term_count": len(trace),
    }


def ratio_identity_check(p, s, x, data: ClassData | None = None, use_mpmath=False, jobs=1):
    """|log LHS - log RHS| for the prime-level ratio identity

        { zeta^(p,p)(s)^p / zeta^(p,p)(ps) }^((p-1)/2)
            = zeta_{Gamma1(p)}(s)^p / zeta_{Gamma(p)}(s),

    all four factors expanded over one base-class set via the cover
    factorization.  Classes entering zeta^(p,p) are exactly those whose
    reduction mod p has order p.  Each side is one stream of terms, built
    as in `venkov_zograf_check`; both subgroups share one reduction mod p.
    Without `data`, the classes are enumerated with `jobs` processes.
    """
    require_s_above_one(s)
    require_odd_prime(p)
    sub1 = SubgroupSpec(Family.GAMMA1, p)
    subp = SubgroupSpec(Family.GAMMA, p)
    data = _class_data(x, data, [sub1, subp], jobs)
    t_max = data.trace_bound(x)
    trace, pairs1, index = data.kept(t_max, sub1)
    pairsp = data.types(subp)[0]  # the residues mod p, so the index, are shared
    ar = MPArith() if use_mpmath else FloatArith()
    half = ar.frac(p - 1, 2)
    exponents = sorted({s, p * s} | {part * s for (lam1, _), (lamp, _) in zip(pairs1, pairsp)
                                     for part, _ in lam1.runs + lamp.runs})
    factor = {e: ar.factors(e, t_max) for e in exponents}
    scaled = {"lhs": [None] * 3 + [half * (p * factor[s][t] - factor[p * s][t])
                                   for t in range(3, t_max + 1)]}
    for e, table in factor.items():
        scaled["p", e] = [None] * 3 + [p * v for v in table[3:]]
        scaled["-", e] = [None] * 3 + [-v for v in table[3:]]
    flat, offset = _flat(scaled)
    rows = [[offset["p", part * s] for part in lam1] + [offset["-", part * s] for part in lamp]
            for (lam1, _), (lamp, _) in zip(pairs1, pairsp)]
    full = np.array([order == p for _, order in pairs1], dtype=bool).take(index)
    lhs = _sum(ar, flat, [offset["lhs"] + trace[full]])
    rhs = _sum(ar, flat, _class_stream(rows, index, trace))
    return {
        "p": p,
        "s": s,
        "cutoff": float(x),
        "lhs_log": float(lhs),
        "rhs_log": float(rhs),
        "discrepancy": abs(float(lhs - rhs)),
        "term_count": len(trace),
    }
