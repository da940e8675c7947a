"""Truncated Selberg-type Euler products and the two identity checks.

Everything is evaluated over one shared set of base classes of SL2(Z) with
norm below the cutoff.  Every term is an entry of a factor table, one per
exponent indexed by trace, so each side of an identity is integer counts
of entries, and its value is the exact sum of count times entry rounded
once (what `math.fsum` gives on the terms in any order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Family, SubgroupSpec, partition, prime_factors
from .cosets import build_coset_table, capped_key_count
from .geodesics import classes_below, cover_keys, key_types, max_trace


def _factors(e, t_max):
    """-log(1 - N^{-e}) for the norm N = ((t + sqrt(t^2 - 4)) / 2)^2 of
    trace t, at index t - 3 for every trace 3 <= t <= t_max."""
    return [-math.log1p(-math.exp(-e * (2.0 * math.log((t + math.sqrt(t * t - 4.0)) / 2.0))))
            for t in range(3, t_max + 1)]


def _total(terms, counts):
    """sum counts[j] * terms[j], exact and rounded once to a double, as
    `math.fsum` rounds the terms repeated counts times.  Every double is
    n / d with d a power of two, so the sum is one integer over the
    largest d, and int / int rounds correctly."""
    ratios = [(c, x.as_integer_ratio()) for c, x in zip(counts, terms) if c]
    den = max((d for _, (_, d) in ratios), default=1)
    return sum(c * n * (den // d) for c, (n, d) in ratios) / den


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
    `t_max` as well (`geodesics.classes_below`).  The cover keys are found
    once per level, and each factor table once at `t_max`.
    """

    def __init__(self, x, classes=None, jobs=1):
        self.cutoff = float(x)
        self.t_max = max_trace(x)
        self.classes = classes_below(x, self.t_max, classes, jobs)
        self._keys = {}  # level -> (first class of each key, key index of each class)
        self._types = {}  # subgroup -> [(type, order)] per key of its level
        self._factors = {}  # exponent -> `_factors` table up to t_max

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
        """The (splitting type, order of the reduction) of every cover key
        of the level, and the key index of each class, aligned with
        `classes`; subgroup None means the trivial cover, one pair
        (partition([1]), 1)."""
        if subgroup is None:
            return [(partition([1]), 1)], np.zeros(len(self.classes), dtype=np.intp)
        if subgroup.level not in self._keys:
            self._keys[subgroup.level] = cover_keys(self.classes, subgroup.level)[1:]
        first, inverse = self._keys[subgroup.level]
        if subgroup not in self._types:
            self._types[subgroup] = key_types(self.classes, first, build_coset_table(subgroup))
        return self._types[subgroup], inverse

    def factors(self, e, t_max):
        """`_factors(e, t_max)`, as a prefix of the table built at `self.t_max`."""
        if e not in self._factors:
            self._factors[e] = _factors(e, self.t_max)
        return self._factors[e][:t_max - 2]

    def kept(self, t_max, subgroup):
        """The traces of the classes of trace <= t_max, the types of the
        cover keys and the key index of each of those classes."""
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


def _class_counts(weights, index, trace, t_max):
    """counts[j, t - 3]: the sum of weights[r, j] over the classes of trace t,
    r the cover key of each, as int64; one weighted `bincount` per column j,
    so memory stays linear in the classes whatever the number of keys.
    The float64 sums are exact: at most classes x index < 2^53 at the caps."""
    return np.array([np.bincount(trace - 3, weights=w.take(index), minlength=t_max - 2)
                     for w in weights.T]).astype(np.int64)


def _run_weights(lams, column):
    """weights[i, column[part]]: the multiplicity of part in lams[i]."""
    weights = np.zeros((len(lams), len(column)), dtype=np.int64)
    for i, lam in enumerate(lams):
        for part, m in lam.runs:
            weights[i, column[part]] = m
    return weights


def venkov_counts(pairs, index, trace, t_max):
    """The types' parts in increasing order, and two parts x (t_max - 2)
    counts of each (part, trace) over the classes, the Venkov-Zograf sides:
    by class (the runs of each class's key, added per trace) and by
    type (the types' runs times the (type, trace) histogram).  The
    identity holds exactly when they are equal."""
    parts = sorted({part for lam, _ in pairs for part, _ in lam.runs})
    column = {part: j for j, part in enumerate(parts)}
    lams = sorted({lam for lam, _ in pairs})
    type_of = np.array([lams.index(lam) for lam, _ in pairs], dtype=np.int64)
    by_class = _class_counts(_run_weights([lam for lam, _ in pairs], column), index, trace, t_max)
    width = t_max - 2  # the (type, trace) histogram, laid out as the factor tables
    hist = np.bincount(type_of.take(index) * width + trace - 3, minlength=len(lams) * width)
    by_type = _run_weights(lams, column).T @ hist.reshape(len(lams), width)
    return parts, by_class, by_type


def zeta_lambda_log(s, x, subgroup, lam, data: ClassData | None = None) -> ZetaTruncation:
    """log of the truncated Euler product over classes of the given type."""
    require_s_above_one(s)
    data = _class_data(x, data, [subgroup])
    t_max = data.trace_bound(x)
    trace, pairs, index = data.kept(t_max, subgroup)
    lam = partition(lam)
    traces = trace[np.array([got == lam for got, _ in pairs], dtype=bool).take(index)]
    counts = np.bincount(traces - 3, minlength=t_max - 2)
    return ZetaTruncation(s, float(x), _total(data.factors(s, t_max), counts.tolist()), len(traces))


def zeta_gamma_log(s, x, data: ClassData | None = None) -> ZetaTruncation:
    """Truncated log zeta of the base group itself."""
    return zeta_lambda_log(s, x, None, (1,), data)


def venkov_zograf_check(s, x, subgroup: SubgroupSpec | None, data: ClassData | None = None,
                        jobs=1):
    """|LHS - RHS| for the cover-zeta factorization at matched truncation.

    LHS groups by class: sum over classes of -log det(I - sigma(g) N^-s),
    the determinant expanded through the cycle type.  RHS groups by type:
    for each type lambda and each part m_i, the lambda-product at m_i * s.
    Each side is its own count array of (part, trace) entries
    (`venkov_counts`), summed by `_total` against the factor tables at
    part * s.  The identity is exact per class, so the counts agree and
    the exact sums are equal.
    Without `data`, the classes are enumerated with `jobs` processes.
    """
    require_s_above_one(s)
    data = _class_data(x, data, [subgroup], jobs)
    t_max = data.trace_bound(x)
    trace, pairs, index = data.kept(t_max, subgroup)
    parts, by_class, by_type = venkov_counts(pairs, index, trace, t_max)
    terms = [v for part in parts for v in data.factors(part * s, t_max)]
    lhs = _total(terms, by_class.ravel().tolist())
    rhs = _total(terms, by_type.ravel().tolist())
    return {
        "lhs_log": lhs,
        "rhs_log": rhs,
        "discrepancy": abs(lhs - rhs),
        "term_count": len(trace),
    }


def ratio_identity_check(p, s, x, data: ClassData | None = None, jobs=1):
    """|log LHS - log RHS| for the prime-level ratio identity

        { zeta^(p,p)(s)^p / zeta^(p,p)(ps) }^((p-1)/2)
            = zeta_{Gamma1(p)}(s)^p / zeta_{Gamma(p)}(s),

    all four factors expanded over one base-class set via the cover
    factorization.  Classes entering zeta^(p,p) are exactly those whose
    reduction mod p has order p: the LHS is their trace histogram against
    one table of (p-1)/2 (p f_s - f_ps).  The RHS counts (part, trace)
    entries by class against p f at the Gamma1(p) parts and -f at the
    Gamma(p) parts; both subgroups share the cover keys mod p.
    Without `data`, the classes are enumerated with `jobs` processes.
    """
    require_s_above_one(s)
    require_odd_prime(p)
    sub1 = SubgroupSpec(Family.GAMMA1, p)
    subp = SubgroupSpec(Family.GAMMA, p)
    data = _class_data(x, data, [sub1, subp], jobs)
    t_max = data.trace_bound(x)
    trace, pairs1, index = data.kept(t_max, sub1)
    pairsp = data.types(subp)[0]  # the keys mod p, so the index, are shared
    half = (p - 1) / 2
    parts = sorted({1, p} | {part for lam, _ in pairs1 + pairsp for part, _ in lam.runs})
    factor = {part: data.factors(part * s, t_max) for part in parts}
    lhs_terms = [half * (p * a - b) for a, b in zip(factor[1], factor[p])]
    full = np.array([order == p for _, order in pairs1], dtype=bool).take(index)
    lhs = _total(lhs_terms, np.bincount(trace[full] - 3, minlength=t_max - 2).tolist())
    # p f at each part for the Gamma1(p) runs, then -f at each part for the Gamma(p) runs
    column = {part: j for j, part in enumerate(parts)}
    weights = np.hstack([_run_weights([lam for lam, _ in got], column) for got in (pairs1, pairsp)])
    counts = _class_counts(weights, index, trace, t_max)
    terms = [v for part in parts for v in factor[part]]
    rhs = _total([p * v for v in terms] + [-v for v in terms], counts.ravel().tolist())
    return {
        "p": p,
        "s": s,
        "cutoff": float(x),
        "lhs_log": lhs,
        "rhs_log": rhs,
        "discrepancy": abs(lhs - rhs),
        "term_count": len(trace),
    }
