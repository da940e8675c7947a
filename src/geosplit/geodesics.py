"""Primitive hyperbolic conjugacy classes of SL2(Z) via indefinite binary
quadratic forms, and empirical splitting-density tallies.

Classes of trace t >= 3 correspond to cycles of reduced forms of
discriminant t^2 - 4 (all integral forms, not only primitive ones: the
form content is a conjugation invariant, and e.g. the three trace-6
classes include the content-2 form (2,4,-2)).  Classes are +-classes with
the trace taken positive, which matches working projectively everywhere
else: a positive-trace matrix can only be a power of another
positive-trace matrix, so primitivity marking never needs negative traces.

The norm cutoff N(gamma) < x is decided in exact arithmetic:

    ((t + sqrt(t^2-4))/2)^2 < x   <=>   t*sqrt(x) < x + 1   <=>   t^2 x < (x+1)^2,

evaluated over Fractions so float cutoffs never misclassify a boundary
trace.  Every norm exceeds 1, and for x > 1 the rule holds for t exactly
below sqrt(x) + 1/sqrt(x), so it is monotone in t as well as in x: a cutoff
is evaluated once, as the largest admitted trace `max_trace(x)`, and every
per-class test is the integer comparison t <= max_trace(x).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import Pool

from .core import CapExceeded, IntegerMatrix, SubgroupSpec, canon, divisors, order_in_xi_tuple
from .census import DensityTable
from .cosets import build_coset_table, splitting_types


MIN_CUTOFF = 7  # the shortest geodesic (t = 3) has norm ((3+sqrt5)/2)^2 ~ 6.854
# largest cutoff enumerated; the smallest-prime-factor sieve holds about x/4
# entries in every pool worker
MAX_CUTOFF = 10**7


# ---------------------------------------------------------------------------
# reduced forms and reduction cycles

def is_reduced(a, b, c, disc):
    """0 < b < sqrt(D) and |sqrt(D) - 2|a|| < b, in integer arithmetic."""
    if b <= 0 or b * b >= disc:
        return False
    t = 2 * abs(a) - b
    return t * t < disc and (2 * abs(a) + b) ** 2 > disc


def rho_step(a, b, c, disc, sqrt_disc):
    """Reduction-cycle neighbor of a reduced form (a, b, c)."""
    ac = abs(c)
    r = sqrt_disc - ((sqrt_disc + b) % (2 * ac))
    return (c, r, (r * r - disc) // (4 * c))


def reduce_form(a, b, c, disc, sqrt_disc):
    """Apply normalization steps until the form is reduced."""
    while not is_reduced(a, b, c, disc):
        ac = abs(c)
        if ac > sqrt_disc:
            # bring b into (-|c|, |c|]
            r = (-b) % (2 * ac)
            if r > ac:
                r -= 2 * ac
        else:
            r = sqrt_disc - ((sqrt_disc + b) % (2 * ac))
        a, b, c = c, r, (r * r - disc) // (4 * c)
    return (a, b, c)


def _spf_sieve(limit):
    """Smallest-prime-factor table up to limit (inclusive)."""
    spf = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def _divisors_from_spf(n, spf):
    divs = [1]
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def reduced_forms_at_trace(t, spf=None):
    """All reduced integral forms of discriminant t^2 - 4."""
    disc = t * t - 4
    sq = math.isqrt(disc)
    forms = []
    b = 2 - (t % 2)
    while b <= sq:
        n = (disc - b * b) // 4  # = |a*c|, signs of a and c are opposite
        if n > 0:
            divs = _divisors_from_spf(n, spf) if spf is not None else divisors(n)
            for a in divs:
                lo = 2 * a - b
                if lo * lo < disc and (2 * a + b) ** 2 > disc:
                    forms.append((a, b, -(n // a)))
                    forms.append((-a, b, n // a))
        b += 2
    return forms


@dataclass
class FormClassRecord:
    trace: int
    cycle: list  # reduction cycle of reduced forms, starting at the canonical one
    representative_matrix: IntegerMatrix
    primitive: bool = True

    @property
    def canonical_form(self):
        return self.cycle[0]


def matrix_from_form(t, form):
    """Determinant-one lift [[(t-b)/2, -c], [a, (t+b)/2]] of a form of
    discriminant t^2 - 4 (t and b always share parity)."""
    a, b, c = form
    return IntegerMatrix((t - b) // 2, -c, a, (t + b) // 2)


def classes_at_trace(t, spf=None):
    """SL2(Z)-classes of trace t as reduction cycles, one record per cycle,
    canonical representative = least reduced form in the cycle."""
    if t < 3:
        raise ValueError("hyperbolic classes need trace >= 3")
    disc = t * t - 4
    sq = math.isqrt(disc)
    forms = reduced_forms_at_trace(t, spf)
    unvisited = set(forms)
    records = []
    for start in forms:
        if start not in unvisited:
            continue
        cycle = []
        f = start
        while f in unvisited:
            unvisited.discard(f)
            cycle.append(f)
            f = rho_step(*f, disc, sq)
        if f != start:
            raise RuntimeError(f"reduction walk at trace {t} did not close: {start} -> {f}")
        best = min(range(len(cycle)), key=lambda i: cycle[i])
        cycle = cycle[best:] + cycle[:best]
        records.append(FormClassRecord(t, cycle, matrix_from_form(t, cycle[0])))
    records.sort(key=lambda r: r.canonical_form)
    return records


def class_of_matrix(m):
    """Canonical reduced form of the class of a hyperbolic matrix (trace > 2)."""
    t = m.trace
    if t <= 2:
        raise ValueError("need positive hyperbolic trace")
    disc = t * t - 4
    sq = math.isqrt(disc)
    # the fixed-point form (c, d-a, -b), inverse of `matrix_from_form`
    f = reduce_form(m.c, m.d - m.a, -m.b, disc, sq)
    start = f
    best = f
    while True:
        f = rho_step(*f, disc, sq)
        if f < best:
            best = f
        if f == start:
            return best


# ---------------------------------------------------------------------------
# cutoffs, bulk enumeration and primitivity

def norm_below(t, x):
    """Exact test N(class of trace t) < x."""
    x = Fraction(x)
    return x > 1 and t * t * x < (x + 1) ** 2


def exact_cutoff(x):
    """The cutoff as a Fraction; inf and nan have none and are refused."""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"cutoff must be finite, got {x}")
    return Fraction(x)


def max_trace(x):
    """Largest trace t with N(t) < x (2 if there is none, as for every
    x <= 1): for t >= 3, t <= max_trace(x) exactly when norm_below(t, x)."""
    x = exact_cutoff(x)
    t = math.isqrt(max(int(x), 0)) + 2
    while t >= 3 and not norm_below(t, x):
        t -= 1
    return t if t >= 3 else 2


def tally_cutoff(x):
    """max_trace(x) for a tally, with the cutoff checked before any work:
    below MIN_CUTOFF it raises ValueError, above MAX_CUTOFF CapExceeded."""
    xf = exact_cutoff(x)
    if xf < MIN_CUTOFF:
        raise ValueError(f"cutoff must be >= {MIN_CUTOFF}")
    if xf > MAX_CUTOFF:
        raise CapExceeded(f"cutoff {x} exceeds cap {MAX_CUTOFF}")
    return max_trace(xf)


def power_traces(t0, t_max):
    """Traces of powers: t_1 = t0, t_k = t0 t_{k-1} - t_{k-2}, while <= t_max."""
    out = []
    prev, cur = 2, t0
    k = 1
    while cur <= t_max:
        out.append((k, cur))
        prev, cur = cur, t0 * cur - prev
        k += 1
    return out


_WORKER_SPF = None


def _init_trace_worker(limit):
    global _WORKER_SPF
    _WORKER_SPF = _spf_sieve(limit)


def _trace_worker(args):
    lo, hi = args
    out = []
    for t in range(lo, hi):
        recs = classes_at_trace(t, _WORKER_SPF)
        out.append((t, [r.canonical_form for r in recs]))
    return out


def classes_below(x, t_max, classes=None, jobs=1):
    """The primitive classes of trace <= t_max = max_trace(x): enumerated at
    x when `classes` is None, else taken from that list, which is refused
    with ValueError when its largest trace is below t_max.  The check is
    exact: every trace t >= 3 has a primitive class, the one of the
    content-1 form (1, t, 1), while a k-th power has content divisible by
    U_{k-1}(t0) >= 3."""
    if classes is None:
        return enumerate_primitive_classes(x, jobs=jobs)
    top = max((c[0] for c in classes), default=2)
    if top < t_max:
        raise ValueError(f"cutoff {x} needs traces up to {t_max}, but the class list "
                         f"stops at trace {top}")
    return [c for c in classes if c[0] <= t_max]


def enumerate_primitive_classes(x, jobs=1):
    """All primitive classes with N(gamma) < x as (trace, canonical form,
    representative matrix) triples, sorted by (trace, form).  A cutoff above
    MAX_CUTOFF raises CapExceeded before anything is allocated."""
    if exact_cutoff(x) > MAX_CUTOFF:
        raise CapExceeded(f"cutoff {x} exceeds cap {MAX_CUTOFF}")
    t_max = max_trace(x)
    if t_max < 3:
        return []
    sieve_limit = max((t_max * t_max - 4) // 4, 4)
    per_trace = {}
    if jobs > 1:
        step = max(8, (t_max - 2) // (jobs * 12) + 1)
        ranges = [(lo, min(lo + step, t_max + 1)) for lo in range(3, t_max + 1, step)]
        with Pool(jobs, initializer=_init_trace_worker, initargs=(sieve_limit,)) as pool:
            for chunk in pool.imap_unordered(_trace_worker, ranges):
                for t, fs in chunk:
                    per_trace[t] = fs
    else:
        spf = _spf_sieve(sieve_limit)
        for t in range(3, t_max + 1):
            per_trace[t] = [r.canonical_form for r in classes_at_trace(t, spf)]

    imprimitive = {t: set() for t in per_trace}
    for t0 in range(3, t_max + 1):
        powers = power_traces(t0, t_max)
        if len(powers) < 2:
            continue
        for f in per_trace[t0]:
            m = matrix_from_form(t0, f)
            mk = m
            for k, tk in powers[1:]:
                mk = mk * m
                assert mk.trace == tk
                imprimitive[tk].add(class_of_matrix(mk))
    out = []
    for t in sorted(per_trace):
        for f in per_trace[t]:
            if f not in imprimitive[t]:
                out.append((t, f, matrix_from_form(t, f)))
    return out


def li(x):
    """Logarithmic integral from 2 to x."""
    import mpmath

    return float(mpmath.li(x) - mpmath.li(2))


# ---------------------------------------------------------------------------
# empirical tallies

@dataclass
class EmpiricalTally:
    subgroup: SubgroupSpec
    cutoff: float
    counts: dict  # partition -> count
    total: int
    anomalous: int | None = None
    witnesses: list = field(default_factory=list)


def residue_keys(classes, n):
    """Reductions mod n of the classes' matrices as canonical tuples, one
    shared tuple per distinct residue.  The canonical tuple of an
    IntegerMatrix needs no determinant check: it was made at construction."""
    shared = {}
    return [shared.setdefault(g, g) for g in (canon(m.a, m.b, m.c, m.d, n) for _, _, m in classes)]


def residue_types(keys, table, memo):
    """Fill memo[g] = (splitting type, order in Xi(N)) for every residue g
    among keys that memo lacks; the misses share one blocked cycle-type
    pass.  Returns memo."""
    missing = list(dict.fromkeys(g for g in keys if g not in memo))
    n = table.level
    for g, lam in zip(missing, splitting_types(missing, table)):
        memo[g] = (lam, order_in_xi_tuple(g, n))
    return memo


def empirical_tally(s: SubgroupSpec, x, jobs=1, classes=None, scan_anomalous=False) -> EmpiricalTally:
    """Tally splitting types of all primitive classes with norm < x.

    Splitting types only depend on the reduction mod N, so they are
    memoized per projected element (at most |Xi(N)| distinct keys).
    """
    t_max = tally_cutoff(x)
    table = build_coset_table(s)
    kept = classes_below(x, t_max, classes, jobs)
    keys = residue_keys(kept, s.level)
    memo = residue_types(keys, table, {})
    counts = {}
    anomalous = 0
    witnesses = []
    for (t, f, _), g in zip(kept, keys):
        lam, m_gamma = memo[g]
        counts[lam] = counts.get(lam, 0) + 1
        if m_gamma not in lam:
            anomalous += 1
            if len(witnesses) < 50:
                witnesses.append({"trace": t, "form": list(f), "order": m_gamma,
                                  "type": list(lam)})
    tally = EmpiricalTally(s, float(x), counts, len(kept))
    if scan_anomalous:
        tally.anomalous = anomalous
        tally.witnesses = witnesses
    return tally


def anomalous_type_scan(s: SubgroupSpec, x, jobs=1, classes=None):
    """Count primitive classes whose type has no part equal to the order of
    their reduction (none are expected; witnesses are reported if found)."""
    tally = empirical_tally(s, x, jobs=jobs, classes=classes, scan_anomalous=True)
    return tally.anomalous, tally.witnesses


# ---------------------------------------------------------------------------
# report serialization

def comparison_rows(tally: EmpiricalTally, theory: DensityTable):
    """Rows (partition, count, empirical, theoretical, abs_error), sorted by
    descending partition; includes theory rows that were never hit."""
    lams = sorted(set(tally.counts) | set(theory.entries), reverse=True)
    rows = []
    for lam in lams:
        count = tally.counts.get(lam, 0)
        emp = count / tally.total if tally.total else 0.0
        theo = theory.entries.get(lam, Fraction(0))
        rows.append((lam, count, emp, theo, abs(emp - float(theo))))
    return rows


def tally_tsv(tally: EmpiricalTally, theory: DensityTable):
    lines = ["partition\tcount\tempirical_density\ttheoretical_density\tabs_error"]
    for lam, count, emp, theo, err in comparison_rows(tally, theory):
        lines.append(
            "%s\t%d\t%.10f\t%s\t%.10f"
            % (",".join(map(str, lam)), count, emp, f"{theo.numerator}/{theo.denominator}", err)
        )
    if tally.anomalous is not None:
        lines.append(f"# anomalous_count\t{tally.anomalous}")
        for w in tally.witnesses:
            lines.append(f"# witness\t{json.dumps(w, sort_keys=True)}")
    return "\n".join(lines) + "\n"


def tally_json(tally: EmpiricalTally, theory: DensityTable):
    rows = [{"partition": ",".join(map(str, lam)), "count": count, "empirical_density": emp,
             "theoretical_density": f"{theo.numerator}/{theo.denominator}", "abs_error": err}
            for lam, count, emp, theo, err in comparison_rows(tally, theory)]
    doc = {
        "family": tally.subgroup.family.value,
        "level": tally.subgroup.level,
        "cutoff": tally.cutoff,
        "total": tally.total,
        "rows": rows,
    }
    if tally.anomalous is not None:
        doc["anomalous_count"] = tally.anomalous
        doc["witnesses"] = tally.witnesses
    return json.dumps(doc, indent=2) + "\n"
