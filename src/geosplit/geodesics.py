"""Primitive hyperbolic conjugacy classes of SL2(Z) via indefinite binary
quadratic forms, and empirical splitting-density tallies.

Classes of trace t >= 3 correspond to cycles of reduced forms of
discriminant t^2 - 4 (all integral forms, not only primitive ones: the
form content is a conjugation invariant, and e.g. the three trace-6
classes include the content-2 form (2,4,-2)).  Classes are +-classes with
the trace taken positive, which matches working projectively everywhere
else: a positive-trace matrix can only be a power of another
positive-trace matrix, so primitivity marking never needs negative traces.

The enumeration runs on numpy arrays, one chunk of traces at a time (at
most _CHUNK_PAIRS pairs (t, b) per chunk, or one trace).  A chunk lists its
reduced forms from the divisors of (t^2 - 4 - b^2)/4, read off an int32
smallest-prime-factor sieve; sorts them by an int64 key in tuple order;
maps every form to its reduction-cycle neighbour at once (`rho_steps`,
found by `searchsorted`); and takes the least form of every cycle by
pointer doubling (`core.cycle_labels`).  The chunks go to a process pool
only when `jobs` > 1 and there are at least _POOL_MIN_CHUNKS of them; each
worker builds its own sieve.  The chunks' leaders are concatenated in trace
order and pass one primitivity marking by content scaling: the k-th power
of the class with least form f at trace t0 has least form U_{k-1}(t0) f.
The per-trace reduction walk, with `class_of_matrix` on the powers, is the
tests' reference.

The classes stay int64 columns (trace, a, b, c) from the chunk kernel to
the last sum (`PrimitiveClasses`, about 32 bytes per class): a tally
reduces the representatives' entry columns mod N in numpy, finds the
splitting type once per distinct residue and counts with `bincount`.  No
object is built per class unless the columns are iterated.

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

import numpy as np

from .core import (CapExceeded, ConsistencyError, IntegerMatrix, SubgroupSpec, cycle_labels,
                   decode_keys, sign_keys, xi_orders)
from .census import DensityTable
from .cosets import build_coset_table, splitting_types


MIN_CUTOFF = 7  # the shortest geodesic (t = 3) has norm ((3+sqrt5)/2)^2 ~ 6.854
# largest cutoff enumerated; the int32 smallest-prime-factor sieve holds about
# x/4 entries in the process and in every pool worker
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
    """Smallest-prime-factor table up to limit (inclusive), int32."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            multiples = spf[p * p::p]
            multiples[multiples == 0] = p
    unset = np.flatnonzero(spf == 0)
    spf[unset] = unset  # 0, 1 and the primes
    return spf


def _reduced_forms(lo, hi, spf):
    """Every reduced form of discriminant t^2 - 4, lo <= t < hi, as int32
    arrays (t, a, b, c).

    isqrt(t^2 - 4) = t - 1 for t >= 3, so (a, b, c) is reduced exactly when
    0 < b < t and t - b <= 2|a| <= t - 1 + b.  For each pair (t, b) with
    b = t mod 2, the divisors a of n = (t^2 - 4 - b^2)/4 = |ac| are expanded
    one prime of the smallest-prime-factor table at a time.  A partial
    divisor d is dropped once it is above the window (it only grows) or once
    d times the unfactored rest is below it.  Each divisor in the window
    gives (a, b, -n/a) and (-a, b, n/a).  Every value stays below t^2 <
    2^31 under the cap.
    """
    trace = np.arange(lo, hi, dtype=np.int32)
    counts = (trace - 1) // 2  # b = 2 - t % 2, ..., t - 1 in steps of 2
    row = np.repeat(np.arange(len(trace), dtype=np.int32), counts)
    t = trace.take(row)
    b = 2 - t % 2 + 2 * (np.arange(len(row), dtype=np.int32)
                         - np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts))
    n = (t * t - 4 - b * b) // 4
    top, bottom = (t - 1 + b) // 2, t - b
    pair, rest, d = np.arange(len(n), dtype=np.int32), n.copy(), np.ones_like(n)
    found = []
    while len(pair):
        finished = rest == 1
        found.append((pair[finished], d[finished]))
        keep = ~finished & (2 * d * rest >= bottom.take(pair))
        pair, rest, d = pair[keep], rest[keep], d[keep]
        p = spf.take(rest)
        e = np.zeros_like(rest)  # the exponent of p in rest
        live = np.arange(len(rest), dtype=np.int32)
        while len(live):
            q, r = np.divmod(rest.take(live), p.take(live))
            live, q = live[r == 0], q[r == 0]
            rest[live] = q
            e[live] += 1
        e += 1  # rows per partial divisor: p^0, ..., p^e
        k = np.arange(int(e.sum()), dtype=np.int32) - np.repeat(np.cumsum(e, dtype=np.int32) - e, e)
        pair, rest = np.repeat(pair, e), np.repeat(rest, e)
        d = np.repeat(d, e) * np.repeat(p, e) ** k
        keep = d <= top.take(pair)
        pair, rest, d = pair[keep], rest[keep], d[keep]
    pair = np.concatenate([q for q, _ in found])
    a = np.concatenate([a for _, a in found])
    keep = 2 * a >= bottom.take(pair)
    pair, a = pair[keep], a[keep]
    t, b, c = t.take(pair), b.take(pair), n.take(pair) // a
    return (np.concatenate((t, t)), np.concatenate((a, -a)), np.concatenate((b, b)),
            np.concatenate((-c, c)))


def rho_steps(t, b, c):
    """`rho_step` on arrays of reduced forms (a, b, c) of discriminant
    t^2 - 4: the images (c, r, c') and whether each c' = (r^2 - D)/(4c)
    is exact."""
    r = t - 1 - (t - 1 + b) % (2 * np.abs(c))
    num = r * r - (t * t - 4)
    return c, r, num // (4 * c), num % (4 * c) == 0


def _cycle_leaders(lo, hi, spf):
    """The least reduced form of every reduction cycle of trace lo <= t < hi,
    as int32 arrays (t, a, b, c) in tuple order.

    The forms are sorted by their `_form_keys` (c is fixed by (t, a, b), and
    |a|, b < t < hi).  `rho_steps` maps every row at once, and each image is
    found by `searchsorted`.  The cycle minima are the `cycle_labels` of the
    step, the pointer doubling that also bins the cycles of coset
    permutations.  ConsistencyError if an image is not exact or not among
    the forms, or if the step is not a permutation.
    """
    t, a, b, c = _reduced_forms(lo, hi, spf)
    key = _form_keys(t, a, b, lo, hi)
    order = key.argsort()
    key, t, a, b, c = (v.take(order) for v in (key, t, a, b, c))
    na, nb, nc, exact = rho_steps(t, b, c)
    step = key.searchsorted(_form_keys(t, na, nb, lo, hi)).clip(0, len(key) - 1)
    bad = ~exact | (t.take(step) != t) | (a.take(step) != na) | (b.take(step) != nb)
    bad |= c.take(step) != nc
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ConsistencyError(f"the reduction step at trace {t[i]} takes "
                               f"{(int(a[i]), int(b[i]), int(c[i]))} out of the reduced forms")
    if not (np.bincount(step, minlength=len(step)) == 1).all():
        raise ConsistencyError(f"the reduction step on traces {lo}..{hi - 1} is not a permutation")
    leaders = cycle_labels(step) == np.arange(len(step))
    return t[leaders], a[leaders], b[leaders], c[leaders]


def _form_keys(t, a, b, lo, hi):
    """int64 keys that read (t, a, b) in tuple order, for lo <= t < hi and
    |a|, b < hi: the digits t - lo, a + hi and b in bases 2*hi and hi."""
    return ((t.astype(np.int64) - lo) * (2 * hi) + hi + a) * hi + b


def matrix_from_form(t, form):
    """Determinant-one lift [[(t-b)/2, -c], [a, (t+b)/2]] of a form of
    discriminant t^2 - 4 (t and b always share parity)."""
    a, b, c = form
    return IntegerMatrix((t - b) // 2, -c, a, (t + b) // 2)


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


# pairs (t, b) per enumeration chunk; a pass of the divisor expansion holds at
# most about 6 rows per pair up to the cap, so this bounds the arrays a chunk
# allocates to a few MB
_CHUNK_PAIRS = 1 << 14

# fewest chunks for which `jobs` > 1 starts a pool: on 2 vCPUs one process was
# faster at 16 chunks (x = 1e6) and two workers at 20 chunks (x = 1.25e6) and
# above; below that, pool start-up and a sieve per worker outweigh the split
_POOL_MIN_CHUNKS = 20

_POOL_SIEVE = None  # a pool worker's sieve, built by the pool's initializer


def _load_sieve(limit):
    global _POOL_SIEVE
    _POOL_SIEVE = _spf_sieve(limit)


def _pool_chunk(bounds):
    return _cycle_leaders(*bounds, _POOL_SIEVE)


def _trace_chunks(t_max):
    """Trace ranges (lo, hi) covering 3..t_max in order, each with at most
    _CHUNK_PAIRS pairs (t, b), or one trace; trace t has (t - 1) // 2."""
    chunks, lo, pairs = [], 3, 0
    for t in range(3, t_max + 1):
        if pairs + (t - 1) // 2 > _CHUNK_PAIRS and t > lo:
            chunks.append((lo, t))
            lo, pairs = t, 0
        pairs += (t - 1) // 2
    return chunks + [(lo, t_max + 1)]


class PrimitiveClasses:
    """Primitive classes as int64 columns (trace, a, b, c), sorted by
    (trace, canonical form): the class of trace t and least reduced form
    (a, b, c) is represented by [[(t-b)/2, -c], [a, (t+b)/2]]
    (`matrix_from_form`).  About 32 bytes per class.  Iterating yields the
    (trace, form, IntegerMatrix) triples."""

    def __init__(self, trace, a, b, c):
        self.trace, self.a, self.b, self.c = trace, a, b, c

    @classmethod
    def from_triples(cls, triples):
        """The columns of (trace, form, matrix) triples, in sorted order."""
        rows = sorted((t, *form) for t, form, _ in triples)
        return cls(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)

    def __len__(self):
        return len(self.trace)

    def __iter__(self):
        for t, a, b, c in zip(*(v.tolist() for v in (self.trace, self.a, self.b, self.c))):
            yield t, (a, b, c), matrix_from_form(t, (a, b, c))

    def below(self, t_max):
        """The classes of trace <= t_max: a prefix, as views of the columns."""
        k = int(self.trace.searchsorted(t_max, side="right"))
        return PrimitiveClasses(self.trace[:k], self.a[:k], self.b[:k], self.c[:k])

    @property
    def entries(self):
        """The representative matrices' entries (a, b, c, d), four columns."""
        t, a, b, c = self.trace, self.a, self.b, self.c
        return (t - b) // 2, -c, a, (t + b) // 2


def classes_below(x, t_max, classes=None, jobs=1):
    """The primitive classes of trace <= t_max = max_trace(x): enumerated at
    x when `classes` is None, else cut from those classes (PrimitiveClasses,
    or (trace, form, matrix) triples), which are refused with ValueError
    when their largest trace is below t_max.  The check is exact: every
    trace t >= 3 has a primitive class, the one of the content-1 form
    (1, t, 1), while a k-th power has content divisible by U_{k-1}(t0) >= 3."""
    if classes is None:
        return enumerate_primitive_classes(x, jobs=jobs)
    if not isinstance(classes, PrimitiveClasses):
        classes = PrimitiveClasses.from_triples(classes)
    top = int(classes.trace[-1]) if len(classes) else 2
    if top < t_max:
        raise ValueError(f"cutoff {x} needs traces up to {t_max}, but the class list "
                         f"stops at trace {top}")
    return classes.below(t_max)


def enumerate_primitive_classes(x, jobs=1) -> PrimitiveClasses:
    """All primitive classes with N(gamma) < x, sorted by (trace, form).  A
    cutoff above MAX_CUTOFF raises CapExceeded before anything is allocated.

    The chunks' cycle leaders are concatenated in trace order.  Proper
    powers are marked by content scaling: M^k = U_{k-1}(t0) M - U_{k-2}(t0) I
    with U_k = t0 U_{k-1} - U_{k-2}, so the fixed-point form of M^k is
    U_{k-1}(t0) times that of M, and scaling keeps forms reduced and cycles
    in order.  Every trace t0 with t0^2 - 2 <= t_max marks the columns
    (t_k, U_{k-1} a, U_{k-1} b) of its leaders, removed by a `searchsorted`
    mask on their `_form_keys`."""
    if exact_cutoff(x) > MAX_CUTOFF:
        raise CapExceeded(f"cutoff {x} exceeds cap {MAX_CUTOFF}")
    t_max = max_trace(x)
    if t_max < 3:
        return PrimitiveClasses(*np.zeros((4, 0), dtype=np.int64))
    sieve_limit = max((t_max * t_max - 4) // 4, 4)
    chunks = _trace_chunks(t_max)
    if jobs > 1 and len(chunks) >= _POOL_MIN_CHUNKS:
        with Pool(min(jobs, len(chunks)), initializer=_load_sieve,
                  initargs=(sieve_limit,)) as pool:
            leaders = list(pool.imap(_pool_chunk, chunks))
    else:
        spf = _spf_sieve(sieve_limit)
        leaders = [_cycle_leaders(*bounds, spf) for bounds in chunks]
    classes = PrimitiveClasses(*(np.concatenate(v).astype(np.int64) for v in zip(*leaders)))

    base, marks = classes.below(math.isqrt(t_max + 2)), [np.zeros((3, 0), dtype=np.int64)]
    for t0 in range(3, math.isqrt(t_max + 2) + 1):  # t0^2 - 2 <= t_max
        a, b = base.a[base.trace == t0], base.b[base.trace == t0]
        u_prev, u = 0, 1  # U_{k-2}(t0), U_{k-1}(t0) at k = 1
        for _, tk in power_traces(t0, t_max)[1:]:
            u_prev, u = u, t0 * u - u_prev
            marks.append(np.stack((np.full(len(a), tk), u * a, u * b)))
    keys = _form_keys(classes.trace, classes.a, classes.b, 0, t_max + 1)
    marked = _form_keys(*np.concatenate(marks, axis=1), 0, t_max + 1)
    pos = keys.searchsorted(marked).clip(0, len(keys) - 1)
    if not np.array_equal(keys.take(pos), marked):
        raise ConsistencyError("a power reduces to a form outside the enumerated classes")
    keep = np.ones(len(keys), dtype=bool)
    keep[pos] = False
    return PrimitiveClasses(*(v[keep] for v in (classes.trace, classes.a, classes.b, classes.c)))


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


def residues_mod(classes, n):
    """The reductions mod n of the classes' matrices: the distinct
    +-canonical residues as a k x 4 array in tuple order, and the index of
    each class's residue in it.  The matrices have determinant one, so the
    residues need no check."""
    keys = sign_keys([v % n for v in classes.entries], n)
    keys, inverse = np.unique(keys, return_inverse=True)
    return decode_keys(keys, n), inverse


def residue_types(residues, table):
    """(splitting type, order in Xi(N)) of every row of an array of
    residues; the types come from one blocked cycle-type pass, the orders
    from one `xi_orders` pass."""
    return list(zip(splitting_types(residues, table), xi_orders(residues, table.level).tolist()))


def empirical_tally(s: SubgroupSpec, x, jobs=1, classes=None, scan_anomalous=False) -> EmpiricalTally:
    """Tally splitting types of all primitive classes with norm < x.

    Splitting types only depend on the reduction mod N, so they are found
    once per distinct residue (at most |Xi(N)| of them) and counted with
    `bincount`; `counts` lists the types in the order of their first class.
    """
    t_max = tally_cutoff(x)
    table = build_coset_table(s)
    kept = classes_below(x, t_max, classes, jobs)
    residues, inverse = residues_mod(kept, s.level)
    types = residue_types(residues, table)
    per_residue = np.bincount(inverse, minlength=len(types)).tolist()
    counts = {}
    for r in np.argsort(np.unique(inverse, return_index=True)[1]).tolist():
        lam = types[r][0]
        counts[lam] = counts.get(lam, 0) + per_residue[r]
    tally = EmpiricalTally(s, float(x), counts, len(kept))
    if scan_anomalous:
        bad = np.array([order not in lam for lam, order in types], dtype=bool).take(inverse)
        tally.anomalous = int(bad.sum())
        for i in np.flatnonzero(bad)[:50].tolist():
            lam, order = types[inverse[i]]
            tally.witnesses.append({"trace": int(kept.trace[i]),
                                    "form": [int(kept.a[i]), int(kept.b[i]), int(kept.c[i])],
                                    "order": order, "type": list(lam)})
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
