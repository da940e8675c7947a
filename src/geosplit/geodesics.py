"""Primitive hyperbolic conjugacy classes of SL2(Z) via indefinite binary
quadratic forms, and empirical splitting-density tallies.

Classes of trace t >= 3 correspond to cycles of reduced forms of
discriminant t^2 - 4 (all integral forms, not only primitive ones: the
form content is a conjugation invariant, and e.g. the three trace-6
classes include the content-2 form (2,4,-2)).  Classes are +-classes with
the trace taken positive, which matches working projectively everywhere
else: a positive-trace matrix can only be a power of another
positive-trace matrix, so primitivity marking never needs negative traces.

The enumeration is one stream of trace chunks in trace order, each of at
most _CHUNK_PAIRS pairs (t, b) or one trace.  The reduced forms with a > 0
are the progressions w = u^-1 mod a, w > a, over the coprime pairs u <= a
of the Stern-Brocot tree, with u = (t - b)/2 and w = (t + b)/2
(`_chunk_forms`), bucketed by chunk as int16 columns (t, a, b) as they
are made.  A chunk's kernel (`_cycle_leaders`, in a process pool when
`jobs` > 1 and there are at least _POOL_MIN_CHUNKS chunks) walks only the
forms with a < 0, by the two-step map, and keeps the least form of each
cycle, which has a < 0; the chunk then drops the proper powers, content
multiples of earlier leaders (`primitive_class_chunks`).  The per-trace
reduction walk, with `class_of_matrix` on the powers, is the tests' reference.

A chunk's classes are int64 columns (trace, a, b, c), `PrimitiveClasses`;
no object is built per class unless they are iterated.  The zeta checks
share the joined stream (`enumerate_primitive_classes`); a tally keeps only
running counts across chunks and types one class per new cover key.

Cover keys.  Write N = 2^e m, m odd, and take a class of trace t, least
form (a, b, c), matrix M (`matrix_from_form`) and content g = gcd(a, b, c).
With h = gcd(g, m) its key is (t mod m h, h) and M mod 2^e, unsigned;
types and orders are constant on a key.  Mod p^r || m, M = (t/2) I + g A
with A = [[-b, -2c], [2a, b]]/(2g) of trace 0, det A = (4 - t^2)/(4 g^2),
not scalar mod p (p is odd and a/g, b/g, c/g share no p).  For
k = min(v_p(g), r), g A = p^k A': at k = r, M is the scalar t/2, and below
r the GL2(Z/p^r)-similarity class of M is fixed by t/2, k and
det A' = (4 - t^2)/(4 p^(2k)) mod p^(r-k) (`census.closed_class_catalog`),
all read off t mod p^(r+k); m h is the product of these moduli.  At p = 2,
t/2 is no residue, so M mod 2^e itself stays in the key, unsigned: -I is
-1 at 2^e and at m at once, so a 2-part up to sign would join M with
(-M mod 2^e, M mod m).  The key so fixes M mod N up to GL2(Z/N)-
similarity, and diag(u, 1) normalises all three families.

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
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import Pool

import numpy as np

from .core import (CapExceeded, ConsistencyError, IntegerMatrix, SubgroupSpec, cycle_labels,
                   partition_str, xi_orders)
from .census import DensityTable
from .cosets import build_coset_table, splitting_types


MIN_CUTOFF = 7  # the shortest geodesic (t = 3) has norm ((3+sqrt5)/2)^2 ~ 6.854
# largest cutoff enumerated (traces up to 3162): the 2.1e6 forms with a > 0 take
# 13 MB as int16 columns, and the enumeration peaks at 74 MB RSS in a fresh process
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


def _progressions(start, step, count):
    """The rows start + k * step, k = 1..count, of each column of the (m, n)
    arrays start and step, one column's progression after the other, as an
    (m, count.sum()) array of start's dtype."""
    k = np.arange(1, count.sum() + 1) - np.repeat(np.cumsum(count) - count, count)
    return np.repeat(start, count, axis=1) + k.astype(start.dtype) * np.repeat(step, count, axis=1)


def _run(start, step, t_max):
    """`_progressions` of the rows start + k * step while the first three
    entries of a row sum to at most t_max."""
    count = (t_max - start[:3].sum(axis=0)) // step[:3].sum(axis=0)
    return _progressions(start, step, count.clip(0))


def _coprime_pairs(t_max, dtype):
    """Every fraction u/a in (0, 1] in lowest terms with u + a + q <= t_max,
    where q in 1..a is the inverse of u mod a (q = 1 at a = 1), as a
    (3, m) array of rows (u, a, q) of dtype.

    The fractions are 1/1 and the Stern-Brocot tree below 0/1 and 1/1.  A
    node u/a is the mediant of Farey neighbours p/q < p'/q', so
    u q - p a = p' q - p q' = 1 and its inverse is q, with no gcd or
    division.  A left child has the sum u + a + q of its parent plus
    p + q, a right child plus p' + 2q', so a subtree is cut at its first
    node above t_max.  The tree is walked one run of same-side children at
    a time, an arithmetic progression of rows (u, a, q, u0, a0) with u0/a0
    the previous node of the run: below (p/q, p'/q') the left run is
    (p' + kp)/(q' + kq) with inverse q, the right run (p + kp')/(q + kq')
    with inverse q + (k - 1)q'.  The k-th node of a left run starts a right
    run below it and the (k - 1)-th node, and the other way round.
    """
    found = [np.ones((3, 1), dtype=dtype)]  # 1/1, the mediant of 0/1 and 1/0
    left = np.array([[0], [1], [1], [1]], dtype=dtype)  # neighbours (p, q, p', q') per run
    right = left[:, :0]
    while left.size or right.size:
        p, q, p2, q2 = left
        lrun = _run(np.stack((p2, q2, q, p2 - p, q2 - q)),
                    np.stack((p, q, np.zeros_like(q), p, q)), t_max)
        p, q, p2, q2 = right
        rrun = _run(np.stack((p, q, q - q2, p - p2, q - q2)), np.stack((p2, q2, q2, p2, q2)),
                    t_max)
        found += [lrun[:3], rrun[:3]]
        left, right = rrun[[3, 4, 0, 1]], lrun[[0, 1, 3, 4]]
    return np.concatenate(found, axis=1)


def _chunk_forms(t_max, chunks):
    """The reduced forms (t, a, b) with a > 0 of every trace 3..t_max, as
    (3, m) int16 arrays, one per trace range (lo, hi) of `chunks` (which
    cover 3..t_max in order).  OverflowError if t_max does not fit int16;
    the chunk kernel's int32 holds t^2 for every trace that does.

    With u = (t - b)/2 and w = (t + b)/2, isqrt(t^2 - 4) = t - 1 makes
    (a, b, c) reduced exactly when 0 < b < t and u <= |a| < w, and
    |ac| = (t^2 - 4 - b^2)/4 = uw - 1.  So the forms with a > 0 are, for
    every coprime pair u <= a of `_coprime_pairs` with inverse q, the
    progression w = q + ka, k >= 1, while u + w <= t_max (at a = 1 every
    w >= 2).  They are expanded about _BATCH_ROWS forms at a time, and each
    batch is bucketed by chunk; a chunk's buckets are joined when it is due.
    """
    if t_max > np.iinfo(np.int16).max:
        raise OverflowError(f"traces up to {t_max} exceed the int16 form columns")
    u, a, q = _coprime_pairs(t_max, np.int16)
    count = (t_max - u - q) // a
    cuts = np.cumsum(count).searchsorted(np.arange(_BATCH_ROWS, count.sum(), _BATCH_ROWS))
    cuts = [0, *cuts.tolist(), len(u)]
    chunk_of = np.repeat(np.arange(len(chunks), dtype=np.int16), [hi - lo for lo, hi in chunks])
    buckets = deque([] for _ in chunks)
    for i, j in zip(cuts, cuts[1:]):
        start = np.stack((u[i:j] + q[i:j], a[i:j], q[i:j] - u[i:j]))
        step = np.stack((a[i:j], np.zeros_like(a[i:j]), a[i:j]))
        forms = _progressions(start, step, count[i:j])
        which = chunk_of.take(forms[0] - 3)
        forms = forms.take(which.argsort(kind="stable"), axis=1)
        cut = np.bincount(which, minlength=len(chunks)).cumsum()[:-1]
        for bucket, part in zip(buckets, np.split(forms, cut, axis=1)):
            bucket.append(part.copy())
    return (np.concatenate(buckets.popleft(), axis=1) for _ in chunks)


def rho_steps(t, b, c):
    """`rho_step` on arrays of reduced forms (a, b, c) of discriminant
    t^2 - 4: the images (c, r, (r^2 - D) // (4c)), which need not be forms."""
    r = t - 1 - (t - 1 + b) % (2 * np.abs(c))
    return c, r, (r * r - (t * t - 4)) // (4 * c)


def _cycle_leaders(lo, hi, forms):
    """The least reduced form of every reduction cycle of trace lo <= t < hi,
    as int32 arrays (t, a, b, c) in tuple order, from the forms (t, a, b)
    with a > 0 of those traces (`_chunk_forms`).

    A reduced form has ac < 0 and the step sends (a, b, c) to (c, r, c'),
    so a cycle alternates the sign of a: its least form has a < 0, and its
    forms with a < 0 are one cycle of the two-step map.  Only those points
    (-a, b, n/a), n = (t^2 - 4 - b^2)/4, are kept, read back from their
    sorted `_form_keys` (|a|, b < t < hi), and `rho_steps` maps them twice.
    ConsistencyError unless (a) every first image is, by its entries, a
    reduced form with a > 0 (exact, 0 < b < t, t - b <= 2a < t + b) and (b)
    the sorted second images have the points' keys and c: with the forms
    complete, the step then permutes them all.  The sorted image order is
    the inverse of the two-step map, so its `cycle_labels` give the minima.
    """
    t, a, b = forms
    key = np.sort(_form_keys(t, -a, b, lo, hi))
    w = int(hi).bit_length()
    t, a, b = (v.astype(np.int32) for v in ((key >> 2 * w + 1) + lo,
                                            (key >> w & (2 << w) - 1) - hi, key & (1 << w) - 1))
    c = (b * b - (t * t - 4)) // (4 * a)
    pa, pb, pc = rho_steps(t, b, c)
    na, nb, nc = rho_steps(t, pb, pc)
    reduced = ((pb * pb - (t * t - 4) == 4 * pa * pc) & (pb > 0) & (pb < t)
               & (t - pb <= 2 * pa) & (2 * pa < t + pb))
    if not reduced.all():
        i = int(reduced.argmin())
        raise ConsistencyError(f"the reduction step at trace {t[i]} takes "
                               f"{(int(a[i]), int(b[i]), int(c[i]))} out of the reduced forms")
    image = _form_keys(t, na, nb, lo, hi)
    by_image = image.argsort()
    if not (np.array_equal(image.take(by_image), key) and np.array_equal(nc.take(by_image), c)):
        raise ConsistencyError(f"the reduction step on traces {lo}..{hi - 1} is not a permutation")
    leaders = np.flatnonzero(cycle_labels(by_image) == np.arange(len(by_image)))
    return t.take(leaders), a.take(leaders), b.take(leaders), c.take(leaders)


def _form_keys(t, a, b, lo, hi):
    """int64 keys that read (t, a, b) in tuple order, for lo <= t < hi and
    |a|, b < hi < 2^w: the bit fields t - lo, a + hi (w + 1 bits) and b (w)."""
    w = int(hi).bit_length()
    return (((t.astype(np.int64) - lo << w + 1) + hi + a) << w) + b


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


# pairs (t, b) per enumeration chunk, which sizes the pool's tasks, not a row pass;
# ~0.85 forms (t, a, b) with a > 0 per pair, so a chunk holds ~14k, a few MB
_CHUNK_PAIRS = 1 << 14

# forms per batch of `_chunk_forms`, whose int64 temporaries are a few MB.  2^14
# read 755 vs 682 ms and 80 vs 74 MB peak RSS at 1e7, 34.9 vs 34.7 ms at 3e5 (medians
# of 6 and 8 alternating fresh-process enumerate_primitive_classes pairs, 2 vCPUs)
_BATCH_ROWS = 1 << 16

# fewest chunks for which `jobs` > 1 starts a pool, and chunks per pool task.  On 2
# vCPUs (empirical_tally, medians of 9 fresh processes, three runs) two workers took
# 1.42-1.66, 1.29-1.39, 1.24-1.47 and 1.03-1.19 of the time of one process at 16, 31,
# 47 and 158 chunks (x = 1e6, 2e6, 3e6, 1e7): with the two-step kernel no size pays
_POOL_MIN_CHUNKS, _POOL_TASK_CHUNKS = 20, 4


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


def _indexed_leaders(task):
    i, ((lo, hi), forms) = task
    return i, _cycle_leaders(lo, hi, forms)


def _leader_chunks(t_max, jobs):
    """(lo, hi, `_cycle_leaders`) of each trace chunk of 3..t_max in order; with
    `jobs` > 1 and >= _POOL_MIN_CHUNKS chunks from a pool, through a reorder buffer."""
    chunks = _trace_chunks(t_max)
    pooled = jobs > 1 and len(chunks) >= _POOL_MIN_CHUNKS
    with Pool(min(jobs, len(chunks))) if pooled else nullcontext() as pool:  # before the forms
        tasks = enumerate(zip(chunks, _chunk_forms(t_max, chunks)))
        done, k = {}, 0
        results = (pool.imap_unordered(_indexed_leaders, tasks, _POOL_TASK_CHUNKS) if pooled
                   else map(_indexed_leaders, tasks))
        for i, leaders in results:
            done[i] = leaders
            while k in done:
                yield *chunks[k], done.pop(k)
                k += 1


class PrimitiveClasses:
    """Primitive classes as int64 columns (trace, a, b, c), sorted by
    (trace, canonical form): the class of trace t and least reduced form
    (a, b, c) is represented by [[(t-b)/2, -c], [a, (t+b)/2]]
    (`matrix_from_form`).  About 32 bytes per class.  Iterating yields the
    (trace, form, IntegerMatrix) triples."""

    def __init__(self, trace, a, b, c):
        self.trace, self.a, self.b, self.c = trace, a, b, c

    def __len__(self):
        return len(self.trace)

    def __iter__(self):
        for t, a, b, c in zip(*(v.tolist() for v in (self.trace, self.a, self.b, self.c))):
            yield t, (a, b, c), matrix_from_form(t, (a, b, c))

    def __getitem__(self, rows):
        return PrimitiveClasses(*(v[rows] for v in (self.trace, self.a, self.b, self.c)))

    def below(self, t_max):
        """The classes of trace <= t_max: a prefix, as views of the columns."""
        return self[:int(self.trace.searchsorted(t_max, side="right"))]

    @property
    def entries(self):
        """The representative matrices' entries (a, b, c, d), four columns."""
        t, a, b, c = self.trace, self.a, self.b, self.c
        return (t - b) // 2, -c, a, (t + b) // 2


def classes_below(x, t_max, classes=None, jobs=1):
    """The primitive classes of trace <= t_max = max_trace(x): enumerated at
    x when `classes` is None, else cut from those `PrimitiveClasses`, which
    are refused with ValueError when their largest trace is below t_max
    (TypeError for anything else).  The check is exact: every
    trace t >= 3 has a primitive class, the one of the content-1 form
    (1, t, 1), while a k-th power has content divisible by U_{k-1}(t0) >= 3."""
    if classes is None:
        return enumerate_primitive_classes(x, jobs=jobs)
    if not isinstance(classes, PrimitiveClasses):
        raise TypeError(f"classes must be PrimitiveClasses, got {type(classes).__name__}")
    top = int(classes.trace[-1]) if len(classes) else 2
    if top < t_max:
        raise ValueError(f"cutoff {x} needs traces up to {t_max}, but the class list "
                         f"stops at trace {top}")
    return classes.below(t_max)


def primitive_class_chunks(t_max, jobs=1):
    """The primitive classes of trace <= t_max, yielded as `PrimitiveClasses`
    one trace chunk at a time, in (trace, form) order.

    Proper powers are marked by content scaling: M^k = U_{k-1} M - U_{k-2} I
    with U_k = t0 U_{k-1} - U_{k-2} at the trace t0 of M, so the fixed-point
    form of M^k is U_{k-1} times that of M, and scaling keeps forms reduced
    and cycles in order.  Each leader (t0, a, b) with t0^2 - 2 <= t_max
    leaves the marks (t_k, U_{k-1} a, U_{k-1} b) to the chunks of the t_k,
    which drop them by a `searchsorted` on their keys."""
    due = {}  # t_k -> the marks of trace t_k
    for lo, hi, (t, a, b, c) in _leader_chunks(t_max, jobs):
        for t0 in range(lo, min(hi, math.isqrt(t_max + 2) + 1)):
            a0, b0 = a[t == t0], b[t == t0]
            t_prev, tk, u_prev, u = t0, t0 * t0 - 2, 1, t0  # t_1, t_2, U_0, U_1
            while tk <= t_max:
                due.setdefault(tk, []).append(np.stack((np.full(len(a0), tk), u * a0, u * b0)))
                t_prev, tk, u_prev, u = tk, t0 * tk - t_prev, u, t0 * u - u_prev
        marks = [m for tk in range(lo, hi) for m in due.pop(tk, [])] or [np.zeros((3, 0), int)]
        keys = _form_keys(t, a, b, lo, hi)
        marked = _form_keys(*np.concatenate(marks, axis=1), lo, hi)
        pos = keys.searchsorted(marked).clip(0, len(keys) - 1)
        if not np.array_equal(keys.take(pos), marked):
            raise ConsistencyError("a power reduces to a form outside the enumerated classes")
        yield PrimitiveClasses(*(np.delete(v, pos).astype(np.int64) for v in (t, a, b, c)))


def enumerate_primitive_classes(x, jobs=1) -> PrimitiveClasses:
    """All primitive classes with N(gamma) < x, sorted by (trace, form): the
    `primitive_class_chunks` joined.  A cutoff above MAX_CUTOFF raises
    CapExceeded before anything is allocated."""
    if exact_cutoff(x) > MAX_CUTOFF:
        raise CapExceeded(f"cutoff {x} exceeds cap {MAX_CUTOFF}")
    parts = [(p.trace, p.a, p.b, p.c) for p in primitive_class_chunks(max_trace(x), jobs)]
    return PrimitiveClasses(*map(np.concatenate, zip(*parts)))


def li(x):
    """Logarithmic integral from 2 to x > 1: Ramanujan's series in floats,
    gamma + ln ln x + sqrt(x) sum_{n >= 1} (-1)^(n-1) (ln x)^n / (n! 2^(n-1))
    sum_{k <= (n-1)/2} 1/(2k+1), minus li(2) = 1.0451637801174927848."""
    log_x = math.log(x)
    term, inner, total, n = -2.0, 0.0, 0.0, 0
    while n <= log_x or abs(term * inner) > 1e-17 * abs(total):
        n += 1
        term *= -log_x / (2 * n)
        inner += n % 2 / n
        total += term * inner
    return 0.5772156649015329 + math.log(log_x) + math.sqrt(x) * total - 1.0451637801174928


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


def cover_keys(classes, n):
    """`np.unique` of the classes' cover keys at level n (module docstring):
    the codes (t mod m h) m + h - 1 < m^3, then the entries of M mod 2^e as
    digits (< n^4), the first class of each key and each class's key index."""
    q = n & -n  # 2^e
    m = n // q
    h = np.gcd(np.arange(m), m).take(classes.a % m)  # gcd(a, m), then b and c where > 1
    big = np.flatnonzero(h > 1)
    h[big] = np.gcd(np.gcd(h.take(big), classes.b.take(big)), classes.c.take(big))
    key = classes.trace % (m * h) * m + h - 1
    for entry in classes.entries if q > 1 else ():
        key = key * q + entry % q
    return np.unique(key, return_index=True, return_inverse=True)


def key_types(classes, rows, table):
    """(splitting type, order in Xi(N)) of the classes at `rows`."""
    entries = np.stack(classes[rows].entries, axis=1)
    return list(zip(splitting_types(entries, table), xi_orders(entries, table.level).tolist()))


def empirical_tally(s: SubgroupSpec, x, jobs=1, classes=None, scan_anomalous=False) -> EmpiricalTally:
    """Tally splitting types of all primitive classes with norm < x.

    The classes are the `primitive_class_chunks` stream, or the prefix of
    the given `classes` as one chunk; only running counts cross chunks.
    Types and orders are constant on cover keys, so a chunk is counted per
    key and one class of each new key is typed (`key_types`); `counts`
    lists the types in the order of their first class.
    """
    t_max = tally_cutoff(x)
    table = build_coset_table(s)
    chunks = (primitive_class_chunks(t_max, jobs) if classes is None
              else [classes_below(x, t_max, classes)])
    tally = EmpiricalTally(s, float(x), {}, 0, 0 if scan_anomalous else None)
    known = {}  # key code -> (type, order)
    for part in chunks:
        keys, first, inverse = cover_keys(part, s.level)
        new = [i for i, k in enumerate(keys.tolist()) if k not in known]
        known.update(zip(keys.take(new).tolist(), key_types(part, first.take(new), table)))
        types = [known[k] for k in keys.tolist()]
        per_key = np.bincount(inverse)
        for r in first.argsort().tolist():
            tally.counts[types[r][0]] = tally.counts.get(types[r][0], 0) + int(per_key[r])
        tally.total += len(part)
        if scan_anomalous:
            bad = np.array([order not in lam for lam, order in types], dtype=bool)
            tally.anomalous += int(per_key[bad].sum())
            for i in np.flatnonzero(bad.take(inverse))[:50 - len(tally.witnesses)].tolist():
                lam, order = types[inverse[i]]
                tally.witnesses.append({"trace": int(part.trace[i]),
                                        "form": [int(part.a[i]), int(part.b[i]), int(part.c[i])],
                                        "order": order, "type": list(lam)})
    return tally


def anomalous_type_scan(s: SubgroupSpec, x, jobs=1, classes=None):
    """Count primitive classes whose type has no part equal to the order of
    their reduction, and list the first 50 (Gamma0(8) has 1609 below 1e5)."""
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
            % (partition_str(lam), count, emp, f"{theo.numerator}/{theo.denominator}", err)
        )
    if tally.anomalous is not None:
        lines.append(f"# anomalous_count\t{tally.anomalous}")
        for w in tally.witnesses:
            lines.append(f"# witness\t{json.dumps(w, sort_keys=True)}")
    return "\n".join(lines) + "\n"


def tally_json(tally: EmpiricalTally, theory: DensityTable):
    rows = [{"partition": partition_str(lam), "count": count, "empirical_density": emp,
             "theoretical_density": f"{theo.numerator}/{theo.denominator}", "abs_error": err}
            for lam, count, emp, theo, err in comparison_rows(tally, theory)]
    doc = {"family": tally.subgroup.family.value, "level": tally.subgroup.level,
           "cutoff": tally.cutoff, "total": tally.total, "rows": rows}
    if tally.anomalous is not None:
        doc["anomalous_count"] = tally.anomalous
        doc["witnesses"] = tally.witnesses
    return json.dumps(doc, indent=2) + "\n"
