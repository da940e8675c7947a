"""Exact arithmetic foundation: 2x2 integer matrices, the projective
residue group Xi(N) = SL2(Z/N)/{+-I}, element orders, partitions, small
number-theoretic helpers, the chain heads the Gamma(N) table, the census
and the grid positions read Xi(N) from (`chain_heads`), and the one kernel
for the cycles of a permutation (`cycle_labels`).

Group elements are stored as canonical 4-tuples (a, b, c, d) of residues:
the lexicographically smaller of the tuple and its negation mod N; `canon`
reduces any integer matrix to that form.  Integer matrices from outside
arrive as `IntegerMatrix`, which checks det = 1.  Whole blocks of elements
are numpy arrays: the int64 +-canonical keys ((a*N + b)*N + c)*N + d of
`sign_keys`, whose order is the tuple order, or rows of entries, such as
the chain grid of Xi(N) (`xi_chain_grid`) and the blocks whose orders
`xi_orders` takes in one pass.

Row passes, here and in the census and coset modules, go in `blocks` of
BLOCK items, the package's one block size; DEFAULT_GROUP_CAP is its cap.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, total_ordering

import numpy as np

DEFAULT_GROUP_CAP = 10**7

# items per block of every row pass (`blocks`).  Medians of 12 interleaved
# runs in one process (2-core host) at 2^12, ..., 2^16: the dual sweep of
# the dual_sweep grid read 53.8, 46.2, 44.0, 43.8 and 44.7 ms, the census
# of levels 60, 96 and 150 read 142, 133, 128, 131 and 129 ms; a larger
# block only holds more temporaries
BLOCK = 1 << 14


class CapExceeded(Exception):
    """A group or coset enumeration exceeded the configured size cap."""


class ConsistencyError(Exception):
    """Two routes that must agree disagreed; indicates an implementation bug."""


class Family(str, Enum):
    GAMMA0 = "gamma0"
    GAMMA1 = "gamma1"
    GAMMA = "gamma"


@dataclass(frozen=True)
class SubgroupSpec:
    family: Family
    level: int

    def __post_init__(self):
        if self.level < 2:
            raise ValueError("level must be >= 2")

    def __str__(self):
        return f"{self.family.value}({self.level})"


# ---------------------------------------------------------------------------
# projective residue matrices as canonical tuples

def canon(a, b, c, d, n):
    """Canonical representative of {M, -M} mod n: the lex-smaller tuple."""
    a %= n; b %= n; c %= n; d %= n
    na = (n - a) % n; nb = (n - b) % n; nc = (n - c) % n; nd = (n - d) % n
    if (na, nb, nc, nd) < (a, b, c, d):
        return (na, nb, nc, nd)
    return (a, b, c, d)


def mul(x, y, n):
    """Product in Xi(n) of canonical tuples x, y."""
    a, b, c, d = x
    e, f, g, h = y
    return canon(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, n)


def identity(n):
    return canon(1, 0, 0, 1, n)


# ---------------------------------------------------------------------------
# integer matrices (hyperbolic representatives); Python ints are unbounded,
# so powers of norm ~1e6 matrices need no overflow handling

@dataclass(frozen=True)
class IntegerMatrix:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    @property
    def trace(self):
        return self.a + self.d

    def __mul__(self, other):
        return IntegerMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


# ---------------------------------------------------------------------------
# element order

def order_in_xi_tuple(g, n):
    """Least m >= 1 with g^m = I in Xi(n), one multiplication at a time:
    the reference for `xi_orders`, which every route calls instead."""
    e = identity(n)
    x = g
    m = 1
    while x != e:
        x = mul(x, g, n)
        m += 1
    return m


def xi_orders(elements, n):
    """Order in Xi(n) of every row of `elements` (k x 4 integer entries,
    any sign), as an int64 array: one numpy pass over the block.

    For each prime power q^e exactly dividing |Xi(n)|, x = g^(|Xi(n)|/q^e)
    has order q^j with j <= e, and q^j is the q-part of the order of g; j
    counts the q-th powers x takes to reach +-I.  The powers of all the
    primes come from one `matrix_powers` call per block (`blocks`).  A row
    whose determinant is not 1 mod n is refused with ValueError.
    """
    g = np.asarray(elements, dtype=np.int64).reshape(-1, 2, 2) % n
    if len(pieces := blocks(len(g))) > 1:
        return np.concatenate([xi_orders(g[piece], n) for piece in pieces])
    if not ((g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]) % n == 1 % n).all():
        raise ValueError(f"element not in Xi({n}) among {len(g)} rows")
    group_order = xi_order(n)
    primes = factorize(group_order)
    m = np.ones(len(g), dtype=np.int64)
    exponents = [group_order // q**e for q, e in primes]
    for (q, e), x in zip(primes, matrix_powers(g.astype(_residue_dtype(n)), exponents, n)):
        for _ in range(e):
            live = ~((x[:, 0, 1] == 0) & (x[:, 1, 0] == 0) & (x[:, 0, 0] == x[:, 1, 1])
                     & ((x[:, 0, 0] == 1 % n) | (x[:, 0, 0] == n - 1)))
            if not live.any():
                break
            m[live] *= q
            x = matrix_powers(x, [q], n)[0]
    return m


def _residue_dtype(n):
    """int32 when it holds a*e + b*g for residues mod n, which is for
    n <= 2^15 and so at every level the group cap admits; else int64."""
    return np.int32 if 2 * (n - 1) ** 2 < 2**31 else np.int64


def matrix_powers(x, exponents, n):
    """x^k mod n for a stack x of 2 x 2 matrices of residues, of
    `_residue_dtype(n)`, and each k >= 1 in `exponents`, as a list of
    stacks.  Every power is the product of the squarings x^(2^i) its bits
    select, and all the exponents share those squarings."""
    out = [None] * len(exponents)
    bit = 0
    while True:
        for j, k in enumerate(exponents):
            if k >> bit & 1:
                out[j] = x if out[j] is None else out[j] @ x % n
        bit += 1
        if not any(k >> bit for k in exponents):
            return out
        x = x @ x % n


# ---------------------------------------------------------------------------
# enumeration of Xi(N)

def xi_order(n):
    """|Xi(N)|: |SL2(Z/N)| / 2 for N > 2 (where -I != I), 6 for N = 2.
    A level below 2 is refused with ValueError, as `SubgroupSpec` does."""
    if n < 2:
        raise ValueError("level must be >= 2")
    if n == 2:
        return 6
    order = n**3  # |SL2(Z/N)| = N^3 prod_{p | N} (1 - 1/p^2), even for N > 2
    for p in prime_factors(n):
        order = order // (p * p) * (p * p - 1)
    return order // 2


def capped_xi_order(n):
    """|Xi(n)| for a route that walks the whole group; CapExceeded above
    DEFAULT_GROUP_CAP.  Since prod_{p | n} (1 - p^-2) > 6/pi^2, |Xi(n)| >
    0.3 n^3, and a level that bound puts over the cap is refused before
    `xi_order` factors it."""
    if 3 * n**3 > 10 * DEFAULT_GROUP_CAP:
        raise CapExceeded(f"|Xi({n})| > 0.3*{n}^3 exceeds cap {DEFAULT_GROUP_CAP}")
    order = xi_order(n)
    if order > DEFAULT_GROUP_CAP:
        raise CapExceeded(f"|Xi({n})| = {order} exceeds cap {DEFAULT_GROUP_CAP}")
    return order


def blocks(count, width=1):
    """range(count) as consecutive slices of at most BLOCK // width rows,
    and at least one row each: the blocks of a row pass whose rows are
    `width` items wide."""
    step = max(1, BLOCK // width)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def sign_keys(entries, n):
    """+-canonical keys of vectors given entry by entry (arrays of residues
    mod n): a vector's key reads its entries in base n, so the key order is
    the tuple order, and the smaller of the keys of v and -v is kept."""
    key = neg = 0
    for entry in entries:
        entry = np.asarray(entry, dtype=np.int64)  # the keys reach n^4
        key, neg = key * n + entry, neg * n + (n - entry) % n
    return np.minimum(key, neg)


def decode_keys(keys, n):
    """The canonical tuples of 4-entry keys as a k x 4 int64 array."""
    abc, d = np.divmod(keys, n)
    ab, c = np.divmod(abc, n)
    a, b = np.divmod(ab, n)
    return np.stack((a, b, c, d), axis=1)


@lru_cache(maxsize=8)
def chain_heads(n):
    """One element (a, b0, c, d0) per unimodular first column (a, c) of
    Xi(n), taken up to sign, as the columns of a 4 x k int32 array, and the
    `column_rows` table of those columns: both read-only, built once per
    level.  The completions of a column form the single chain head * T^t,
    (b, d) = (b0 + t*a, d0 + t*c) for t = 0..n-1, so the chains of the
    heads partition Xi(n).  The columns, those with gcd(a, c, n) = 1 and
    of each {+-} pair the one not above its negation (all for n = 2, where
    -I = I), are in lexicographic order.  For the least t >= 0 with
    a + t*c a unit mod n, and d its inverse, the head (a, -t*d, c, d) has
    determinant d*(a + t*c) = 1; each prime of n excludes at most one
    residue of t, so t <= omega(n).  Heads that do not hold |Xi(n)|
    elements are a fault of the grid: ConsistencyError."""
    a = np.arange(n // 2 + 1, dtype=np.int32)[:, None]  # a <= -a mod n
    c = np.arange(n, dtype=np.int32)
    tied = a == -a % n  # a = 0 or n/2: the sign then acts on c alone
    keep = (np.gcd(np.gcd(a, c), n) == 1) & ~(tied & (-c % n < c))
    count = np.count_nonzero(keep)
    if count * n != xi_order(n):
        raise ConsistencyError(f"{count} chain heads of {n} do not hold the elements of Xi({n})")
    heads = np.zeros((4, count), dtype=np.int32)
    # the columns read through the mask stay int32, where np.nonzero gives intp
    heads[0], heads[2] = (np.broadcast_to(v, keep.shape)[keep] for v in (a, c))
    a, t, c, d = heads  # row 1 holds t until b0 = -t*d replaces it
    rows = column_rows(a, c, n)
    units = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
    inverse = np.zeros(n, dtype=np.int32)  # 0 at a non-unit
    inverse[units] = [pow(u, -1, n) for u in units.tolist()]
    while not (found := inverse[(a + t * c) % n] > 0).all():
        t += ~found
    d[:] = inverse[(a + t * c) % n]
    t[:] = -t * d % n
    heads.setflags(write=False)
    rows.setflags(write=False)
    return heads, rows


def xi_chain_grid(n):
    """Xi(n) as the grid of the chains of `chain_heads`: the entries
    (a, b, c, d) of head_h * T^t, not sign-reduced, as four arrays of shape
    heads x n.  Row h is the chain (b, d) = (b0, d0) + t*(a, c).  The
    entries are int32, which holds a product of two entries for every level
    the group cap admits (n < 2^15)."""
    a, b0, c, d0 = (v[:, None] for v in chain_heads(n)[0])
    t = np.arange(n, dtype=np.int32)
    return np.broadcast_arrays(a, (b0 + t * a) % n, c, (d0 + t * c) % n)


def grid_entries(flat, n):
    """The entries (a, b, c, d) of the elements at the flat positions
    h*n + t of `xi_chain_grid(n)`, rebuilt from the chain heads alone."""
    h, t = np.divmod(flat, n)
    a, b0, c, d0 = (v.take(h) for v in chain_heads(n)[0])
    return a, (b0 + t * a) % n, c, (d0 + t * c) % n


def column_rows(a, c, n):
    """The n x n table, flat at a*n + c, of unimodular columns (a_i, c_i),
    one per {+-} pair: i at column i, rows + i at its negation where that
    is another column, and -1 at a column not listed."""
    rows = len(a)
    row_of = np.full(n * n, -1, dtype=np.int32)
    row_of[(-a % n) * n + (-c % n)] = np.arange(rows, 2 * rows, dtype=np.int32)
    row_of[a * n + c] = np.arange(rows, dtype=np.int32)
    return row_of


def xi_grid_positions(entries, n):
    """Flat positions h*n + t in `xi_chain_grid(n)` of elements given by
    their entries, each up to sign, read off the heads of `chain_heads`.

    The row is the head whose first column is (a, c), or (-a, -c) for the
    negated element (the heads' `column_rows` table).  Along row h,
    (b, d) = (b0, d0) + t*(a, c), and the head's determinant
    a*d0 - b0*c = 1 inverts that: t = d0*(b - b0) - b0*(d - d0) mod n.  A
    first column that names no head is a fault of the table:
    ConsistencyError.
    """
    heads, head_rows = chain_heads(n)
    rows = heads.shape[1]
    a, b, c, d = entries
    h = head_rows.take(a * n + c)
    if h.min(initial=0) < 0:
        raise ConsistencyError(f"a first column names no chain head of Xi({n})")
    sign = np.where(h < rows, 1, -1).astype(np.int32)
    h %= rows
    b0, d0 = heads[1].take(h), heads[3].take(h)
    return h * n + (d0 * (sign * b - b0) - b0 * (sign * d - d0)) % n


def xi_keys(n):
    """The sorted +-canonical keys of Xi(n), from `xi_chain_grid`, each
    element exactly once.  Refused above DEFAULT_GROUP_CAP elements
    (`capped_xi_order`)."""
    order = capped_xi_order(n)
    keys = np.sort(sign_keys(xi_chain_grid(n), n), axis=None)
    if len(keys) != order or not (keys[1:] > keys[:-1]).all():
        raise ConsistencyError(f"the chains of Xi({n}) do not partition the group")
    return keys


@lru_cache(maxsize=32)
def enumerate_xi(n):
    """Sorted list of all canonical tuples of Xi(n): the decoded `xi_keys`."""
    return list(map(tuple, decode_keys(xi_keys(n), n).tolist()))


def cycle_labels(successor):
    """The least point of the cycle through every point of a permutation
    given as an array of successors, in the array's dtype, by pointer
    doubling (Wyllie): after j rounds of label = min(label, label[p]);
    p = p[p], label[i] is the least point among the 2^j successors of i, so
    the labels stop changing exactly when each is its cycle's least point.
    Three buffers rotate, the jumped successors going into the labels the
    new ones free, and the gathers go _GATHER points at a time."""
    p = successor.copy()
    label = np.arange(len(p), dtype=p.dtype)
    spare = np.empty_like(label)
    while True:
        _gather(label, p, spare)
        np.minimum(spare, label, out=spare)
        if not (spare < label).any():
            return label
        label, spare = spare, label
        _gather(p, p, spare)
        p, spare = spare, p


# indices per gather of `cycle_labels`, apart from BLOCK: the ~28k-point
# permutations of `enumerate_primitive_classes(3e5)` take one gather a round
# here and two at 2^14, and a cold run of it read 1.4 % slower at 2^14
# (medians of 12 fresh-process pairs, 9 slower; a warm loop read no change)
_GATHER = 1 << 16


def _gather(source, at, out):
    """out[i] = source[at[i]], _GATHER indices at a time; `out` may be an
    int32 `at`, as `take` copies each piece of it to intp first."""
    for start in range(0, len(at), _GATHER):
        source.take(at[start:start + _GATHER], out=out[start:start + _GATHER], mode="clip")


# ---------------------------------------------------------------------------
# partitions, held as runs of equal parts

@total_ordering
class Partition:
    """A partition as its runs, (part, multiplicity) pairs by descending
    part, built from a mapping part -> multiplicity (or its pairs) in any
    order.  A splitting type has up to index-many parts but few distinct
    ones, so only `partition_str` writes the parts out.  Equality, hashing
    and order read the runs, which compare as the flat tuples of parts do;
    iterating yields the parts, and `len`, `count` and `in` count them."""

    __slots__ = ("runs",)

    def __init__(self, counts):
        runs = sorted(((int(p), int(k)) for p, k in dict(counts).items() if k), reverse=True)
        if any(p <= 0 or k < 0 for p, k in runs):
            raise ValueError("partition parts and multiplicities must be positive")
        self.runs = tuple(runs)

    def __iter__(self):
        return itertools.chain.from_iterable(itertools.repeat(p, k) for p, k in self.runs)

    def __len__(self):
        return sum(k for _, k in self.runs)

    def count(self, part):
        return dict(self.runs).get(part, 0)

    def __contains__(self, part):
        return self.count(part) > 0

    def __hash__(self):
        return hash(self.runs)

    def __eq__(self, other):
        return self.runs == other.runs if isinstance(other, Partition) else NotImplemented

    def __lt__(self, other):
        return self.runs < other.runs if isinstance(other, Partition) else NotImplemented

    def __repr__(self):
        return f"Partition({self.runs})"


def partition(parts):
    """The Partition of an iterable of positive parts, in any order."""
    return Partition(Counter(int(p) for p in parts))


def partition_str(lam):
    """The parts of a Partition, descending, joined by commas."""
    return "".join(f"{p}," * k for p, k in lam.runs)[:-1]


def parse_partition(s):
    return partition(int(tok) for tok in s.split(","))


def parts_from_traces(traces, order, weight):
    """Partition from the fixed-point counts of a permutation's powers.

    `traces[d]` is tr sigma^d for every divisor d of `order`, a multiple of
    every cycle length; the Moebius recursion

        m * l_m = sum_{d | m} mu(m/d) tr sigma^d

    gives the number l_m of m-cycles.  Raises ConsistencyError when a
    multiplicity is not a non-negative integer or the parts do not add up
    to `weight` (which happens when `order` misses a cycle length).
    """
    ds = divisors(order)
    mu = {d: moebius(d) for d in ds}
    counts = {}
    for m in ds:
        s = sum(mu[m // d] * traces[d] for d in ds if m % d == 0)
        if s < 0 or s % m != 0:
            raise ConsistencyError(
                f"Moebius recursion produced invalid multiplicity {s}/{m}"
            )
        counts[m] = s // m
    if sum(m * k for m, k in counts.items()) != weight:
        raise ConsistencyError("Moebius-reconstructed type has wrong weight")
    return Partition(counts)


def moebius_type_ids(orders, traces_of, weight, ids, memo):
    """The id in `ids` (type -> id, grown as types appear) of the type of
    every row i of order `orders[i]`, from the permutation character alone:
    for each order m, one `traces_of(rows, ds)` call gives tr sigma(g^d) of
    the rows of order m at the divisors d of m (len(ds) x len(rows)), and
    `parts_from_traces` runs once per distinct (m, traces), memoised in
    `memo` across calls.  A callback that forms the powers as matrices so
    holds one order's at a time: at Gamma1(99793) the closed table peaks at
    about 140 MB of RSS, against 275 MB with the powers of every order stacked."""
    orders = np.asarray(orders)
    out = np.empty(len(orders), dtype=np.int32)
    for m in np.flatnonzero(np.bincount(orders)).tolist():
        sel, ds = np.flatnonzero(orders == m), divisors(m)
        traces = np.asarray(traces_of(sel, ds)).reshape(len(ds), len(sel))
        distinct, inverse = _distinct_rows(traces.T)
        row_ids = []
        for tr in map(tuple, distinct.tolist()):
            if (m, tr) not in memo:
                memo[m, tr] = ids.setdefault(parts_from_traces(dict(zip(ds, tr)), m, weight),
                                             len(ids))
            row_ids.append(memo[m, tr])
        out[sel] = np.array(row_ids, dtype=np.int32).take(inverse)
    return out


def _distinct_rows(rows):
    """The distinct rows of a 2-D integer array, and for each row the index
    of its value among them: np.unique(rows, axis=0, return_inverse=True)
    without the structured sort, which costs far more on small arrays.
    Sorting the rows as raw bytes puts equal rows together."""
    rows = np.ascontiguousarray(rows)
    order = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().argsort()
    rows = rows.take(order, axis=0)
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[first], inverse


# ---------------------------------------------------------------------------
# small arithmetic helpers

def prime_factors(n):
    return [p for p, _ in factorize(n)]


# no accepted level or group order has a prime factor near the bound: the
# caps stop levels below 10^5, and the primes of |Xi(N)| and of element
# orders divide N, p - 1 or p + 1; so every n < 10^12 factors exactly
_TRIAL_BOUND = 10**6


def factorize(n):
    """n = prod p^e as a list of (p, e), p ascending ([] for n < 2), by
    trial division up to _TRIAL_BOUND.  A rest with no divisor up to the
    bound and above its square is refused with CapExceeded."""
    out, rest = [], n
    q = 2
    while q * q <= rest and q <= _TRIAL_BOUND:
        if rest % q == 0:
            e = 0
            while rest % q == 0:
                rest //= q
                e += 1
            out.append((q, e))
        q += 1 if q == 2 else 2
    if rest > _TRIAL_BOUND**2:
        raise CapExceeded(f"factoring {n}: {rest} has no prime factor up to {_TRIAL_BOUND} "
                          f"and exceeds cap {_TRIAL_BOUND}^2")
    return out + [(rest, 1)] * (rest > 1)


def divisors(n):
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def moebius(n):
    fac = factorize(n)
    return 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
