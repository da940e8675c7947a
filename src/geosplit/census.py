"""Conjugacy census of Xi(N) and the derived splitting-density tables.

Three independent routes to the same numbers live here:

* the brute-force census: the conjugacy classes of Xi(N) as orbits of
  conjugation by T, in closed form on the chain grid (head h times T^t),
  joined by conjugation by S (`_class_ids`), each represented by its
  least member, with orders from one `xi_orders` call, types through the
  coset action and weights from the class sizes;

* the closed-form route for odd prime powers: a catalog of the
  GL2-similarity classes from their invariants (`closed_class_catalog`),
  with induced-character traces read off each representative's p-adic
  depth (`_depth`) and the types from the Moebius recursion
  (`core.moebius_type_ids`).  No group enumeration is involved, so it can
  cross-check the census;

* the composite route: a convolution of coprime prime-power tables under
  the tensor rule for partitions.  The two coset actions multiply, so a
  pair of cycles of lengths a and b gives gcd(a, b) cycles of length
  lcm(a, b), NOT one cycle of length ab; the two disagree whenever parts
  share a common factor.

At odd prime-power levels the census classes carry family labels
(`family_labels`), and the power relations between the family sets are
checked on the classes (`power_relation_check`).  No route here walks
Xi(N) element by element.

A caveat discovered while reconciling these routes: the classification
table this is built from misstates element orders at p = 3, r >= 2.  Any
matrix with trace == -1 (mod 3^r) satisfies g^2 = -g - 1, hence g^3 = I,
so part of the "order 3^(r-k)" unipotent-like stratum collapses to order
3 (e.g. [[7,1],[6,1]] mod 9).  The closed-form route therefore computes
orders by actual matrix powering and traces by exact counts instead of
trusting the printed order column, and the power-relation report exposes
the one relation this breaks.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .core import (
    CapExceeded,
    ConsistencyError,
    Family,
    Partition,
    SubgroupSpec,
    blocks,
    capped_xi_order,
    chain_heads,
    decode_keys,
    factorize,
    matrix_powers,
    moebius_type_ids,
    partition_str,
    parse_partition,
    sign_keys,
    xi_grid_positions,
    xi_order,
    xi_orders,
)
from .cosets import base_cycles, build_coset_table, splitting_types


# ---------------------------------------------------------------------------
# brute-force conjugacy census

@dataclass
class ConjugacyClassRecord:
    representative: tuple
    size: int
    order: int
    family_label: str | None = None
    types: dict = field(default_factory=dict)


def conjugacy_classes(level):
    """Conjugacy classes of Xi(level), each represented by its least
    member, sorted by representative: `_class_ids`, then sizes from
    `bincount` and orders from one `xi_orders` call."""
    class_id, least = _class_ids(level)
    sizes = np.bincount(class_id)
    by_key = least.argsort()
    reps = decode_keys(least.take(by_key), level)
    return [ConjugacyClassRecord(tuple(g), size, m) for g, size, m
            in zip(reps.tolist(), sizes.take(by_key).tolist(), xi_orders(reps, level).tolist())]


def _class_ids(n):
    """The class id of every position h*n + t of the chain grid of Xi(n),
    int32 and numbered by least position, and each class's least key,
    which decodes to its least member.  A class is T-orbits (`_t_orbits`)
    joined by conjugation by S, (a, b, c, d) -> (d, -c, -b, a): one pass
    over the chains of `chain_heads`, in `blocks` of whole chains, takes
    each T-orbit's least key (`sign_keys`) and keeps each S-edge between
    two T-orbits once, and the classes are their components
    (`_components`).  The working set is a few int32 numbers per element,
    allocated after the cap check (`capped_xi_order`)."""
    order = capped_xi_order(n)
    heads = chain_heads(n)[0]
    (base, shift, size), count = _t_orbits(n)
    label = np.empty((len(base), n), dtype=np.int32)
    least = np.full(count, n**4)  # above every key
    ends, edges = np.empty((2, order // 2), dtype=np.int32), 0
    t = np.arange(n, dtype=np.int32)
    chunks = blocks(len(base), n)
    for ch in chunks:
        a, b0, c, d0 = (v[ch, None] for v in heads)
        b, d = (b0 + t * a) % n, (d0 + t * c) % n
        label[ch] = u = base[ch, None] + (t + shift[ch, None]) % size[ch, None]
        h, s = np.divmod(xi_grid_positions((d, -c % n, -b % n, a), n), n)
        v = base.take(h) + (s + shift.take(h)) % size.take(h)
        np.minimum.at(least, u.ravel(), sign_keys((a, b, c, d), n).ravel())
        keep = u < v  # each pair x, S^-1 x S of different orbits once
        kept = np.count_nonzero(keep)
        ends[:, edges:edges + kept] = u[keep], v[keep]
        edges += kept
    parent = _components(ends[:, :edges], count)
    roots = parent == np.arange(count, dtype=np.int32)
    class_of = (np.cumsum(roots, dtype=np.int32) - 1).take(parent)
    for ch in chunks:
        label[ch] = class_of.take(label[ch])
    least_of = np.full(np.count_nonzero(roots), n**4)
    np.minimum.at(least_of, class_of, least)
    return label.ravel(), least_of


@lru_cache(maxsize=8)
def _t_orbits(n):
    """The orbits of conjugation by T on the chain grid of Xi(n), numbered
    by least position: h*n + t lies in orbit base[h] + (t + shift[h]) %
    size[h], rows of a read-only 3 x heads int32 array; and their number.
    T^-1 (head_h T^t) T = +-head_pi(h) T^(s_h + t + 1), so the conjugation
    is the block form (pi, s + 1) mod n on the heads, and a cycle of pi
    is gcd(sigma, n) orbits (`base_cycles`), one through L*n + j for each
    j < gcd, L the cycle's least head.  Pointer doubling along pi, stopped
    at L, sums the shifts from each head to L."""
    a, b0, c, d0 = chain_heads(n)[0]
    perm, shift = np.divmod(xi_grid_positions(((a - c) % n, (b0 - d0) % n, c, d0), n), n)
    shift = (shift + 1) % n
    label, leaders, size = base_cycles(perm[None], shift[None], n)
    perm[leaders], shift[leaders] = leaders, 0
    while (perm != label).any():
        shift = (shift + shift.take(perm)) % n
        perm = perm.take(perm)
    at = leaders.searchsorted(label)
    orbits = np.stack(((np.cumsum(size) - size).take(at), shift, size.take(at))).astype(np.int32)
    orbits.setflags(write=False)
    return orbits, int(size.sum())


def _components(ends, count):
    """The least node of the component of each of `count` nodes under the
    edges ends[0][i] < ends[1][i], int32, by hooking and pointer jumping
    (Shiloach-Vishkin) on the edge list, as S joins the T-orbits by edges,
    not as the cycles of one permutation (`core.cycle_labels`): hook each
    edge's greater end, a root, under its lesser, jump every node to its
    root, move the edges to the roots of their ends and drop those within
    one tree.  Parents only decrease, so a root is its least node."""
    parent = np.arange(count, dtype=np.int32)
    a, b = ends
    while len(a):
        parent[b] = a
        while ((jumped := parent.take(parent)) != parent).any():
            parent = jumped
        a, b = parent.take(a), parent.take(b)
        live = a != b
        a, b = np.minimum(a[live], b[live]), np.maximum(a[live], b[live])
    return parent


# ---------------------------------------------------------------------------
# odd prime-power levels: the p-adic depth and the squares mod p, shared by
# the family labels and the closed forms

def closed_form_prime_power(level):
    """(p, r) with level = p^r, p odd; ValueError for any other level."""
    fac = factorize(level)
    if len(fac) != 1 or fac[0][0] == 2:
        raise ValueError("closed forms require an odd prime-power level")
    return fac[0]


def _depth(h, p, r):
    """The p-adic depth of every row of the k x m int64 array h of residues
    mod p^r: p^k = gcd(row, p^r), and the row divided by it mod p^(r-k).
    The kernels below multiply two such residues in int64, so p^r >= 2^31
    is refused with ValueError."""
    pr = p**r
    if pr >= 2**31:
        raise ValueError(f"closed-form traces at {p}^{r} exceed int64")
    pk = np.gcd.reduce(h, axis=1, initial=pr)
    return pk, (h // pk[:, None] % (pr // pk)[:, None]).T


def _squares(p):
    """The squares mod p as a boolean table indexed by residue (0 included)."""
    squares = np.zeros(p, dtype=bool)
    squares[np.arange(p, dtype=np.int64) ** 2 % p] = True
    return squares


# ---------------------------------------------------------------------------
# family labels for odd prime-power levels

# label kinds by code, and the length of each kind's label tuple
_KINDS = ("Id", "A0", "C0", "A", "C", "B")
_WIDTHS = (1, 3, 3, 2, 2, 4)


def family_labels(g, orders, p, r):
    """Family label of every row of the k x 4 integer array g, elements of
    Xi(p^r), p odd, of the given orders, as a list of tuples.

    Labels: ('Id',), ('A0', k, l), ('A', k), ('B', k, m, chi), ('C0', k, l),
    ('C', k); chi is +1/-1 for the even-m split below the maximal m, else 0.
    With p^j = gcd(order, p^r) and l the prime-to-p part of the order, an
    element with l > 1 has a unit discriminant t^2 - 4 and is A0(r - j, l)
    or C0(r - j, l) as that is a square mod p or not.  Otherwise the sign
    of h = sign*g - I is the one of greater depth p^k (`_depth`), tie-broken
    by t == 2*sign (mod p), which only the B stratum meets; with
    A = h/p^k and D = -det A mod p^(r-k), a unit D gives A(k) or C(k) as it
    is a square or not, and otherwise B(k, m, chi) with p^m = gcd(D,
    p^(r-k)) and chi the residue character of D/p^m at even m < r - k.
    """
    n = p**r
    g = np.asarray(g, dtype=np.int64).reshape(-1, 4) % n
    orders = np.asarray(orders, dtype=np.int64)
    powers = p ** np.arange(r + 1, dtype=np.int64)
    squares = _squares(p)
    trace = (g[:, 0] + g[:, 3]) % n
    pj = np.gcd(orders, n)
    l = orders // pj
    kind = np.where(orders == 1, 0, 5)
    # elements whose order has a prime-to-p part
    disc = (trace * trace - 4) % n
    if (disc[l > 1] % p == 0).any():
        raise ConsistencyError(f"a class of order prime to {p} has a non-unit discriminant")
    kind = np.where(l > 1, np.where(squares[disc % p], 1, 2), kind)
    k = np.where(l > 1, r - powers.searchsorted(pj), 0)
    # elements of p-power order: the sign of h of the greater depth, and at
    # equal depths + unless t == -2 (mod p)
    (pk_plus, h_plus), (pk_minus, h_minus) = (_depth((sign * g - (1, 0, 0, 1)) % n, p, r)
                                              for sign in (1, -1))
    plus = (pk_plus > pk_minus) | ((pk_plus == pk_minus) & ((trace + 2) % p != 0))
    pk = np.where(plus, pk_plus, pk_minus)
    a, b, c, d = np.where(plus, h_plus, h_minus)
    pure = kind == 5
    if (pk[pure] == n).any():
        raise ConsistencyError("non-identity class with infinite depth")
    prk = n // pk
    det = -(a * d - b * c) % prk
    unit = pure & (det % p != 0)
    depth_k = powers.searchsorted(pk)
    if ((depth_k[unit] < 1) | (depth_k[unit] > r - 1)).any():
        raise ConsistencyError(f"a semisimple class at {p}^{r} has depth outside 1..{r - 1}")
    kind = np.where(unit, np.where(squares[det % p], 3, 4), kind)
    k = np.where(pure, depth_k, k)
    pm = np.gcd(det, prk)
    m = powers.searchsorted(pm)
    split = pure & ~unit & (m % 2 == 0) & (pm < prk)
    chi = np.where(split, np.where(squares[det // pm % p], 1, -1), 0)
    third = np.where(l > 1, l, m)
    return [(_KINDS[c], kk, x, ch)[:_WIDTHS[c]]
            for c, kk, x, ch in zip(kind.tolist(), k.tolist(), third.tolist(), chi.tolist())]


def label_str(label):
    kind, *args = label
    if kind not in _KINDS:
        raise ValueError(label)
    chi = {0: "", 1: ",+", -1: ",-"}[args.pop()] if kind == "B" else ""
    names = ("k", "l") if kind in ("A0", "C0") else ("k", "m")
    fields = ",".join(f"{name}={x}" for name, x in zip(names, args))
    return f"{kind}({fields}{chi})" if args else kind


# ---------------------------------------------------------------------------
# density tables

@dataclass
class DensityTable:
    subgroup: SubgroupSpec
    entries: dict  # Partition -> Fraction
    xi_order: int
    index: int

    def __post_init__(self):
        total = sum(self.entries.values(), Fraction(0))
        if total != 1:
            raise ConsistencyError(f"density table for {self.subgroup} sums to {total}")


def density_table(s: SubgroupSpec, classes=None) -> DensityTable:
    """Theoretical densities: sum of #[g]/|Xi| over classes of each type."""
    if classes is None:
        classes = conjugacy_classes(s.level)
    table = build_coset_table(s)
    order = xi_order(s.level)
    missing = [rec for rec in classes if s.family not in rec.types]
    for rec, lam in zip(missing, splitting_types([rec.representative for rec in missing], table)):
        rec.types[s.family] = lam
    entries = _densities([rec.types[s.family] for rec in classes], [rec.size for rec in classes],
                         order)
    return DensityTable(s, entries, order, table.index)


def _densities(types, sizes, order):
    """Type -> density: the class sizes summed per type as integers, then
    one Fraction per type."""
    mass = {}
    for lam, size in zip(types, sizes):
        mass[lam] = mass.get(lam, 0) + size
    return {lam: Fraction(size, order) for lam, size in mass.items()}


def rectangle_density_table(s: SubgroupSpec, classes=None) -> DensityTable:
    """Regular-cover table: density of (m^(n/m)) is the mass of order-m classes."""
    if s.family != Family.GAMMA:
        raise ValueError("rectangle table applies to the principal family only")
    if classes is None:
        classes = conjugacy_classes(s.level)
    order = xi_order(s.level)  # also the index of Gamma(N)
    entries = _densities([Partition({rec.order: order // rec.order}) for rec in classes],
                         [rec.size for rec in classes], order)
    return DensityTable(s, entries, order, order)


# ---------------------------------------------------------------------------
# closed forms for odd prime powers (no group enumeration anywhere below):
# the traces are counts read off each element's p-adic depth, the gcd with
# p^r of the entries of g - aI (Gamma0) or of +-g - I (Gamma1)

def _fixed_row_count(g, sign, p, r):
    """#{unimodular row vectors v mod p^r with v (sign*g - I) == 0} for
    every row (a, b, c, d) of the k x 4 integer array g, as an int64 array.
    With p^k the depth of h = sign*g - I: at k = r every vector is fixed;
    below, p^k * phi(p^r) are when h / p^k is singular mod p^(r-k), else
    none."""
    pr = p**r
    pk, (a, b, c, d) = _depth((sign * np.asarray(g, dtype=np.int64) - (1, 0, 0, 1)) % pr, p, r)
    singular = pk * (pr - pr // p) * ((a * d - b * c) % (pr // pk) == 0)
    return np.where(pk == pr, pr * pr - (pr * pr) // (p * p), singular)


def _fixed_point_count(g, p, r):
    """#{points of P^1(Z/p^r) fixed by g}, the Gamma0(p^r) trace, for every
    row (a, b, c, d) of the k x 4 integer array g, as an int64 array.

    Let p^k = gcd(a - d, b, c, p^r), the depth of g from the scalars.  At
    k = r, g = +-I fixes all p^(r-1)(p+1) points.  Below, g = aI + p^k A
    with A = (0, b, c, d - a)/p^k non-scalar mod p, and g fixes exactly the
    points whose image mod p^(r-k) is an eigenline of A; p^k points lie over
    each such line.  A non-scalar A has one eigenline per root of its
    characteristic polynomial mod p^(r-k), and since 2 is a unit those roots
    correspond one to one to the square roots of its discriminant
    D = x^2 + 4yz, (x, y, z) = (a - d, b, c)/p^k, which is (t^2 - 4)/p^(2k).
    With e = r - k and p^v = gcd(D, p^e), u^2 == D mod p^e has p^(e // 2)
    roots when D == 0, none when v is odd or D/p^v is a non-residue mod p,
    and 2 p^(v/2) otherwise."""
    pr = p**r
    a, b, c, d = np.asarray(g, dtype=np.int64).T
    pk, (x, y, z) = _depth(np.stack((a - d, b, c), axis=1) % pr, p, r)
    pe = pr // pk
    disc = (x * x + 4 * (y * z % pe)) % pe
    pv = np.gcd(disc, pe)
    powers = p ** np.arange(r + 1, dtype=np.int64)
    v = powers.searchsorted(pv)
    roots = np.where((v % 2 == 0) & _squares(p)[disc // pv % p], 2 * powers[v // 2], 0)
    roots = np.where(disc == 0, powers[powers.searchsorted(pe) // 2], roots)
    return np.where(pk == pr, pr // p * (p + 1), pk * roots)


# most half-traces l, (p^r + 1)/2, of the closed catalog.  In fresh interpreters
# (peak RSS, Gamma1) the most divisor-rich levels below it peaked at 138 MB (99793)
# and 135 MB (93601), while 100799 (50400 half-traces) reached 156 MB and 1000003 565 MB
CLOSED_CATALOG_CAP = 50_000


def closed_class_catalog(p, r):
    """The GL2(Z/p^r)-similarity classes of Xi(p^r), p odd, as records of a
    canonical representative, the class's size in Xi and its order.

    GL2 = SL2 * diag(u, 1), and diag(u, 1) normalises Gamma0, Gamma1 and
    Gamma, so every splitting type is constant on these classes (unions of
    conjugacy classes of Xi).  With n = p^r, take g in SL2 of trace t,
    l = t/2 mod n and B = g - lI: tr B = 0 and det B = 1 - l^2.  B = 0 only
    at g = +-I.  Otherwise p^k = gcd(B, n) with k < r, A = B/p^k mod
    p^(r-k) is cyclic, and the class is fixed by the invariants (t, k,
    D = det A mod p^(r-k)), subject to p^(2k) D == 1 - l^2 mod n: D is
    (1 - l^2)/p^(2k) mod p^max(r-2k, 0) plus any multiple of that
    modulus, p^min(k, r-k) lifts.  The representative is
    [[l, p^k], [-p^k D, l]].  The centralizer of A gives the class
    p^(2r-2k-2) m elements, with m = p(p+1) when -D is a non-zero square
    mod p (split), p(p-1) when it is a non-square (non-split) and p^2 - 1
    when D == 0 mod p.  g and -g (trace -t, so -l) are one element of Xi,
    so l runs over 0..(n-1)/2, which also makes each representative
    canonical; at l = 0, where -g lies in the class of g, the size is
    halved.  The orders come from one `xi_orders` call, as the p = 3 order
    anomaly breaks any order read off the invariants.  The sizes and
    entries are int64 products of two residues, so p^r >= 2^31 is refused
    with ValueError; above CLOSED_CATALOG_CAP half-traces l, CapExceeded
    is raised before any array is built.
    """
    n = p**r
    if n >= 2**31:
        raise ValueError(f"the closed catalog at {p}^{r} exceeds int64")
    if (n + 1) // 2 > CLOSED_CATALOG_CAP:
        raise CapExceeded(f"the closed catalog at {p}^{r} has {(n + 1) // 2} half-traces, "
                          f"over the cap {CLOSED_CATALOG_CAP}")
    l = np.arange((n + 1) // 2, dtype=np.int64)
    det_b = (1 - l * l) % n
    squares = _squares(p)
    reps, sizes = [np.array([[1, 0, 0, 1]])], [np.ones(1, dtype=np.int64)]
    for k in range(r):
        pk, step, lifts = p**k, p ** max(r - 2 * k, 0), p ** min(k, r - k)
        sel = np.flatnonzero(det_b % (pk * pk) == 0)
        det_a = (det_b[sel, None] // (pk * pk) % step + step * np.arange(lifts)).ravel()
        ls = l[sel].repeat(lifts)
        reps.append(np.stack((ls, np.full_like(ls, pk), -pk * det_a % n, ls), axis=1))
        m = np.where(det_a % p == 0, p * p - 1,
                     np.where(squares[-det_a % p], p * p + p, p * p - p))
        sizes.append(m * p ** (2 * r - 2 * k - 2) // np.where(ls == 0, 2, 1))
    reps, sizes = np.concatenate(reps), np.concatenate(sizes).tolist()
    if sum(sizes) != xi_order(n):
        raise ConsistencyError(f"closed catalog sizes sum to {sum(sizes)}, expected {xi_order(n)}")
    return [ConjugacyClassRecord(tuple(g), size, order) for g, size, order
            in zip(reps.tolist(), sizes, xi_orders(reps, n).tolist())]


def density_table_closed_form(s: SubgroupSpec) -> DensityTable:
    """Assemble the density table for an odd prime-power level from the
    closed class catalog, exact trace formulas and the Moebius recursion;
    entirely independent of the brute-force census."""
    p, r = closed_form_prime_power(s.level)
    order = xi_order(s.level)
    if s.family == Family.GAMMA:
        return rectangle_density_table(s, closed_class_catalog(p, r))
    gamma0 = s.family == Family.GAMMA0
    index = p ** (r - 1) * (p + 1) if gamma0 else p ** (2 * r - 2) * (p * p - 1) // 2
    catalog = closed_class_catalog(p, r)
    reps = np.array([rec.representative for rec in catalog]).reshape(-1, 2, 2)

    def traces_of(rows, ds):  # of the powers g^d of the representatives at rows
        h = np.stack(matrix_powers(reps.take(rows, axis=0), ds, s.level)).reshape(-1, 4)
        if gamma0:
            return _fixed_point_count(h, p, r)
        return (_fixed_row_count(h, 1, p, r) + _fixed_row_count(h, -1, p, r)) // 2
    ids = {}  # type -> id
    type_ids = moebius_type_ids([rec.order for rec in catalog], traces_of, index, ids, {})
    types = list(ids)
    entries = _densities([types[i] for i in type_ids.tolist()], [rec.size for rec in catalog],
                         order)
    return DensityTable(s, entries, order, index)


# ---------------------------------------------------------------------------
# tensor rule and composite levels

def tensor_partitions(lam1, lam2):
    """Splitting type of the product action.

    Under the product of two permutations, a pair of cycles of lengths a
    and b splits into gcd(a, b) cycles of length lcm(a, b), so each pair
    of runs (a, m), (b, k) gives the run (lcm(a, b), gcd(a, b) m k).
    Reading it as termwise products of parts agrees only when the parts
    are coprime.
    """
    counts = Counter()
    for a, m in lam1.runs:
        for b, k in lam2.runs:
            counts[lcm(a, b)] += gcd(a, b) * m * k
    return Partition(counts)


def convolve_tables(t1: DensityTable, t2: DensityTable, subgroup: SubgroupSpec) -> DensityTable:
    entries = {}
    for lam1, d1 in t1.entries.items():
        for lam2, d2 in t2.entries.items():
            lam = tensor_partitions(lam1, lam2)
            entries[lam] = entries.get(lam, Fraction(0)) + d1 * d2
    # Xi(N1 N2) double-covers Xi(N1) x Xi(N2) (-I is taken diagonally), so
    # the group order comes from the level, not from the factor orders
    return DensityTable(subgroup, entries, xi_order(subgroup.level), t1.index * t2.index)


def density_table_composite(s: SubgroupSpec) -> DensityTable:
    """Density table of a composite level as the convolution of its coprime
    prime-power factor tables.  Gamma0 only: -I acts non-trivially on the
    Gamma1 and Gamma cosets, so the tensor rule does not hold there and
    those families are refused with ValueError."""
    if s.family != Family.GAMMA0:
        raise ValueError(f"the composite rule applies to gamma0 only: -I acts non-trivially "
                         f"on the {s.family.value} cosets, so the tensor rule does not hold")
    fac = factorize(s.level)
    if len(fac) < 2:
        raise ValueError("composite rule needs at least two prime factors")
    tables = [density_table(SubgroupSpec(s.family, p**e)) for p, e in fac]
    out = tables[0]
    level = fac[0][0] ** fac[0][1]
    for (p, e), nxt in zip(fac[1:], tables[1:]):
        level *= p**e
        out = convolve_tables(out, nxt, SubgroupSpec(s.family, level))
    return out


# ---------------------------------------------------------------------------
# power relations between the family sets

def _predicted_power_label(label, m_exp, p, r):
    """Family predicted for the M-th powers of a family set (the printed
    relation list); ("Id",) for the powers that land in the identity."""
    kind = label[0]
    if kind == "Id":
        return ("Id",)
    if kind in ("A0", "C0"):
        _, k, l = label
        base = "A" if kind == "A0" else "C"
        if m_exp % l == 0:
            return ("Id",) if k == r else (base, k)
        if m_exp == p and k <= r - 1:
            return (kind, k + 1, l)
        return (kind, k, l // gcd(m_exp, l))
    if kind in ("A", "C"):
        _, k = label
        if m_exp == p:
            return ("Id",) if k == r - 1 else (kind, k + 1)
        return label
    if kind == "B":
        _, k, m, chi = label
        if m_exp == p:
            if k == r - 1:
                return ("Id",)
            if m == r - k:
                return ("B", k + 1, r - k - 1, 0)
            new_chi = chi if (m % 2 == 0 and m < r - (k + 1)) else 0
            return ("B", k + 1, m, new_chi)
        return label
    raise ValueError(label)


@dataclass
class PowerRelationRow:
    label: str
    exponent: int
    predicted: str
    passed: bool
    note: str = ""


def power_relation_check(level):
    """Verify the printed power relations between family sets at an odd
    prime-power level; failures are report rows, not errors.

    A family set is a union of conjugacy classes, and g -> g^M maps each
    class onto one class, so the sets compare exactly as sets of class ids
    (`_class_ids`).  The classes' least members are labelled in one
    `family_labels` call, raised to the powers M = 1..p in one
    `matrix_powers` call, and each power's class is read off its chain-grid
    position (`xi_grid_positions`)."""
    p, r = closed_form_prime_power(level)
    n = level
    class_id, least = _class_ids(n)
    reps = decode_keys(least, n)
    labels = family_labels(reps, xi_orders(reps, n), p, r)
    power_class = [class_id.take(xi_grid_positions(x.reshape(-1, 4).T, n))
                   for x in matrix_powers(reps.reshape(-1, 2, 2), list(range(1, p + 1)), n)]
    sets = {}
    for c, lab in enumerate(labels):
        sets.setdefault(lab, set()).add(c)

    def classes_of(lab):
        if lab[0] == "B" and lab[-1] == 0:
            # unsplit target absorbs both chi halves if a split exists
            return set().union(*(sets.get(lab[:3] + (chi,), set()) for chi in (0, 1, -1)))
        return sets.get(lab, set())

    def collapse_note(predicted, computed, expected):
        # the p = 3 anomaly only ever adds classes that collapsed to the
        # identity or to strata deeper than the predicted one
        if expected - computed:
            return ""
        min_depth = predicted[1] if predicted[0] == "B" else r
        if all(labels[c] == ("Id",) or (labels[c][0] == "B" and labels[c][1] > min_depth)
               for c in computed - expected):
            return "extra elements are identity-collapsed or deeper-stratum (p=3 order anomaly)"
        return ""

    rows = []
    for lab in sorted(sets, key=str):
        if lab == ("Id",):
            continue
        for m_exp in range(1, p + 1):
            predicted = _predicted_power_label(lab, m_exp, p, r)
            computed = set(power_class[m_exp - 1].take(list(sets[lab])).tolist())
            expected = classes_of(predicted)
            ok = computed == expected
            note = "" if ok else collapse_note(predicted, computed, expected)
            rows.append(PowerRelationRow(label_str(lab), m_exp, label_str(predicted), ok, note))
    return rows


# ---------------------------------------------------------------------------
# census cache files

def census_payload(family: Family, level: int):
    """JSON-ready census document for one (family, level)."""
    s = SubgroupSpec(family, level)
    classes = conjugacy_classes(level)
    fac = factorize(level)
    if len(fac) == 1 and fac[0][0] != 2:
        # family labels exist for odd prime-power levels only
        labels = family_labels([rec.representative for rec in classes],
                               [rec.order for rec in classes], *fac[0])
        for rec, lab in zip(classes, labels):
            rec.family_label = label_str(lab)
    dt = density_table(s, classes=classes)
    class_rows = [{"rep": list(rec.representative), "size": rec.size, "order": rec.order,
                   "family_label": rec.family_label, "type": list(rec.types[family])}
                  for rec in sorted(classes, key=lambda r: r.representative)]
    densities = {partition_str(lam): f"{frac.numerator}/{frac.denominator}"
                 for lam, frac in sorted(dt.entries.items(), reverse=True)}
    return {"level": level, "family": family.value, "xi_order": dt.xi_order, "index": dt.index,
            "classes": class_rows, "densities": densities}


def write_census(path, payload):
    """Write the cache file atomically: a temporary file in the same
    directory, made durable, then renamed over the target."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_census(path):
    with open(path) as fh:
        return json.load(fh)


def census_table_from_payload(payload) -> DensityTable:
    s = SubgroupSpec(Family(payload["family"]), payload["level"])
    entries = {}
    for key, val in payload["densities"].items():
        num, den = val.split("/")
        entries[parse_partition(key)] = Fraction(int(num), int(den))
    return DensityTable(s, entries, payload["xi_order"], payload["index"])
