"""Coset tables for the congruence families and the induced permutation
action of Xi(N) on them.

Cosets are the left cosets r*Psi of Psi = image of the subgroup in Xi(N);
an element g acts by image[i] = j where r_j^-1 g r_i lies in the subgroup.
The cycle type of that permutation is the splitting type of any hyperbolic
class of SL2(Z) reducing to g, and can be recovered independently from the
traces of the permutation powers by Moebius inversion; the two routes are
kept separate so they can cross-check each other.

Representative order is fixed by a breadth-first walk of the whole group
from the identity under right multiplication by the images of
S = [[0,-1],[1,0]] and T = [[1,1],[0,1]] (S first), the first element
landing in a fresh coset becoming its representative.  This makes every
derived table byte-stable.

The action has one kernel, `act_block`, for every level and index: the
products g * r_i of a block of elements with all representatives are
computed with numpy and looked up in the table's sorted array of element
keys.  There is no size threshold and no second path; `act` is its 1-row
call, and an element outside Xi(N) is refused with ValueError.  The
dict-lookup `_act_reference` stays as the reference the kernel is tested
against.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .core import (
    CapExceeded,
    ConsistencyError,
    Family,
    SubgroupSpec,
    canon,
    divisors,
    enumerate_xi,
    identity,
    is_member_tuple,
    mul,
    order_in_xi_tuple,
    parts_from_traces,
    xi_chain_heads,
)

DEFAULT_INDEX_CAP = 10**7

# Permutation blocks are int32: gathers through ndarray.take with int32 indices
# run as fast as with intp and move half the bytes.  Flat indices need a
# block below 2^31 entries; the sweep's blocks hold at most
# max(_BLOCK_ENTRIES, index) and the index is capped at DEFAULT_INDEX_CAP.
_PERM_DTYPE = np.int32


class CosetTable:
    """Reps and element->coset lookup for one congruence subgroup."""

    def __init__(self, subgroup: SubgroupSpec, reps, elt_to_coset):
        self.subgroup = subgroup
        self.level = subgroup.level
        self.reps = reps
        self.index = len(reps)
        self.elt_to_coset = elt_to_coset
        self._lookup = None

    def lookup(self):
        """(keys, cosets, reps) for `act_block`, built on first use: the
        element keys ((a*n + b)*n + c)*n + d in ascending order, the coset
        of each, and the representatives as a 4 x index array."""
        if self._lookup is None:
            n, e2c = self.level, self.elt_to_coset
            keys = np.fromiter((((a * n + b) * n + c) * n + d for a, b, c, d in e2c),
                               dtype=np.int64, count=len(e2c))
            cosets = np.fromiter(e2c.values(), dtype=_PERM_DTYPE, count=len(e2c))
            order = keys.argsort()
            keys.sort()
            reps = np.array(self.reps, dtype=np.int64).T
            self._lookup = (keys, cosets.take(order), reps)
        return self._lookup


def build_coset_table(s: SubgroupSpec, cap=DEFAULT_INDEX_CAP, group_cap=None) -> CosetTable:
    """BFS coset table for Gamma~(N) inside Xi(N)."""
    n = s.level
    kwargs = {} if group_cap is None else {"cap": group_cap}
    xi = enumerate_xi(n, **kwargs)
    psi = [g for g in xi if is_member_tuple(g, s.family, n)]
    if len(xi) // len(psi) > cap:
        raise CapExceeded(f"index {len(xi) // len(psi)} exceeds cap {cap}")
    gen_s = canon(0, -1, 1, 0, n)
    gen_t = canon(1, 1, 0, 1, n)
    e = identity(n)
    reps = []
    e2c = {}

    def new_coset(r):
        idx = len(reps)
        reps.append(r)
        for ps in psi:
            e2c[mul(r, ps, n)] = idx

    seen = {e}
    new_coset(e)
    queue = deque([e])
    while queue:
        x = queue.popleft()
        for gen in (gen_s, gen_t):
            y = mul(x, gen, n)
            if y in seen:
                continue
            seen.add(y)
            queue.append(y)
            if y not in e2c:
                new_coset(y)
    table = CosetTable(s, reps, e2c)
    if table.index * len(psi) != len(xi):
        raise ConsistencyError("coset table does not partition Xi")
    return table


def act_block(elements, table: CosetTable):
    """Coset permutations of a list of elements as a rows x index int32
    block: row r maps coset i to the coset of elements[r] * reps[i].

    The canonical form of +-x is the tuple order's minimum, and the keys
    preserve that order, so each product is looked up as the smaller of
    its two sign keys.  An element that is not in Xi(N) has products
    outside it, and is refused with ValueError.
    """
    n = table.level
    keys, cosets, reps = table.lookup()
    # keys stay below n^4, far inside int64 for every level Xi(N)'s cap admits
    g = np.array([_as_tuple(x, n) for x in elements], dtype=np.int64).reshape(-1, 4, 1) % n
    key = neg = np.zeros((len(g), table.index), dtype=np.int64)
    for row, col in ((0, 0), (0, 1), (2, 0), (2, 1)):
        entry = (g[:, row] * reps[col] + g[:, row + 1] * reps[col + 2]) % n
        key, neg = key * n + entry, neg * n + (n - entry) % n
    key = np.minimum(key, neg)
    pos = np.minimum(keys.searchsorted(key), len(keys) - 1)
    if not np.array_equal(keys.take(pos), key):
        raise ValueError(f"element not in Xi({n}) among {len(g)} acting elements")
    return cosets.take(pos)


def act(g, table: CosetTable):
    """Permutation of coset indices induced by g (a 1-row `act_block`)."""
    return act_block([g], table)[0]


def _act_reference(g, table: CosetTable):
    """Pure dict-lookup action; `act_block` must agree with this."""
    g = _as_tuple(g, table.level)
    n = table.level
    e2c = table.elt_to_coset
    return [e2c[mul(g, r, n)] for r in table.reps]


def _as_tuple(g, level):
    if isinstance(g, tuple):
        return g
    if g.level != level:
        raise ValueError("level mismatch")
    return g.tuple


def _as_block(perms):
    """2-D array of permutations, one per row."""
    block = np.asarray(perms, dtype=_PERM_DTYPE)
    return block[None, :] if block.ndim == 1 else block


def _flat_successors(block):
    """Row-wise permutations as one permutation of rows * width points:
    point (r, i) maps to (r, block[r, i]), flattened row-major."""
    rows, width = block.shape
    offsets = np.arange(0, rows * width, width, dtype=_PERM_DTYPE)
    return (block + offsets[:, None]).ravel()


def cycle_types(block):
    """Cycle type of every row of a 2-D block of permutations.

    Pointer doubling (Wyllie): after k rounds of
    label = min(label, label[p]); p = p[p], label[i] is the least point among
    the 2^k successors of i, so the labels stop changing exactly when each
    one is the least point of its cycle.  The cycle lengths are then the
    point counts per leader.
    """
    block = _as_block(block)
    rows, width = block.shape
    p = _flat_successors(block)
    points = np.arange(rows * width, dtype=_PERM_DTYPE)
    label = points
    while True:
        nxt = np.minimum(label, label.take(p))
        if not (nxt < label).any():
            break
        label = nxt
        p = p.take(p)
    leaders = np.flatnonzero(label == points)
    lengths = np.bincount(label, minlength=rows * width)[leaders]
    owner = leaders // width
    lengths = lengths[np.lexsort((-lengths, owner))].tolist()
    ends = np.cumsum(np.bincount(owner, minlength=rows)).tolist()
    return [tuple(lengths[start:end]) for start, end in zip([0] + ends, ends)]


def cycle_type_of(perm):
    """Cycle type of a permutation given as an image list/array."""
    return cycle_types(perm)[0]


def splitting_type_cycles(g, table: CosetTable):
    """Splitting type as the cycle type of the coset permutation."""
    return cycle_type_of(act(g, table))


def splitting_types(elements, table: CosetTable):
    """Splitting types of a list of elements, in blocks of at most
    _BLOCK_ENTRIES entries (at least one row)."""
    rows = max(1, _BLOCK_ENTRIES // table.index)
    out = []
    for start in range(0, len(elements), rows):
        out += cycle_types(act_block(elements[start:start + rows], table))
    return out


def induced_trace(g, table: CosetTable):
    """Number of fixed cosets of g (the induced-representation character)."""
    perm = act(g, table)
    return int(np.count_nonzero(perm == np.arange(len(perm))))


def _flat_power(memo, k):
    """sigma^k of a flat permutation, memo[1] = sigma, by halving k and
    composing by gathers; every power it builds is kept in memo."""
    q = memo.get(k)
    if q is None:
        h = _flat_power(memo, k // 2)
        q = h.take(h)
        if k & 1:
            q = memo[1].take(q)
        memo[k] = q
    return q


def moebius_types(block, orders, index):
    """Type of every row of a block of permutations from the traces of its
    powers alone, via the Moebius recursion of `parts_from_traces`.

    orders[r] is a multiple of every cycle length of row r (the order of
    the group element); rows are grouped by it, the powers sigma^d for the
    divisors d are composed by gathers and only their fixed points are
    counted.  The recursion runs once per distinct (order, trace vector).
    Never inspects cycles.
    """
    block = _as_block(block)
    width = block.shape[1]
    out = [None] * len(block)
    groups = {}
    for r, m in enumerate(orders):
        groups.setdefault(int(m), []).append(r)
    for m, sel in groups.items():
        memo = {1: _flat_successors(block.take(sel, axis=0))}
        points = np.arange(len(sel) * width, dtype=_PERM_DTYPE)
        ds = divisors(m)
        fixed = np.empty((len(ds), len(points)), dtype=bool)
        for j, d in enumerate(ds):
            np.equal(_flat_power(memo, d), points, out=fixed[j])
        traces = fixed.reshape(len(ds), len(sel), width).sum(axis=2).T
        types = {}
        for r, tr in zip(sel, map(tuple, traces.tolist())):
            lam = types.get(tr)
            if lam is None:
                lam = types[tr] = parts_from_traces(dict(zip(ds, tr)), m, index)
            out[r] = lam
    return out


def moebius_type_from_perm(perm, m_order, index):
    """Type of one permutation from the traces of its powers alone (a 1-row
    `moebius_types`); m_order is the order of g in Xi, which every part
    divides.  Never inspects cycles."""
    return moebius_types(perm, [m_order], index)[0]


def splitting_type_moebius(g, table: CosetTable):
    """Splitting type recovered from permutation-power traces alone."""
    gt = _as_tuple(g, table.level)
    m_order = order_in_xi_tuple(gt, table.level)
    return moebius_type_from_perm(act(gt, table), m_order, table.index)


# permutation entries held by one block of the dual sweep: small enough that
# the sweep's working set stays near the cache size, large enough that the
# per-block numpy overhead is paid rarely
_BLOCK_ENTRIES = 1 << 14


def coset_chain_blocks(table: CosetTable):
    """Every element of Xi(N) with its coset permutation, in blocks.

    Xi(N) is swept as the chains head * T^k of `xi_chain_heads`.  The action
    is a homomorphism, so sigma(head * T^k) = sigma(head)[sigma(T)^k]: one
    `act_block` row per chain head (one call per block of heads) and one
    gather from the table of powers of sigma(T) give the whole chain.
    Yields (elements, block) with the canonical element tuples and a
    rows x index array of their permutations, holding whole chains where
    one fits into _BLOCK_ENTRIES entries and consecutive pieces of one
    chain otherwise.
    """
    n, index = table.level, table.index
    t_perm = act(canon(1, 1, 0, 1, n), table)
    t_powers = np.empty((n, index), dtype=_PERM_DTYPE)
    t_powers[0] = np.arange(index)
    for k in range(1, n):
        t_powers[k] = t_powers[k - 1].take(t_perm)
    chains = max(1, _BLOCK_ENTRIES // (n * index))
    step = max(1, min(n, _BLOCK_ENTRIES // index))
    heads = list(xi_chain_heads(n))
    for h0 in range(0, len(heads), chains):
        group = heads[h0:h0 + chains]
        head_perms = act_block(group, table)
        for k0 in range(0, n, step):
            ks = range(k0, min(k0 + step, n))
            elements = [
                canon(a, b0 + k * a, c, d0 + k * c, n)
                for a, b0, c, d0 in group
                for k in ks
            ]
            block = head_perms.take(t_powers[k0:k0 + step], axis=1)
            yield elements, block.reshape(-1, index)


def dual_type_report(level, family, group_cap=None):
    """Exhaustive cycle-vs-Moebius comparison over all of Xi(level).

    Returns (element count, mismatch list sorted by element); one shared
    permutation per element feeds both extraction routes.
    """
    table = build_coset_table(SubgroupSpec(family, level), group_cap=group_cap)
    count = 0
    mismatches = []
    for elements, block in coset_chain_blocks(table):
        orders = [order_in_xi_tuple(g, level) for g in elements]
        by_cycles = cycle_types(block)
        by_moebius = moebius_types(block, orders, table.index)
        for g, lam_c, lam_m in zip(elements, by_cycles, by_moebius):
            if lam_c != lam_m:
                mismatches.append((g, lam_c, lam_m))
        count += len(elements)
    mismatches.sort(key=lambda row: row[0])
    return count, mismatches


# ---------------------------------------------------------------------------
# P^1(Z/N) fast-path model of the Gamma0 cosets
#
# Left cosets g*Gamma0(N) are classified by the first column (a : c) of g
# up to units, so the Gamma0 table embeds in P^1(Z/N).  The generic BFS
# table remains the reference; the two must agree coset-for-coset.

def p1_points(n):
    """Unimodular column pairs (a, c) mod n up to unit scaling, canonical min."""
    norm = {}
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    for a in range(n):
        for c in range(n):
            if math.gcd(math.gcd(a, c), n) != 1:
                continue
            key = (a, c)
            if key in norm:
                continue
            orbit = {((u * a) % n, (u * c) % n) for u in units}
            rep = min(orbit)
            for pt in orbit:
                norm[pt] = rep
    return norm


class P1Model:
    """Gamma0(N) coset action realized on P^1(Z/N), indexed to match a CosetTable."""

    def __init__(self, table: CosetTable):
        if table.subgroup.family != Family.GAMMA0:
            raise ValueError("P1 model applies to gamma0 only")
        n = table.level
        self.level = n
        self.norm = p1_points(n)
        self.point_to_coset = {}
        for i, (a, b, c, d) in enumerate(table.reps):
            self.point_to_coset[self.norm[(a, c)]] = i
        if len(self.point_to_coset) != table.index:
            raise ConsistencyError("P1 model does not match coset table")
        self.coset_to_point = [None] * table.index
        for pt, i in self.point_to_coset.items():
            self.coset_to_point[i] = pt

    def act(self, g):
        n = self.level
        ga, gb, gc, gd = _as_tuple(g, n)
        out = [0] * len(self.coset_to_point)
        for i, (a, c) in enumerate(self.coset_to_point):
            pt = self.norm[((ga * a + gb * c) % n, (gc * a + gd * c) % n)]
            out[i] = self.point_to_coset[pt]
        return out
