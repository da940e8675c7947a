"""Coset tables for the congruence families and the induced permutation
action of Xi(N) on them.

Cosets are the left cosets r*Psi of Psi = image of the subgroup in Xi(N);
an element g acts by image[i] = j where r_j^-1 g r_i lies in the subgroup.
The cycle type of that permutation is the splitting type of any hyperbolic
class of SL2(Z) reducing to g, and can be recovered independently from the
permutation character chi(g^d) = tr sigma(g)^d = #fixed cosets of g^d by
Moebius inversion; the two routes are kept separate so they can
cross-check each other.  For one element (`splitting_type_moebius`) the
traces are those of the powers of its permutation.  The exhaustive sweep
(`dual_type_report`) reads them instead from the permutations of the
elements g^d themselves, so there the Moebius route never sees the
permutation it checks beyond its fixed points.

A coset is named by a vector of any of its elements, taken up to sign: the
first column (a, c) for Gamma1(N), whose elements +-[[1, y], [0, 1]] fix
it; the first column up to units for Gamma0(N), whose elements
[[u, y], [0, 1/u]] scale it by u; the whole element for Gamma(N).  The
representatives are listed directly, with the identity's coset as coset 0:
the completion (`complete_column`) of every unimodular column for Gamma1,
of the first column in each unit orbit for Gamma0, and the decoded sorted
key array of Xi(N) (`xi_keys`) for Gamma; only Gamma walks the whole
group.  The table reads the coset off a vector by direct address, from one
int32 array: for Gamma0 and Gamma1 an n x n array over the columns a*n + c
(both signs, from `core.column_rows`), for Gamma an array over the flat
positions h*n + t of the element in `xi_chain_grid` (`xi_grid_positions`).

The action has one kernel, `act_block`: it computes only the entries of
g * r_i that name a coset and reads the coset at their address; for Gamma
it places only the products with the chain heads and shifts along the
chains (head * T^t).  A
column alone would also accept matrices of determinant other than 1 (the
columns of (2,0,0,2) mod 7 are unimodular), so every acting element's
determinant is checked and an element outside Xi(N) is refused with
ValueError.  The tests check the kernel against the action by the
definition, from subgroup membership over all of Xi(N), which lives in
tests/reference.py.

Cycle types have one kernel too: `core.cycle_labels` (pointer doubling,
shared with the reduction cycles of `geodesics`) labels every point of a
block by the least point of its cycle, and `_cycle_type_ids` bins the
cycle lengths per row.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (
    CapExceeded,
    ConsistencyError,
    Family,
    SubgroupSpec,
    canon,
    capped_xi_order,
    column_rows,
    complete_column,
    cycle_labels,
    decode_keys,
    divisors,
    identity,
    matrix_powers,
    order_in_xi_tuple,
    parts_from_traces,
    sign_keys,
    unimodular_columns,
    xi_chain_grid,
    xi_chain_heads,
    xi_grid_positions,
    xi_keys,
    xi_order,
    xi_orders,
)

# bounds the vectors a coset table lists, and with it the index
DEFAULT_INDEX_CAP = 10**7

# Permutation blocks are int32: gathers through ndarray.take with int32 indices
# run as fast as with intp and move half the bytes.  Flat indices need a
# block below 2^31 entries; the sweep's blocks hold at most
# max(_BLOCK_ENTRIES, index) and the index is capped at DEFAULT_INDEX_CAP.
_PERM_DTYPE = np.int32


class CosetTable:
    """The cosets of one congruence subgroup: the entries (index x 4) of
    their representatives (the identity's coset first) and the int32
    `lookup` from the address of a vector to its coset, -1 where it names
    none: a*n + c of the first column for Gamma0 and Gamma1, the place
    h*n + t in `xi_chain_grid` for Gamma.  `acted` holds the entries
    (4 x k int32) of the matrices an element multiplies, the
    representatives or for Gamma the chain heads, whose row h and step t
    for each coset are `chains`."""

    def __init__(self, subgroup: SubgroupSpec, entries, lookup, acted, chains=None):
        self.subgroup = subgroup
        self.level = subgroup.level
        self.entries = entries
        self.index = len(entries)
        self.lookup = lookup
        self.acted = acted
        self.chains = chains

    @functools.cached_property
    def reps(self):
        """The representatives as tuples, built on first use."""
        return list(map(tuple, self.entries.tolist()))


def capped_key_count(s: SubgroupSpec):
    """Count of the vectors the coset table of s lists, |Xi(N)|/N columns
    or |Xi(N)| elements for Gamma; CapExceeded above DEFAULT_INDEX_CAP."""
    n = s.level
    count = xi_order(n) if s.family == Family.GAMMA else xi_order(n) // n
    if count > DEFAULT_INDEX_CAP:
        raise CapExceeded(f"{count} coset vectors of {s} exceeds cap {DEFAULT_INDEX_CAP}")
    return count


def build_coset_table(s: SubgroupSpec) -> CosetTable:
    """Coset table for Gamma~(N) inside Xi(N), by the rule of the module
    docstring.  The vector count is checked against DEFAULT_INDEX_CAP
    before anything is built (`capped_key_count`)."""
    n = s.level
    count = capped_key_count(s)
    if s.family == Family.GAMMA:
        return _gamma_table(s)
    # the identity's column first: it names coset 0
    columns = [(1, 0)] + [v for v in unimodular_columns(n) if v != (1, 0)]
    if len(columns) != count:
        raise ConsistencyError(f"{len(columns)} columns of {s}, expected {count}")
    rows = column_rows(*np.array(columns, dtype=np.int64).T, n)
    if s.family == Family.GAMMA0:
        reps, cosets = _unit_orbits(columns, rows, n)
    else:
        reps = [canon(*complete_column(a, c, n), n) for a, c in columns]
        cosets = np.arange(count, dtype=_PERM_DTYPE)
    entries = np.array(reps, dtype=np.int32)
    return CosetTable(s, entries, np.where(rows < 0, -1, cosets.take(rows % count)), entries.T)


def _gamma_table(s):
    """The Gamma(N) table straight from the sorted key array of Xi(N)
    (`xi_keys` checks that it holds |Xi(N)| distinct keys): the cosets are
    the elements, listed in key order after the identity, and the lookup
    holds each at its place in the chain grid (a place left at -1 fails
    `act_block`)."""
    n = s.level
    keys = xi_keys(n)
    first = int(keys.searchsorted(sign_keys(np.array(identity(n))[:, None], n)[0]))
    rank = np.arange(len(keys))  # key rank of each coset
    rank[:first + 1] = np.roll(rank[:first + 1], 1)
    entries = decode_keys(keys, n).take(rank, axis=0)
    heads = np.array(list(xi_chain_heads(n)), dtype=np.int32).T
    place = xi_grid_positions(heads[:, :, None], entries.T, n).astype(_PERM_DTYPE)
    lookup = np.full(len(keys), -1, dtype=_PERM_DTYPE)
    lookup[place] = np.arange(len(keys), dtype=_PERM_DTYPE)
    return CosetTable(s, entries, lookup, heads, np.divmod(place, n))


def _unit_orbits(columns, rows, n):
    """Gamma0 cosets as the orbits of the columns under the units mod n:
    the completion of the first column of each orbit becomes its
    representative.  `rows` is the `column_rows` table of the columns.
    Returns (reps, coset of each column)."""
    units = np.array([u for u in range(1, n) if math.gcd(u, n) == 1], dtype=np.int64)
    cosets = np.full(len(columns), -1, dtype=_PERM_DTYPE)
    reps = []
    for i, (a, c) in enumerate(columns):
        if cosets[i] < 0:
            cosets[rows.take(units * a % n * n + units * c % n) % len(columns)] = len(reps)
            reps.append(canon(*complete_column(a, c, n), n))
    return reps, cosets


def act_block(elements, table: CosetTable):
    """Coset permutations of a list of elements as a rows x index int32
    block: row r maps coset i to the coset of elements[r] * reps[i].

    Only the entries of the products that name a coset are computed, and
    the coset is read from `table.lookup` at their address.  For Gamma only
    g * head_h is placed, at h'*n + t': then g * head_h * T^t = +-head_h' *
    T^(t' + t), so each coset moves to chain h' with its step shifted by t'.
    An element whose determinant is not 1 mod N is refused with ValueError.
    """
    n = table.level
    r = table.acted
    g = np.array(elements, dtype=np.int64).reshape(-1, 4, 1) % n
    if not ((g[:, 0] * g[:, 3] - g[:, 1] * g[:, 2]) % n == 1 % n).all():
        raise ValueError(f"element not in Xi({n}) among {len(g)} acting elements")
    g = g.astype(np.int32)  # holds a*e + b*g of residues at every level the caps admit
    # the entries (i, j) of every g * r: the first column, or all four for Gamma
    e = [(g[:, 2 * i] * r[j] + g[:, 2 * i + 1] * r[j + 2]) % n
         for i, j in ([(0, 0), (1, 0)] if table.chains is None else np.ndindex(2, 2))]
    if table.chains is None:
        address = e[0] * n + e[1]
    else:
        row, step = table.chains
        h, t = np.divmod(xi_grid_positions(r[:, :, None], e, n), n)
        address = h.take(row, axis=1) * n + (t.take(row, axis=1) + step) % n
    perm = table.lookup.take(address)
    if perm.min(initial=0) < 0:
        raise ConsistencyError(f"a product lies in no coset of the {table.subgroup} table")
    return perm


def act(g, table: CosetTable):
    """Permutation of coset indices induced by g (a 1-row `act_block`)."""
    return act_block([g], table)[0]


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


def _cycles(block):
    """The row and the length of every cycle of every row of a 2-D block of
    permutations, rows ascending: the points per leader of `cycle_labels`."""
    label = cycle_labels(_flat_successors(block))
    leaders = np.flatnonzero(label == np.arange(label.size, dtype=label.dtype))
    return leaders // block.shape[1], np.bincount(label, minlength=label.size)[leaders]


def cycle_types(block):
    """Cycle type of every row of a 2-D block of permutations, as tuples
    (`_cycle_type_ids`)."""
    ids = {}
    row_ids = _cycle_type_ids(_as_block(block), ids, {}).tolist()
    types = list(ids)
    return [types[i] for i in row_ids]


def cycle_type_of(perm):
    """Cycle type of a permutation given as an image list/array."""
    return cycle_types(perm)[0]


def splitting_type_cycles(g, table: CosetTable):
    """Splitting type as the cycle type of the coset permutation."""
    return cycle_type_of(act(g, table))


def splitting_types(elements, table: CosetTable):
    """Splitting types of a list of elements, in blocks of at most
    _BLOCK_ENTRIES entries (at least one row).  One `_cycle_type_ids`
    registry serves every block, so each distinct type tuple is built once
    and equal types are the same object."""
    rows = max(1, _BLOCK_ENTRIES // table.index)
    ids, memo, row_ids = {}, {}, []
    for start in range(0, len(elements), rows):
        block = act_block(elements[start:start + rows], table)
        row_ids += _cycle_type_ids(block, ids, memo).tolist()
    types = list(ids)
    return [types[i] for i in row_ids]


def induced_trace(g, table: CosetTable):
    """Number of fixed cosets of g (the induced-representation character)."""
    perm = act(g, table)
    return int(np.count_nonzero(perm == np.arange(len(perm))))


def _flat_power(memo, k):
    """sigma^k of a permutation array, memo[1] = sigma, by halving k and
    composing by gathers; every power it builds is kept in memo."""
    q = memo.get(k)
    if q is None:
        h = _flat_power(memo, k // 2)
        q = h.take(h)
        if k & 1:
            q = memo[1].take(q)
        memo[k] = q
    return q


def moebius_type_from_perm(perm, m_order, index):
    """Type of one permutation from the traces of its powers alone, via the
    Moebius recursion of `parts_from_traces`.  m_order is the order of g in
    Xi, which every cycle length divides: the powers sigma^d for its
    divisors d are composed by gathers (`_flat_power`) and only their fixed
    points are counted.  Never inspects cycles."""
    memo = {1: np.asarray(perm, dtype=_PERM_DTYPE)}
    points = np.arange(len(memo[1]), dtype=_PERM_DTYPE)
    traces = {d: int(np.count_nonzero(_flat_power(memo, d) == points))
              for d in divisors(m_order)}
    return parts_from_traces(traces, m_order, index)


def splitting_type_moebius(g, table: CosetTable):
    """Splitting type recovered from permutation-power traces alone."""
    m_order = order_in_xi_tuple(g, table.level)
    return moebius_type_from_perm(act(g, table), m_order, table.index)


# permutation entries held by one block of the dual sweep: small enough that
# the sweep's working set stays near the cache size, large enough that the
# per-block numpy overhead is paid rarely
_BLOCK_ENTRIES = 1 << 14


def coset_chain_blocks(table: CosetTable):
    """The coset permutation of every element of Xi(N), in blocks.

    Xi(N) is swept as the chains head * T^k of `xi_chain_heads`.  The action
    is a homomorphism, so sigma(head * T^k) = sigma(head)[sigma(T)^k]: one
    `act_block` row per chain head (one call per block of heads) and one
    gather from the table of powers of sigma(T) give the whole chain.
    Yields rows x index arrays of permutations, holding whole chains where
    one fits into _BLOCK_ENTRIES entries and consecutive pieces of one
    chain otherwise.  So the rows of all blocks, in turn, are the flattened
    grid of `xi_chain_grid`: head by head, k along each chain.
    """
    n, index = table.level, table.index
    t_perm = act(canon(1, 1, 0, 1, n), table)
    t_powers = np.empty((n, index), dtype=_PERM_DTYPE)
    t_powers[0] = np.arange(index)
    for k in range(1, n):
        t_powers[k] = t_powers[k - 1].take(t_perm)
    acted = max(1, _BLOCK_ENTRIES // index)  # heads per `act_block` call
    chains = max(1, acted // n)
    step = min(n, acted)
    heads = list(xi_chain_heads(n))
    for h0 in range(0, len(heads), acted):
        head_perms = act_block(heads[h0:h0 + acted], table)
        for c0 in range(0, len(head_perms), chains):
            for k0 in range(0, n, step):
                block = head_perms[c0:c0 + chains].take(t_powers[k0:k0 + step], axis=1)
                yield block.reshape(-1, index)


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


def _cycle_type_ids(block, ids, memo):
    """The id in `ids` (type -> id, grown as types appear) of the cycle
    type of every row of a block: the cycle lengths of `_cycles` counted
    per row.  A distinct row of counts becomes a type tuple only the first
    time it is seen: `memo` maps its bytes, with the trailing zero counts
    dropped so that the block's width does not matter, to the id."""
    owner, lengths = _cycles(block)
    width = int(lengths.max(initial=0)) + 1
    counts = np.bincount(owner * width + lengths, minlength=len(block) * width)
    distinct, inverse = _distinct_rows(counts.reshape(-1, width))
    descending = np.arange(width - 1, 0, -1)
    row_ids = []
    for row in distinct:
        key = row.tobytes().rstrip(b"\0")
        if key not in memo:
            lam = tuple(np.repeat(descending, row[:0:-1]).tolist())
            memo[key] = ids.setdefault(lam, len(ids))
        row_ids.append(memo[key])
    return np.array(row_ids, dtype=np.int32).take(inverse)


def _moebius_type_ids(grid, start, stop, fixed, index, ids, memo):
    """The id in `ids` of the type of elements start..stop of the grid (the
    flat `xi_chain_grid`), from the fixed-point counts `fixed` of the
    permutations of the whole grid alone.

    The action is a homomorphism, so tr sigma(g)^d = fixed[g^d]: for the
    divisors d of the order m of g, the power g^d is formed as a matrix
    (`matrix_powers`, sharing the squarings) and its place in the grid is
    read from its entries (`xi_grid_positions`).  `parts_from_traces` runs
    once per distinct (m, trace vector), memoised in `memo` across calls.
    Never inspects cycles, nor the permutation of g beyond its fixed points.
    """
    n = grid[0].shape[1]
    g = _grid_entries(grid, np.arange(start, stop))
    orders = xi_orders(g.T, n)
    out = np.empty(len(orders), dtype=np.int32)
    for m in np.flatnonzero(np.bincount(orders)).tolist():
        sel = np.flatnonzero(orders == m)
        ds = divisors(m)
        powers = np.stack(matrix_powers(g.take(sel, axis=1).T.reshape(-1, 2, 2), ds, n))
        pos = xi_grid_positions(grid, powers.reshape(-1, 4).T, n)
        traces = fixed.take(pos).reshape(len(ds), len(sel)).T
        distinct, inverse = _distinct_rows(traces)
        row_ids = []
        for tr in map(tuple, distinct.tolist()):
            if (m, tr) not in memo:
                lam = parts_from_traces(dict(zip(ds, tr)), m, index)
                memo[m, tr] = ids.setdefault(lam, len(ids))
            row_ids.append(memo[m, tr])
        out[sel] = np.array(row_ids, dtype=np.int32).take(inverse)
    return out


def _grid_entries(grid, flat):
    """The entries (a, b, c, d) of the elements at flat positions h*n + t
    of the grid, as the rows of a 4 x k int32 array."""
    h, t = np.divmod(flat, grid[0].shape[1])
    return np.stack([v[h, t] for v in grid])


# elements per block of the Moebius step of `dual_type_report`: bounds its
# matrix powers to a few MB
_MOEBIUS_ROWS = 1 << 14


def dual_type_report(level, family):
    """Exhaustive cycle-vs-Moebius comparison over all of Xi(level), refused
    with CapExceeded above DEFAULT_GROUP_CAP elements before anything is
    built.

    Returns (element count, mismatch list sorted by element).  One pass
    over `coset_chain_blocks` keeps two int32 numbers per element, in grid
    order: the fixed-point count of its permutation and the id of its cycle
    type (`_cycle_type_ids`).  The Moebius route (`_moebius_type_ids`) then
    reads only fixed-point counts, those of the powers of each element, so
    an action that is not a homomorphism shows as a mismatch too.  Elements
    are decoded from the grid only for the mismatches.
    """
    capped_xi_order(level)
    table = build_coset_table(SubgroupSpec(family, level))
    grid = xi_chain_grid(level)
    size = grid[0].size
    fixed = np.empty(size, dtype=np.int32)
    by_cycles = np.empty(size, dtype=np.int32)
    ids = {}  # every type seen, by either route -> its id
    points = np.arange(table.index, dtype=_PERM_DTYPE)
    count, by_counts, by_traces = 0, {}, {}
    for block in coset_chain_blocks(table):
        rows = slice(count, count + len(block))
        fixed[rows] = np.count_nonzero(block == points, axis=1)
        by_cycles[rows] = _cycle_type_ids(block, ids, by_counts)
        count += len(block)
    if count != size:
        raise ConsistencyError(f"{count} permutations swept for {size} elements of Xi({level})")
    bad, by_moebius = [], []
    for start in range(0, size, _MOEBIUS_ROWS):
        stop = min(start + _MOEBIUS_ROWS, size)
        lam_m = _moebius_type_ids(grid, start, stop, fixed, table.index, ids, by_traces)
        miss = np.flatnonzero(lam_m != by_cycles[start:stop])
        bad.append(miss + start)
        by_moebius.append(lam_m.take(miss))
    bad, by_moebius = np.concatenate(bad), np.concatenate(by_moebius)
    types = list(ids)
    mismatches = [(canon(*g, level), types[c], types[m]) for g, c, m in zip(
        _grid_entries(grid, bad).T.tolist(), by_cycles.take(bad).tolist(), by_moebius.tolist())]
    mismatches.sort(key=lambda row: row[0])
    return count, mismatches
