"""Coset tables for the congruence families and the induced permutation
action of Xi(N) on them.

Cosets are the left cosets r*Psi of Psi = image of the subgroup in Xi(N);
an element g acts by image[i] = j where r_j^-1 g r_i lies in the subgroup.
The cycle type of that permutation is the splitting type of any hyperbolic
class of SL2(Z) reducing to g.  It can be recovered independently from the
permutation character chi(g^d) = #fixed cosets of g^d by Moebius
inversion (`core.moebius_type_ids`), which reads only the fixed-coset
counts of the powers g^d, so it never sees the action it checks beyond
its fixed points: matrix powers for one element, and for all of Xi(N)
gathers through the q-th power maps of the chain grid, built once per
level from matrix products (`_power_maps`).

A Gamma0 coset is a point of P^1(Z/N), a first column (a, c) up to units;
a Gamma1 coset is a column up to sign, a point with a unit multiplier
(Cremona, Algorithms for Modular Elliptic Curves, 2.2; Diamond-Shurman,
GTM 228, 1.2).  Per prime power q = p^r of N the local point is c/a mod q
where p does not divide a, with multiplier a, else q + (a/c mod q)/p, with
multiplier c.  The point x is their mixed-radix number, radix q + q/p, one
of psi(N); the multiplier mu is the unit with those local multipliers, and
(a, c) = mu * v_x for v_x the CRT of the local columns (1, x_q) or
(p*(x_q - q), 1).  For Gamma1, u0 is the least unit of largest order m in
G = (Z/N)^*/{+-1}, rho_0 = 1 < rho_1 < ... are the least units of the
cosets of <u0>, and `code` numbers the unit +-rho_j * u0^e as j*m + e.  The
table acts on the base points (x, j), the columns rho_j * v_x, and mu * v_x
lies in coset x*|G| + code[mu].  Gamma0 is the same with code 0 at every
unit and |G| = 1.  Gamma(N) is normal: its cosets are the elements,
numbered by their places h*n + t (head_h * T^t) in `xi_chain_grid`, and its
table holds the heads of `core.chain_heads`.

The action has one kernel, `act_block`, which returns it in block (wreath)
form (Krasner-Kaloujnine; Dixon-Mortimer, GTM 163, 2.6): a permutation of
the matrices the table holds plus a shift in Z/m at each, m = N for Gamma,
m for Gamma1 and m = 1 for Gamma0.  A column alone would also accept
matrices of determinant other than 1 (the columns of (2,0,0,2) mod 7 are
unimodular), so an element outside Xi(N) is refused with ValueError.  No
route writes the block form out as a permutation of all the cosets: `act`
and the permutation kernels `cycle_types` and `moebius_type_from_perm` are
references for the tests, which check the kernel against the action by the
definition in tests/reference.py.  Cycle types have one kernel too:
`base_cycles` labels the base points by the least point of their cycle
(`core.cycle_labels`) and splits each base cycle by its summed shift, the
rule the census's T-orbits share; `_cycle_type_ids` counts the coset
cycles per length and row, and types each count row once per sweep
(`core.type_ids`, as the Moebius route its trace rows).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (
    DEFAULT_GROUP_CAP,
    CapExceeded,
    ConsistencyError,
    Family,
    Partition,
    SubgroupSpec,
    _residue_dtype,
    blocks,
    canon,
    capped_xi_order,
    chain_heads,
    cycle_labels,
    divisors,
    factorize,
    grid_entries,
    matrix_powers,
    moebius_type_ids,
    parts_from_traces,
    type_ids,
    unit_inverses,
    xi_chain_grid,
    xi_grid_positions,
    xi_orders,
)

# Permutation blocks are int32 at levels up to 2^15 (`core._residue_dtype`):
# gathers through ndarray.take with int32 indices run as fast as with intp
# and move half the bytes.  Flat indices need a block below 2^31 entries;
# the blocks hold at most max(core.BLOCK, k) for k <= index matrices per
# row (`core.blocks`), and the index is capped at core.DEFAULT_GROUP_CAP.
_PERM_DTYPE = np.int32


class CosetTable:
    """The cosets of one congruence subgroup in the block form of
    `act_block`: the k matrices `acted` an element multiplies, each
    standing for `modulus` m cosets, so that the index is k*m.  For Gamma
    they are the 4 x k int32 chain heads, m = N, coset h*N + t is
    head_h * T^t, and `code` is None.  For Gamma0 and Gamma1 they are the
    2 x k int32 columns rho_j * v_x of the base points x*lifts + j, with
    (q, p, inverses mod q, CRT idempotent) per prime power in `lines`."""

    def __init__(self, subgroup: SubgroupSpec, acted, modulus, code=None, lines=(), lifts=1):
        self.subgroup, self.level = subgroup, subgroup.level
        self.acted, self.modulus, self.index = acted, modulus, acted.shape[1] * modulus
        self.code, self.lines, self.lifts = code, lines, lifts

    @functools.cached_property
    def reps(self):
        """The representatives as canonical tuples in coset order, built on
        first use: for Gamma the elements of `xi_chain_grid`, row by row,
        else the chain head of the column mu * v_x of coset x*|G| + code[mu]."""
        n = self.level
        if self.code is None:
            entries = xi_chain_grid(n)
        else:
            unit_of = np.unique(self.code, return_index=True)[1][1:]  # a unit of each code
            x, mu = np.divmod(np.arange(self.index), len(unit_of))
            a, c = self.acted.take(x * self.lifts, axis=1) * unit_of.take(mu) % n
            heads, rows = chain_heads(n)
            entries = heads.take(rows.take(a * n + c) % heads.shape[1], axis=1)
        return [canon(*g, n) for g in zip(*(v.ravel().tolist() for v in entries))]


def capped_key_count(s: SubgroupSpec):
    """The matrices s's table counts: |Xi(N)| elements for Gamma
    (`capped_xi_order`), psi(N) points of P^1(Z/N) for Gamma0 and
    psi(N)*|G|/m base points for Gamma1 (`_unit_code`); CapExceeded above
    DEFAULT_GROUP_CAP.  A level that psi(N) > N puts over is refused
    before it is factored, and a Gamma1 level whose points are over it
    before `_unit_code`."""
    n = s.level
    if s.family == Family.GAMMA:
        return capped_xi_order(n)
    if n >= DEFAULT_GROUP_CAP:
        raise CapExceeded(f"more than {n} coset vectors of {s} exceeds cap {DEFAULT_GROUP_CAP}")
    count = math.prod(p**r + p**(r - 1) for p, r in factorize(n))
    if s.family == Family.GAMMA1 and count <= DEFAULT_GROUP_CAP:
        count *= len(_unit_code(n)[1])
    if count > DEFAULT_GROUP_CAP:
        raise CapExceeded(f"{count} coset vectors of {s} exceeds cap {DEFAULT_GROUP_CAP}")
    return count


def build_coset_table(s: SubgroupSpec) -> CosetTable:
    """Coset table of s inside Xi(N) by the rule of the module docstring,
    after the cap check of `capped_key_count`."""
    n = s.level
    count = capped_key_count(s)
    if s.family == Family.GAMMA:
        return CosetTable(s, chain_heads(n)[0], n)
    code, rho, m = _unit_code(n) if s.family == Family.GAMMA1 else (
        np.where(unit_inverses(n) > 0, 0, -1).astype(np.int32), [1], 1)
    lines = [(q, p, unit_inverses(q), n // q * pow(n // q, -1, q) % n)
             for q, p in ((p**r, p) for p, r in factorize(n))]
    x, a, c = np.arange(count // len(rho)), 0, 0
    for q, p, _, idempotent in reversed(lines):  # v_x, the CRT of the local columns
        x, local = np.divmod(x, q + q // p)
        unit = local < q
        a = (a + np.where(unit, 1, p * (local - q)) * idempotent) % n
        c = (c + np.where(unit, local, 1) * idempotent) % n
    acted = (np.stack((a, c))[:, :, None] * np.asarray(rho) % n).reshape(2, -1)
    return CosetTable(s, acted.astype(np.int32), m, code, lines, len(rho))


@functools.lru_cache(maxsize=4)
def _unit_code(n):
    """Gamma1's multipliers in G = (Z/n)^*/{+-1} as (code, rho, m): u0 is the
    least unit of largest order m in G, the `xi_orders` order of diag(u0,
    1/u0), rho_0 = 1 < rho_1 < ... the least units of the cosets of <u0>, and
    the read-only code (-1 at a non-unit) numbers +-rho_j * u0^e as j*m + e."""
    inverse = unit_inverses(n)
    units = np.flatnonzero(inverse)
    orders = xi_orders(np.stack((units, 0 * units, 0 * units, inverse.take(units)), axis=1), n)
    m, u0 = int(orders.max()), int(units[orders.argmax()])
    powers = np.ones(1, dtype=np.int64)
    while len(powers) < m:  # u0^e for e < m, doubling
        powers = np.concatenate((powers, powers * pow(u0, len(powers), n) % n))
    code, rho, free = np.full(n, -1, dtype=np.int32), [], units
    while len(free):
        at = free[0] * powers[:m] % n
        code[at] = code[-at % n] = np.arange(len(rho) * m, len(rho) * m + m)
        rho.append(int(free[0]))
        free = free[code.take(free) < 0]
    code.setflags(write=False)
    return code, tuple(rho), m


def act_block(elements, table: CosetTable):
    """The action of a list of elements in block form: two rows x k arrays
    (perm, shift) over the k matrices x_i of `table.acted`: coset
    i*m + t goes to perm[i]*m + (t + shift[i]) mod m (`expand_block`).

    (perm, shift) is divmod(p, m) for the coset p of g * x_i.  For Gamma, p
    is the place h'*n + t' of the product in the chain grid
    (`xi_grid_positions`), so g * x_i = +-x_perm[i] * T^shift[i].  For
    Gamma0 and Gamma1 it is x*|G| + code[mu] for the point x and multiplier
    mu of the product's first column, one pass per prime power of N; a unit
    without a code is a fault of the table, ConsistencyError.  Only the
    entries of the products that name a coset are computed.  An element
    whose determinant is not 1 mod N is refused with ValueError.
    """
    n = table.level
    r = table.acted
    g = np.array(elements, dtype=np.int64).reshape(-1, 4, 1) % n
    if not ((g[:, 0] * g[:, 3] - g[:, 1] * g[:, 2]) % n == 1 % n).all():
        raise ValueError(f"element not in Xi({n}) among {len(g)} acting elements")
    g = g.astype(_residue_dtype(n))  # holds a*e + b*g of residues
    if table.code is None:  # all four entries of every g * x
        e = [(g[:, 2 * i] * r[j] + g[:, 2 * i + 1] * r[j + 2]) % n for i, j in np.ndindex(2, 2)]
        return np.divmod(xi_grid_positions(e, n), n)
    a, c = ((g[:, 2 * i] * r[0] + g[:, 2 * i + 1] * r[1]) % n for i in (0, 1))
    x = mu = 0
    for q, p, inverse, idempotent in table.lines:  # at q = N, a and c are local already
        aq, cq = (a % q, c % q) if q < n else (a, c)
        unit = aq % p != 0
        local = np.where(unit, aq, cq)  # the local multiplier
        y = np.where(unit, cq, aq) * inverse.take(local) % q
        x = x * (q + q // p) + np.where(unit, y, q + y // p)
        mu = (mu + local * idempotent) % n if q < n else local
    j = table.code.take(mu)
    if j.min(initial=0) < 0:
        raise ConsistencyError(f"a product's multiplier has no code in the {table.subgroup} table")
    j, shift = np.divmod(j, table.modulus)
    return x * table.lifts + j, shift


def expand_block(perm, shift, m):
    """The coset permutations of a block in block form (`act_block`), k*m
    points per row: coset h*m + t goes to perm[h]*m + (t + shift[h]) mod m."""
    t = np.arange(m, dtype=_PERM_DTYPE)
    rows, k = perm.shape
    return (perm[:, :, None] * m + (shift[:, :, None] + t) % m).reshape(rows, k * m)


def act(g, table: CosetTable):
    """Permutation of coset indices induced by g: its 1-row `act_block`,
    expanded to all index cosets."""
    return expand_block(*act_block([g], table), table.modulus)[0]


def base_cycles(perm, shift, m):
    """The base cycles of a block in block form, its rows one permutation
    of the flat points r*width + i: the least point of the cycle through
    each point (`cycle_labels`), the leaders (their own label) and, per
    leader, the number of coset cycles its cycle is.  A base cycle of
    length l whose shifts sum to sigma returns to its start shifted by
    sigma, so it is gcd(sigma, m) coset cycles of length l*m/gcd(sigma, m)."""
    rows, width = perm.shape
    offsets = np.arange(0, rows * width, width, dtype=_PERM_DTYPE)
    label = cycle_labels((perm + offsets[:, None]).ravel())
    leaders = np.flatnonzero(label == np.arange(label.size, dtype=label.dtype))
    sigma = np.bincount(label, weights=shift.ravel(), minlength=label.size)[leaders]
    return label, leaders, np.gcd(sigma.astype(np.int64), m)


def _fixed_counts(perm, shift, m):
    """The fixed-coset count of every row of a block in block form: m for
    each base point fixed with shift 0."""
    fixed = (perm == np.arange(perm.shape[1], dtype=_PERM_DTYPE)) & (shift == 0)
    return m * np.count_nonzero(fixed, axis=1)


def cycle_types(block):
    """Cycle type of every row of a 2-D block of permutations, as
    `Partition`s (`_cycle_type_ids` of the block form with m = 1)."""
    ids, block = {}, np.atleast_2d(np.asarray(block, dtype=_PERM_DTYPE))
    row_ids = _cycle_type_ids(block, np.zeros_like(block), 1, ids, {}).tolist()
    types = list(ids)
    return [types[i] for i in row_ids]


def cycle_type_of(perm):
    """Cycle type of a permutation given as an image list/array."""
    return cycle_types(perm)[0]


def splitting_type_cycles(g, table: CosetTable):
    """Splitting type as the cycle type of the coset permutation of g."""
    return splitting_types([g], table)[0]


def splitting_types(elements, table: CosetTable):
    """Splitting types of a list of elements, from the block form of their
    action (`_block_action`).  One `_cycle_type_ids` registry and memo
    serve every block: each count row is typed once, equal types are one object."""
    ids, memo, row_ids = {}, {}, []
    for perm, shift in _block_action(elements, table):
        row_ids += _cycle_type_ids(perm, shift, table.modulus, ids, memo).tolist()
    types = list(ids)
    return [types[i] for i in row_ids]


def _fixed_cosets(elements, table: CosetTable):
    """The fixed-coset count of each of a non-empty list of elements, from
    the block form of their action (`_block_action`)."""
    return np.concatenate([_fixed_counts(perm, shift, table.modulus)
                           for perm, shift in _block_action(elements, table)])


def induced_trace(g, table: CosetTable):
    """Number of fixed cosets of g (the induced-representation character)."""
    return int(_fixed_cosets([g], table)[0])


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
    """Splitting type recovered from the permutation character alone: the
    fixed-coset counts of the powers of g (`_fixed_cosets`), through
    `moebius_type_ids`.  Never inspects cycles."""
    ids, g = {}, np.reshape(g, (1, 2, 2))
    moebius_type_ids(xi_orders(g, table.level), lambda rows, ds: _fixed_cosets(
        np.stack(matrix_powers(g, ds, table.level)).reshape(-1, 4), table), table.index, ids, {})
    return next(iter(ids))


def _block_action(elements, table: CosetTable):
    """`act_block` of a list of elements in `blocks` of rows as wide as
    the matrices the table holds."""
    for rows in blocks(len(elements), table.acted.shape[1]):
        yield act_block(elements[rows], table)


def coset_chain_blocks(table: CosetTable):
    """The action of every element of Xi(N) in block form, in blocks.

    Xi(N) is swept as the chains head * T^k of `chain_heads`.  The action
    is a homomorphism, and in block form a product g * g' has the base
    permutation perm_g[perm_g'] and the shifts shift_g[perm_g'] + shift_g'
    (mod m).  So one `act_block` row per chain head (`_block_action`)
    and one gather from the block form of T^k, k < N, give the whole
    chain.  Yields (perm, shift) pairs of rows x k arrays, holding whole
    chains where one fits into a block (`blocks`) and consecutive pieces of
    one chain otherwise.  So the rows of all blocks, in turn, are the
    flattened grid of `xi_chain_grid`: head by head, k along each chain.
    """
    n, m = table.level, table.modulus
    width = table.acted.shape[1]
    t_perm, t_shift = act_block([(1, k, 0, 1) for k in range(n)], table)
    for head_perm, head_shift in _block_action(chain_heads(n)[0].T, table):
        for chains in blocks(len(head_perm), n * width):
            for k in blocks(n, width):
                perm = head_perm[chains].take(t_perm[k], axis=1).reshape(-1, width)
                shift = head_shift[chains].take(t_perm[k], axis=1) + t_shift[k]
                yield perm, (shift % m).reshape(-1, width)


def _cycle_type_ids(perm, shift, m, ids, memo):
    """The id in `ids` (type -> id, grown as types appear) of the cycle
    type of every row of a block in block form: the coset cycles of
    `base_cycles` counted per length and row, and each distinct row of
    counts not in `memo` read as the runs of a `Partition` (`type_ids`)."""
    label, leaders, copies = base_cycles(perm, shift, m)
    lengths = np.bincount(label, minlength=label.size)[leaders] * (m // copies)
    width = int(lengths.max(initial=0)) + 1
    counts = np.bincount(leaders // perm.shape[1] * width + lengths, weights=copies,
                         minlength=len(perm) * width).astype(np.int64, copy=False)
    return type_ids(counts.reshape(-1, width), lambda row: Partition(enumerate(row)), ids, memo)


@functools.lru_cache(maxsize=8)
def _power_maps(level):
    """Read-only int32 maps of the flat chain grid of Xi(level), maps[q][x]
    the position of x^q for each prime q of |Xi|, from one `matrix_powers`
    call per block of elements (`blocks`); and each element's order by
    gathers: x^(|Xi|/q^e) takes j q-steps to the identity, q^j the q-part
    of it."""
    size = capped_xi_order(level)
    primes = factorize(size)
    maps = {q: np.empty(size, dtype=np.int32) for q, _ in primes}
    for rows in blocks(size):
        at = np.arange(rows.start, rows.stop, dtype=np.int32)
        g = np.stack(grid_entries(at, level), axis=1).reshape(-1, 2, 2)
        for q, x in zip(maps, matrix_powers(g, list(maps), level)):
            maps[q][at] = xi_grid_positions(x.reshape(-1, 4).T, level)
    one = xi_grid_positions(np.array([[1], [0], [0], [1]]), level)[0]
    orders = np.ones(size, dtype=np.int32)
    for rows in blocks(size):
        block = orders[rows]
        for q, e in primes:
            x = _grid_power(maps, size // q**e, np.arange(rows.start, rows.stop))
            for _ in range(e):
                np.multiply(block, q, out=block, where=x != one)
                x = maps[q].take(x)
    for array in (*maps.values(), orders):
        array.setflags(write=False)
    return maps, orders


def _grid_power(maps, k, at):
    """The grid positions of x^k for the elements x at positions `at`:
    the q-th power maps along the prime factors q of k."""
    for q in maps:
        while k % q == 0:
            at, k = maps[q].take(at), k // q
    return at


def dual_type_report(level, family):
    """Exhaustive cycle-vs-Moebius comparison over all of Xi(level), refused
    with CapExceeded above DEFAULT_GROUP_CAP elements before anything is
    built.

    Returns (element count, mismatch list sorted by element).  One pass
    over `coset_chain_blocks` keeps two int32 numbers per element, in grid
    order: its fixed-coset count (`_fixed_counts`) and the id of its cycle
    type (`_cycle_type_ids`, each count row typed once), both from the block
    form of its action.  The Moebius route (`moebius_type_ids`) then reads
    tr sigma(g)^d at the grid position of g^d (`_grid_power`), with the
    orders and power maps of `_power_maps`, built from matrix products, so
    an action that is not a homomorphism shows as a mismatch too.  Elements
    are decoded from the grid only for the mismatches.
    """
    size = capped_xi_order(level)
    table = build_coset_table(SubgroupSpec(family, level))
    maps, orders = _power_maps(level)
    fixed, by_cycles = np.empty((2, size), dtype=np.int32)
    ids = {}  # every type seen, by either route -> its id
    count, by_counts, by_traces = 0, {}, {}
    for perm, shift in coset_chain_blocks(table):
        rows = slice(count, count + len(perm))
        fixed[rows] = _fixed_counts(perm, shift, table.modulus)
        by_cycles[rows] = _cycle_type_ids(perm, shift, table.modulus, ids, by_counts)
        count += len(perm)
    if count != size:
        raise ConsistencyError(f"{count} permutations swept for {size} elements of Xi({level})")
    bad, by_moebius = [], []
    for rows in blocks(size):
        lam_m = moebius_type_ids(orders[rows],
                                 lambda sel, ds: fixed.take([_grid_power(maps, d, sel + rows.start)
                                                             for d in ds]),
                                 table.index, ids, by_traces)
        miss = np.flatnonzero(lam_m != by_cycles[rows])
        bad.append(miss + rows.start)
        by_moebius.append(lam_m.take(miss))
    bad, by_moebius = np.concatenate(bad), np.concatenate(by_moebius)
    types = list(ids)
    mismatches = [(canon(*g, level), types[c], types[m]) for g, c, m in zip(
        np.stack(grid_entries(bad, level)).T.tolist(), by_cycles.take(bad).tolist(),
        by_moebius.tolist())]
    mismatches.sort(key=lambda row: row[0])
    return count, mismatches
