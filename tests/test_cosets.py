import random
from math import gcd

import pytest

from geosplit.core import (
    Family,
    SubgroupSpec,
    canon,
    enumerate_xi,
    identity,
    mul,
    order_in_xi_tuple,
    partition,
    xi_order,
)
from geosplit.cosets import (
    act,
    build_coset_table,
    cycle_type_of,
    dual_type_report,
    induced_trace,
    moebius_type_from_perm,
    splitting_type_cycles,
    splitting_type_moebius,
)
from reference import act_reference, complete_column, inv, is_member_tuple, matpow


def table(family, level):
    return build_coset_table(SubgroupSpec(family, level))


def test_indices_small_levels():
    # the worked example for level 3 prints an index of 1, but the partitions
    # it lists have weight 4 and the index formula gives 4; the table must use 4
    assert table(Family.GAMMA0, 3).index == 4
    assert table(Family.GAMMA0, 5).index == 6
    assert table(Family.GAMMA, 5).index == 60


@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_prime_power_index_formulas(p, r):
    n = p**r
    assert table(Family.GAMMA0, n).index == p ** (r - 1) * (p + 1)
    assert table(Family.GAMMA1, n).index == p ** (2 * r - 2) * (p * p - 1) // 2
    assert table(Family.GAMMA, n).index == xi_order(n)


def unit_orders(n):
    """The units of Z/n and the order of each up to sign, by repeated
    multiplication."""
    units, orders = [u for u in range(1, n) if gcd(u, n) == 1], []
    for u in units:
        x, j = u, 1
        while x not in (1 % n, n - 1):
            x, j = x * u % n, j + 1
        orders.append(j)
    return units, orders


def test_gamma1_modulus_is_the_largest_unit_order():
    """The Gamma1 table's modulus is the largest order of a unit of Z/N up
    to sign (`unit_orders`), and its acted base points times that modulus
    are the index, for every N <= 64."""
    for n in range(2, 65):
        units, orders = unit_orders(n)
        t = table(Family.GAMMA1, n)
        assert t.modulus == max(orders), n
        assert t.acted.shape[1] * t.modulus == t.index == xi_order(n) // n, n


@pytest.mark.parametrize("n", list(range(2, 31)))
def test_gamma0_index_multiplicative_formula(n):
    from geosplit.core import prime_factors

    expect = n
    for p in prime_factors(n):
        expect += expect // p
    assert table(Family.GAMMA0, n).index == expect


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 9, 12])
def test_reps_in_distinct_cosets(family, n):
    t = table(family, n)
    for i, ri in enumerate(t.reps):
        for rj in t.reps[i + 1:]:
            assert not is_member_tuple(mul(inv(ri, n), rj, n), family, n)


def test_act_identity_and_stabilizer():
    t = table(Family.GAMMA0, 5)
    assert list(act(identity(5), t)) == list(range(6))
    # members of the subgroup fix the identity's coset 0, that of column
    # (1, 0): the point x = 0 with multiplier 1
    g = canon(1, 1, 0, 1, 5)
    assert t.reps[0] == identity(5)
    assert act(g, t)[0] == 0


def test_act_unipotent_fixed_points_mod5():
    # brute force over the six points: T = [[1,1],[0,1]] fixes exactly the
    # single coset of (1:0); Lemma-5 closed form gives p^floor(r/2) = 1
    t = table(Family.GAMMA0, 5)
    perm = act(canon(1, 1, 0, 1, 5), t)
    assert sum(1 for i, j in enumerate(perm) if i == j) == 1
    assert induced_trace(canon(1, 1, 0, 1, 5), t) == 1


def naive_action(g, family, n):
    """Independent oracle: partition Xi into cosets by pairwise membership
    tests only, then act by solving r_j^-1 g r_i in the subgroup."""
    xi = enumerate_xi(n)
    reps = []
    for x in xi:
        if not any(is_member_tuple(mul(inv(r, n), x, n), family, n) for r in reps):
            reps.append(x)
    out = []
    for ri in reps:
        images = [
            j
            for j, rj in enumerate(reps)
            if is_member_tuple(mul(inv(rj, n), mul(g, ri, n), n), family, n)
        ]
        assert len(images) == 1
        out.append(images[0])
    return reps, out


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_act_against_naive_oracle(family, n):
    t = table(family, n)
    rng = random.Random(n)
    xi = enumerate_xi(n)
    for g in [identity(n), canon(1, 1, 0, 1, n)] + [rng.choice(xi) for _ in range(8)]:
        reps, naive = naive_action(g, family, n)
        assert cycle_type_of(naive) == splitting_type_cycles(g, t)
        assert sorted(naive) == list(range(len(naive)))  # bijection


def test_splitting_type_examples():
    assert tuple(splitting_type_cycles(identity(5), table(Family.GAMMA0, 5))) == (1,) * 6
    assert tuple(splitting_type_cycles(canon(2, 1, 1, 1, 3), table(Family.GAMMA0, 3))) == (2, 2)
    # every order-5 element mod 5 has type (5,1) (density 2/5 in the tables)
    t5 = table(Family.GAMMA0, 5)
    for g in enumerate_xi(5):
        if order_in_xi_tuple(g, 5) == 5:
            assert tuple(splitting_type_cycles(g, t5)) == (5, 1)


def test_unipotent_type_mod9():
    # T mod 9 has order 9, trace sequence tr sigma(T) = 3, tr sigma(T^3) = 3,
    # so the Moebius recursion gives (9,1,1,1); verified here by brute cycles
    t9 = table(Family.GAMMA0, 9)
    g = canon(1, 1, 0, 1, 9)
    assert order_in_xi_tuple(g, 9) == 9
    assert induced_trace(g, t9) == 3
    g3 = mul(mul(g, g, 9), g, 9)
    assert induced_trace(g3, t9) == 3
    assert tuple(splitting_type_cycles(g, t9)) == (9, 1, 1, 1)
    assert tuple(splitting_type_moebius(g, t9)) == (9, 1, 1, 1)


def test_induced_trace_examples():
    t9 = table(Family.GAMMA0, 9)
    assert induced_trace(identity(9), t9) == 12
    # elliptic class mod 3 (C-type): no fixed cosets
    t3 = table(Family.GAMMA0, 3)
    assert induced_trace(canon(2, 1, 1, 1, 3), t3) == 0


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", [3, 5, 8, 9, 12])
def test_cycles_equal_moebius_exhaustive_small(family, n):
    count, mismatches = dual_type_report(n, family)
    assert count == xi_order(n)
    assert mismatches == []


def test_type_weight_and_conjugation_invariance():
    rng = random.Random(5)
    for family in Family:
        for n in (5, 9, 14):
            t = table(family, n)
            xi = enumerate_xi(n)
            for _ in range(40):
                g = rng.choice(xi)
                lam = splitting_type_cycles(g, t)
                assert sum(lam) == t.index
                h = rng.choice(xi)
                conj = mul(mul(h, g, n), inv(h, n), n)
                assert splitting_type_cycles(conj, t) == lam


def test_vectorized_act_matches_reference():
    rng = random.Random(17)
    t = table(Family.GAMMA, 17)  # index 2448
    reference = act_reference(t)
    xi = enumerate_xi(17)
    for _ in range(20):
        g = rng.choice(xi)
        assert list(act(g, t)) == reference(g)


@pytest.mark.parametrize("n", [3, 5, 9, 12, 25])
def test_p1_fast_path_agrees(n):
    """The Gamma0 table agrees with the action of Xi(N) on P^1(Z/N), the
    first columns up to units, computed here without the table's keys."""
    from math import gcd

    t = table(Family.GAMMA0, n)
    units = [u for u in range(1, n) if gcd(u, n) == 1]

    def point(a, c):
        return min(((u * a) % n, (u * c) % n) for u in units)

    rep_points = [point(r[0], r[2]) for r in t.reps]
    assert len(set(rep_points)) == t.index
    rng = random.Random(n)
    xi = enumerate_xi(n)
    sample = xi if len(xi) <= 400 else [rng.choice(xi) for _ in range(120)]
    for g in sample:
        ga, gb, gc, gd = g
        perm = act(g, t)
        for (a, c), j in zip(rep_points, perm.tolist()):
            assert point(ga * a + gb * c, gc * a + gd * c) == rep_points[j], (g, a, c)


def test_oracle_equivalence_random_large_levels():
    """Cycle vs Moebius on >= 1e4 random elements at levels up to 200.

    The Gamma0 tables at these levels list their cosets without walking
    Xi(N); both type extractions see the identical permutation.
    """
    rng = random.Random(200)
    total = 0
    for n in (60, 101, 200):
        t = table(Family.GAMMA0, n)
        for _ in range(3400):
            g = _random_element(rng, n)
            perm = act(g, t)
            lam_cycles = cycle_type_of(perm)
            order = order_in_xi_tuple(g, n)
            lam_moebius = moebius_type_from_perm(perm, order, t.index)
            assert lam_cycles == lam_moebius, (n, g)
            if total % 8 == 0:  # the block-form routes, on every eighth element
                assert splitting_type_cycles(g, t) == lam_cycles, (n, g)
                assert splitting_type_moebius(g, t) == lam_cycles, (n, g)
            total += 1
    assert total >= 10**4


@pytest.mark.parametrize("family", list(Family))
def test_block_form_types_match_the_expanded_permutation(family):
    """At every level with |Xi(N)| <= 2e5 (N = 2..84), on the identity, T
    and seeded random elements (5, or 30 at level 75): the cycle type and
    the Moebius type of the expanded permutation (`act`, `cycle_type_of`,
    `moebius_type_from_perm`) equal the types that `splitting_type_cycles`
    and `splitting_type_moebius` read off the block form."""
    for n in (n for n in range(2, 100) if xi_order(n) <= 2 * 10**5):
        t = table(family, n)
        rng = random.Random(n)
        sample = [_random_element(rng, n) for _ in range(30 if n == 75 else 5)]
        for g in [identity(n), canon(1, 1, 0, 1, n)] + sample:
            perm = act(g, t)
            lam = cycle_type_of(perm)
            assert moebius_type_from_perm(perm, order_in_xi_tuple(g, n), t.index) == lam, (n, g)
            assert splitting_type_cycles(g, t) == lam, (n, g)
            assert splitting_type_moebius(g, t) == lam, (n, g)


def _random_element(rng, n):
    """A random element of Xi(n): a random unimodular first column,
    completed, times a random power of T."""
    from math import gcd

    while True:
        a, c = rng.randrange(n), rng.randrange(n)
        if gcd(gcd(a, c), n) != 1:
            continue
        a, b0, c, d0 = complete_column(a, c, n)
        t = rng.randrange(n)
        return canon(a, (b0 + t * a) % n, c, (d0 + t * c) % n, n)


def test_part_divisibility():
    """Every part of the splitting type divides the element order in Xi."""
    for family in Family:
        t = table(family, 9)
        for g in enumerate_xi(9):
            m = order_in_xi_tuple(g, 9)
            assert all(m % part == 0 for part in splitting_type_cycles(g, t))


# ---------------------------------------------------------------------------
# block kernels and the chain sweep

from math import lcm

from hypothesis import given, settings, strategies as st

from geosplit import cosets
from geosplit.core import ConsistencyError, xi_chain_grid
from geosplit.cosets import coset_chain_blocks, cycle_types, expand_block, splitting_types


def walk_cycle_type(perm):
    """Oracle: follow each unvisited point around its cycle."""
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length:
            out.append(length)
    return tuple(sorted(out, reverse=True))


def _perm_from_cycles(lengths, rng):
    """A permutation with the given cycle lengths on shuffled points."""
    points = list(range(sum(lengths)))
    rng.shuffle(points)
    perm = [0] * len(points)
    start = 0
    for length in lengths:
        cycle = points[start:start + length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
        start += length
    return perm


@st.composite
def perm_blocks(draw):
    """Blocks of permutations of one width, mixing random permutations with
    the extremes: the identity and a single long cycle."""
    width = draw(st.integers(min_value=1, max_value=40))
    rows = draw(st.integers(min_value=1, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    block = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("random", "identity", "long")))
        if kind == "identity":
            block.append(list(range(width)))
        elif kind == "long":
            block.append(_perm_from_cycles([width], rng))
        else:
            perm = list(range(width))
            rng.shuffle(perm)
            block.append(perm)
    return block


@settings(max_examples=150, deadline=None)
@given(perm_blocks(), st.integers(min_value=1, max_value=3))
def test_block_kernels_match_cycle_walk(block, multiple):
    expected = [walk_cycle_type(perm) for perm in block]
    assert list(map(tuple, cycle_types(block))) == expected
    width = len(block[0])
    orders = [lcm(*lam) for lam in expected]
    assert [tuple(moebius_type_from_perm(perm, m, width))
            for perm, m in zip(block, orders)] == expected
    assert [tuple(moebius_type_from_perm(perm, m * multiple, width))
            for perm, m in zip(block, orders)] == expected
    assert [tuple(cycle_type_of(perm)) for perm in block] == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**32), st.sampled_from([3, 1000]))
def test_distinct_rows_group_equal_rows(rows, width, seed, spread):
    """The byte-sorted grouping of the sweep: every row is its distinct
    row, and the distinct rows are the set of rows (np.unique's)."""
    import numpy as np

    from geosplit.core import _distinct_rows

    rng = np.random.default_rng(seed)
    block = rng.integers(-spread, spread, size=(rows, width))
    distinct, inverse = _distinct_rows(block)
    assert (distinct[inverse] == block).all()
    assert sorted(map(tuple, distinct.tolist())) == sorted(set(map(tuple, block.tolist())))


def test_block_kernel_edge_cases():
    import numpy as np

    assert list(map(tuple, cycle_types([[0]]))) == [(1,)]
    assert cycle_types(np.zeros((0, 5), dtype=np.int32)) == []
    assert tuple(moebius_type_from_perm([0], 1, 1)) == (1,)
    rng = random.Random(3)
    long = _perm_from_cycles([997], rng)
    assert tuple(cycle_type_of(long)) == (997,)
    assert [tuple(moebius_type_from_perm(perm, m, 997)) for perm, m in
            zip([long, list(range(997))], [997, 1])] == [(997,), (1,) * 997]


def test_moebius_rejects_order_missing_a_cycle_length():
    perm = _perm_from_cycles([3, 2], random.Random(1))
    with pytest.raises(ConsistencyError):
        moebius_type_from_perm(perm, 3, 5)
    with pytest.raises(ConsistencyError):
        moebius_type_from_perm(perm, 2, 5)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", list(range(2, 13)))
def test_chain_permutations_match_reference(family, n):
    """The rows of the blocks, in turn, are the action of the flattened
    chain grid in block form: expanded, each is the permutation by the
    definition.  The cycle type and the fixed-coset count of every element,
    read off the block form alone, are those of that permutation."""
    t = table(family, n)
    reference = act_reference(t)
    elements = [canon(*g, n) for g in zip(*(v.ravel().tolist() for v in xi_chain_grid(n)))]
    rows = 0
    for perm, shift in coset_chain_blocks(t):
        assert perm.shape == shift.shape and perm.shape[1] * t.modulus == t.index
        ids = {}
        row_ids = cosets._cycle_type_ids(perm, shift, t.modulus, ids).tolist()
        types = list(ids)
        fixed = cosets._fixed_counts(perm, shift, t.modulus).tolist()
        expanded = expand_block(perm, shift, t.modulus).tolist()
        for g, row, i, f in zip(elements[rows:], expanded, row_ids, fixed):
            want = reference(g)
            assert row == want, g
            assert tuple(types[i]) == walk_cycle_type(want), g
            assert f == sum(j == k for j, k in enumerate(want)), g
        rows += len(perm)
    assert rows == len(elements)
    assert sorted(elements) == enumerate_xi(n)
    assert [tuple(lam) for lam in splitting_types(elements, t)] == \
        [walk_cycle_type(reference(g)) for g in elements]


def _skew_even_orders(monkeypatch):
    """A Moebius recursion that is wrong for even orders: one fixed point
    too many, in the sweep's driver and in the per-element loop alike."""
    import geosplit.core as core
    import geosplit.cosets as cosets

    exact = core.parts_from_traces

    def skewed(traces, order, weight):
        lam = exact(traces, order, weight)
        return partition([*lam, 1]) if order % 2 == 0 else lam

    monkeypatch.setattr(core, "parts_from_traces", skewed)
    monkeypatch.setattr(cosets, "parts_from_traces", skewed)


def _reference_dual_report(level, family):
    """Per-element loop: reference action, both type routes."""
    t = table(family, level)
    reference = act_reference(t)
    mismatches = []
    for g in enumerate_xi(level):
        perm = reference(g)
        lam_c = cycle_type_of(perm)
        lam_m = moebius_type_from_perm(perm, order_in_xi_tuple(g, level), t.index)
        if lam_c != lam_m:
            mismatches.append((g, lam_c, lam_m))
    return len(enumerate_xi(level)), mismatches


@pytest.mark.parametrize("family,n", [(Family.GAMMA0, 7), (Family.GAMMA1, 8), (Family.GAMMA, 6),
                                      (Family.GAMMA, 13), (Family.GAMMA1, 16)]
                         + [(family, 2) for family in Family])
def test_dual_report_matches_per_element_loop(family, n, monkeypatch):
    """Also across block edges (Gamma(13) acts on 84 chain heads, so 195
    heads per action call and 15 chains per block; Gamma1(16) has 96
    cosets on 24 orbit leaders of m = 4, so 682 heads per call and 42 of
    its 96 chains per block) and at level 2, where -I = I."""
    assert dual_type_report(n, family) == _reference_dual_report(n, family)

    # with a Moebius recursion that is wrong for even orders, the sweep (its
    # Moebius step is `core.moebius_type_ids`) and the per-element loop
    # (`cosets.moebius_type_from_perm`) report the same mismatches, sorted
    # by element
    _skew_even_orders(monkeypatch)
    count, mismatches = dual_type_report(n, family)
    assert mismatches
    assert (count, mismatches) == _reference_dual_report(n, family)
    assert [m[0] for m in mismatches] == sorted(m[0] for m in mismatches)


def test_dual_reports_share_one_order_sweep_per_level(monkeypatch):
    """The three families' reports at one level share one power-map sweep:
    one grid `matrix_powers` call per block of core.BLOCK elements, on
    the primes of |Xi(11)| = 660 = 2^2 * 3 * 5 * 11 (256 per block here, so
    three blocks), and no grid `xi_orders` call.  The only `xi_orders`
    call is the Gamma1 table's, on its ten units.  The maps and orders are
    read-only int32."""
    calls, grid_powers = [], []

    def counted(elements, n):
        calls.append((n, len(elements)))
        return core.xi_orders(elements, n)

    def counted_powers(x, exponents, n):
        if x.shape[1:] == (2, 2):  # not the 1 x 1 powers that invert units
            grid_powers.append((n, len(x), list(exponents)))
        return core.matrix_powers(x, exponents, n)

    monkeypatch.setattr(cosets, "xi_orders", counted)
    monkeypatch.setattr(cosets, "matrix_powers", counted_powers)
    monkeypatch.setattr(core, "BLOCK", 256)
    cosets._power_maps.cache_clear()
    cosets._unit_code.cache_clear()
    for family in Family:
        assert dual_type_report(11, family) == (xi_order(11), [])
    assert calls == [(11, 10)]
    assert grid_powers == [(11, 256, [2, 3, 5, 11]), (11, 256, [2, 3, 5, 11]),
                           (11, 148, [2, 3, 5, 11])]
    maps, orders = cosets._power_maps(11)
    assert list(maps) == [2, 3, 5, 11]
    for array in (*maps.values(), orders):
        assert array.dtype == np.int32 and array.shape == (660,)
        assert not array.flags.writeable


@pytest.mark.parametrize("n", list(range(2, 41)))
def test_power_maps_give_the_orders_and_the_prime_powers(n):
    """The orders read off the power maps are `xi_orders` of the grid's
    entries at every position (N = 37, |Xi| = 25308, crosses a block
    edge), and at sampled positions each map names the grid place of the
    q-th power by binary exponentiation in tests/reference.py."""
    maps, orders = cosets._power_maps(n)
    size = xi_order(n)
    entries = np.stack(core.grid_entries(np.arange(size), n), axis=1)
    assert orders.tolist() == core.xi_orders(entries, n).tolist()
    at = np.random.default_rng(n).choice(size, size=min(size, 60), replace=False)
    for q, image in maps.items():
        powers = np.stack(core.grid_entries(image.take(at), n), axis=1)
        assert [canon(*g, n) for g in powers.tolist()] == \
            [matpow(canon(*g, n), q, n) for g in entries.take(at, axis=0).tolist()], q


@pytest.mark.parametrize("family,n", [(Family.GAMMA1, 16), (Family.GAMMA, 13)])
def test_moebius_step_across_blocks(family, n, monkeypatch):
    """With core.BLOCK = 100, 100 elements per block of the power-map sweep
    and of the Moebius step (|Xi(16)| = 1536 and |Xi(13)| = 1092: 16 and
    11 blocks, the last partial), the report is the one of whole blocks,
    also with the skewed recursion of
    `test_dual_report_matches_per_element_loop`."""
    whole = dual_type_report(n, family)
    with monkeypatch.context() as patch:
        _skew_even_orders(patch)
        whole_skewed = dual_type_report(n, family)
    assert whole_skewed[1]
    monkeypatch.setattr(core, "BLOCK", 100)
    cosets._power_maps.cache_clear()
    assert dual_type_report(n, family) == whole
    _skew_even_orders(monkeypatch)
    assert dual_type_report(n, family) == whole_skewed


@pytest.mark.parametrize("family,n,at", [(Family.GAMMA0, 7, (0, 3, "perm")),
                                         (Family.GAMMA1, 8, (0, 101, "perm")),
                                         (Family.GAMMA, 13, (3, 12, "perm")),
                                         (Family.GAMMA, 13, (3, 12, "shift")),
                                         (Family.GAMMA1, 16, (1, 100, "shift"))])
def test_dual_report_sees_an_action_that_is_no_homomorphism(family, n, at, monkeypatch):
    """One row of one block in block form corrupted: its base permutation
    composed with a transposition, or the shift of its first head moved by
    one.  The Moebius route reads the fixed points of the other elements'
    actions, so the report is not empty, or the recursion refuses the
    traces."""
    exact = cosets.coset_chain_blocks
    swapped = []

    def corrupted(table):
        for b, (perm, shift) in enumerate(exact(table)):
            if b == at[0]:
                if at[2] == "perm":
                    perm[at[1], [0, 1]] = perm[at[1], [1, 0]]
                else:
                    shift[at[1], 0] = (shift[at[1], 0] + 1) % table.modulus
                swapped.append(b)
            yield perm, shift

    monkeypatch.setattr(cosets, "coset_chain_blocks", corrupted)
    try:
        count, mismatches = dual_type_report(n, family)
    except ConsistencyError:
        assert swapped
        return
    assert swapped
    assert count == xi_order(n)
    assert mismatches


@pytest.mark.parametrize("family, n", [(Family.GAMMA0, 5), (Family.GAMMA, 13),
                                       (Family.GAMMA1, 16)])
def test_splitting_types_match_per_element(family, n, monkeypatch):
    """The batched types equal the 1-row calls, also across block edges
    (core.BLOCK = 1024 acted points per block: Gamma(13) acts on 84 chain
    heads, so 12 rows per block)."""
    monkeypatch.setattr(core, "BLOCK", 1 << 10)
    table = build_coset_table(SubgroupSpec(family, n))
    elements = enumerate_xi(n)[::7][:40]
    assert splitting_types(elements, table) == [splitting_type_cycles(g, table)
                                                for g in elements]
    assert splitting_types([], table) == []


@pytest.mark.parametrize("n", [13, 32])
def test_equal_splitting_types_are_one_object(n, monkeypatch):
    """Each distinct type is built once per call, also across blocks
    (core.BLOCK = 384 acted points per block: Gamma(32) acts on 384 chain
    heads, so one row per block)."""
    monkeypatch.setattr(core, "BLOCK", 384)
    table = build_coset_table(SubgroupSpec(Family.GAMMA, n))
    types = splitting_types(enumerate_xi(n)[::97][:40], table)
    first = {}
    for lam in types:
        assert first.setdefault(lam, lam) is lam
    assert len(first) < len(types)


# ---------------------------------------------------------------------------
# the single action kernel

import numpy as np

from geosplit.cosets import act_block


@pytest.mark.parametrize("family, n", [(Family.GAMMA0, 75), (Family.GAMMA1, 75),
                                       (Family.GAMMA, 75), (Family.GAMMA0, 12),
                                       (Family.GAMMA0, 3), (Family.GAMMA0, 5),
                                       (Family.GAMMA0, 9), (Family.GAMMA0, 25)])
def test_act_matches_reference_at_any_size(family, n):
    """The kernel agrees with the action by membership: at level 75
    (Gamma keys up to 75^4, index 180000), at prime powers and at the
    narrow Gamma0(12) (index 24).  Up to 400 elements all of Xi(N) is
    checked, else a sample of 30 (3 at index 180000)."""
    t = table(family, n)
    reference = act_reference(t)
    rng = random.Random(n)
    xi = enumerate_xi(n)
    sample = [rng.choice(xi) for _ in range(30 if t.index < 10**4 else 3)]
    for g in xi if len(xi) <= 400 else sample:
        perm = act(g, t)
        assert perm.dtype == np.int32
        assert perm.tolist() == reference(g)


def test_act_block_rows_match_one_row_calls():
    """Rows of one block in block form equal the 1-row calls, also cut into
    pieces of 15 rows (Gamma(13): 84 chain heads of 13 cosets each)."""
    t = table(Family.GAMMA, 13)
    elements = enumerate_xi(13)[::23][:40]
    perm, shift = act_block(elements, t)
    assert perm.shape == shift.shape == (40, 84) and perm.dtype == shift.dtype == np.int32
    for start in (0, 15, 30):
        piece = act_block(elements[start:start + 15], t)
        assert (piece[0] == perm[start:start + 15]).all()
        assert (piece[1] == shift[start:start + 15]).all()
    for g, row in zip(elements, expand_block(perm, shift, t.modulus)):
        assert row.tolist() == act(g, t).tolist()
    assert [b.shape for b in act_block([], t)] == [(0, 84)] * 2


# at 40 and 63, (Z/N)^*/{+-1} is not cyclic and Gamma1 has m = 4 and 6 < phi(N)/2;
# Gamma(63) (108,864 cosets) is left out
_BY_DEFINITION = [(family, n) for n in (2, 3, 4, 8, 9, 12, 24, 25, 30, 40, 63) for family in Family
                  if (family, n) != (Family.GAMMA, 63)]


@pytest.mark.parametrize("family,n", _BY_DEFINITION,
                         ids=[f"{n}-{family.value}" for family, n in _BY_DEFINITION])
def test_act_block_is_the_action_by_definition(family, n):
    """The kernel agrees with the action by membership, on
    all of Xi(N) while that stays under 1e5 permutation entries, else on a
    seeded sample of that many."""
    t = table(family, n)
    reference = act_reference(t)
    xi = enumerate_xi(n)
    rows = max(8, 10**5 // t.index)
    elements = xi if len(xi) <= rows else random.Random(n).sample(xi, rows)
    assert expand_block(*act_block(elements, t), t.modulus).tolist() == [
        reference(g) for g in elements]


@pytest.fixture(scope="module")
def tables_75():
    """Each family's table at level 75 with its action by the definition."""
    return {f: (t, act_reference(t)) for f in Family for t in [table(f, 75)]}


def test_act_block_matches_the_definition_at_75(tables_75):
    """A seeded sample of 30 elements of Xi(75) per family (index 180000
    for Gamma), in one block: the expanded block form, and the cycle types
    and fixed-coset counts read off the block form alone, against the
    permutations by the definition."""
    rng = random.Random(75)
    for family in Family:
        t, reference = tables_75[family]
        elements = rng.sample(enumerate_xi(75), 30)
        want = [reference(g) for g in elements]
        assert expand_block(*act_block(elements, t), t.modulus).tolist() == want, family
        assert splitting_types(elements, t) == [cycle_type_of(perm) for perm in want], family
        assert [induced_trace(g, t) for g in elements] == [
            sum(i == j for i, j in enumerate(perm)) for perm in want], family


@pytest.mark.parametrize("family", list(Family))
def test_act_refuses_an_element_outside_xi(family):
    # (2, 0, 0, 2) has determinant 4 mod 7 and unimodular columns; index 8,
    # 24 and 168
    t = table(family, 7)
    with pytest.raises(ValueError, match="not in Xi"):
        act((2, 0, 0, 2), t)
    with pytest.raises(ValueError):
        act_block([identity(7), (2, 0, 0, 2)], t)
    with pytest.raises(ValueError):
        splitting_type_cycles((2, 0, 0, 2), t)


# ---------------------------------------------------------------------------
# coset tables without a walk of Xi(N)

from geosplit import core
from geosplit.census import density_table
from geosplit.core import CapExceeded


def _refuse(*args):
    raise AssertionError("walked Xi(N) or built a capped table")


@pytest.mark.parametrize("family", [Family.GAMMA0, Family.GAMMA1])
def test_column_tables_never_enumerate_xi(family, monkeypatch):
    """The column tables list their cosets without the key array of Xi(N)."""
    monkeypatch.setattr(core, "xi_keys", _refuse)
    for n in (2, 9, 12, 75):
        t = build_coset_table(SubgroupSpec(family, n))
        assert t.reps[0] == identity(n)  # column (1, 0): point 0, multiplier 1, code 0
        assert list(act(identity(n), t)) == list(range(t.index))


@pytest.mark.parametrize("n", list(range(2, 65)) + [120, 168, 240])
def test_unit_orbits_are_the_orbit_minima(n):
    """Every unimodular column w, both signs, against the model by brute
    force.  Its coset is read as the image of the identity's coset 0, that
    of column (1, 0), under a completion of w.  That coset is
    x*|G| + code[mu]: x numbers the points of P^1(Z/N) one to one, each the
    least of its orbit under all the units (as in `test_p1_fast_path_agrees`),
    and mu is the unit with w = mu * v_x, v_x the column of base point
    x*lifts.  The code is 0 at every unit for Gamma0 (|G| = 1), and
    +-rho_j * u0^e -> j*m + e for Gamma1: u0 is the least unit of largest
    order m up to sign (`unit_orders`) and rho_j the least unit outside the
    cosets of +-<u0> before it.  (Z/N)^*/{+-1} needs two generators at 24,
    40 and 63, and three at 120, 168 and 240."""
    import copy

    units, orders = unit_orders(n)
    m = max(orders)
    u0 = units[orders.index(m)]
    code1, j = {}, 0
    for u in units:
        if u not in code1:
            for e in range(m):
                v = u * pow(u0, e, n) % n
                code1[v] = code1[-v % n] = j * m + e
            j += 1
    columns = [(a, c) for a in range(n) for c in range(n) if gcd(a, c, n) == 1]
    w = np.array(columns).T
    point = np.minimum.reduce([u * w[0] % n * n + u * w[1] % n for u in units])
    elements = [complete_column(a, c, n) for a, c in columns]
    for family, want in ((Family.GAMMA0, dict.fromkeys(units, 0)), (Family.GAMMA1, code1)):
        t = table(family, n)
        assert t.acted[:, 0].tolist() == [1 % n, 0]
        first = copy.copy(t)
        first.acted = t.acted[:, :1]
        perm, shift = act_block(elements, first)
        size = t.lifts * t.modulus  # |G|, or 1 for Gamma0
        x, code = np.divmod(perm[:, 0] * t.modulus + shift[:, 0], size)
        assert t.index == t.acted.shape[1] * t.modulus == (x.max() + 1) * size
        assert len(set(zip(x.tolist(), point.tolist()))) == len(set(point.tolist())) == x.max() + 1
        v = t.acted.take(x * t.lifts, axis=1).astype(np.int64)
        mu = np.zeros_like(x)
        for u in units:
            mu[((u * v - w) % n == 0).all(axis=0)] += u
        assert code.tolist() == [want[u] for u in mu.tolist()], family
        assert (t.modulus, t.lifts) == ((m, j) if family == Family.GAMMA1 else (1, 1))


def test_table_faults_are_consistency_errors(monkeypatch):
    """A unit without a code, a product at an address the chain heads'
    table lacks, or representatives that share a coset are faults of the
    table, not bad input."""
    from geosplit.core import ConsistencyError

    t = table(Family.GAMMA1, 7)
    t.code = t.code.copy()
    t.code[1] = -1  # the multiplier of the identity's column (1, 0)
    with pytest.raises(ConsistencyError, match="no code"):
        act_block(enumerate_xi(7), t)
    t = table(Family.GAMMA, 7)
    heads, rows = core.chain_heads(7)
    rows = rows.copy()
    rows[rows == 0] = -1  # the column of chain head 0
    monkeypatch.setattr(core, "chain_heads", lambda n: (heads, rows))
    with pytest.raises(ConsistencyError):
        act_block(enumerate_xi(7), t)
    t = table(Family.GAMMA0, 5)
    t.reps = [t.reps[0]] + t.reps[:-1]
    with pytest.raises(ConsistencyError, match="partition"):
        act_reference(t)


def test_coset_key_cap_is_checked_before_building(monkeypatch):
    """psi(N) points for Gamma0, psi(N)*|G|/m base points for Gamma1 and
    |Xi| tuples for Gamma.  psi(N) > N, so a level at the cap is refused
    before it is factored, and psi(9699690) = 3.5e7 (2*3*...*19) before the
    units are coded.  psi(510510) = 1.7e6, but |G| = 46080 and m divides
    the exponent 240 of (Z/510510)^*, so Gamma1 has over 192 base points
    per point there."""
    monkeypatch.setattr(cosets, "chain_heads", _refuse)
    monkeypatch.setattr(core, "xi_keys", _refuse)
    with pytest.raises(CapExceeded, match="exceeds cap"):
        build_coset_table(SubgroupSpec(Family.GAMMA1, 510510))
    monkeypatch.setattr(cosets, "_unit_code", _refuse)
    for family, n in ((Family.GAMMA0, 9699690), (Family.GAMMA1, 9699690), (Family.GAMMA, 293)):
        with pytest.raises(CapExceeded, match="exceeds cap"):
            build_coset_table(SubgroupSpec(family, n))
    monkeypatch.setattr(cosets, "factorize", _refuse)
    for family in (Family.GAMMA0, Family.GAMMA1):
        with pytest.raises(CapExceeded, match="exceeds cap"):
            build_coset_table(SubgroupSpec(family, core.DEFAULT_GROUP_CAP))


@pytest.mark.parametrize("family", [Family.GAMMA0, Family.GAMMA1])
def test_column_tables_never_build_chain_heads(family, monkeypatch):
    """The Gamma0 and Gamma1 tables, and the types read off them, call
    neither `core.chain_heads` nor its N x N `column_rows` table."""
    for name in ("chain_heads", "column_rows"):
        monkeypatch.setattr(core, name, _refuse)
    monkeypatch.setattr(cosets, "chain_heads", _refuse)
    for n in (2, 12, 24, 63, 75, 1000):
        t = build_coset_table(SubgroupSpec(family, n))
        g = canon(2, 1, 1, 1, n)
        assert splitting_type_cycles(g, t) == splitting_type_moebius(g, t), n


def test_types_at_a_prime_above_the_int32_products():
    """At the prime p = 65537 > 2^15 the products of residues need int64.
    An element g != +-I of Xi(p) of order o and trace t fixes
    f = 1 + (t^2 - 4 | p) points of P^1(F_p), f = 1 where t = +-2, and moves
    the others in (p + 1 - f)/o cycles of length o: so its Gamma0 type.
    Gamma1(65537), index (p^2 - 1)/2, has cycle types equal to the Moebius
    types."""
    from geosplit.core import Partition
    from reference import legendre

    p = 65537
    t0, t1 = table(Family.GAMMA0, p), table(Family.GAMMA1, p)
    elements = [(1, 1, 0, 1), (0, p - 1, 1, 0), (1, p - 1, 1, 0), (3, p - 1, 1, 0),
                (5, p - 1, 1, 0), (1234, p - 1, 1, 0), (p - 3, p - 1, 1, 0), (2, 7, 3, 11)]
    for g in elements:
        tr, o = (g[0] + g[3]) % p, order_in_xi_tuple(canon(*g, p), p)
        f = 1 if tr in (2, p - 2) else 1 + legendre(tr * tr - 4, p)
        lam = Partition({o: (p + 1 - f) // o, 1: f})
        assert splitting_type_cycles(g, t0) == splitting_type_moebius(g, t0) == lam, g
        lam = splitting_type_cycles(g, t1)
        assert sum(part * k for part, k in lam.runs) == t1.index == (p * p - 1) // 2
        assert splitting_type_moebius(g, t1) == lam, g


def test_gamma_types_never_expand_the_action(monkeypatch):
    """The splitting types of Gamma(N) (`splitting_types`, and through it
    the census's `density_table`) and the exhaustive sweep build no
    |Xi(N)|-point permutation and list no key array of Xi(N)."""
    spec = SubgroupSpec(Family.GAMMA, 12)
    t, elements = table(Family.GAMMA, 25), enumerate_xi(25)[::37]
    want_types = [splitting_type_cycles(g, t) for g in elements]
    want_table = density_table(spec).entries
    monkeypatch.setattr(cosets, "expand_block", _refuse)
    monkeypatch.setattr(core, "xi_keys", _refuse)
    assert splitting_types(elements, t) == want_types
    assert density_table(spec).entries == want_table
    assert dual_type_report(14, Family.GAMMA) == (xi_order(14), [])
    with pytest.raises(AssertionError, match="walked"):
        act(identity(25), t)


def test_no_route_expands_a_coset_action(monkeypatch, capsys):
    """`type`, the exhaustive sweep and the closed forms never write out or
    compose a permutation of all the cosets: `expand_block` (behind `act`),
    `_flat_power` (behind `moebius_type_from_perm`) and `cycle_types`
    (behind `cycle_type_of`) are references for the tests alone."""
    from geosplit import cli
    from geosplit.census import density_table_closed_form
    from geosplit.core import partition_str

    g = canon(2, 1, 1, 1, 75)
    want_types = {f: cycle_type_of(act(g, table(f, 75))) for f in Family}
    specs = [SubgroupSpec(f, 25) for f in Family]
    want_closed = [density_table_closed_form(s).entries for s in specs]
    for name in ("expand_block", "_flat_power", "cycle_types"):
        monkeypatch.setattr(cosets, name, _refuse)
    for family in Family:
        capsys.readouterr()
        assert cli.main(["type", "--matrix", "2,1,1,1", "--family", family.value,
                         "--level", "75"]) == 0
        lam = partition_str(want_types[family])
        assert capsys.readouterr().out.splitlines()[:2] == [lam, f"moebius: {lam}"]
        assert dual_type_report(12, family) == (xi_order(12), [])
    assert [density_table_closed_form(s).entries for s in specs] == want_closed


def test_dual_type_report_refuses_above_the_group_cap(monkeypatch):
    """Gamma0(1000) has a small table, but the sweep walks |Xi| = 3.6e8."""
    monkeypatch.setattr(cosets, "build_coset_table", _refuse)
    with pytest.raises(CapExceeded, match="exceeds cap"):
        dual_type_report(1000, Family.GAMMA0)


# ---------------------------------------------------------------------------
# chain heads

import math


def test_unimodular_columns_match_definition():
    """The chain heads' first columns are those with gcd(a, c, n) = 1, the
    one of each {+-} pair whose negation is not lexicographically smaller,
    in lexicographic order; every head has determinant 1, and the heads
    are a read-only int32 array."""
    for n in range(2, 61):
        want = [(a, c) for a in range(n) for c in range(n)
                if math.gcd(a, c, n) == 1 and ((n - a) % n, (n - c) % n) >= (a, c)]
        heads = core.chain_heads(n)[0]
        a, b, c, d = heads.astype(np.int64)
        assert list(zip(a.tolist(), c.tolist())) == want, n
        assert ((a * d - b * c) % n == 1 % n).all(), n
        assert heads.dtype == np.int32 and not heads.flags.writeable, n
