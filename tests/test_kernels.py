"""The array routes against their element-by-element references: the
conjugacy census on chain-grid positions against the orbit closure of
tests/reference.py, the batched order kernel `xi_orders` against the
scalar loop `order_in_xi_tuple`, the closed form's fixed-row kernel against
its scalar formula, the sieve-free form generator against the divisor
expansion, and the enumeration of primitive classes by trace chunks
against the per-trace reduction walk of tests/reference.py."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geosplit.census as census
import geosplit.core as core
import geosplit.geodesics as geodesics
from geosplit.census import closed_class_catalog, conjugacy_classes
from geosplit.cli import main
from geosplit.core import (
    CapExceeded,
    ConsistencyError,
    Family,
    SubgroupSpec,
    canon,
    cycle_labels,
    divisors,
    enumerate_xi,
    grid_entries,
    identity,
    order_in_xi_tuple,
    xi_chain_grid,
    xi_grid_positions,
    xi_order,
    xi_orders,
)
from geosplit.cosets import build_coset_table
from geosplit.geodesics import MAX_CUTOFF, enumerate_primitive_classes, max_trace
from reference import (classes_at_trace, complete_column, component_labels,
                       fixed_row_count_reference, matpow, min_label_class_ids,
                       orbit_closure_classes, primitive_classes, reduced_forms_by_divisors,
                       sigma_gamma0, spf_list, spf_sieve, unimodular_columns)
from test_geodesics import brute_reduced_forms


@pytest.mark.parametrize("n", list(range(2, 31)) + [75])
def test_census_matches_orbit_closure(n):
    got = [(c.representative, c.size, c.order) for c in conjugacy_classes(n)]
    assert got == orbit_closure_classes(n)


@pytest.mark.parametrize("n", [12, 25, 27, 32])
def test_census_across_partial_chunks(monkeypatch, n):
    """core.BLOCK = 97 elements per chunk: each level spans many chunks,
    the last one partial, in every chunked pass of the census."""
    monkeypatch.setattr(core, "BLOCK", 97)
    assert xi_order(n) > 97 * 5 and xi_order(n) % 97
    got = [(c.representative, c.size, c.order) for c in conjugacy_classes(n)]
    assert got == orbit_closure_classes(n)


@pytest.mark.parametrize("n", [75, 105])
def test_census_working_set_is_int32_sized(n):
    """The census holds a few int32 numbers per element of Xi(n) at its
    peak, and no int64 array over the whole group: at most 40 bytes per
    element, traced."""
    conjugacy_classes(5)  # module-level and first-call allocations
    tracemalloc.start()
    try:
        conjugacy_classes(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * xi_order(n)


@pytest.mark.parametrize("n", list(range(2, 81)) + [96, 100, 105])
def test_class_ids_match_the_min_label_census(n):
    """The classes as S-joins of the T-orbits against the components of
    the S and T position permutations over the whole grid: the same ids,
    numbered by least position, and the same least keys."""
    label, least = census._class_ids(n)
    want_label, want_least = min_label_class_ids(n)
    assert label.dtype == np.int32
    assert np.array_equal(label, want_label)
    assert np.array_equal(least, want_least)


@pytest.mark.parametrize("n", range(2, 61))
def test_t_orbits_are_the_cycles_of_t_conjugation(n):
    """The arithmetic T-orbit of every grid position against the cycles of
    the explicit permutation x -> T^-1 x T of the positions, numbered by
    least position (n = 2, where -I = I, and the even levels included)."""
    (base, shift, size), count = census._t_orbits(n)
    flat = np.arange(xi_order(n), dtype=np.int32)
    h, t = np.divmod(flat, n)
    orbit = base[h] + (t + shift[h]) % size[h]
    a, b, c, d = grid_entries(flat, n)
    step = xi_grid_positions(((a - c) % n, (a - c + b - d) % n, c, (c + d) % n), n)
    leader = cycle_labels(step)
    assert count == np.count_nonzero(leader == flat)
    assert orbit.tolist() == (np.cumsum(leader == flat) - 1)[leader].tolist()


def test_census_cap_is_checked_before_the_grid(monkeypatch):
    def refuse(n):
        raise AssertionError("built the grid of a capped level")

    monkeypatch.setattr(census, "chain_heads", refuse)
    with pytest.raises(CapExceeded, match="exceeds cap"):
        conjugacy_classes(1000)


@pytest.mark.parametrize("size,steps,chunk", [(1, 1, 4), (50, 1, 7), (300, 2, 16), (1000, 3, 97)])
def test_component_labels_are_the_least_point_of_each_orbit(size, steps, chunk):
    """Random permutations made of short cycles, so that their orbits are
    many and small, against a union-find over their edges; the chunks cut
    the points into pieces, the last partial."""
    rng = np.random.default_rng(size)
    perms = []
    for _ in range(steps):
        perm, cut = np.empty(size, dtype=np.int32), rng.permutation(size)
        for cycle in np.split(cut, np.sort(rng.choice(size, size // 5, replace=False))):
            perm[cycle] = np.roll(cycle, 1)
        perms.append(perm)
    parent = list(range(size))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for perm in perms:
        for i, j in enumerate(perm.tolist()):
            ri, rj = root(i), root(j)
            parent[max(ri, rj)] = min(ri, rj)
    label = component_labels(perms, chunk)
    assert label.dtype == np.int32
    assert label.tolist() == [root(i) for i in range(size)]


@pytest.mark.parametrize("n", list(range(2, 13)))
def test_enumerate_xi_is_the_definition(n):
    """Every canonical tuple of determinant 1 mod n, once, in tuple order."""
    want = sorted({canon(*g, n) for g in itertools.product(range(n), repeat=4)
                   if (g[0] * g[3] - g[1] * g[2]) % n == 1 % n})
    assert enumerate_xi(n) == want


@pytest.mark.parametrize("n", list(range(2, 13)))
def test_xi_orders_match_scalar_loop_on_all_of_xi(n):
    xi = enumerate_xi(n)
    assert xi_orders(xi, n).tolist() == [order_in_xi_tuple(g, n) for g in xi]


@st.composite
def chain_elements(draw):
    """A level in 2..300 and elements head * T^t of random chain heads."""
    n = draw(st.integers(2, 300))
    columns = list(unimodular_columns(n))
    out = []
    for _ in range(draw(st.integers(1, 8))):
        a, b0, c, d0 = complete_column(*draw(st.sampled_from(columns)), n)
        t = draw(st.integers(0, n - 1))
        out.append(canon(a, b0 + t * a, c, d0 + t * c, n))
    return n, out


@settings(max_examples=100, deadline=None)
@given(chain_elements())
def test_xi_orders_match_scalar_loop_on_samples(sample):
    n, elements = sample
    assert xi_orders(elements, n).tolist() == [order_in_xi_tuple(g, n) for g in elements]


def test_xi_orders_read_entries_of_any_sign():
    """-g is g in Xi(n), and entries count mod n."""
    n = 12
    xi = enumerate_xi(n)[::5]
    lifted = [(-a - n, -b + 2 * n, -c, -d + 5 * n) for a, b, c, d in xi]
    assert xi_orders(lifted, n).tolist() == xi_orders(xi, n).tolist()
    assert xi_orders([], n).tolist() == []


@pytest.mark.parametrize("n", [2**15, 2**15 + 1, 99991])
def test_xi_orders_on_both_sides_of_the_int32_bound(n):
    """The powers run in int32 up to level 2^15, where a*e + b*g of two
    residues still fits, and in int64 above; at 99991 int32 would wrap."""
    elements = [canon(1, 1, 0, 1, n), canon(0, -1, 1, 0, n), canon(0, -1, 1, 1, n),
                canon(n - 1, n - 2, 1, 1, n), canon(*complete_column(n - 3, n - 5, n), n)]
    assert xi_orders(elements, n).tolist() == [order_in_xi_tuple(g, n) for g in elements]


def test_xi_orders_refuse_elements_outside_xi():
    with pytest.raises(ValueError, match="not in Xi"):
        xi_orders([(1, 0, 0, 1), (2, 0, 0, 2)], 7)


@pytest.mark.parametrize("p,r", [(3, 5), (29, 2)])
def test_closed_catalog_orders_match_scalar_loop(p, r):
    n = p**r
    catalog = closed_class_catalog(p, r)
    assert [c.order for c in catalog] == [order_in_xi_tuple(c.representative, n) for c in catalog]


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3),
                                 (7, 1), (7, 2), (29, 2)])
def test_fixed_row_count_matches_the_scalar_formula(p, r):
    """The array kernels of the closed form, Gamma1's at both signs and
    Gamma0's, on every power g^d (d dividing the order) of every catalog
    class, in one call each."""
    n = p**r
    powers = [matpow(c.representative, d, n) for c in closed_class_catalog(p, r)
              for d in divisors(c.order)]
    for sign in (1, -1):
        got = census._fixed_row_count(np.array(powers), sign, p, r)
        assert got.tolist() == [fixed_row_count_reference(g, sign, p, r) for g in powers]
    got = census._fixed_point_count(np.array(powers), p, r)
    assert got.tolist() == [sigma_gamma0(g, p, r) for g in powers]


@pytest.mark.parametrize("n", [2, 3, 4, 12, 25, 75])
def test_gamma_table_is_the_chain_grid(n):
    """The Gamma(N) table holds the chain heads, column 0 of
    `xi_chain_grid`, as its int32 acted matrices, each standing for the N
    cosets of its chain, and no unit code.  Its cosets are the places h*N + t
    of the grid, in order, and their canonical tuples are Xi(N), each
    once."""
    table = build_coset_table(SubgroupSpec(Family.GAMMA, n))
    grid = xi_chain_grid(n)
    heads = np.stack([v[:, 0] for v in grid])
    assert table.acted.dtype == heads.dtype == np.int32
    assert np.array_equal(table.acted, heads)
    assert (table.modulus, table.index, table.code) == (n, xi_order(n), None)
    reps = [canon(*g, n) for g in zip(*(v.ravel().tolist() for v in grid))]
    assert table.reps == reps
    assert sorted(reps) == enumerate_xi(n)


@pytest.mark.parametrize("family,n", [(Family.GAMMA0, 25), (Family.GAMMA1, 27),
                                      (Family.GAMMA0, 3**5), (Family.GAMMA1, 29**2)])
def test_closed_form_counts_traces_in_one_kernel_call_per_order(monkeypatch, family, n):
    """`moebius_type_ids` calls the trace kernel once per order m of the
    catalog (twice for Gamma1, one call per sign), in increasing order, on
    exactly the powers g^d, d | m, of the representatives g of order m,
    divisor by divisor; so the call sizes sum to the number of divisors of
    every class's order, and the table does not change."""
    want = census.density_table_closed_form(SubgroupSpec(family, n))
    kernel = "_fixed_point_count" if family == Family.GAMMA0 else "_fixed_row_count"
    exact, calls = getattr(census, kernel), []

    def counted(*args):
        calls.append(np.array(args[0]))
        return exact(*args)

    monkeypatch.setattr(census, kernel, counted)
    assert census.density_table_closed_form(SubgroupSpec(family, n)).entries == want.entries
    catalog = closed_class_catalog(*census.closed_form_prime_power(n))
    orders = sorted({c.order for c in catalog})
    per_order = 1 if family == Family.GAMMA0 else 2
    assert len(calls) == per_order * len(orders)
    for m, got in zip(orders, calls[::per_order]):
        reps = [c.representative for c in catalog if c.order == m]
        want_powers = [matpow(g, d, n) for d in divisors(m) for g in reps]
        assert [canon(*row, n) for row in got.tolist()] == want_powers
    signs = zip(calls[::per_order], calls[per_order - 1::per_order])
    assert all(np.array_equal(plus, minus) for plus, minus in signs)
    assert sum(map(len, calls)) == per_order * sum(len(divisors(c.order)) for c in catalog)


@pytest.mark.parametrize("size,cycle,gather", [(1, 1, 4), (50, 7, 7), (1000, 97, 64),
                                               (4096, 4096, 1000)])
def test_cycle_labels_are_the_least_point_of_each_cycle(monkeypatch, size, cycle, gather):
    """Pointer doubling with the gathers cut into pieces of `gather`
    points, the last partial, against a walk round each cycle; the
    successor array is left as it was."""
    monkeypatch.setattr(core, "_GATHER", gather)
    rng = np.random.default_rng(size)
    succ, cut = np.empty(size, dtype=np.int32), rng.permutation(size)
    for piece in np.split(cut, range(cycle, size, cycle)):
        succ[piece] = np.roll(piece, -1)
    given_ = succ.copy()
    want, step = [None] * size, succ.tolist()
    for i in range(size):  # each cycle walked once, from its first point
        if want[i] is None:
            cycle = [i]
            while step[cycle[-1]] != i:
                cycle.append(step[cycle[-1]])
            least = min(cycle)
            for j in cycle:
                want[j] = least
    label = core.cycle_labels(succ)
    assert label.dtype == np.int32 and label.tolist() == want
    assert np.array_equal(succ, given_)


def test_chain_heads_refuse_a_grid_of_the_wrong_size(monkeypatch, capsys):
    """The chain grid is checked once, where its heads are built: with
    `xi_order` one too large, the census and the Gamma table refuse with
    ConsistencyError, and `densities` exits 3."""
    order = core.xi_order
    core.chain_heads.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(core, "xi_order", lambda n: order(n) + 1)
            with pytest.raises(ConsistencyError, match="chain heads of 7"):
                conjugacy_classes(7)
            with pytest.raises(ConsistencyError, match="chain heads of 7"):
                build_coset_table(SubgroupSpec(Family.GAMMA, 7))
            assert main(["densities", "--family", "gamma", "--level", "7"]) == 3
    finally:
        core.chain_heads.cache_clear()
    assert "chain heads of 7" in capsys.readouterr().err
    assert len(conjugacy_classes(7)) > 1


@pytest.mark.parametrize("n", [210, 400])
def test_chain_heads_peak_stays_below_twice_its_result(n):
    """The heads are written in place and their columns come out int32, so
    the traced peak of a fresh build stays below twice the bytes it
    returns (2.3 times with intp columns and a stacked copy)."""
    tracemalloc.start()
    try:
        heads, rows = core.chain_heads.__wrapped__(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(heads, core.chain_heads(n)[0])
    assert peak < 2 * (heads.nbytes + rows.nbytes)


# ---------------------------------------------------------------------------
# primitive classes from the trace-chunk kernel

def _kernel_per_trace(lo, hi):
    forms = list(geodesics._chunk_forms(hi - 1, [(3, lo), (lo, hi)]))[1]
    t, a, b, c = (v.tolist() for v in geodesics._cycle_leaders(lo, hi, forms))
    return [(u, [f for v, f in zip(t, zip(a, b, c)) if v == u]) for u in range(lo, hi)]


def test_stern_brocot_inverses_are_the_modular_inverses():
    """Every coprime pair u < a <= 400 comes once with q = u^-1 mod a, and
    at t_max = 400 the pairs are exactly those with u + a + q <= t_max."""
    lim = 400
    u, a, q = geodesics._coprime_pairs(3 * lim, np.int16).tolist()
    got = sorted((x, y, z) for x, y, z in zip(u, a, q) if y <= lim)
    want = [(1, 1, 1)] + sorted((x, y, pow(x, -1, y)) for y in range(2, lim + 1)
                                for x in range(1, y) if math.gcd(x, y) == 1)
    assert got == want
    u, a, q = geodesics._coprime_pairs(lim, np.int16).tolist()
    assert sorted(zip(u, a, q)) == [row for row in want if sum(row) <= lim]


def _forms_by_trace(t_max):
    """`_chunk_forms` in its chunks at t_max, with c and the forms with
    a < 0 added, as a sorted list of (t, a, b, c) per trace."""
    chunks = geodesics._trace_chunks(t_max)
    out = {t: [] for t in range(3, t_max + 1)}
    for (lo, hi), forms in zip(chunks, geodesics._chunk_forms(t_max, chunks)):
        assert forms.dtype == np.int16
        for t, a, b in forms.T.tolist():
            assert lo <= t < hi
            c = (t * t - 4 - b * b) // (4 * a)
            out[t] += [(t, a, b, -c), (t, -a, b, c)]
    return {t: sorted(v) for t, v in out.items()}


def test_form_generator_matches_the_divisor_expansion():
    """Every trace up to max_trace(1e5), against the reduced forms listed
    from the divisors of (t^2 - 4 - b^2)/4 by the sieve reference."""
    t_max = max_trace(10**5)
    rows = zip(*(v.tolist() for v in reduced_forms_by_divisors(
        3, t_max + 1, spf_sieve((t_max * t_max - 4) // 4))))
    want = {t: [] for t in range(3, t_max + 1)}
    for row in rows:
        want[row[0]].append(row)
    assert _forms_by_trace(t_max) == {t: sorted(v) for t, v in want.items()}


def test_form_generator_matches_the_box_scan():
    """Every trace up to 60, against the float box scan of test_geodesics."""
    got = _forms_by_trace(60)
    for t in range(3, 61):
        assert got[t] == sorted((t, *f) for f in brute_reduced_forms(t * t - 4))


def test_form_columns_refuse_traces_beyond_int16(monkeypatch):
    """Refused before the pairs are generated; the cap stays far below."""
    monkeypatch.setattr(geodesics, "_coprime_pairs", _refuse_pairs)
    with pytest.raises(OverflowError):
        geodesics._chunk_forms(2**15, [(3, 2**15 + 1)])
    assert max_trace(MAX_CUTOFF) < 2**15


def _refuse_pairs(*args):
    raise AssertionError("generated pairs beyond the int16 columns")


def test_kernel_matches_reduction_walk_trace_by_trace():
    """Every class of every trace 3..200, in one chunk and one trace per
    chunk, is the least form of a walked reduction cycle, in order."""
    want = [(t, [r.canonical_form for r in classes_at_trace(t)]) for t in range(3, 201)]
    assert _kernel_per_trace(3, 201) == want
    assert [_kernel_per_trace(t, t + 1)[0] for t in range(3, 201)] == want


@pytest.mark.parametrize("x", [7, 2000, 10**5])
def test_enumeration_matches_reference(x):
    assert list(enumerate_primitive_classes(x)) == primitive_classes(x)


def test_enumeration_matches_reference_at_1e6(classes_1e6):
    assert list(classes_1e6) == primitive_classes(10**6)


@pytest.mark.parametrize("pairs", [40, 1000])
def test_jobs_agree_with_a_small_row_budget(monkeypatch, pairs):
    """A small budget of pairs (t, b) cuts the trace range into many chunks;
    at 40 pairs every trace above 81 has more pairs than the budget and is a
    chunk of its own.  The pool and the single process agree."""
    want = list(enumerate_primitive_classes(10**5))
    monkeypatch.setattr(geodesics, "_CHUNK_PAIRS", pairs)
    t_max = max_trace(10**5)
    chunks = geodesics._trace_chunks(t_max)
    assert chunks[0][0] == 3 and chunks[-1][1] == t_max + 1
    assert len(chunks) >= geodesics._POOL_MIN_CHUNKS  # so jobs=2 runs the pool
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    assert all(sum((t - 1) // 2 for t in range(lo, hi)) <= pairs or hi == lo + 1
               for lo, hi in chunks)
    assert list(enumerate_primitive_classes(10**5, jobs=1)) == want
    assert list(enumerate_primitive_classes(10**5, jobs=2)) == want


POOL = geodesics.Pool


def test_pool_starts_from_the_chunk_threshold(monkeypatch):
    """jobs=2 runs in the process below _POOL_MIN_CHUNKS chunks and in a
    pool from there on; both give the same list."""
    started = []

    def counting_pool(*args, **kwargs):
        started.append(args)
        return POOL(*args, **kwargs)

    monkeypatch.setattr(geodesics, "Pool", counting_pool)
    chunks = len(geodesics._trace_chunks(max_trace(10**5)))
    assert 1 < chunks < geodesics._POOL_MIN_CHUNKS
    want = list(enumerate_primitive_classes(10**5, jobs=2))
    assert started == []
    monkeypatch.setattr(geodesics, "_POOL_MIN_CHUNKS", chunks)
    assert list(enumerate_primitive_classes(10**5, jobs=2)) == want
    assert list(enumerate_primitive_classes(10**5, jobs=1)) == want
    assert len(started) == 1


class _UnorderedOnlyPool:
    """A process pool with `imap_unordered` as its only map, like the
    timed pool the benchmark puts in place of `geodesics.Pool`; it hands
    the results back last first."""

    def __init__(self, processes):
        self._pool = POOL(processes)

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)

    def imap_unordered(self, func, iterable, chunksize=1):
        return reversed(list(self._pool.imap_unordered(func, iterable, chunksize)))


def test_pool_with_only_imap_unordered_keeps_the_trace_order(monkeypatch):
    want = enumerate_primitive_classes(10**5, jobs=1)
    monkeypatch.setattr(geodesics, "Pool", _UnorderedOnlyPool)
    monkeypatch.setattr(geodesics, "_POOL_MIN_CHUNKS", 2)
    got = enumerate_primitive_classes(10**5, jobs=2)
    for name in ("trace", "a", "b", "c"):
        v, w = getattr(got, name), getattr(want, name)
        assert v.dtype == w.dtype and np.array_equal(v, w)


# ---------------------------------------------------------------------------
# the tally streamed chunk by chunk against the tally of a whole class list

STREAM_SUBGROUPS = [SubgroupSpec(Family.GAMMA0, 5), SubgroupSpec(Family.GAMMA0, 8),
                    SubgroupSpec(Family.GAMMA1, 7), SubgroupSpec(Family.GAMMA, 5)]


def _chunk_start_cutoff():
    """A cutoff whose largest trace is the first trace of a chunk at 1e6:
    x = t^2 admits t and not t + 1."""
    lo = geodesics._trace_chunks(max_trace(10**6))[5][0]
    assert max_trace(lo * lo) == lo
    return lo * lo


def _assert_stream_equals_whole(s, x, classes, jobs=1):
    streamed = geodesics.empirical_tally(s, x, jobs=jobs, scan_anomalous=True)
    whole = geodesics.empirical_tally(s, x, classes=classes, scan_anomalous=True)
    assert list(streamed.counts.items()) == list(whole.counts.items())
    assert streamed.total == whole.total
    assert streamed.anomalous == whole.anomalous
    assert streamed.witnesses == whole.witnesses


@pytest.mark.parametrize("s", STREAM_SUBGROUPS, ids=str)
@pytest.mark.parametrize("x", [7, 2000, 10**5, 10**6, "chunk start"])
def test_streamed_tally_equals_the_whole_list(classes_1e6, s, x):
    """Counts in first-class order, total, anomalous count and witnesses;
    Gamma0(8) has 1609 anomalous classes at 1e5, so the witness list is
    cut at 50."""
    x = _chunk_start_cutoff() if x == "chunk start" else x
    _assert_stream_equals_whole(s, x, classes_1e6)


@pytest.mark.parametrize("s", STREAM_SUBGROUPS, ids=str)
def test_streamed_tally_with_base_classes_over_many_chunks(monkeypatch, classes_1e5, s):
    """At 40 pairs per chunk the classes of traces up to isqrt(t_max + 2),
    whose powers are marked, span two chunks, and the 50 witnesses of
    Gamma0(8) (traces 3 to 43) span thirteen."""
    monkeypatch.setattr(geodesics, "_CHUNK_PAIRS", 40)
    chunks = geodesics._trace_chunks(max_trace(10**5))
    assert chunks[1][0] <= math.isqrt(max_trace(10**5) + 2) < chunks[2][0]
    _assert_stream_equals_whole(s, 10**5, classes_1e5)


@pytest.mark.parametrize("s", STREAM_SUBGROUPS, ids=str)
def test_streamed_tally_through_an_unordered_pool(monkeypatch, classes_1e5, s):
    """jobs=2 under the stand-in that returns the chunks last first: the
    reorder buffer puts them back in trace order."""
    monkeypatch.setattr(geodesics, "Pool", _UnorderedOnlyPool)
    monkeypatch.setattr(geodesics, "_CHUNK_PAIRS", 1000)
    monkeypatch.setattr(geodesics, "_POOL_MIN_CHUNKS", 2)
    _assert_stream_equals_whole(s, 10**5, classes_1e5, jobs=2)


def test_streamed_tally_traced_peak():
    """Only the forms, one chunk's temporaries and the running counts are
    held: the traced peak at 1e6 is about 4.4 MB, against 8.8 MB when every
    class column and the global sort of the forms were held at once."""
    s = SubgroupSpec(Family.GAMMA0, 5)
    geodesics.empirical_tally(s, 10**4)  # module-level and first-call allocations
    tracemalloc.start()
    try:
        geodesics.empirical_tally(s, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 10**6


RHO_STEPS = geodesics.rho_steps


def _merge_first_two(t, b, c):
    """`rho_steps` except that the second form maps where the first does,
    so the step is no permutation."""
    na, nb, nc, exact = (v.copy() for v in RHO_STEPS(t, b, c))
    for v in (na, nb, nc):
        v[1] = v[0]
    return na, nb, nc, exact


def _off_the_forms(t, b, c):
    """`rho_steps` with every image's b moved off the parity of t."""
    na, nb, nc, exact = RHO_STEPS(t, b, c)
    return na, nb + 1, nc, exact


@pytest.mark.parametrize("step, match", [(_merge_first_two, "not a permutation"),
                                         (_off_the_forms, "out of the reduced forms")])
@pytest.mark.parametrize("jobs", [1, 2])
def test_broken_reduction_step_is_a_consistency_error(monkeypatch, capsys, step, match, jobs):
    """Raised in every chunk (two at 1e5), in the process or, with the pool
    threshold lowered to two chunks, a pool worker."""
    monkeypatch.setattr(geodesics, "rho_steps", step)
    monkeypatch.setattr(geodesics, "_POOL_MIN_CHUNKS", 2)
    assert len(geodesics._trace_chunks(max_trace(10**5))) == 2
    with pytest.raises(ConsistencyError, match=match):
        enumerate_primitive_classes(10**5, jobs=jobs)
    code = main(["--jobs", str(jobs), "empirical", "--family", "gamma0", "--level", "5",
                 "--x", "1e5"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert match in captured.err


def test_sieve_is_the_smallest_prime_factor():
    spf = spf_sieve(10**5)
    assert spf.dtype == np.int32
    assert spf.tolist() == spf_list(10**5)
