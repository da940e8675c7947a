"""The array routes against their element-by-element references: the
conjugacy census on the sorted key array against the orbit closure of
tests/reference.py, and the batched order kernel `xi_orders` against the
scalar loop `order_in_xi_tuple`."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import geosplit.census as census
from geosplit.census import closed_class_catalog, conjugacy_classes, nonsplit_generator
from geosplit.core import (
    CapExceeded,
    canon,
    complete_column,
    enumerate_xi,
    order_in_xi_tuple,
    unimodular_columns,
    xi_orders,
)
from reference import orbit_closure_classes


@pytest.mark.parametrize("n", list(range(2, 31)) + [75])
def test_census_matches_orbit_closure(n):
    got = [(c.representative, c.size, c.order) for c in conjugacy_classes(n)]
    assert got == orbit_closure_classes(n)


def test_census_cap_is_checked_before_the_grid(monkeypatch):
    def refuse(n):
        raise AssertionError("built the grid of a capped level")

    monkeypatch.setattr(census, "xi_chain_grid", refuse)
    with pytest.raises(CapExceeded, match="exceeds cap"):
        conjugacy_classes(1000)


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


def test_xi_orders_refuse_elements_outside_xi():
    with pytest.raises(ValueError, match="not in Xi"):
        xi_orders([(1, 0, 0, 1), (2, 0, 0, 2)], 7)


@pytest.mark.parametrize("p,r", [(3, 5), (29, 2)])
def test_closed_catalog_orders_match_scalar_loop(p, r):
    n = p**r
    catalog = closed_class_catalog(p, r)
    assert [c.order for c in catalog] == [order_in_xi_tuple(c.representative, n) for c in catalog]


@pytest.mark.parametrize("p,r,want", [
    (3, 5, (0, 1, 242, 240)),
    (29, 2, (0, 1, 840, 837)),
    (43, 2, (0, 1, 1848, 1846)),
])
def test_nonsplit_generator_is_pinned(p, r, want):
    """The first companion matrix of the target order in the scan order;
    the closed catalogs and their census payloads depend on this choice."""
    assert nonsplit_generator(p, r) == want
