import json
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from geosplit.census import (
    census_payload,
    census_table_from_payload,
    _fixed_point_count,
    closed_class_catalog,
    conjugacy_classes,
    density_table,
    density_table_closed_form,
    density_table_composite,
    family_labels,
    label_str,
    power_relation_check,
    rectangle_density_table,
    tensor_partitions,
)
from geosplit.core import (
    CapExceeded,
    ConsistencyError,
    Family,
    SubgroupSpec,
    canon,
    enumerate_xi,
    factorize,
    identity,
    mul,
    partition,
    xi_chain_grid,
    xi_order,
    xi_orders,
)
from geosplit.cosets import build_coset_table, induced_trace, splitting_types
from reference import (count_quad_roots, count_sqrt, family_set_sizes, inv, is_member_tuple,
                       label_class, power_relation_reference, sigma_gamma0, sigma_gamma1,
                       similarity_invariant)


def F(s):
    return Fraction(s)


def lam(spec):
    """Partition from a compact 'a^i b^j' string."""
    out = []
    for tok in spec.split():
        if "^" in tok:
            base, exp = tok.split("^")
            out += [int(base)] * int(exp)
        else:
            out.append(int(tok))
    return partition(out)


# ---------------------------------------------------------------------------
# brute-force census structure

@pytest.mark.parametrize("n", [3, 5, 9, 15, 25])
def test_class_sizes_partition_group(n):
    classes = conjugacy_classes(n)
    assert sum(c.size for c in classes) == xi_order(n)
    for c in classes:
        assert xi_order(n) % c.size == 0
        assert xi_order(n) % c.order == 0


def test_class_size_examples():
    # order-5 unipotent classes mod 5 have size 12 each (two of them)
    sizes = [c.size for c in conjugacy_classes(5) if c.order == 5]
    assert sorted(sizes) == [12, 12]
    # #A_1 at level 9: the single depth-1 split-torus class has size 12
    classes = conjugacy_classes(9)
    labeled = zip(family_labels([c.representative for c in classes],
                                [c.order for c in classes], 3, 2), (c.size for c in classes))
    a1 = [s for lab, s in labeled if lab == ("A", 1)]
    assert sum(a1) == 12


@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4), (7, 2)])
def test_family_sets_match_closed_sizes(p, r):
    """Element-level family labels reconcile exactly with the closed-form
    set sizes for every family at once."""
    xi = enumerate_xi(p**r)
    assert Counter(family_labels(xi, xi_orders(xi, p**r), p, r)) == family_set_sizes(p, r)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 25, 27, 49, 81])
def test_family_labels_match_the_scalar_labels(n):
    """`family_labels` of every element of the chain grid, with its entries
    as the grid holds them (not sign-reduced), equals the scalar
    `label_class` of the element's canonical tuple."""
    [(p, r)] = factorize(n)
    grid = np.stack([e.ravel() for e in xi_chain_grid(n)], axis=1)
    orders = xi_orders(grid, n)
    want = [label_class(canon(*g, n), m, p, r) for g, m in zip(grid.tolist(), orders.tolist())]
    assert family_labels(grid, orders, p, r) == want


def test_family_labels_refuse_inconsistent_orders():
    """The three consistency checks: a class whose order has a prime-to-p
    part must have a unit discriminant, only the identity has infinite
    depth, and a semisimple class of p-power order lies at depth 1..r-1."""
    with pytest.raises(ConsistencyError, match="discriminant"):
        family_labels([(1, 0, 0, 1)], [2], 5, 1)  # t^2 - 4 = 0
    with pytest.raises(ConsistencyError, match="infinite depth"):
        family_labels([(1, 0, 0, 1)], [5], 5, 1)
    with pytest.raises(ConsistencyError, match="depth outside"):
        family_labels([(0, 4, 1, 0)], [5], 5, 1)  # S, of order 2, at depth 0


# ---------------------------------------------------------------------------
# density tables against the worked examples

def test_gamma0_3_table():
    t = density_table(SubgroupSpec(Family.GAMMA0, 3))
    assert t.entries == {lam("3 1"): F("2/3"), lam("2^2"): F("1/4"), lam("1^4"): F("1/12")}


def test_gamma0_5_table():
    t = density_table(SubgroupSpec(Family.GAMMA0, 5))
    assert t.entries == {
        lam("1^6"): F("1/60"),
        lam("2^2 1^2"): F("1/4"),
        lam("3^2"): F("1/3"),
        lam("5 1"): F("2/5"),
    }


GAMMA0_25_TABLE = {
    lam("1^30"): F("1/7500"),
    lam("2^14 1^2"): F("1/20"),
    lam("3^10"): F("1/15"),
    lam("5^4 1^10"): F("1/125"),
    lam("5^5 1^5"): F("2/625"),
    lam("5^6"): F("2/375"),
    lam("10^2 2^4 1^2"): F("1/5"),
    lam("15^2"): F("4/15"),
    # the worked example prints these two assigned the other way around, but
    # its own trace formula gives tr sigma(T) = tr sigma(T^5) = 5, forcing
    # type (25,1^5) for the T-like classes of total mass 600/7500 = 2/25
    lam("25 1^5"): F("2/25"),
    lam("25 5"): F("8/25"),
}


def test_gamma0_25_table():
    t = density_table(SubgroupSpec(Family.GAMMA0, 25))
    assert len(t.entries) == 10
    assert t.entries == GAMMA0_25_TABLE


def test_gamma0_25_b_family_swap_is_real():
    """Direct evidence for the corrected assignment: T = [[1,1],[0,1]] mod 25
    (a B^(2)-family element, set size 600) has type (25,1^5)."""
    t = build_coset_table(SubgroupSpec(Family.GAMMA0, 25))
    from geosplit.cosets import splitting_type_cycles

    g = canon(1, 1, 0, 1, 25)
    assert induced_trace(g, t) == 5
    assert splitting_type_cycles(g, t) == lam("25 1^5")
    classes = conjugacy_classes(25)
    labels = family_labels([c.representative for c in classes], [c.order for c in classes], 5, 2)
    mass = sum(c.size for c, lab in zip(classes, labels) if lab[:3] == ("B", 0, 2))
    assert Fraction(mass, 7500) == F("2/25")


# ---------------------------------------------------------------------------
# closed forms

# every odd prime power p^r with |Xi(p^r)| <= 1e5
SMALL_ODD_PRIME_POWERS = [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                                           53)] + [(3, 2), (5, 2), (3, 3), (7, 2)]


@pytest.mark.parametrize("p,r", SMALL_ODD_PRIME_POWERS)
@pytest.mark.parametrize("family", list(Family))
def test_closed_form_equals_census(p, r, family):
    s = SubgroupSpec(family, p**r)
    assert density_table_closed_form(s).entries == density_table(s).entries


@pytest.mark.parametrize("p,r", SMALL_ODD_PRIME_POWERS)
def test_closed_catalog_masses_equal_census_classes(p, r):
    """Grouped by their similarity invariants (+-t, k, det A), the census
    classes have the total size of the catalog record with those
    invariants: the catalog's mass formulas, one record per invariant."""
    masses = Counter()
    for rec in conjugacy_classes(p**r):
        masses[similarity_invariant(rec.representative, p, r)] += rec.size
    catalog = closed_class_catalog(p, r)
    assert masses == Counter({similarity_invariant(rec.representative, p, r): rec.size
                              for rec in catalog})
    assert len(catalog) == len(masses)


def test_closed_form_rejects_bad_levels():
    with pytest.raises(ValueError):
        density_table_closed_form(SubgroupSpec(Family.GAMMA0, 15))
    with pytest.raises(ValueError):
        density_table_closed_form(SubgroupSpec(Family.GAMMA0, 8))
    # the prime 2^31 + 11 factors, and is refused before any array is allocated
    with pytest.raises(ValueError, match="exceeds int64"):
        density_table_closed_form(SubgroupSpec(Family.GAMMA, 2**31 + 11))
    # the prime 2^61 - 1 has no factor up to the trial bound: refused as it is factored
    with pytest.raises(CapExceeded, match="exceeds cap"):
        density_table_closed_form(SubgroupSpec(Family.GAMMA, 2**61 - 1))


def test_closed_form_cap_refuses_before_any_array(monkeypatch):
    """Above CLOSED_CATALOG_CAP half-traces (p^r + 1)/2 the closed form is
    refused with CapExceeded before any array is built: the prime 1000003,
    which took seconds and most of a GB to answer, in under a second in
    every family.  At the cap a level still answers, one above it not."""
    import geosplit.census

    for family in Family:
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="over the cap"):
            density_table_closed_form(SubgroupSpec(family, 1000003))
        assert time.perf_counter() - start < 1
    monkeypatch.setattr(geosplit.census, "CLOSED_CATALOG_CAP", 5)
    assert sum(rec.size for rec in closed_class_catalog(3, 2)) == xi_order(9)  # 5 half-traces
    with pytest.raises(CapExceeded):
        closed_class_catalog(11, 1)  # 6 half-traces


def test_gamma_closed_form_above_the_index_cap_is_one_run_per_type():
    """Gamma(31^2) has index 4.4e8, over the coset-table cap: each of its
    rectangle types is the single run (m, index/m), so the closed form
    builds the table without a cap.  Every type partitions the index, one
    order per type, and the mean number of fixed cosets is 1 (Burnside)."""
    n = 31**2
    t = density_table_closed_form(SubgroupSpec(Family.GAMMA, n))
    orders = {c.order for c in closed_class_catalog(31, 2)}
    assert t.index == xi_order(n) == 443290080
    assert sorted(lam.runs for lam in t.entries) == sorted(((m, t.index // m),) for m in orders)
    assert all(sum(m * k for m, k in lam.runs) == t.index for lam in t.entries)
    assert sum(d * lam.count(1) for lam, d in t.entries.items()) == 1


def test_theorem_density_formulas_prime_level():
    # regular cover at prime level: full-order rectangle has density 2/p
    for p in (3, 5, 7):
        t = density_table(SubgroupSpec(Family.GAMMA, p))
        n = xi_order(p)
        assert t.entries[partition((p,) * (n // p))] == Fraction(2, p)
        assert t.entries[partition((1,) * n)] == Fraction(1, n)


def test_gamma_9_order_anomaly():
    """At level 9 the full-order rectangle has density 4/9, not 2/p = 2/3:
    72 of the 216 'order 9' elements of the printed classification actually
    have order 3 (trace == -1 mod 9 forces g^3 = I)."""
    t = density_table(SubgroupSpec(Family.GAMMA, 9))
    n = xi_order(9)
    assert t.entries[partition((9,) * (n // 9))] == Fraction(4, 9)
    assert t.entries[partition((3,) * (n // 3))] == Fraction(49, 162)


def test_theorem_density_formulas_25():
    t = density_table(SubgroupSpec(Family.GAMMA0, 25))
    p, r = 5, 2
    # split-torus series: 1/p^(3(r-k))
    assert t.entries[lam("5^4 1^10")] == Fraction(1, p ** (3 * (r - 1)))
    # nonsplit series: (p-1)/(p^(3(r-k)) (p+1))
    assert t.entries[lam("5^6")] == Fraction(p - 1, p ** (3 * (r - 1)) * (p + 1))
    # unipotent-like m=k: 2/p^(3r-2k); m<k: 2(p-1)/p^(3r-3k+m+1)
    assert t.entries[lam("25 1^5")] == Fraction(2, p ** (3 * r - 2 * r))
    assert t.entries[lam("25 5")] == Fraction(2 * (p - 1), p ** (3 * r - 3 * r + 1 + 1))
    t1 = density_table(SubgroupSpec(Family.GAMMA1, 25))
    # Gamma1 torus series at order p^k: 2/(p^(3r-3k-1) (p+1))
    k = 1
    lam1 = partition((5,) * (t1.index // 5))
    assert t1.entries[lam1] == Fraction(2, p ** (3 * r - 3 * k - 1) * (p + 1))


# ---------------------------------------------------------------------------
# closed trace formulas against the actual coset actions

@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_sigma_formulas_exhaustive(p, r):
    n = p**r
    t0 = build_coset_table(SubgroupSpec(Family.GAMMA0, n))
    t1 = build_coset_table(SubgroupSpec(Family.GAMMA1, n))
    xi = enumerate_xi(n)
    for g in xi:
        assert sigma_gamma0(g, p, r) == induced_trace(g, t0)
        assert sigma_gamma1(g, p, r) == induced_trace(g, t1)
    assert _fixed_point_count(xi, p, r).tolist() == [induced_trace(g, t0) for g in xi]


def test_sigma_gamma1_refuses_levels_beyond_int64():
    """The fixed-row counts reach p^(2r); int64 holds them below 2^31."""
    assert sigma_gamma1((1, 1, 0, 1), 46337, 2) == (46337**2 - 46337) // 2
    with pytest.raises(ValueError, match="exceed int64"):
        sigma_gamma1((1, 1, 0, 1), 65537, 2)


def test_gamma0_kernel_refuses_levels_beyond_int64():
    """The discriminant squares a residue mod p^r; int64 holds it below 2^31."""
    assert _fixed_point_count([(1, 1, 0, 1)], 46337, 2).tolist() == [46337]
    with pytest.raises(ValueError, match="exceed int64"):
        _fixed_point_count([(1, 1, 0, 1)], 65537, 2)


def test_quadratic_root_counters():
    rng = random.Random(0)
    for p in (3, 5, 7):
        for e in (1, 2, 3):
            pe = p**e
            for _ in range(150):
                a, b, c = (rng.randrange(pe) for _ in range(3))
                truth = sum(1 for x in range(pe) if (a * x * x + b * x + c) % pe == 0)
                assert count_quad_roots(a, b, c, p, e) == truth
            for d in range(pe):
                truth = sum(1 for y in range(pe) if (y * y - d) % pe == 0)
                assert count_sqrt(d, p, e) == truth


# ---------------------------------------------------------------------------
# rectangles for the principal family

@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_gamma_rectangles(n):
    t = density_table(SubgroupSpec(Family.GAMMA, n))
    for lam_ in t.entries:
        assert len(set(lam_)) == 1  # all parts equal
        assert t.index % tuple(lam_)[0] == 0
    assert rectangle_density_table(SubgroupSpec(Family.GAMMA, n)).entries == t.entries


def test_non_normal_family_not_rectangular():
    t = density_table(SubgroupSpec(Family.GAMMA0, 25))
    assert any(len(set(lam_)) > 1 for lam_ in t.entries)


# ---------------------------------------------------------------------------
# tensor rule

def test_tensor_trivial_actions():
    assert tensor_partitions(lam("1^3"), lam("1^4")) == lam("1^12")


def test_tensor_coprime_parts_is_pairwise():
    assert tensor_partitions(lam("3 1"), lam("25 1^5")) == lam("75 25 3^5 1^5")
    assert tensor_partitions(lam("2^2"), lam("5^5 1^5")) == lam("10^10 2^10")


def test_tensor_shared_factors_differs_from_pairwise():
    # cycles of equal even length split: a pairwise product would say (4^28 2^4)
    assert tensor_partitions(lam("2^2"), lam("2^14 1^2")) == lam("2^60")
    assert tensor_partitions(lam("2^2"), lam("10^2 2^4 1^2")) == lam("10^8 2^20")
    assert tensor_partitions(lam("3 1"), lam("3^10")) == lam("3^40")
    assert tensor_partitions(lam("3 1"), lam("15^2")) == lam("15^8")


def product_action_oracle(lam1, lam2):
    """Independent oracle: build the two permutations explicitly and take
    the cycle type of the product action."""
    def perm_of(lamx):
        perm = []
        base = 0
        for part in lamx:
            perm += [base + (i + 1) % part for i in range(part)]
            base += part
        return perm

    p1, p2 = perm_of(lam1), perm_of(lam2)
    n2 = len(p2)
    prod = {}
    for i, pi in enumerate(p1):
        for j, pj in enumerate(p2):
            prod[i * n2 + j] = pi * n2 + pj
    seen = set()
    out = []
    for start in prod:
        if start in seen:
            continue
        length = 0
        j = start
        while j not in seen:
            seen.add(j)
            j = prod[j]
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))


def test_tensor_against_product_action():
    rng = random.Random(9)
    for _ in range(60):
        lam1 = tuple(sorted((rng.randrange(1, 9) for _ in range(rng.randrange(1, 4))), reverse=True))
        lam2 = tuple(sorted((rng.randrange(1, 9) for _ in range(rng.randrange(1, 4))), reverse=True))
        assert tuple(tensor_partitions(partition(lam1), partition(lam2))) == \
            product_action_oracle(lam1, lam2)


def test_composite_convolution_matches_direct_15():
    s = SubgroupSpec(Family.GAMMA0, 15)
    assert density_table_composite(s).entries == density_table(s).entries


@pytest.mark.parametrize("n", [12, 15, 21, 75])
def test_gamma0_composite_equals_census(n):
    s = SubgroupSpec(Family.GAMMA0, n)
    composite, census = density_table_composite(s), density_table(s)
    assert composite.entries == census.entries
    assert composite.index == census.index
    assert composite.xi_order == census.xi_order == xi_order(n)


def test_write_census_replaces_atomically(tmp_path):
    from geosplit.census import load_census, write_census

    path = tmp_path / "census-gamma0-5.json"
    write_census(path, {"level": 5, "stale": True})
    payload = census_payload(Family.GAMMA0, 5)
    write_census(path, payload)
    assert load_census(path) == payload
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_composite_rejects_prime_powers():
    with pytest.raises(ValueError):
        density_table_composite(SubgroupSpec(Family.GAMMA0, 25))


@pytest.mark.parametrize("family", [Family.GAMMA1, Family.GAMMA])
def test_composite_refuses_families_outside_gamma0(family):
    """-I acts non-trivially on the Gamma1 and Gamma cosets, so the tensor
    rule gives wrong tables there (index 24 for Gamma1(12), where the census
    has 48); the library refuses them as the CLI does, and gamma0 at the
    same level still convolves to the census table."""
    with pytest.raises(ValueError, match="gamma0 only"):
        density_table_composite(SubgroupSpec(family, 12))
    s = SubgroupSpec(Family.GAMMA0, 12)
    assert density_table_composite(s).entries == density_table(s).entries


# ---------------------------------------------------------------------------
# power relations

def test_power_relations_5_2_all_pass():
    rows = power_relation_check(25)
    assert rows and all(r.passed for r in rows)


def test_power_relations_3_2_known_exception():
    """The printed relation {g^3 : B_0^(1)} = B_1^(1) fails at level 9: the
    trace == -1 (mod 9) subfamily cubes to the identity instead."""
    rows = power_relation_check(9)
    failed = [r for r in rows if not r.passed]
    assert [(r.label, r.exponent) for r in failed] == [("B(k=0,m=1)", 3)]
    assert all("p=3 order anomaly" in r.note for r in failed)


def test_power_relations_3_3_same_single_exception():
    # the breakage is confined to the same family at r = 3 (and there the
    # cube map misses part of the predicted set as well, so no tidy note)
    rows = power_relation_check(27)
    failed = [(r.label, r.exponent) for r in rows if not r.passed]
    assert failed == [("B(k=0,m=1)", 3)]


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3)])
def test_power_relations_match_the_element_reference(p, r):
    """The class-level check gives the rows of the element-by-element walk
    of tests/reference.py, notes included."""
    assert power_relation_check(p**r) == power_relation_reference(p, r)


@pytest.mark.parametrize("n", [49, 81, 121, 125, 169, 243])
def test_power_relations_on_a_wider_grid(n):
    """Every printed relation holds at these levels but the cube of
    B(k=0,m=1) at every power of 3 (the p = 3 order anomaly)."""
    failed = [(r.label, r.exponent) for r in power_relation_check(n) if not r.passed]
    assert failed == ([("B(k=0,m=1)", 3)] if n % 3 == 0 else [])


def test_power_coprime_fixes_families():
    # exponents coprime to all element orders permute each family setwise
    rows = power_relation_check(25)
    for r in rows:
        if r.exponent == 1:
            assert r.passed and r.predicted == r.label


# ---------------------------------------------------------------------------
# normal core of the families (why Gamma(N) is the right Xi for prime powers)

def normal_core(family, n):
    xi = enumerate_xi(n)
    members = [g for g in xi if is_member_tuple(g, family, n)]
    return {
        g
        for g in members
        if all(is_member_tuple(mul(mul(h, g, n), inv(h, n), n), family, n) for h in xi)
    }


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", [3, 4, 5, 7, 9])
def test_core_is_trivial_at_prime_powers(family, n):
    assert normal_core(family, n) == {identity(n)}


def test_core_at_composite_level_is_larger_for_gamma0():
    """At composite levels the true maximal normal subgroup inside Gamma0(N)
    picks up the scalar matrices s*I with s^2 == 1: the quotient used here
    (by +-I only) stays valid for densities but is a double cover of it."""
    core = normal_core(Family.GAMMA0, 15)
    assert core == {identity(15), canon(4, 0, 0, 4, 15)}
    assert normal_core(Family.GAMMA1, 15) == {identity(15)}


# ---------------------------------------------------------------------------
# census cache

def test_census_cache_roundtrip(tmp_path):
    payload = census_payload(Family.GAMMA0, 5)
    path = tmp_path / "census-gamma0-5.json"
    from geosplit.census import load_census, write_census

    write_census(path, payload)
    loaded = load_census(path)
    assert loaded == payload
    table = census_table_from_payload(loaded)
    assert table.entries == density_table(SubgroupSpec(Family.GAMMA0, 5)).entries
    assert payload["xi_order"] == 60
    assert payload["densities"]["5,1"] == "2/5"
    # every class row carries a family label at an odd prime-power level
    assert all(row["family_label"] for row in payload["classes"])


def test_census_payload_deterministic():
    a = json.dumps(census_payload(Family.GAMMA1, 9))
    b = json.dumps(census_payload(Family.GAMMA1, 9))
    assert a == b


def test_tensor_partitions_share_the_moebius_recursion(monkeypatch):
    """The empty type tensors to the empty type, and a fault of the tensor
    rule leaves the composite route as the ConsistencyError it raised."""
    import geosplit.census as census
    from geosplit.core import ConsistencyError

    assert tensor_partitions(partition(()), lam("2 1")) == partition(())

    def broken(lam1, lam2):
        raise ConsistencyError("tensor rule fault")

    monkeypatch.setattr(census, "tensor_partitions", broken)
    with pytest.raises(ConsistencyError, match="tensor rule fault"):
        density_table_composite(SubgroupSpec(Family.GAMMA0, 15))


@pytest.mark.parametrize("n,gamma0_mass", [(8, Fraction(11, 64)), (12, Fraction(29, 64)),
                                           (15, Fraction(21, 32))])
def test_anomalous_mass_from_the_census(n, gamma0_mass):
    """The density of the classes whose splitting type has no part equal to
    the order of their reduction (what `--scan-anomalous` counts) is the
    mass of the census classes whose type lacks their order: 11/64 for
    Gamma0(8), where the scan below 1e5 reads 1609/9558, and none for
    Gamma1 and Gamma at these levels."""
    classes = conjugacy_classes(n)
    for family in Family:
        types = splitting_types([c.representative for c in classes],
                                build_coset_table(SubgroupSpec(family, n)))
        mass = sum(Fraction(c.size, xi_order(n)) for c, lam in zip(classes, types)
                   if c.order not in lam)
        assert mass == (gamma0_mass if family == Family.GAMMA0 else 0)
