import math

import pytest

from geosplit.core import Family, SubgroupSpec
from geosplit.geodesics import norm_below
from geosplit.zeta import (
    ClassData,
    ratio_identity_check,
    venkov_zograf_check,
    zeta_gamma_log,
    zeta_lambda_log,
)


@pytest.fixture(scope="module")
def data_1e4(classes_1e4):
    return ClassData(10**4, classes=classes_1e4)


def test_rejects_bad_arguments(data_1e4):
    with pytest.raises(ValueError):
        zeta_lambda_log(1.0, 100, SubgroupSpec(Family.GAMMA0, 5), (5, 1))
    with pytest.raises(ValueError):
        ratio_identity_check(4, 2.0, 100)
    with pytest.raises(ValueError):
        ratio_identity_check(5, 0.9, 100)


@pytest.mark.parametrize("p", [1, 2, 9, 15, 21])
def test_ratio_identity_requires_odd_prime(p):
    with pytest.raises(ValueError, match="odd prime"):
        ratio_identity_check(p, 2.0, 100)


def test_zero_density_type_gives_empty_product(data_1e4):
    s = SubgroupSpec(Family.GAMMA0, 5)
    z = zeta_lambda_log(2.0, 10**4, s, (6,), data_1e4)
    assert z.log_value == 0.0 and z.term_count == 0


def test_types_partition_the_class_set(data_1e4):
    """Sum over lambda of the lambda-products equals the full product, and
    the term counts add up to pi(x)."""
    s = SubgroupSpec(Family.GAMMA1, 5)
    full = zeta_gamma_log(2.0, 10**4, data_1e4)
    seen_types = set()
    for t, f, m in data_1e4.classes:
        seen_types.add(data_1e4.type_and_order(m, s)[0])
    parts = [zeta_lambda_log(2.0, 10**4, s, lam, data_1e4) for lam in seen_types]
    assert sum(z.term_count for z in parts) == full.term_count
    assert math.isclose(sum(z.log_value for z in parts), full.log_value, rel_tol=1e-12)


def test_zeta_pp_against_independent_loop(data_1e4):
    """zeta^(5,5) truncation at s=2: an independently coded direct loop over
    the class list, with its own norm and log computation."""
    s_val, p = 2.0, 5
    subp = SubgroupSpec(Family.GAMMA, p)
    n_index = data_1e4._table(subp).index
    lam_rect = (p,) * (n_index // p)
    z = zeta_lambda_log(s_val, 10**4, subp, lam_rect, data_1e4)

    direct = 0.0
    count = 0
    for t, f, m in data_1e4.classes:
        red = m.reduce_mod(p)
        x = red
        order = 1
        while x.tuple != (1, 0, 0, 1):
            x = x * red
            order += 1
        if order != p:
            continue
        norm = ((t + math.sqrt(t * t - 4)) / 2) ** 2
        direct += -math.log(1.0 - norm ** (-s_val))
        count += 1
    assert count == z.term_count
    assert math.isclose(direct, z.log_value, rel_tol=1e-10)


def test_order_p_classes_define_zeta_pp(data_1e4):
    """The classes entering zeta^(p,p) are exactly those of order p, and for
    them the Gamma1(p) and Gamma(p) types are the expected rectangles."""
    p = 5
    sub1 = SubgroupSpec(Family.GAMMA1, p)
    subp = SubgroupSpec(Family.GAMMA, p)
    n1 = data_1e4._table(sub1).index
    np_ = data_1e4._table(subp).index
    for t, f, m in data_1e4.classes[:400]:
        lam1, order = data_1e4.type_and_order(m, sub1)
        lamp = data_1e4.type_and_order(m, subp)[0]
        assert lamp == (order,) * (np_ // order)
        assert sum(lam1) == n1
        if order == p:
            assert lam1 == (5, 5, 1, 1)
            assert lamp == (p,) * (np_ // p)


def test_venkov_zograf_examples(data_1e4):
    assert venkov_zograf_check(2.0, 10**4, SubgroupSpec(Family.GAMMA1, 5), data_1e4)[
        "discrepancy"
    ] < 1e-9
    assert venkov_zograf_check(1.5, 10**4, SubgroupSpec(Family.GAMMA, 3), data_1e4)[
        "discrepancy"
    ] < 1e-9


def test_venkov_trivial_cover(data_1e4):
    r = venkov_zograf_check(2.0, 10**4, None, data_1e4)
    assert r["discrepancy"] < 1e-12
    assert r["term_count"] == len(data_1e4.classes)


def test_ratio_identity_examples(data_1e4):
    assert ratio_identity_check(3, 2.0, 10**4, data_1e4)["discrepancy"] < 1e-9
    assert ratio_identity_check(5, 1.2, 10**4, data_1e4)["discrepancy"] < 1e-8


def test_truncation_monotonicity(data_1e4):
    s = SubgroupSpec(Family.GAMMA0, 3)
    lam = (3, 1)
    values_x = [
        zeta_lambda_log(2.0, x, s, lam, data_1e4.restrict(x)).log_value
        for x in (100, 1000, 10**4)
    ]
    assert values_x == sorted(values_x)
    values_s = [
        zeta_lambda_log(sv, 10**4, s, lam, data_1e4).log_value for sv in (1.5, 2.0, 3.0)
    ]
    assert values_s == sorted(values_s, reverse=True)


def test_precision_scaling(data_1e4):
    """Re-running under mpmath must not increase the discrepancy."""
    sub = SubgroupSpec(Family.GAMMA1, 5)
    d_float = venkov_zograf_check(2.0, 10**4, sub, data_1e4)["discrepancy"]
    d_mp = venkov_zograf_check(2.0, 10**4, sub, data_1e4, use_mpmath=True)["discrepancy"]
    assert d_mp <= d_float + 1e-12

    r_float = ratio_identity_check(3, 2.0, 10**4, data_1e4)["discrepancy"]
    r_mp = ratio_identity_check(3, 2.0, 10**4, data_1e4, use_mpmath=True)["discrepancy"]
    assert r_mp <= r_float + 1e-12
