import math

import pytest

from geosplit.core import Family, SubgroupSpec, canon, mul
from geosplit.cosets import build_coset_table
from geosplit.geodesics import max_trace, norm_below
from geosplit.zeta import (
    ClassData,
    ratio_identity_check,
    venkov_zograf_check,
    zeta_gamma_log,
    zeta_lambda_log,
)

from reference import class_types


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
    seen_types = {lam for lam, _ in class_types(data_1e4.classes, s)}
    parts = [zeta_lambda_log(2.0, 10**4, s, lam, data_1e4) for lam in seen_types]
    assert sum(z.term_count for z in parts) == full.term_count
    assert math.isclose(sum(z.log_value for z in parts), full.log_value, rel_tol=1e-12)


def test_zeta_pp_against_independent_loop(data_1e4):
    """zeta^(5,5) truncation at s=2: an independently coded direct loop over
    the class list, with its own norm and log computation."""
    s_val, p = 2.0, 5
    subp = SubgroupSpec(Family.GAMMA, p)
    n_index = build_coset_table(subp).index
    lam_rect = (p,) * (n_index // p)
    z = zeta_lambda_log(s_val, 10**4, subp, lam_rect, data_1e4)

    direct = 0.0
    count = 0
    for t, f, m in data_1e4.classes:
        red = canon(m.a, m.b, m.c, m.d, p)
        x = red
        order = 1
        while x != (1, 0, 0, 1):
            x = mul(x, red, p)
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
    n1 = build_coset_table(sub1).index
    np_ = build_coset_table(subp).index
    first = list(data_1e4.classes)[:400]
    for (lam1, order), (lamp, _) in zip(class_types(first, sub1), class_types(first, subp)):
        assert tuple(lamp) == (order,) * (np_ // order)
        assert sum(lam1) == n1
        if order == p:
            assert tuple(lam1) == (5, 5, 1, 1)
            assert tuple(lamp) == (p,) * (np_ // p)


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
        zeta_lambda_log(2.0, x, s, lam, data_1e4).log_value
        for x in (100, 1000, 10**4)
    ]
    assert values_x == sorted(values_x)
    values_s = [
        zeta_lambda_log(sv, 10**4, s, lam, data_1e4).log_value for sv in (1.5, 2.0, 3.0)
    ]
    assert values_s == sorted(values_s, reverse=True)


# ---------------------------------------------------------------------------
# count-vector sums against a per-class reference loop, compared with ==

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from geosplit.zeta import ZetaTruncation, _total, venkov_counts

from reference import FloatArith, MPArith, acc


def _ref_lambda(s, x, classes, subgroup, lam):
    ar = FloatArith()
    total = acc(ar)
    count = 0
    for (t, _, _), (got, _) in zip(classes, class_types(classes, subgroup)):
        if norm_below(t, x) and tuple(got) == tuple(lam):
            total.add(ar.euler_term(ar.log_norm(t), s))
            count += 1
    return ZetaTruncation(s, float(x), total.total, count)


def _ref_venkov(s, x, classes, subgroup, ar):
    lhs = acc(ar)
    by_type = {}
    for (t, _, _), (lam, _) in zip(classes, class_types(classes, subgroup)):
        if not norm_below(t, x):
            continue
        log_n = ar.log_norm(t)
        for part in lam:
            lhs.add(ar.euler_term(log_n, part * s))
        by_type.setdefault(lam, []).append(log_n)
    rhs = acc(ar)
    for lam in sorted(by_type):
        for part in sorted(lam):
            for log_n in by_type[lam]:
                rhs.add(ar.euler_term(log_n, part * s))
    return {"lhs_log": float(lhs.total), "rhs_log": float(rhs.total),
            "discrepancy": abs(float(lhs.total - rhs.total)),
            "term_count": sum(len(v) for v in by_type.values())}


def _ref_ratio(p, s, x, classes, ar):
    types1 = class_types(classes, SubgroupSpec(Family.GAMMA1, p))
    typesp = class_types(classes, SubgroupSpec(Family.GAMMA, p))
    half = ar.frac(p - 1, 2)
    lhs, rhs, count = acc(ar), acc(ar), 0
    for (t, _, _), (lam1, order), (lamp, _) in zip(classes, types1, typesp):
        if not norm_below(t, x):
            continue
        count += 1
        log_n = ar.log_norm(t)
        if order == p:
            lhs.add(half * (p * ar.euler_term(log_n, s) - ar.euler_term(log_n, p * s)))
        for part in lam1:
            rhs.add(p * ar.euler_term(log_n, part * s))
        for part in lamp:
            rhs.add(-ar.euler_term(log_n, part * s))
    return {"p": p, "s": s, "cutoff": float(x), "lhs_log": float(lhs.total),
            "rhs_log": float(rhs.total), "discrepancy": abs(float(lhs.total - rhs.total)),
            "term_count": count}


@pytest.fixture(scope="module")
def data_2e4(classes_1e5):
    return ClassData(2 * 10**4, classes=classes_1e5)


@pytest.mark.parametrize("x", [10**4, 12345.5, Fraction(100001, 7)])
def test_sums_equal_per_class_loop(data_2e4, x):
    classes = data_2e4.classes
    kept = classes.below(data_2e4.trace_bound(x))
    assert list(kept) == [c for c in classes if norm_below(c[0], x)]
    for p, s in ((3, 2.0), (5, 1.5)):
        assert ratio_identity_check(p, s, x, data_2e4) == _ref_ratio(p, s, x, classes,
                                                                      FloatArith())
    for sub in (SubgroupSpec(Family.GAMMA1, 5), SubgroupSpec(Family.GAMMA, 3), None):
        assert venkov_zograf_check(2.0, x, sub, data_2e4) == _ref_venkov(
            2.0, x, classes, sub, FloatArith())
    s0 = SubgroupSpec(Family.GAMMA0, 5)
    for lam in sorted({got for got, _ in class_types(classes, s0)}):
        assert zeta_lambda_log(2.5, x, s0, lam, data_2e4) == _ref_lambda(2.5, x, classes,
                                                                         s0, lam)
    assert zeta_gamma_log(2.0, x, data_2e4) == _ref_lambda(2.0, x, classes, None, (1,))
    assert zeta_gamma_log(2.0, x, ClassData(x, classes=classes)) == zeta_gamma_log(2.0, x,
                                                                                  data_2e4)


@pytest.fixture(scope="module")
def data_1e5(classes_1e5):
    return ClassData(10**5, classes=classes_1e5)


@pytest.mark.parametrize("sub", [SubgroupSpec(Family.GAMMA0, 11), SubgroupSpec(Family.GAMMA1, 7),
                                 SubgroupSpec(Family.GAMMA, 5)])
def test_term_streams_equal_per_class_loop_at_1e5(data_1e5, sub):
    """The count-vector sums are bit-identical to the exact sum of the
    per-class loop's terms."""
    x, classes = 10**5, data_1e5.classes
    assert venkov_zograf_check(2.0, x, sub, data_1e5) == _ref_venkov(2.0, x, classes, sub,
                                                                     FloatArith())
    for lam in sorted({got for got, _ in class_types(classes, sub)}):
        assert zeta_lambda_log(1.5, x, sub, lam, data_1e5) == _ref_lambda(1.5, x, classes,
                                                                          sub, lam)


@pytest.mark.parametrize("p", [3, 5])
def test_ratio_stream_equals_per_class_loop_at_1e5(data_1e5, p):
    assert ratio_identity_check(p, 2.0, 10**5, data_1e5) == _ref_ratio(
        p, 2.0, 10**5, data_1e5.classes, FloatArith())


def test_precision_scaling(data_1e4):
    """The per-class loop in mpmath at 40 digits does not find a larger
    discrepancy than the double sums."""
    sub, classes = SubgroupSpec(Family.GAMMA1, 5), data_1e4.classes
    d_float = venkov_zograf_check(2.0, 10**4, sub, data_1e4)["discrepancy"]
    d_mp = _ref_venkov(2.0, 10**4, classes, sub, MPArith())["discrepancy"]
    assert d_mp <= d_float + 1e-12

    r_float = ratio_identity_check(3, 2.0, 10**4, data_1e4)["discrepancy"]
    r_mp = _ref_ratio(3, 2.0, 10**4, classes, MPArith())["discrepancy"]
    assert r_mp <= r_float + 1e-12


finite = st.floats(min_value=-1e16, max_value=1e16, allow_nan=False)
stream = st.lists(st.one_of(st.sampled_from([1e16, -1e16, 1.0, 1e-8, 3.3, 0.0, -0.0]), finite),
                  max_size=60)


@settings(max_examples=300, deadline=None)
@given(stream, st.lists(st.integers(0, 5), min_size=60, max_size=60))
@example([1e16, 1.0, -1e16, 3.3], [1, 3, 1, 0] + [0] * 56)
@example([], [0] * 60)
def test_total_is_the_accumulator_loop(terms, repeats):
    """`_total` of distinct terms with counts is the exact sum of the stream
    they expand to, rounded once: what `math.fsum`, the Fraction sum and
    the reference accumulator give, on streams with +-1e16 cancellation,
    repeated terms, zeros and no terms at all; and, for the reference
    mpmath arithmetic, the accumulator's exact mpf sum rounded at the
    context's precision."""
    expanded = [x for x, k in zip(terms, repeats) for _ in range(k)]
    distinct = sorted(set(expanded))
    counts = [expanded.count(x) for x in distinct]
    got = _total(distinct, counts)
    reference = acc(FloatArith())
    for x in expanded:
        reference.add(x)
    assert got == math.fsum(expanded) == float(sum(map(Fraction, expanded))) == reference.total
    ar = MPArith(30)
    thirds = [ar.mp.mpf(x) / 3 for x in distinct]
    reference = acc(ar)
    for x, k in zip(thirds, counts):
        for _ in range(k):
            reference.add(x)
    assert ar.total(thirds, counts) == reference.total


@pytest.mark.parametrize("x", [10**4, 10**5])
def test_venkov_zograf_counts_are_equal(data_1e5, x):
    """The identity is exact: for every family at levels 3, 5, 7 and 11 the
    class-wise and type-wise (part, trace) counts are equal integer arrays,
    so the two exact sums are equal and the discrepancy is 0.0."""
    t_max = data_1e5.trace_bound(x)
    for family in Family:
        for level in (3, 5, 7, 11):
            sub = SubgroupSpec(family, level)
            trace, pairs, index = data_1e5.kept(t_max, sub)
            parts, by_class, by_type = venkov_counts(pairs, index, trace, t_max)
            assert by_class.dtype == by_type.dtype == np.int64
            assert np.array_equal(by_class, by_type)
            # every class's parts cover the index
            cosets = sum(part * k for part, k in pairs[0][0].runs)
            assert np.dot(parts, by_class.sum(axis=1)) == cosets * len(trace)
            assert venkov_zograf_check(2.0, x, sub, data_1e5)["discrepancy"] == 0.0


# ---------------------------------------------------------------------------
# class data is refused above the trace bound it was built at

def test_larger_cutoff_than_class_data_is_refused():
    data = ClassData(1000)
    s = SubgroupSpec(Family.GAMMA0, 3)
    assert data.t_max == 31
    with pytest.raises(ValueError, match="stops at trace 31"):
        ratio_identity_check(3, 2.0, 5000, data)
    with pytest.raises(ValueError):
        data.trace_bound(5000)
    with pytest.raises(ValueError):
        venkov_zograf_check(2.0, 5000, s, data)
    with pytest.raises(ValueError):
        venkov_zograf_check(2.0, 5000, None, data)
    with pytest.raises(ValueError):
        zeta_lambda_log(2.0, 5000, s, (3, 1), data)
    with pytest.raises(ValueError):
        zeta_gamma_log(2.0, 5000, data)
    # a larger cutoff that adds no trace is still served, and in full
    assert ratio_identity_check(3, 2.0, 1001, data) == ratio_identity_check(
        3, 2.0, 1001, ClassData(1001))
    assert data.trace_bound(1001) == 31
    assert ratio_identity_check(3, 2.0, 5000)["term_count"] == 654


from geosplit.geodesics import empirical_tally, enumerate_primitive_classes


def test_class_list_below_the_cutoff_is_refused(classes_1e4):
    short = enumerate_primitive_classes(1000)
    empty = enumerate_primitive_classes(1)
    with pytest.raises(ValueError, match="stops at trace 31"):
        ClassData(5000, classes=short)
    with pytest.raises(ValueError):
        ClassData(5000, classes=empty)
    data = ClassData(5000, classes=classes_1e4)
    assert data.t_max == 70 and len(data.classes) == 654
    assert ratio_identity_check(3, 2.0, 5000, data) == ratio_identity_check(3, 2.0, 5000)
    # an empty class list is complete at a cutoff of one or below
    assert list(ClassData(0.5, classes=empty).classes) == []


def test_classes_other_than_primitive_classes_are_refused(classes_1e4):
    """Class data and tallies take their classes as `PrimitiveClasses`
    columns only: a plain list, even of the same triples, is a TypeError."""
    s = SubgroupSpec(Family.GAMMA0, 3)
    for plain in ([], list(classes_1e4)):
        with pytest.raises(TypeError, match="PrimitiveClasses"):
            ClassData(5000, classes=plain)
        with pytest.raises(TypeError, match="PrimitiveClasses"):
            empirical_tally(s, 5000, classes=plain)


def test_over_cap_covers_are_refused_before_the_classes(monkeypatch, data_1e4):
    """Each check tests the coset key cap of every cover it uses before it
    enumerates a class (Gamma(401) for the ratio check at p = 401), with or
    without class data."""
    import geosplit.zeta as zeta
    from geosplit.core import CapExceeded

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated the classes of an over-cap cover")

    monkeypatch.setattr(zeta, "ClassData", refuse)
    big = SubgroupSpec(Family.GAMMA, 10000)
    calls = [lambda d: zeta_lambda_log(2.0, 1e6, big, (1,), d),
             lambda d: venkov_zograf_check(2.0, 1e6, big, d),
             lambda d: ratio_identity_check(401, 2.0, 1e6, d)]
    for call in calls:
        for data in (None, data_1e4):
            with pytest.raises(CapExceeded, match="exceeds cap"):
                call(data)


@pytest.mark.parametrize("s", [float("nan"), float("inf")])
def test_non_finite_s_is_refused(data_1e4, s):
    """nan passes `s <= 1` and inf gives a sum of zeros: both are refused."""
    sub = SubgroupSpec(Family.GAMMA0, 5)
    calls = [lambda d: zeta_lambda_log(s, 100, sub, (5, 1), d),
             lambda d: zeta_gamma_log(s, 100, d),
             lambda d: venkov_zograf_check(s, 100, sub, d),
             lambda d: ratio_identity_check(3, s, 100, d)]
    for call in calls:
        for data in (None, data_1e4):
            with pytest.raises(ValueError, match="finite"):
                call(data)


# (lhs, rhs) of each check, or (log value, term count), at x = 1e4 and s = 2,
# as float.hex: the sums of the per-residue reduction that cover keys replaced
RECORDED_1E4 = {
    ("ratio", 3): ("0x1.af7b1bef022e8p-5", "0x1.af7b1bef022e8p-5"),
    ("ratio", 5): ("0x1.ecb671532b9c3p-3", "0x1.ecb671532b9c4p-3"),
    ("venkov", Family.GAMMA0, 12): ("0x1.08b1164f1918dp-9", "0x1.08b1164f1918dp-9"),
    ("venkov", Family.GAMMA, 9): ("0x1.72e959cd4f9e4p-16", "0x1.72e959cd4f9e4p-16"),
    ("venkov", Family.GAMMA1, 10): ("0x1.8fb558ce57540p-9", "0x1.8fb558ce57540p-9"),
    ("lambda", Family.GAMMA0, 5, (5, 1)): ("0x1.8a2b8ecc63018p-6", 488),
    ("lambda", Family.GAMMA, 5, (5,) * 12): ("0x1.8a2b8ecc63018p-6", 488),
    ("lambda", Family.GAMMA0, 12, (6,) * 4): ("0x1.6794d1ba3b2d1p-6", 103),
    ("lambda", Family.GAMMA1, 10, (6,) * 4 + (3,) * 4): ("0x1.93be83de22535p-7", 202),
    ("lambda", Family.GAMMA, 9, (9,) * 36): ("0x1.02050f02d19dfp-6", 516),
    ("lambda", None, None, (1,)): ("0x1.5c8d1bc5b2840p-5", 1214),
}


@pytest.mark.parametrize("case", list(RECORDED_1E4), ids=str)
def test_sums_are_bit_identical_to_the_recorded_values(data_1e4, case):
    kind, *args = case
    if kind == "ratio":
        r = ratio_identity_check(args[0], 2.0, 10**4, data_1e4)
        got = (r["lhs_log"].hex(), r["rhs_log"].hex())
    elif kind == "venkov":
        r = venkov_zograf_check(2.0, 10**4, SubgroupSpec(*args), data_1e4)
        got = (r["lhs_log"].hex(), r["rhs_log"].hex())
    else:
        family, level, lam = args
        s = SubgroupSpec(family, level) if family else None
        z = zeta_lambda_log(2.0, 10**4, s, lam, data_1e4)
        got = (z.log_value.hex(), z.term_count)
    assert got == RECORDED_1E4[case]


def test_factor_tables_are_built_once_per_exponent(monkeypatch, classes_1e4):
    """Checks on one ClassData share each factor table; a smaller cutoff
    reads a prefix of it, equal to the table built at that cutoff."""
    import geosplit.zeta as zeta

    built = []
    factors = zeta._factors

    def counting(e, t_max):
        built.append(e)
        return factors(e, t_max)

    monkeypatch.setattr(zeta, "_factors", counting)
    data = ClassData(10**4, classes=classes_1e4)
    ratio_identity_check(3, 2.0, 10**4, data)
    venkov_zograf_check(2.0, 5000, SubgroupSpec(Family.GAMMA0, 3), data)
    venkov_zograf_check(2.0, 10**4, SubgroupSpec(Family.GAMMA, 3), data)
    zeta_lambda_log(2.0, 5000, SubgroupSpec(Family.GAMMA1, 3), (3, 1), data)
    assert sorted(built) == sorted(set(built)) and 2.0 in built and 6.0 in built
    t_max = max_trace(5000)
    assert data.factors(6.0, t_max) == factors(6.0, t_max)


def test_one_reduction_per_level(monkeypatch, classes_1e4):
    """Gamma1(p) and Gamma(p) share the cover keys mod p, and every later
    check at that level reuses them."""
    import geosplit.zeta as zeta

    levels = []
    cover_keys = zeta.cover_keys

    def counting(classes, n):
        levels.append(n)
        return cover_keys(classes, n)

    monkeypatch.setattr(zeta, "cover_keys", counting)
    data = ClassData(10**4, classes=classes_1e4)
    ratio_identity_check(5, 2.0, 10**4, data)
    assert levels == [5]
    ratio_identity_check(5, 1.5, 5000, data)
    venkov_zograf_check(2.0, 10**4, SubgroupSpec(Family.GAMMA0, 5), data)
    zeta_lambda_log(2.0, 10**4, SubgroupSpec(Family.GAMMA, 5), (5,) * 12, data)
    assert levels == [5]
    venkov_zograf_check(2.0, 10**4, SubgroupSpec(Family.GAMMA1, 7), data)
    assert levels == [5, 7]


def test_smaller_cutoffs_share_the_reduction(monkeypatch, classes_1e4):
    """A check at a smaller cutoff sums over a prefix of the classes, so it
    finds no cover keys again, whichever cutoff asks first, and its sums equal
    those of class data built at that cutoff."""
    import geosplit.zeta as zeta

    s0, s1 = SubgroupSpec(Family.GAMMA0, 3), SubgroupSpec(Family.GAMMA1, 5)
    fresh = ClassData(5000, classes=classes_1e4)
    want = (ratio_identity_check(3, 2.0, 5000, fresh), venkov_zograf_check(2.0, 5000, s0, fresh),
            venkov_zograf_check(2.0, 5000, s1, fresh))
    parent_want = venkov_zograf_check(2.0, 10**4, s1, ClassData(10**4, classes=classes_1e4))

    levels = []
    cover_keys = zeta.cover_keys

    def counting(classes, n):
        levels.append(n)
        return cover_keys(classes, n)

    monkeypatch.setattr(zeta, "cover_keys", counting)
    data = ClassData(10**4, classes=classes_1e4)
    ratio_identity_check(3, 2.0, 10**4, data)
    assert levels == [3]
    assert ratio_identity_check(3, 2.0, 5000, data) == want[0]
    assert venkov_zograf_check(2.0, 5000, s0, data) == want[1]
    assert levels == [3]
    # the smaller cutoff finds the keys mod 5 first; the full one then reuses them
    assert venkov_zograf_check(2.0, 5000, s1, data) == want[2]
    assert venkov_zograf_check(2.0, 10**4, s1, data) == parent_want
    assert levels == [3, 5]
