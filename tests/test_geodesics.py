import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geosplit.core import Family, IntegerMatrix, SubgroupSpec, sign_keys
from geosplit.geodesics import (
    anomalous_type_scan,
    class_of_matrix,
    cover_keys,
    empirical_tally,
    enumerate_primitive_classes,
    is_reduced,
    li,
    matrix_from_form,
    max_trace,
    norm_below,
    tally_json,
    tally_tsv,
)
from geosplit.census import density_table
from reference import (class_types, classes_at_trace, mark_primitivity, primitive_classes,
                       reduced_forms_at_trace, tally_reference)


# ---------------------------------------------------------------------------
# reduced forms and cycles

def test_smallest_traces_class_counts():
    assert len(classes_at_trace(3)) == 1
    assert classes_at_trace(3)[0].cycle[0] == (-1, 1, 1)
    assert len(classes_at_trace(4)) == 2


def test_trace_6_includes_content_two_class():
    recs = classes_at_trace(6)
    assert len(recs) == 3
    assert ( -2, 4, 2) in [r.canonical_form for r in recs]


def test_representative_matrix_identity():
    for t in range(3, 25):
        for rec in classes_at_trace(t):
            m = rec.representative_matrix
            assert m.trace == t
            assert m.a * m.d - m.b * m.c == 1  # det = (t^2 - D)/4 = 1


def test_cycles_are_disjoint_and_reduced():
    for t in (3, 4, 6, 10, 17):
        disc = t * t - 4
        seen = set()
        for rec in classes_at_trace(t):
            for f in rec.cycle:
                assert f not in seen
                seen.add(f)
                assert is_reduced(*f, disc)
                assert f[1] ** 2 - 4 * f[0] * f[2] == disc


def brute_reduced_forms(disc):
    """Independent enumerator: scan (a, b) boxes with float-sqrt reduction
    tests, solving for c."""
    sq = math.sqrt(disc)
    out = set()
    for a in range(-int(sq) - 1, int(sq) + 2):
        if a == 0:
            continue
        for b in range(1, int(sq) + 1):
            if (b * b - disc) % (4 * a) != 0:
                continue
            c = (b * b - disc) // (4 * a)
            if 0 < b < sq and sq - b < 2 * abs(a) < sq + b:
                out.add((a, b, c))
    return out


def brute_cycle_count(disc, forms):
    """Count reduction cycles with a freshly written neighbor map."""
    sq = math.sqrt(disc)
    isq = int(sq)

    def neighbor(form):
        a, b, c = form
        ac = abs(c)
        r = (-b) % (2 * ac)
        while r + 2 * ac <= isq:
            r += 2 * ac
        if not (sq - 2 * ac < r < sq):
            # step left until inside the window
            while r > sq or r <= sq - 2 * ac:
                r -= 2 * ac
        return (c, r, (r * r - disc) // (4 * c))

    remaining = set(forms)
    cycles = 0
    while remaining:
        start = next(iter(remaining))
        f = start
        while f in remaining:
            remaining.discard(f)
            f = neighbor(f)
        assert f == start
        cycles += 1
    return cycles


@pytest.mark.parametrize("t", list(range(3, 61)))
def test_class_count_against_brute_force(t):
    disc = t * t - 4
    brute = brute_reduced_forms(disc)
    assert brute == set(reduced_forms_at_trace(t))
    assert brute_cycle_count(disc, brute) == len(classes_at_trace(t))


# ---------------------------------------------------------------------------
# the Gauss dictionary: completeness, invariance, explicit conjugators

S = IntegerMatrix(0, -1, 1, 0)
T = IntegerMatrix(1, 1, 0, 1)
T_INV = IntegerMatrix(1, -1, 0, 1)


def bounded_trace_matrices(t, bound):
    out = []
    for a in range(-bound, bound + 1):
        d = t - a
        for b in range(-bound, bound + 1):
            if b == 0:
                continue
            num = a * d - 1
            if num % b != 0:
                continue
            c = num // b
            if abs(c) <= bound:
                out.append(IntegerMatrix(a, b, c, d))
    return out


@pytest.mark.parametrize("t", list(range(3, 13)))
def test_every_bounded_matrix_lands_in_an_enumerated_class(t):
    reps = {r.canonical_form for r in classes_at_trace(t)}
    for m in bounded_trace_matrices(t, 30):
        assert class_of_matrix(m) in reps


def test_class_map_is_conjugation_invariant():
    rng = random.Random(2)
    words = [S, T, T_INV]
    for t in (3, 5, 7, 12):
        for m in bounded_trace_matrices(t, 8)[:20]:
            u = IntegerMatrix(1, 0, 0, 1)
            for _ in range(rng.randrange(1, 9)):
                u = u * rng.choice(words)
            u_inv = IntegerMatrix(u.d, -u.b, -u.c, u.a)
            conj = u * m * u_inv
            assert class_of_matrix(conj) == class_of_matrix(m)


def canonical_with_transform(m):
    """Reduce the form of m to the canonical cycle representative while
    tracking the SL2(Z) substitution V with Q_m o V = Q_canonical.

    Every step is Q(x, y) -> Q(-y, x + u y), i.e. right multiplication by
    [[0,-1],[1,u]]; since a matrix is determined by its form and trace,
    V^-1 m V must literally equal the canonical lift.  This is the
    constructive version of the Gauss dictionary used as a test oracle.
    """
    t = m.trace
    disc = t * t - 4
    sq = math.isqrt(disc)
    a, b, c = m.c, m.d - m.a, -m.b
    v = IntegerMatrix(1, 0, 0, 1)

    def step(a, b, c):
        ac = abs(c)
        if ac > sq:
            r = (-b) % (2 * ac)
            if r > ac:
                r -= 2 * ac
        else:
            r = sq - ((sq + b) % (2 * ac))
        u = (r + b) // (2 * c)
        assert 2 * c * u - b == r
        return (c, r, (r * r - disc) // (4 * c)), u

    while not is_reduced(a, b, c, disc):
        (a, b, c), u = step(a, b, c)
        v = v * IntegerMatrix(0, -1, 1, u)
    # walk the full cycle, remembering the transform at the least form
    best, best_v = (a, b, c), v
    start = (a, b, c)
    while True:
        (a, b, c), u = step(a, b, c)
        v = v * IntegerMatrix(0, -1, 1, u)
        if (a, b, c) == start:
            break
        if (a, b, c) < best:
            best, best_v = (a, b, c), v
    return best, best_v


@pytest.mark.parametrize("t", list(range(3, 13)))
def test_constructive_conjugator_for_every_bounded_matrix(t):
    """Soundness of the dictionary: for every bounded trace-t matrix the
    tracked reduction produces an explicit conjugator onto the canonical
    lift of its class."""
    for m in bounded_trace_matrices(t, 15):
        form, v = canonical_with_transform(m)
        assert form == class_of_matrix(m)
        v_inv = IntegerMatrix(v.d, -v.b, -v.c, v.a)
        assert v_inv * m * v == matrix_from_form(t, form)


# ---------------------------------------------------------------------------
# primitivity

def test_square_of_trace3_marked_imprimitive():
    records = {t: classes_at_trace(t) for t in range(3, 50)}
    mark_primitivity(records, 49)
    m3 = records[3][0].representative_matrix
    sq = m3 * m3
    assert sq.trace == 7
    target = class_of_matrix(sq)
    flags = {r.canonical_form: r.primitive for r in records[7]}
    assert flags[target] is False
    assert records[3][0].primitive is True
    # transitivity: the cube (trace 18) is marked too
    cube = sq * m3
    assert cube.trace == 18
    assert {r.canonical_form: r.primitive for r in records[18]}[class_of_matrix(cube)] is False


def test_enumerate_primitive_matches_marking():
    records = {t: classes_at_trace(t) for t in range(3, max_trace(2000) + 1)}
    mark_primitivity(records, max_trace(2000))
    expected = {
        (t, r.canonical_form)
        for t, recs in records.items()
        for r in recs
        if r.primitive and norm_below(t, 2000)
    }
    got = {(t, f) for t, f, m in enumerate_primitive_classes(2000)}
    assert got == expected


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=5))
def test_power_class_is_content_scaled(k):
    """The lemma behind the primitivity marking: M^k = U_{k-1}(t) M -
    U_{k-2}(t) I, so the least form of the class of M^k is U_{k-1}(t) times
    that of M.  Checked by the reduction walk on the k-th power of every
    class at x = 1e4, also where the power's trace is far beyond t_max."""
    for t, form, m in enumerate_primitive_classes(10**4):
        u_prev, u, mk = 0, 1, m
        for _ in range(k - 1):
            u_prev, u, mk = u, t * u - u_prev, mk * m
        assert class_of_matrix(mk) == tuple(u * f for f in form)


def test_parallel_enumeration_agrees():
    a = enumerate_primitive_classes(5000, jobs=1)
    b = enumerate_primitive_classes(5000, jobs=2)
    assert list(a) == list(b)


# ---------------------------------------------------------------------------
# cutoffs

def test_norm_cutoff_exact_boundaries():
    # N(t=3) = (7 + 3*sqrt(5))/2 ~ 6.8541
    assert norm_below(3, 6.86)
    assert not norm_below(3, 6.85)
    assert not norm_below(4, 13.9)  # N(t=4) ~ 13.928
    assert norm_below(4, 13.93)


def test_norm_cutoff_monotone():
    rng = random.Random(1)
    for _ in range(200):
        t = rng.randrange(3, 50)
        x = rng.uniform(7, 3000)
        if norm_below(t, x):
            assert norm_below(t, x * 1.001)


def test_max_trace_consistent():
    for x in (7, 100, 10**4):
        t = max_trace(x)
        assert norm_below(t, x)
        assert not norm_below(t + 1, x)


# ---------------------------------------------------------------------------
# tallies

def test_tally_smallest_cutoff_single_class():
    tally = empirical_tally(SubgroupSpec(Family.GAMMA0, 5), 7)
    assert tally.total == 1
    assert sum(tally.counts.values()) == 1


def test_tally_rejects_tiny_cutoff():
    with pytest.raises(ValueError):
        empirical_tally(SubgroupSpec(Family.GAMMA0, 5), 6.5)


def test_tally_type_weights(classes_1e4):
    s = SubgroupSpec(Family.GAMMA0, 5)
    tally = empirical_tally(s, 10**4, classes=classes_1e4)
    assert sum(tally.counts.values()) == tally.total == len(classes_1e4)
    for lam_ in tally.counts:
        assert sum(lam_) == 6


def test_prime_geodesic_sanity(classes_1e4, classes_1e5):
    assert 0.8 <= len(classes_1e4) / li(10**4) <= 1.2
    assert 0.8 <= len(classes_1e5) / li(10**5) <= 1.2


@pytest.mark.parametrize("x", [7, 1e4, 12345.5, 3e5, 1e6, 1e7])
def test_li_matches_mpmath(x):
    import mpmath

    assert li(x) == pytest.approx(float(mpmath.li(x) - mpmath.li(2)), rel=1e-13)


def test_empirical_close_at_1e5(classes_1e5):
    s = SubgroupSpec(Family.GAMMA0, 3)
    tally = empirical_tally(s, 10**5, classes=classes_1e5)
    theory = density_table(s)
    for lam_, dens in theory.entries.items():
        if dens >= Fraction(1, 10):
            assert abs(tally.counts.get(lam_, 0) / tally.total - float(dens)) < 0.05


def test_anomalous_scan_zero(classes_1e4):
    count, witnesses = anomalous_type_scan(
        SubgroupSpec(Family.GAMMA0, 5), 10**4, classes=classes_1e4
    )
    assert count == 0 and witnesses == []


def test_tally_exports(classes_1e4):
    s = SubgroupSpec(Family.GAMMA0, 3)
    tally = empirical_tally(s, 10**4, classes=classes_1e4, scan_anomalous=True)
    theory = density_table(s)
    tsv = tally_tsv(tally, theory)
    header, *rows = tsv.strip().splitlines()
    assert header.split("\t") == [
        "partition", "count", "empirical_density", "theoretical_density", "abs_error"
    ]
    data_rows = [r for r in rows if not r.startswith("#")]
    assert len(data_rows) == 3
    assert sum(int(r.split("\t")[1]) for r in data_rows) == tally.total
    assert any(r.startswith("# anomalous_count\t0") for r in rows)

    import json

    doc = json.loads(tally_json(tally, theory))
    assert doc["total"] == tally.total
    assert doc["anomalous_count"] == 0
    assert len(doc["rows"]) == 3


# ---------------------------------------------------------------------------
# the trace bound and the cutoff cap

from math import isqrt

from hypothesis import given, settings, strategies as st

from geosplit import geodesics
from geosplit.core import CapExceeded
from geosplit.geodesics import MAX_CUTOFF


def _norm_approx(t, digits=20):
    """N(t) = ((t^2 - 2) + t*sqrt(t^2 - 4))/2 to within t * 10^-digits."""
    scale = 10**digits
    root = Fraction(isqrt((t * t - 4) * scale * scale), scale)
    return ((t * t - 2) + t * root) / 2


# x as int, float, or a Fraction within 1e-9 on either side of a norm
# N(t) < 1e7 (t <= 3162); offsets are multiples of 1e-15, so one that is
# not 0 decides which side of N(t) the cutoff lies on
_near_norm = st.builds(
    lambda t, k: (t, k, _norm_approx(t) + Fraction(k, 10**15)),
    st.integers(3, 3162), st.integers(-10**6, 10**6),
)


def _check_bound(x):
    t_max = max_trace(x)
    for t in range(3, t_max + 4):
        assert (t <= t_max) == norm_below(t, x), (x, t, t_max)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(7, 10**7), st.floats(7, 1e7)))
def test_max_trace_is_the_exact_rule(x):
    _check_bound(x)


@settings(max_examples=200, deadline=None)
@given(_near_norm)
def test_max_trace_is_exact_next_to_a_norm(case):
    t, k, x = case
    _check_bound(x)
    if k:
        assert norm_below(t, x) == (k > 0)


@pytest.mark.parametrize("x", [0, 0.01, Fraction(1, 3), 1])
def test_no_class_below_a_cutoff_of_one(x):
    # every norm exceeds 1; t^2 x < (x+1)^2 alone admits t = 10 at x = 0.01
    assert max_trace(x) == 2
    assert not any(norm_below(t, x) for t in range(3, 30))


def test_cutoff_above_cap_refused_before_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated for a capped cutoff")

    monkeypatch.setattr(geodesics, "_coprime_pairs", refuse)
    monkeypatch.setattr(geodesics, "Pool", refuse)
    for x in (MAX_CUTOFF + 1, 1e12, Fraction(10**7 * 3 + 1, 3)):
        with pytest.raises(CapExceeded):
            enumerate_primitive_classes(x, jobs=2)
    with pytest.raises(CapExceeded):
        empirical_tally(SubgroupSpec(Family.GAMMA0, 5), 1e12)


# ---------------------------------------------------------------------------
# the tally against a per-class reference loop

@pytest.mark.parametrize("x", [3000, 4321.5, Fraction(25001, 7)])
@pytest.mark.parametrize("family, level", [(Family.GAMMA0, 5), (Family.GAMMA, 4),
                                           (Family.GAMMA1, 7)])
def test_tally_equals_per_class_loop(classes_1e4, x, family, level):
    s = SubgroupSpec(family, level)
    tally = empirical_tally(s, x, classes=classes_1e4, scan_anomalous=True)
    counts, total, anomalous, witnesses = tally_reference(s, x, classes_1e4)
    assert list(tally.counts.items()) == list(counts.items())
    assert (tally.total, tally.anomalous, tally.witnesses) == (total, anomalous, witnesses)
    assert tally.cutoff == float(x)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(7, 2 * 10**4), st.floats(7, 2e4),
                 st.fractions(7, 2 * 10**4)),
       st.sampled_from(list(Family)), st.integers(2, 13))
def test_column_tally_equals_per_class_reference(x, family, level):
    """The tally from the enumerated columns, reduced mod N in numpy, against
    one reduction per class of the reference enumeration; Gamma0(8) and
    Gamma0(12) have anomalous classes, so the witness list is filled."""
    s = SubgroupSpec(family, level)
    tally = empirical_tally(s, x, scan_anomalous=True)
    counts, total, anomalous, witnesses = tally_reference(s, x, primitive_classes(x))
    assert list(tally.counts.items()) == list(counts.items())
    assert (tally.total, tally.anomalous, tally.witnesses) == (total, anomalous, witnesses)


# ---------------------------------------------------------------------------
# cover keys against the per-class reference

# 2-powers, even composites, odd composites and odd prime powers; every
# family's coset table is below the cap at all of them
KEY_LEVELS = [8, 16, 32, 12, 20, 24, 60, 15, 45, 25, 27, 49]
# the covers where a 2-part residue taken up to sign puts two types on one key
SIGN_TRAP = [(Family.GAMMA0, 12), (Family.GAMMA, 12), (Family.GAMMA1, 20)]


@pytest.mark.parametrize("level", KEY_LEVELS)
@pytest.mark.parametrize("family", list(Family))
def test_cover_key_tally_equals_per_class_reference(classes_1e5, family, level):
    s = SubgroupSpec(family, level)
    tally = empirical_tally(s, 10**5, classes=classes_1e5, scan_anomalous=True)
    counts, total, anomalous, witnesses = tally_reference(s, 10**5, classes_1e5)
    assert list(tally.counts.items()) == list(counts.items())
    assert (tally.total, tally.anomalous, tally.witnesses) == (total, anomalous, witnesses)


def _key_pairs(keys, pairs):
    """key -> the set of (type, order) pairs of its classes."""
    seen = {}
    for key, pair in zip(keys, pairs):
        seen.setdefault(key, set()).add(pair)
    return seen


@pytest.mark.parametrize("family, level", SIGN_TRAP)
def test_cover_key_needs_the_unsigned_two_part(classes_1e5, family, level):
    """The unsigned matrix mod 2^e keeps one (type, order) per key; the
    same odd key with the 2-part taken up to sign (`core.sign_keys`) does
    not."""
    s = SubgroupSpec(family, level)
    q = level & -level
    pairs = class_types(list(classes_1e5), s)
    keys = cover_keys(classes_1e5, level)[2].tolist()
    assert all(len(v) == 1 for v in _key_pairs(keys, pairs).values())
    odd = cover_keys(classes_1e5, level // q)[2]
    signed = odd * q**4 + sign_keys([v % q for v in classes_1e5.entries], q)
    assert any(len(v) > 1 for v in _key_pairs(signed.tolist(), pairs).values())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(Family)), st.integers(2, 128), st.integers(7, 10**5), st.randoms())
def test_cover_key_fixes_type_and_order(classes_1e5, family, level, x, rng):
    """Up to 100 classes that share their key with an earlier class have
    the (type, order) of the key's first class under the reference."""
    s = SubgroupSpec(family, level)
    classes = classes_1e5.below(max_trace(x))
    _, first, inverse = cover_keys(classes, level)
    rep = first.take(inverse)
    later = np.flatnonzero(rep != np.arange(len(classes))).tolist()
    rows = sorted(rng.sample(later, min(100, len(later))))
    triples = list(classes)
    assert (class_types([triples[i] for i in rows], s)
            == class_types([triples[i] for i in rep.take(rows).tolist()], s))


# ---------------------------------------------------------------------------
# cutoffs at or below one, and class lists that stop short of a cutoff

@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(-10**7, 1), st.floats(-1e7, 1),
                 st.fractions(max_value=1)))
def test_max_trace_is_the_exact_rule_at_or_below_one(x):
    _check_bound(x)
    assert max_trace(x) == 2
    assert list(enumerate_primitive_classes(x)) == []


def test_class_list_below_the_cutoff_is_refused(classes_1e4):
    s = SubgroupSpec(Family.GAMMA0, 3)
    short = enumerate_primitive_classes(1000)
    assert max(c[0] for c in short) == 31 < max_trace(5000) == 70
    with pytest.raises(ValueError, match="stops at trace 31"):
        empirical_tally(s, 5000, classes=short)
    with pytest.raises(ValueError):
        empirical_tally(s, 5000, classes=enumerate_primitive_classes(1))
    # a list from a larger cutoff is cut to the trace bound
    assert empirical_tally(s, 5000, classes=classes_1e4).total == 654
    assert empirical_tally(s, 5000).total == 654
