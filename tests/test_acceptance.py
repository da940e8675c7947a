"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.

Three fixtures carry documented corrections to the source tables they are
checked against (see README, "Corrections to the worked tables"):

* level 25: the worked example swaps the densities of (25,1^5) and (25,5);
  the printed trace formula itself forces the assignment used here.
* level 75: the worked table was assembled with the termwise-product
  reading of the tensor rule and inherits the level-25 swap; rows are
  reconciled through their recovered factor pairings, under which all 30
  printed densities are reproduced exactly.
* the power relations at p = 3: matrices with trace == -1 (mod 9) satisfy
  g^3 = I, so one printed relation fails; the failure is pinned exactly.
"""

import time
from fractions import Fraction
from multiprocessing import Pool

import pytest

from geosplit.census import (
    convolve_tables,
    density_table,
    density_table_closed_form,
    density_table_composite,
    family_labels,
    power_relation_check,
    rectangle_density_table,
    tensor_partitions,
)
from geosplit.core import (
    Family,
    SubgroupSpec,
    enumerate_xi,
    partition,
    xi_order,
    xi_orders,
)
from geosplit.cosets import build_coset_table, dual_type_report, induced_trace
from geosplit.geodesics import anomalous_type_scan, empirical_tally, li
from geosplit.zeta import ClassData, ratio_identity_check, venkov_zograf_check

JOBS = 2


def F(s):
    return Fraction(s)


def lam(spec):
    out = []
    for tok in spec.split():
        if "^" in tok:
            base, exp = tok.split("^")
            out += [int(base)] * int(exp)
        else:
            out.append(int(tok))
    return partition(out)


def ok(num, msg):
    print(f"ACCEPTANCE {num}: PASS - {msg}")


# --------------------------------------------------------------------------
def test_criterion_01_gamma0_3_table():
    t0 = time.time()
    table = density_table(SubgroupSpec(Family.GAMMA0, 3))
    elapsed = time.time() - t0
    assert table.entries == {
        lam("3 1"): F("2/3"),
        lam("2^2"): F("1/4"),
        lam("1^4"): F("1/12"),
    }
    assert elapsed < 1.0
    ok(1, f"Gamma0(3) table exact in {elapsed:.2f}s")


def test_criterion_02_gamma0_5_table():
    t0 = time.time()
    table = density_table(SubgroupSpec(Family.GAMMA0, 5))
    elapsed = time.time() - t0
    assert table.entries == {
        lam("1^6"): F("1/60"),
        lam("2^2 1^2"): F("1/4"),
        lam("3^2"): F("1/3"),
        lam("5 1"): F("2/5"),
    }
    assert elapsed < 1.0
    ok(2, f"Gamma0(5) table exact in {elapsed:.2f}s")


# the worked level-25 table with the two B-rows carrying the densities the
# printed trace formula dictates (the example prints them swapped; see the
# ledgered derivation: tr sigma(T) = tr sigma(T^5) = 5 => T is (25,1^5)-type,
# and the T-like family has 600 of the 7500 elements)
GAMMA0_25 = {
    lam("1^30"): F("1/7500"),
    lam("2^14 1^2"): F("1/20"),
    lam("3^10"): F("1/15"),
    lam("5^4 1^10"): F("1/125"),
    lam("5^5 1^5"): F("2/625"),
    lam("5^6"): F("2/375"),
    lam("10^2 2^4 1^2"): F("1/5"),
    lam("15^2"): F("4/15"),
    lam("25 1^5"): F("2/25"),
    lam("25 5"): F("8/25"),
}

# rows of the worked table printed with consistent weights and assignments
GAMMA0_25_AS_PRINTED_CLEAN = {
    k: v for k, v in GAMMA0_25.items() if k not in (lam("25 1^5"), lam("25 5"))
}


def test_criterion_03_gamma0_25_table():
    t0 = time.time()
    table = density_table(SubgroupSpec(Family.GAMMA0, 25))
    elapsed = time.time() - t0
    assert len(table.entries) == 10
    assert sum(table.entries.values()) == 1
    for k, v in GAMMA0_25_AS_PRINTED_CLEAN.items():
        assert table.entries[k] == v, k
    assert table.entries == GAMMA0_25
    # the swapped pair, pinned explicitly
    assert table.entries[lam("25 1^5")] == F("2/25")
    assert table.entries[lam("25 5")] == F("8/25")
    assert elapsed < 30.0
    ok(3, f"Gamma0(25): all ten rows exact (two documented swapped labels) in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 4: the 30 printed level-75 rows via their recovered pairings

PRINTED_3 = {lam("1^4"): F("1/12"), lam("2^2"): F("1/4"), lam("3 1"): F("2/3")}
PRINTED_25 = dict(GAMMA0_25)
PRINTED_25[lam("25 1^5")] = F("8/25")  # as printed (swapped)
PRINTED_25[lam("25 5")] = F("2/25")

# (printed label, printed density, factor1, factor2, printed-label caveat)
# caveats: "" = clean, "product" = termwise-product artifact row,
# "weight" = printed label violates the weight (typo)
PRINTED_75 = [
    ("1^120", "1/90000", "1^4", "1^30", ""),
    ("2^56 1^8", "1/240", "1^4", "2^14 1^2", ""),
    ("10^8 2^16 1^8", "1/60", "1^4", "10^2 2^4 1^2", ""),
    ("3^40", "1/180", "1^4", "3^10", ""),
    ("15^8", "1/45", "1^4", "15^2", ""),
    ("5^16 1^40", "1/1500", "1^4", "5^4 1^10", ""),
    ("5^20 1^20", "1/3750", "1^4", "5^5 1^5", ""),
    ("25^4 1^20", "2/75", "1^4", "25 1^5", ""),
    ("25^4 5^2", "1/150", "1^4", "25 5", "weight"),
    ("5^24", "1/2250", "1^4", "5^6", ""),
    ("2^60", "1/30000", "2^2", "1^30", ""),
    ("4^28 2^4", "1/80", "2^2", "2^14 1^2", "product"),
    ("20^4 4^8 2^4", "1/20", "2^2", "10^2 2^4 1^2", "product"),
    ("6^20", "1/60", "2^2", "3^10", ""),
    ("30^4", "1/15", "2^2", "15^2", ""),
    ("10^8 2^10", "1/500", "2^2", "5^4 1^10", "weight"),
    ("10^10 2^10", "1/1250", "2^2", "5^5 1^5", ""),
    ("50^2 2^10", "2/25", "2^2", "25 1^5", ""),
    ("50^2 10^2", "1/50", "2^2", "25 5", ""),
    ("10^12", "1/750", "2^2", "5^6", ""),
    ("3^30 1^30", "1/11250", "3 1", "1^30", ""),
    ("6^14 3^2 2^14 1^2", "1/30", "3 1", "2^14 1^2", ""),
    ("30^2 10^2 6^4 3^2 2^4 1^2", "2/15", "3 1", "10^2 2^4 1^2", ""),
    ("9^10 3^10", "2/45", "3 1", "3^10", "product"),
    ("45^2 15^2", "8/45", "3 1", "15^2", "product"),
    ("15^4 5^5 3^10 1^10", "2/375", "3 1", "5^4 1^10", "weight"),
    ("15^5 5^5 3^5 1^5", "4/1875", "3 1", "5^5 1^5", ""),
    ("75 25 3^5 1^5", "16/75", "3 1", "25 1^5", ""),
    ("75 25 15 5", "4/75", "3 1", "25 5", ""),
    ("15^6 5^6", "4/1125", "3 1", "5^6", ""),
]


def termwise_product(lam1, lam2):
    return partition(a * b for a in lam1 for b in lam2)


def test_criterion_04_gamma0_75_composite_and_census():
    assert len(PRINTED_75) == 30
    assert sum(F(d) for _, d, _, _, _ in PRINTED_75) == 1

    # (a) every printed density is the product of its printed factor rows
    for label, dens, f1, f2, caveat in PRINTED_75:
        assert F(dens) == PRINTED_3[lam(f1)] * PRINTED_25[lam(f2)], label

    # (b) the printed label is the termwise product of the recovered factors
    # except for the three weight typos (whose printed weights are not 120)
    for label, dens, f1, f2, caveat in PRINTED_75:
        naive = termwise_product(lam(f1), lam(f2))
        if caveat == "weight":
            assert sum(lam(label)) != 120
            assert lam(label) != naive
        else:
            assert lam(label) == naive
            assert sum(lam(label)) == 120

    # (c) reconciled truth: group the printed rows by the tensor type of the
    # recovered pairing with corrected factor densities; the result must be
    # the convolution table AND the direct census, exactly
    t0 = time.time()
    true3 = density_table(SubgroupSpec(Family.GAMMA0, 3))
    true25 = density_table(SubgroupSpec(Family.GAMMA0, 25))
    expected = {}
    for label, dens, f1, f2, caveat in PRINTED_75:
        key = tensor_partitions(lam(f1), lam(f2))
        val = true3.entries[lam(f1)] * true25.entries[lam(f2)]
        expected[key] = expected.get(key, Fraction(0)) + val
    conv = density_table_composite(SubgroupSpec(Family.GAMMA0, 75))
    assert conv.entries == expected
    t1 = time.time()
    direct = density_table(SubgroupSpec(Family.GAMMA0, 75))
    elapsed = time.time() - t1
    assert direct.entries == conv.entries
    assert direct.xi_order == xi_order(75)
    assert len(direct.entries) == 26
    assert sum(direct.entries.values()) == 1
    # spot checks: the 16/75 mass sits on the pairing the criterion quotes,
    # which lands on (75,25,15,5) once the level-25 swap is undone
    assert conv.entries[lam("75 25 15 5")] == F("16/75")
    assert conv.entries[lam("75 25 3^5 1^5")] == F("4/75")
    assert conv.entries[lam("1^120")] == F("1/90000")
    assert elapsed < 600.0
    ok(4, "Gamma0(75): 30 printed rows reconciled by pairing; convolution == "
          f"direct census ({len(direct.entries)} types, census {elapsed:.1f}s)")


def test_criterion_05_closed_form_vs_census():
    t0 = time.time()
    for p, r in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        for family in Family:
            s = SubgroupSpec(family, p**r)
            assert density_table_closed_form(s).entries == density_table(s).entries, (p, r, family)
    ok(5, f"closed forms == census at five (p,r) pairs x three families in {time.time()-t0:.1f}s")


def _dual(task):
    level, family = task
    return (level, family, dual_type_report(level, family))


def test_criterion_06_cycles_vs_moebius_exhaustive():
    t0 = time.time()
    tasks = [(n, family) for n in range(2, 31) for family in Family]
    # heaviest first for better load balance
    tasks.sort(key=lambda t: -xi_order(t[0]))
    total = 0
    with Pool(JOBS) as pool:
        for level, family, (count, mismatches) in pool.imap_unordered(_dual, tasks):
            assert mismatches == [], (level, family, mismatches[:3])
            assert count == xi_order(level)
            total += count
    ok(6, f"cycle type == Moebius type for {total} (element, family) cases, "
          f"N <= 30, in {time.time()-t0:.0f}s")


LEMMA5_PAIRS = ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1))


def _lemma5_expected_gamma0(label, p, r):
    kind = label[0]
    if kind == "Id":
        return p ** (r - 1) * (p + 1)
    if kind == "A":
        return 2 * p ** label[1]
    if kind == "A0":
        return 2
    if kind == "B":
        _, k, m, chi = label
        if m == r - k:
            return p ** ((r + k) // 2)
        if m % 2 == 0 and chi == 1:
            return 2 * p ** (k + m // 2)
    return 0


def _lemma5_expected_gamma1(label, p, r):
    kind = label[0]
    if kind == "Id":
        return p ** (2 * r - 2) * (p * p - 1) // 2
    if kind == "B" and label[2] == r - label[1]:
        _, k, m, chi = label
        return p ** (r + k - 1) * (p - 1) // 2
    return 0


def test_criterion_07_lemma5_trace_regression():
    t0 = time.time()
    checked = 0
    for p, r in LEMMA5_PAIRS:
        n = p**r
        t_g0 = build_coset_table(SubgroupSpec(Family.GAMMA0, n))
        t_g1 = build_coset_table(SubgroupSpec(Family.GAMMA1, n))
        xi = enumerate_xi(n)
        for g, label in zip(xi, family_labels(xi, xi_orders(xi, n), p, r)):
            assert induced_trace(g, t_g0) == _lemma5_expected_gamma0(label, p, r), (n, g, label)
            assert induced_trace(g, t_g1) == _lemma5_expected_gamma1(label, p, r), (n, g, label)
            checked += 1
    ok(7, f"induced traces match the closed forms for {checked} elements in {time.time()-t0:.0f}s")


def test_criterion_08_rectangle_property():
    t0 = time.time()
    for n in (3, 5, 7, 9, 25):
        s = SubgroupSpec(Family.GAMMA, n)
        table = density_table(s)
        for lam_ in table.entries:
            assert len(set(lam_)) == 1, (n, lam_)
            assert table.index % tuple(lam_)[0] == 0
        assert rectangle_density_table(s).entries == table.entries
    ok(8, f"Gamma(N) tables supported on rectangles for N in (3,5,7,9,25), {time.time()-t0:.0f}s")


def test_criterion_09_power_relations():
    t0 = time.time()
    rows52 = power_relation_check(25)
    assert rows52 and all(r.passed for r in rows52)
    rows32 = power_relation_check(9)
    failed = [(r.label, r.exponent) for r in rows32 if not r.passed]
    # the single printed relation broken by the p=3 order anomaly (elements
    # with trace == -1 mod 9 cube to the identity, not into B(1,1)); every
    # other relation holds verbatim
    assert failed == [("B(k=0,m=1)", 3)]
    note = [r.note for r in rows32 if not r.passed][0]
    assert "p=3 order anomaly" in note
    ok(9, f"power relations: {len(rows52)}/{len(rows52)} pass at (5,2); "
          f"{len(rows32)-1}/{len(rows32)} at (3,2) with the documented p=3 "
          f"exception, {time.time()-t0:.0f}s")


def test_criterion_10_empirical_convergence(classes_1e6):
    t0 = time.time()
    ratio = len(classes_1e6) / li(10**6)
    assert 0.8 <= ratio <= 1.2
    worst = 0.0
    for level in (3, 5):
        s = SubgroupSpec(Family.GAMMA0, level)
        theory = density_table(s)
        tally = empirical_tally(s, 10**6, classes=classes_1e6)
        assert tally.total == len(classes_1e6)
        for lam_, dens in theory.entries.items():
            if dens >= Fraction(1, 10):
                err = abs(tally.counts.get(lam_, 0) / tally.total - float(dens))
                worst = max(worst, err)
                assert err <= 0.05, (level, lam_, err)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    ok(10, f"empirical densities at x=1e6 within 0.05 (worst {worst:.4f}); "
           f"pi/li = {ratio:.4f}; {elapsed:.0f}s")


def test_criterion_11_zeta_identities(classes_1e4):
    t0 = time.time()
    data = ClassData(10**4, classes=classes_1e4)
    worst9 = 0.0
    for p in (3, 5):
        d = ratio_identity_check(p, 2.0, 10**4, data)["discrepancy"]
        worst9 = max(worst9, d)
        assert d < 1e-9
        for family in Family:
            d = venkov_zograf_check(2.0, 10**4, SubgroupSpec(family, p), data)["discrepancy"]
            worst9 = max(worst9, d)
            assert d < 1e-9
    d_low = ratio_identity_check(5, 1.2, 10**4, data)["discrepancy"]
    assert d_low < 1e-8
    ok(11, f"zeta identities < 1e-9 at (3,2,1e4),(5,2,1e4) (worst {worst9:.1e}); "
           f"(5,1.2,1e4) = {d_low:.1e} < 1e-8; {time.time()-t0:.0f}s")


def test_criterion_12_anomalous_scan(classes_1e5):
    t0 = time.time()
    targets = [
        (Family.GAMMA0, 3),
        (Family.GAMMA0, 5),
        (Family.GAMMA0, 25),
        (Family.GAMMA1, 5),
        (Family.GAMMA, 5),
    ]
    for family, level in targets:
        count, witnesses = anomalous_type_scan(
            SubgroupSpec(family, level), 10**5, classes=classes_1e5
        )
        assert count == 0 and witnesses == [], (family, level, witnesses)
    ok(12, f"anomalous-type scan: zero witnesses across five covers at x=1e5, "
           f"{time.time()-t0:.0f}s")
