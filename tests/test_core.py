import math
import random
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geosplit import census, core
from geosplit.core import (
    _TRIAL_BOUND,
    CapExceeded,
    Family,
    IntegerMatrix,
    SubgroupSpec,
    canon,
    divisors,
    enumerate_xi,
    factorize,
    identity,
    mul,
    order_in_xi_tuple,
    xi_order,
)
from reference import factorize_reference, inv, is_member_tuple, matpow, spf_sieve


def test_xi_sizes_match_paper():
    assert len(enumerate_xi(3)) == 12
    assert len(enumerate_xi(5)) == 60
    assert len(enumerate_xi(25)) == 7500


@pytest.mark.parametrize("n", list(range(2, 21)))
def test_xi_order_formula(n):
    assert len(enumerate_xi(n)) == xi_order(n)


@pytest.mark.parametrize("n", [-3, 0, 1])
def test_levels_below_two_are_refused(n):
    """Every route that sizes Xi(n) refuses the level as `SubgroupSpec`
    does, with no assert involved, so also under `python -O`."""
    from geosplit.census import conjugacy_classes
    from geosplit.core import xi_keys
    from geosplit.cosets import dual_type_report

    calls = [xi_order, xi_keys, enumerate_xi, conjugacy_classes]
    calls += [lambda n, f=f: dual_type_report(n, f) for f in Family]
    for call in calls:
        with pytest.raises(ValueError, match="level must be >= 2"):
            call(n)


def test_multiply_examples():
    e5 = identity(5)
    assert mul(e5, e5, 5) == identity(5)

    m = canon(2, 1, 1, 1, 7)
    assert mul(m, inv(m, 7), 7) == identity(7)

    # [[2,1],[1,1]]^2 = [[5,3],[3,2]] == -I mod 3, canonically the identity
    g = canon(2, 1, 1, 1, 3)
    assert mul(g, g, 3) == identity(3)


def _reduce(m, n):
    """Image of an integer matrix in Xi(n); an IntegerMatrix has det 1."""
    return canon(m.a, m.b, m.c, m.d, n)


def test_reduce_mod_examples():
    assert _reduce(IntegerMatrix(1, 1, 0, 1), 5) == (1, 1, 0, 1)
    for n in (2, 3, 5, 12):
        assert _reduce(IntegerMatrix(-1, 0, 0, -1), n) == identity(n)
    assert _reduce(IntegerMatrix(4, 9, 7, 16), 3) == canon(1, 0, 1, 1, 3)


def test_integer_matrix_det_checked():
    with pytest.raises(ValueError):
        IntegerMatrix(2, 1, 1, 2)


def test_is_member_examples():
    assert is_member_tuple(canon(1, 1, 0, 1, 5), Family.GAMMA0, 5)
    assert not is_member_tuple(canon(2, 1, 1, 1, 5), Family.GAMMA0, 5)
    # [[4,0],[0,4]] = -I mod 5, which lies in Gamma(5)
    assert is_member_tuple(canon(4, 0, 0, 4, 5), Family.GAMMA, 5)


def test_order_examples():
    assert order_in_xi_tuple(canon(1, 0, 0, 1, 7), 7) == 1
    assert order_in_xi_tuple(canon(1, 1, 0, 1, 5), 5) == 5
    assert order_in_xi_tuple(canon(2, 1, 1, 1, 3), 3) == 2


def test_canonicalization_idempotent():
    rng = random.Random(7)
    for n in (2, 5, 12, 29):
        for _ in range(400):
            a, b, c, d = (rng.randrange(n) for _ in range(4))
            t = canon(a, b, c, d, n)
            assert canon(*t, n) == t


def test_group_axioms_random_triples():
    rng = random.Random(11)
    for n in (6, 11):
        xi = enumerate_xi(n)
        e = identity(n)
        for _ in range(10**4):
            x, y, z = (rng.choice(xi) for _ in range(3))
            assert mul(mul(x, y, n), z, n) == mul(x, mul(y, z, n), n)
        for _ in range(200):
            x = rng.choice(xi)
            assert mul(x, e, n) == x
            assert mul(e, x, n) == x
            assert mul(x, inv(x, n), n) == e


def test_order_divides_group_order():
    for n in (3, 5, 8, 9, 12):
        total = xi_order(n)
        for g in enumerate_xi(n):
            assert total % order_in_xi_tuple(g, n) == 0


def test_matpow_matches_repeated_mult():
    rng = random.Random(3)
    n = 13
    xi = enumerate_xi(n)
    for _ in range(100):
        g = rng.choice(xi)
        k = rng.randrange(0, 40)
        ref = identity(n)
        for _ in range(k):
            ref = mul(ref, g, n)
        assert matpow(g, k, n) == ref


@pytest.mark.parametrize("n", list(range(2, 31)))
def test_subgroup_chain(n):
    """Gamma(N) <= Gamma1(N) <= Gamma0(N) as membership predicates on Xi."""
    for g in enumerate_xi(n):
        if is_member_tuple(g, Family.GAMMA, n):
            assert is_member_tuple(g, Family.GAMMA1, n)
        if is_member_tuple(g, Family.GAMMA1, n):
            assert is_member_tuple(g, Family.GAMMA0, n)


def test_projective_matrix_validates():
    with pytest.raises(ValueError):
        SubgroupSpec(Family.GAMMA0, 1)


def test_factorize_matches_trial_division():
    """Every n below 10^4 and random n below 10^12, against the trial
    divider; divisors are the products of the prime powers, ascending."""
    rng = random.Random(12)
    for n in list(range(-2, 10**4)) + [rng.randrange(10**4, 10**12) for _ in range(200)]:
        assert factorize(n) == factorize_reference(n), n
    for n in range(1, 500):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


P31 = 2**31 - 1


@pytest.mark.parametrize("n,want", [
    (2**61 - 1, [(2**61 - 1, 1)]),
    (561, [(3, 1), (11, 1), (17, 1)]),  # Carmichael numbers
    (41041, [(7, 1), (11, 1), (13, 1), (41, 1)]),
    (252601, [(41, 1), (61, 1), (101, 1)]),  # Carmichael, no factor below 40
    (3215031751, [(151, 1), (751, 1), (28351, 1)]),  # strong pseudoprime to 2, 3, 5, 7
    (P31**2, [(P31, 2)]),
    ((P31 - 18) * P31, [(P31 - 18, 1), (P31, 1)]),  # two primes near 2^31
    (2 * (2**61 - 1), [(2, 1), (2**61 - 1, 1)]),
    (2**64 - 59, [(2**64 - 59, 1)]),  # the largest prime below 2^64
    # strong pseudoprime to the twelve primes below 40 (Sorenson and Webster)
    (318665857834031151167461, [(399165290221, 1), (798330580441, 1)]),
    (100000000000031 * 100000000000067, [(100000000000031, 1), (100000000000067, 1)]),
])
def test_factorize_64_bit_levels(n, want):
    """Pseudoprimes below 10^12 factor exactly.  Above 10^12 every row
    leaves a rest with no prime factor up to the trial bound and above its
    square, which is refused with CapExceeded in under a second."""
    if n < 10**12:
        assert factorize(n) == want
        for p, _ in want[:2]:
            assert factorize_reference(p) == [(p, 1)]
        return
    assert want[-1][0] > _TRIAL_BOUND
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="exceeds cap"):
        factorize(n)
    assert time.perf_counter() - start < 1


PRIMES_BELOW_BOUND = np.flatnonzero(spf_sieve(_TRIAL_BOUND - 1) == np.arange(_TRIAL_BOUND))[2:]


@given(st.lists(st.sampled_from(PRIMES_BELOW_BOUND.tolist()), min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_factorize_products_of_primes_below_the_bound(primes):
    """A product of up to six primes below the trial bound factors exactly,
    as group orders above 10^12 (|Xi(99991)| is about 5e14) must."""
    assert factorize(math.prod(primes)) == sorted(Counter(primes).items())


def test_trial_bound_covers_the_caps():
    """Every accepted level is below the trial bound: closed-form levels
    p^r < 2 CLOSED_CATALOG_CAP, and coset levels, whose index is over
    0.3 N^2 and at most DEFAULT_GROUP_CAP (census levels, with 0.3 N^3
    under the same cap, are smaller still).  Raising a cap past
    the bound fails here instead of refusing real levels."""
    assert _TRIAL_BOUND > 2 * census.CLOSED_CATALOG_CAP
    assert _TRIAL_BOUND > math.isqrt(10 * core.DEFAULT_GROUP_CAP // 3)
