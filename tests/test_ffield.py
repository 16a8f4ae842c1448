import pytest
from hypothesis import given, strategies as st

import oracles
from gridfree import InvalidPrimeError, check_prime, chi_table, legendre, min_sqrt_table
from gridfree.ffield import PRIME_LIMIT, _min_sqrt, is_prime

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41)


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(-5, 2000):
        assert is_prime(n) == trial_division(n), n


def test_is_prime_on_carmichael_and_large_values():
    for n in (561, 1105, 1729, 2465, 6601, 8911, 41041, 825265):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert is_prime(1000000007)


def test_prime_validation():
    for bad in (0, 1, 2, 4, 9, 15, -7, 561, True, 7.0, "7", None):
        with pytest.raises(InvalidPrimeError):
            check_prime(bad)
    assert check_prime(3) == 3 and type(check_prime(7)) is int
    assert check_prime(5, 5) == 5
    for bad in (3, 4, 9):
        with pytest.raises(InvalidPrimeError, match=r"is not an odd prime >= 5$"):
            check_prime(bad, 5)


def test_legendre_against_scan():
    for p in SMALL_PRIMES:
        for a in range(p):
            assert legendre(a, p) == oracles.legendre_scan(p, a), (p, a)
            assert legendre(a - p, p) == legendre(a + 3 * p, p) == legendre(a, p)


@given(p=st.sampled_from(SMALL_PRIMES), a=st.integers(1, 400), b=st.integers(1, 400))
def test_legendre_is_multiplicative(p, a, b):
    if a % p and b % p:
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_sqrt_mod_against_scan():
    for p in SMALL_PRIMES:
        for a in range(p):
            want = oracles.sqrt_scan(p, a)
            assert _min_sqrt(a, p) == (min(want) if want else None), (p, a)
            assert _min_sqrt(a + p, p) == _min_sqrt(a, p)


def test_sqrt_mod_covers_both_tonelli_branches():
    # p = 3 (mod 4) uses the exponent shortcut, p = 1 (mod 4) the full search
    for p, a in ((19, 5), (23, 2), (29, 5), (17, 2), (41, 10)):
        lo = _min_sqrt(a, p)
        assert lo is not None and 2 * lo < p
        assert lo * lo % p == a % p


def test_chi_and_min_sqrt_tables():
    for p in SMALL_PRIMES:
        table = chi_table(p)
        assert len(table) == p
        assert table == [oracles.legendre_scan(p, a) for a in range(p)]
        mins = min_sqrt_table(p)
        assert len(mins) == p
        for a in range(p):
            want = oracles.sqrt_scan(p, a)
            assert mins[a] == (min(want) if want else None)


PSI_12 = 318665857834031151167461  # least strong pseudoprime to bases 2..37
PSI_13 = 3317044064679887385961981  # least strong pseudoprime to bases 2..41


def test_is_prime_exact_up_to_its_limit_and_refuses_beyond():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not is_prime(PSI_12)  # passes every witness but 41
    assert not is_prime(149491 * 747451 * 34233211)  # psi_9, a strong pseudoprime to 2..23
    with pytest.raises(InvalidPrimeError, match="too large"):
        is_prime(PSI_13)
    assert PSI_13 == PRIME_LIMIT
    for bad in (PSI_12, PSI_13, PSI_13 + 2, 10**30 + 57):
        with pytest.raises(InvalidPrimeError):
            check_prime(bad)
