import pytest

from locus.errors import FactorizationCapacityExceeded, RangeTooLarge
from locus.primes import (MR_DETERMINISTIC_BOUND, factorize, first_nonprime,
                          is_prime, prime_power_split, prime_range, sieve_upto)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in known)


def test_is_prime_agrees_with_sieve():
    primes = set(sieve_upto(10000))
    for n in range(2, 10000):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize("p", [10**9 + 7, 10**9 + 9, 2**61 - 1])
def test_is_prime_large_known(p):
    assert is_prime(p)


def test_is_prime_large_composites():
    assert not is_prime((10**9 + 7) * (10**9 + 9))
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_factorize_roundtrip():
    for n in list(range(1, 2000)) + [2**20, 3**10 * 5**4, 999983 * 999979]:
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_composites_above_the_deterministic_bound():
    # a perfect power, and a composite that Miller-Rabin proves composite,
    # are split at any size; only a probable prime there is refused
    assert 1000003**8 > MR_DETERMINISTIC_BOUND
    assert factorize(1000003**8) == {1000003: 8}
    assert factorize(440177981 * 4455611 * 59982049**5) == \
        {440177981: 1, 4455611: 1, 59982049: 5}
    with pytest.raises(FactorizationCapacityExceeded):
        factorize(2**89 - 1)
    # least factor 2^61 - 1: rho gives up once its cycle passes RHO_CYCLE_LIMIT
    with pytest.raises(FactorizationCapacityExceeded, match="rho"):
        factorize((2**61 - 1)**2 * (2**89 - 1))


def test_prime_range_matches_sieve():
    assert prime_range(10, 50) == [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert prime_range(2, 2) == [2]
    assert prime_range(20, 10) == []


def test_prime_range_segmented_consistency():
    # force the segmented path and compare against the direct sieve
    lo, hi = 2**22 + 1, 2**22 + 50000
    seg = prime_range(lo, hi)
    direct = [p for p in sieve_upto(hi) if p >= lo]
    assert seg == direct


def test_sieve_upto_matches_trial_division():
    primes = [m for m in range(2, 2001) if all(m % d for d in range(2, int(m**0.5) + 1))]
    for n in range(-1, 2001):
        assert sieve_upto(n) == [p for p in primes if p <= n], n
    assert len(sieve_upto(10**6)) == 78498


def test_prime_range_at_segment_edges():
    # above 2^22 prime_range sieves [lo, lo + 2^17) at a time; put lo and hi
    # at +-1 of 2^22, where the direct sieve stops, and of segment edges that
    # fall on a prime
    direct = sieve_upto((1 << 22) + (1 << 19))
    assert all(is_prime(p) for p in direct[-50:])

    def want(lo, hi):
        return [p for p in direct if lo <= p <= hi]
    for lo, hi in [((1 << 22) - 1, (1 << 22) + 1), ((1 << 22) - 50, (1 << 22) + 50)]:
        assert prime_range(lo, hi) == want(lo, hi), (lo, hi)
    edge = next(p for p in direct if p > (1 << 22) + (1 << 18))
    for d in (-1, 0, 1):
        for lo, hi in [(edge - (1 << 17) + 1 + d, edge + 1),   # a segment ends at edge + d
                       (edge - (1 << 17) + d, edge + 1),       # the next starts at edge + d
                       (edge + d, edge + (1 << 17)),           # the first starts at edge + d
                       (edge - 3, edge + d)]:                  # hi at edge + d
            assert prime_range(lo, hi) == want(lo, hi), (lo, hi)


def test_first_nonprime():
    assert first_nonprime([]) is None
    assert first_nonprime([2, 3, 5, 7, 4194301]) is None
    small = [p for p in range(-3, 2000) if first_nonprime([p]) is None]
    assert small == [p for p in range(2000) if is_prime(p)]
    assert first_nonprime([7, 25, 37]) == 25
    assert first_nonprime([3, 1]) == 1
    # 2^22 + 3 = 13 * 19 * 16981 lies above the one sieve, and
    # 2^22 - 1 = 3 * 23 * 89 * 683 inside it
    assert first_nonprime([4194301, 4194307]) == 4194307
    assert first_nonprime([4194303, 4194307]) == 4194303
    assert first_nonprime([1 << 22, 4194301]) == 1 << 22
    # around the table of primes below 10^6: 999983 and 1000003 are prime
    near = range(10**6 - 40, 10**6 + 40)
    assert [p for p in near if first_nonprime([p]) is None] == \
        [p for p in near if is_prime(p)]
    assert first_nonprime([999983, 1000003, 1000001]) == 1000001  # 101 * 9901
    assert first_nonprime([1000003, 1009**2]) == 1009**2  # the sieve needs 1009


def test_prime_range_ceiling():
    with pytest.raises(RangeTooLarge):
        prime_range(2, 10**9 + 1)


def test_prime_power_split():
    assert prime_power_split(360) == [(2, 3), (3, 2), (5, 1)]
    assert prime_power_split(9) == [(3, 2)]
    assert prime_power_split(1) == []
