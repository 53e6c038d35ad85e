import math
import random
from collections import Counter

import pytest

from locus import primes
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


@pytest.fixture
def steps(monkeypatch):
    """Counts the perfect-power splits and rho calls factorize makes."""
    seen = Counter()
    perfect_power, brent_rho = primes._perfect_power, primes._brent_rho

    def counted_perfect_power(m):
        b, k = perfect_power(m)
        if k > 1:
            seen["power"] += 1
        return b, k

    def counted_rho(m, limit=None):
        seen["rho"] += 1
        return brent_rho(m, limit)
    monkeypatch.setattr(primes, "_perfect_power", counted_perfect_power)
    monkeypatch.setattr(primes, "_brent_rho", counted_rho)
    return seen


def test_factorize_at_the_trial_division_bound(steps):
    assert primes.TRIAL_DIVISION_BOUND == 1 << 16
    # 65521 is the largest prime below 2^16 and 65537, 65539 the next two
    assert factorize(65521**2) == {65521: 2}  # trial division alone
    assert not steps
    assert 65537 * 65539 > 1 << 32  # the cofactor needs Miller-Rabin and rho
    assert factorize(65537 * 65539) == {65537: 1, 65539: 1}
    assert steps == {"rho": 1}
    steps.clear()
    assert factorize(65537**2) == {65537: 2}  # the perfect-power split
    assert steps == {"power": 1}


def test_factorize_six_primes_between_the_bounds(steps):
    # at 10^6 trial division removed these; now rho splits a composite above
    # the deterministic bound
    ps = [65537, 65539, 100003, 350003, 700001, 999983]
    n = math.prod(ps)
    assert n > MR_DETERMINISTIC_BOUND
    assert factorize(n) == dict.fromkeys(ps, 1)
    assert steps["rho"] >= 5
    with pytest.raises(FactorizationCapacityExceeded, match="cannot certify primality"):
        factorize(999983 * (2**89 - 1))


def test_factorize_agrees_with_plain_trial_division():
    rng = random.Random(20240516)

    def plain_prime(m):
        return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))

    def draw(lo, hi, count):
        pool = set()
        while len(pool) < count:
            m = rng.randrange(lo, hi)
            if plain_prime(m):
                pool.add(m)
        return sorted(pool)
    # both sides of the trial-division bound 2^16 and of the old one, 10^6
    bands = [draw(2, 1 << 16, 60), draw((1 << 16) - 2000, (1 << 16) + 2000, 40),
             draw((1 << 16) + 1, 10**6, 60), draw(10**6 - 3000, 10**6 + 3000, 40),
             draw(10**6, 4 * 10**6, 60)]
    for _ in range(2000):
        want = Counter()
        for _ in range(rng.randint(1, 4)):
            want[rng.choice(rng.choice(bands))] += rng.randint(1, 3)
        n = math.prod(p**e for p, e in want.items())
        assert factorize(n) == want, n


TABLE = sieve_upto((1 << 16) - 1)


def plain_trial_division(n):
    """The reference: every table prime in turn until p * p passes n."""
    out = Counter()
    for p in TABLE:
        if p * p > n:
            break
        while n % p == 0:
            out[p] += 1
            n //= p
    if n > 1:
        assert n < 1 << 32  # no factor below 2^16 and below 2^32: prime
        out[n] += 1
    return out


def test_trial_blocks_at_their_edges():
    blocks = [block for block, _ in primes._trial_blocks()]
    assert [p for block in blocks for p in block] == [p for p in TABLE if p > 256]
    assert all(product == math.prod(block) for block, product in primes._trial_blocks())
    numbers = set()
    for i, block in enumerate(blocks):
        first, last = block[0], block[-1]
        numbers |= {first, last, first**2, last**2, first * last, block[1] * block[-2]}
        if i + 1 < len(blocks):
            numbers |= {last * blocks[i + 1][0], first * blocks[i + 1][-1]}
    # 65537 is the least prime above 2^16 and 2^32 - 5 the largest below 2^32
    for m in sorted(numbers):
        for big in (1, 65537, (1 << 32) - 5):
            assert factorize(m * big) == plain_trial_division(m * big), (m, big)


def test_factorize_where_the_walk_hands_off_to_the_blocks():
    # 251 is the largest prime below 2^8 and 257 the least above: a number
    # in [251^2, 257^2) with no factor below 256 is prime, and no gcd runs
    walk = [p for p in TABLE if p < 256]
    for n in range(251**2, 257**2):
        want = plain_trial_division(n)
        assert factorize(n) == want, n
        if all(n % p for p in walk):
            assert want == {n: 1}


# p in (10^6, 10^7) and q in (10^7, 10^9), as the large-factors benchmark draws
RHO_SEMIPRIMES = [
    (4123477, 496399531), (1251671, 48281881), (8672723, 446775341), (2810713, 10585121),
    (2225381, 26266657), (7879513, 118497649), (8800397, 836267959), (6102709, 927380213),
    (3455489, 839669239), (2231423, 26652739), (4831637, 277897043), (9095279, 894460297),
    (3943283, 255238703), (5701301, 27797053), (2160217, 488572663), (2014277, 966639787),
    (6552671, 796950859), (2255501, 352421093), (1507841, 663765863), (2520829, 655625141),
    (10000019, 130000000000063),  # 22 digits
]


def test_brent_rho_splits_large_factor_semiprimes():
    for p, q in RHO_SEMIPRIMES:
        assert is_prime(p) and is_prime(q)
        d = primes._brent_rho(p * q)
        assert d in (p, q), (p, q, d)
        assert factorize(p * q) == {p: 1, q: 1}
    assert len(str(math.prod(RHO_SEMIPRIMES[-1]))) == 22
    # the cycle limit still stops the splitter on a least factor of 2^61 - 1
    with pytest.raises(FactorizationCapacityExceeded, match="rho"):
        primes._brent_rho((2**61 - 1)**2 * (2**89 - 1), primes.RHO_CYCLE_LIMIT)


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
    # around the trial-division bound 2^16: 65521 and 65537 are prime
    assert first_nonprime([65521, 65537]) is None
    assert first_nonprime([65521, 65535, 65537]) == 65535
    assert first_nonprime([65537, 65537 * 3]) == 65537 * 3
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
