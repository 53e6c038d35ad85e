import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter

import pytest

from locus import primes
from locus.errors import FactorizationCapacityExceeded, RangeTooLarge
from locus.primes import (MR_DETERMINISTIC_BOUND, TABLE_CAP, divisors, factorize,
                          first_nonprime, is_prime, jacobi, prime_power_split,
                          prime_range, prime_walk, sieve_upto)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in known)


def test_is_prime_refuses_to_certify_at_and_above_the_bound():
    # the bound itself is 1287836182261 * 2575672364521, a strong
    # pseudoprime to every witness up to 41: Miller-Rabin would call it prime
    bound = MR_DETERMINISTIC_BOUND
    assert bound == 1287836182261 * 2575672364521
    assert primes._miller_rabin(bound, primes.MR_WITNESSES)
    for n in (bound, bound + 6, 2**89 - 1, 10**30 + 57):
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(FactorizationCapacityExceeded, match="deterministic bound"):
                is_prime(n)
    # a factor up to 41 still decides, above the bound too
    assert not is_prime(bound + 1) and not is_prime(41 * bound)
    # below it Miller-Rabin decides, its factors and their square included
    assert is_prime(1287836182261) and is_prime(2575672364521)
    assert not is_prime(1287836182261**2)


def test_is_prime_agrees_with_sieve():
    primes = set(sieve_upto(10000))
    for n in range(2, 10000):
        assert is_prime(n) == (n in primes)


# A014233: psi_k, the least odd composite that is a strong probable prime to
# each of the first k primes; the last is MR_DETERMINISTIC_BOUND
A014233 = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461,
           3317044064679887385961981]


def test_is_prime_refuses_every_pseudoprime_of_the_witness_tiers():
    assert primes._MR_TIERS == tuple(A014233)
    assert A014233[-1] == MR_DETERMINISTIC_BOUND
    for k, psi in enumerate(A014233, 1):
        # psi_k fools the first k witnesses, the tier below psi_k
        assert primes._miller_rabin(psi, primes.MR_WITNESSES[:k]), k
        if psi < MR_DETERMINISTIC_BOUND:
            assert not is_prime(psi), k
        else:
            with pytest.raises(FactorizationCapacityExceeded, match="deterministic bound"):
                is_prime(psi)


def test_the_witness_tiers_agree_with_every_witness():
    rng = random.Random(13)
    edges = [43, *dict.fromkeys(A014233)]
    for lo, hi in zip(edges, edges[1:]):
        for n in [lo, hi - 2, *(rng.randrange(lo, hi) | 1 for _ in range(300))]:
            while n < hi:  # each odd draw, and the first prime from it
                full = primes._miller_rabin(n, primes.MR_WITNESSES)
                assert is_prime(n) == full, n
                if full:
                    break
                n += 2


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


def brent_one_step(n, cycle_limit=None, gcd=math.gcd):
    """Brent's walk one step at a time, each difference reduced mod n: the
    reference that _brent_rho's four-step loops must match bit for bit."""
    for c in range(1, 200):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                k += m
                g = gcd(q, n)
            r <<= 1
            if cycle_limit and g == 1 and r > cycle_limit:
                raise FactorizationCapacityExceeded(f"rho splitter gave up on {n}")
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise FactorizationCapacityExceeded(f"rho splitter gave up on {n}")


class GcdLog:
    """math with a gcd that logs what it sees, a mod b."""

    def __init__(self):
        self.seen = []

    def gcd(self, a, b):
        self.seen.append(a % b)
        return math.gcd(a, b)


def gave_up_or(split, *args):
    try:
        return split(*args)
    except FactorizationCapacityExceeded:
        return "gave up"


def rho_outcomes(monkeypatch, n, cycle_limit=None):
    """(result, gcd log) of _brent_rho and of brent_one_step on n."""
    new, old = GcdLog(), GcdLog()
    with monkeypatch.context() as m:
        m.setattr(primes, "math", new)
        got = gave_up_or(primes._brent_rho, n, cycle_limit)
    want = gave_up_or(brent_one_step, n, cycle_limit, old.gcd)
    return (got, new.seen), (want, old.seen)


def test_brent_rho_matches_the_one_step_walk(monkeypatch):
    rng = random.Random(26)
    semiprimes = [p * q for p, q in RHO_SEMIPRIMES]
    while len(semiprimes) < len(RHO_SEMIPRIMES) + 30:
        p = rng.randrange(2**16, 2 * 10**7) | 1
        q = rng.randrange(p, 2**62) | 1
        if is_prime(p) and is_prime(q):
            semiprimes.append(p * q)
    # every gcd sees the same number, and a cycle limit stops both walks at
    # the same stage, or neither
    for n in semiprimes:
        for limit in (None, 1, 2, 4, 8, 64, 512, 4096):
            new, old = rho_outcomes(monkeypatch, n, limit)
            assert new == old and old[1], (n, limit)
    big = (2**61 - 1)**2 * (2**89 - 1)
    new, old = rho_outcomes(monkeypatch, big, primes.RHO_CYCLE_LIMIT)
    assert new == old and old[0] == "gave up"


def test_prime_range_matches_sieve():
    assert prime_range(10, 50) == [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert prime_range(2, 2) == [2]
    assert prime_range(20, 10) == []
    # ranges from below 3 across several segments
    for lo in range(-1, 5):
        assert prime_range(lo, 1 << 19) == [p for p in sieve_upto(1 << 19) if p >= lo]


def test_prime_range_segmented_consistency():
    # the segmented sieve against one sieve from 2
    lo, hi = 2**22 + 1, 2**22 + 50000
    seg = prime_range(lo, hi)
    direct = [p for p in sieve_upto(hi) if p >= lo]
    assert seg == direct


def test_sieve_upto_matches_trial_division():
    primes = [m for m in range(2, 2001) if all(m % d for d in range(2, int(m**0.5) + 1))]
    for n in range(-1, 2001):
        assert sieve_upto(n) == [p for p in primes if p <= n], n
    assert len(sieve_upto(10**6)) == 78498
    # across the prime table's cap
    direct = _sieved(TABLE_CAP + (1 << 17) + 1)
    for n in (TABLE_CAP - 1, TABLE_CAP, TABLE_CAP + 1, TABLE_CAP + (1 << 17) + 1):
        assert sieve_upto(n) == [p for p in direct if p <= n], n


def _sieved(n):
    """The primes <= n from one sieve of its own, with every odd number up
    to sqrt(n) crossing off: no prime table."""
    flags = primes._odd_flags(1, n, range(3, math.isqrt(n) + 1, 2))
    return [2, *(m for m, f in zip(range(1, n + 1, 2), flags) if f)]


def test_prime_walk_reads_the_table_as_a_sieve_would(monkeypatch):
    # at and around the cap, and across it, from an empty table: the first
    # stride set of each range grows the table, the others and a second pass
    # read it grown
    direct = _sieved(TABLE_CAP + (1 << 18))

    def want(lo, hi, strides):
        odd = direct[bisect_left(direct, max(lo, 3)):bisect_right(direct, hi)]
        return len(odd), [p for p in odd if any(p % (2 * r) == 1 for r in strides)]
    # 32761 = 181^2, and 181 = isqrt(2^15) must cross off in a table of 2^15
    ranges = [(lo, lo + 3000) for lo in (1, 4090, 8190, 29768, 70000, 600000)]
    ranges += [(TABLE_CAP - 5000, TABLE_CAP + d) for d in (-1, 0, 1)]
    ranges += [(TABLE_CAP - 1, TABLE_CAP + 1), (TABLE_CAP - 3, TABLE_CAP + 3)]
    ranges += [(TABLE_CAP - (1 << 17) + d, TABLE_CAP + d) for d in (-2, -1, 0, 1, 2)]
    ranges += [(TABLE_CAP - 1000 + d, TABLE_CAP + (1 << 17) + d) for d in (-1, 0, 1)]
    monkeypatch.setattr(primes, "_TABLE", (0, bytearray()))
    for _ in range(2):
        for lo, hi in ranges:
            for strides in ((1,), (3,), (5, 7), (3, 5, 7), (11, 2)):
                assert prime_walk(lo, hi, strides) == want(lo, hi, strides), (lo, hi, strides)
                assert primes._TABLE[0] >= min(hi, TABLE_CAP)
    assert primes._TABLE[0] == TABLE_CAP


def test_prime_range_at_segment_edges():
    # prime_range sieves [lo, lo + 2^17) at a time past the prime table;
    # put lo and hi at +-1 of 2^22 and of segment edges that fall on a prime
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


def test_first_nonprime(monkeypatch):
    monkeypatch.setattr(primes, "_TABLE", (0, bytearray()))  # grown by each call
    assert first_nonprime([]) is None
    assert first_nonprime([2, 3, 5, 7, 4194301]) is None
    small = [p for p in range(-3, 2000) if first_nonprime([p]) is None]
    assert small == [p for p in range(2000) if is_prime(p)]
    assert first_nonprime([7, 25, 37]) == 25
    assert first_nonprime([3, 1]) == 1
    # above the prime table each number is tested on its own: 2^22 + 3 =
    # 13 * 19 * 16981 and 2^22 - 1 = 3 * 23 * 89 * 683
    assert first_nonprime([4194301, 4194307]) == 4194307
    assert first_nonprime([4194303, 4194307]) == 4194303
    assert first_nonprime([1 << 22, 4194301]) == 1 << 22
    # around the trial-division bound 2^16: 65521 and 65537 are prime
    assert first_nonprime([65521, 65537]) is None
    assert first_nonprime([65521, 65535, 65537]) == 65535
    assert first_nonprime([65537, 65537 * 3]) == 65537 * 3
    # around 10^6, where trial division once stopped: 999983 and 1000003
    # are prime
    near = range(10**6 - 40, 10**6 + 40)
    assert [p for p in near if first_nonprime([p]) is None] == \
        [p for p in near if is_prime(p)]
    assert first_nonprime([999983, 1000003, 1000001]) == 1000001  # 101 * 9901
    assert first_nonprime([1000003, 1009**2]) == 1009**2  # the sieve needs 1009
    # on both sides of the prime table's cap, and of 2^22, where one sieve
    # of the numbers once stopped
    for edge in (TABLE_CAP, 1 << 22):
        near = range(edge - 60, edge + 60)
        assert [p for p in near if first_nonprime([p]) is None] == \
            [p for p in near if is_prime(p)]
        assert first_nonprime(list(near)) == edge - 60
    assert first_nonprime([TABLE_CAP - 3, TABLE_CAP + 7, TABLE_CAP + 1]) == TABLE_CAP + 1


def test_prime_range_ceiling():
    with pytest.raises(RangeTooLarge):
        prime_range(2, 10**9 + 1)


def test_divisors():
    for n in range(1, 500):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)
    assert divisors(1000000000039) == (1, 1000000000039)
    assert divisors(2**40 * 3) == tuple(sorted(2**i * 3**j for i in range(41) for j in (0, 1)))


def test_prime_power_split():
    assert prime_power_split(360) == [(2, 3), (3, 2), (5, 1)]
    assert prime_power_split(9) == [(3, 2)]
    assert prime_power_split(1) == []


def test_jacobi_is_euler_criterion_at_odd_primes():
    for p in sieve_upto(199)[1:]:
        for a in range(-p, 2 * p):
            r = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (-1 if r == p - 1 else r), (a, p)


def test_jacobi_is_multiplicative_in_the_modulus():
    composites = [m for m in range(9, 200, 2) if not is_prime(m)]
    for m in composites:
        d = next(d for d in range(3, m, 2) if m % d == 0)
        for a in range(-m, m + 1):
            assert jacobi(a, m) == jacobi(a, d) * jacobi(a, m // d), (a, m)
    with pytest.raises(ValueError):
        jacobi(3, 8)


def test_factorize_with_known_hints_changes_no_result(monkeypatch):
    rng = random.Random(20261019)

    def band(lo, hi):
        while True:
            m = rng.randrange(lo, hi)
            if is_prime(m):
                return m
    bands = [(2, 1 << 8), (1 << 8, 1 << 16), (1 << 16, 1 << 32), (10**6, 10**12),
             (10**20, 10**20 + 10**6)]
    decoys = [65537 * 65539, (1 << 32) - 5, 10**9 + 7, 10**20 + 39]
    above = 2**89 - 1  # prime, above the deterministic bound
    for _ in range(300):
        want = Counter()
        while not want or sum(p >= 1 << 24 for p in want) > 1:  # rho stays cheap
            want = Counter({band(*rng.choice(bands)): rng.randint(1, 3)
                            for _ in range(rng.randint(1, 4))})
        n = math.prod(p**e for p, e in want.items())
        big = [p for p in want if p >= 1 << 16]
        known = [p for p in want if rng.random() < 0.7]
        known += [p * q for p in big for q in big + [65537]]  # composites above 2^16
        known += decoys + known[:2] + [0, 1, -65537, True, 65537.0, above]
        known += [-p for p in big]
        rng.shuffle(known)
        # composite hints alone: each shares one prime of n with a decoy
        shared = [p * rng.choice(decoys + [above]) for p in big]
        assert factorize(n) == want, n
        assert factorize(n, known=known) == want, (n, known)
        assert factorize(n, known=tuple(big)) == want, n
        assert factorize(n, known=shared + [0, True, -n]) == want, (n, shared)
    assert factorize(1, known=[65537]) == {}
    with pytest.raises(FactorizationCapacityExceeded):
        factorize(3 * above, known=[above, 3])

    # composite hints split a cofactor by gcd, and rho never runs: a product
    # of two primes near 10^20 and 10^22, then one with a third prime and a
    # square, split by hints above the deterministic bound that share one of
    # its primes; 0, True and the sign of a hint change nothing
    def no_rho(*args):
        raise AssertionError("rho ran")
    monkeypatch.setattr(primes, "_brent_rho", no_rho)
    p, q, r, s = 10**20 + 39, 10**22 + 9, 10**21 + 117, 10**9 + 7
    assert p * r > MR_DETERMINISTIC_BOUND
    assert factorize(p * q, known=[p * r]) == {p: 1, q: 1}
    assert factorize(p * q, known=[0, True, q * q, -q * r]) == {p: 1, q: 1}
    assert factorize(p * q * r * s**2, known=[q * r * s, p * r, s * above]) \
        == {s: 2, p: 1, q: 1, r: 1}
    assert factorize(5 * p**2 * q**3, known=[-(p * r)]) == {5: 1, p: 2, q: 3}
    with pytest.raises(AssertionError, match="rho ran"):
        factorize(p * q, known=[p * q, 0, True, -p * q])


def test_known_hints_spare_a_split_beyond_the_bounds():
    # p * q is above the deterministic bound and its least factor is far past
    # rho's cycle limit; with p named, the cofactor q is certified directly
    p, q = 10**20 + 39, 10**22 + 9
    with pytest.raises(FactorizationCapacityExceeded, match="rho"):
        factorize(p * q)
    assert factorize(p * q, known=[p]) == {p: 1, q: 1}
    assert factorize(5 * p**2 * q, known=[q, p]) == {5: 1, p: 2, q: 1}
    # a hint that the cofactor divides gives no proper split, so it cannot
    # stand in for its primes
    with pytest.raises(FactorizationCapacityExceeded, match="rho"):
        factorize(p * q, known=[p * q])
