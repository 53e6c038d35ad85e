from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locus.sieve
from locus import primes
from locus.primes import TABLE_CAP, is_prime, prime_range, sieve_upto
from locus.rationals import factor
from locus.sieve import (default_exclusions, find_counterexample, first_non_failing,
                         scan, verify_failing_prime)

from galois_reference import euler_member

ODD_PRIMES = [p for p in sieve_upto(200) if p > 2]
K_GRID = (1, 2, 3, 4, 6, 9, 12)


def brute_residues(p, k):
    return {pow(x, k, p) for x in range(1, p)}


def brute_member(a: Fraction, k, p):
    r = a.numerator * pow(a.denominator, -1, p) % p
    return r in brute_residues(p, k)


def _claimable(values, k, p):
    """A claim the kernel does not void: p divides neither k nor any value.
    Brute force may call a voided claim failing (p = 3, k = 12)."""
    return k % p and all(v.numerator % p and v.denominator % p for v in values)


def test_examples():
    assert verify_failing_prime([2], 3, 7)          # cubes mod 7 = {1, 6}
    assert not verify_failing_prime([16], 8, 17)    # 16^2 = 256 = 1 mod 17
    assert not verify_failing_prime([1], 5, 11)
    assert not verify_failing_prime([6], 3, 7)


def test_agreement_with_bruteforce():
    for a in range(-50, 51):
        if a == 0:
            continue
        for k in K_GRID:
            claims = [p for p in ODD_PRIMES if _claimable([Fraction(a)], k, p)]
            failing = [p for p in claims if not brute_member(Fraction(a), k, p)]
            assert first_non_failing([a], k, failing) is None, (a, k)
            for p in claims:
                assert verify_failing_prime([a], k, p) == (p in failing), (a, k, p)


def test_rational_elements():
    # 1/2 mod 7 = 4, and 4 is a cube mod 7? cubes = {1,6} -> no
    assert verify_failing_prime([Fraction(1, 2)], 3, 7)
    assert brute_member(Fraction(1, 2), 3, 7) is False
    for k in K_GRID:
        for p in ODD_PRIMES:
            if _claimable([Fraction(1, 2)], k, p):
                assert verify_failing_prime(["1/2"], k, p) == \
                    (not brute_member(Fraction(1, 2), k, p)), (k, p)


def test_set_level():
    assert not verify_failing_prime([2, 3, 6, 18], 3, 7)
    assert verify_failing_prime([2, 3, 12], 3, 7)
    assert not verify_failing_prime([-27, 4], 6, 13)  # -27 = 12 mod 13, a 6th power
    for values in ([2, 3, 6, 18], [2, 3, 12], [-27, 4], [Fraction(1, 2), 5, -7]):
        fs = [Fraction(v) for v in values]
        for k in K_GRID:
            claims = [p for p in ODD_PRIMES if _claimable(fs, k, p)]
            failing = [p for p in claims
                       if not any(brute_member(v, k, p) for v in fs)]
            passing = [p for p in claims if p not in failing]
            assert first_non_failing(values, k, failing) is None, (values, k)
            assert first_non_failing(values, k, claims) == next(iter(passing), None)


def test_scan_examples():
    rep = scan([16], 8, 3, 10**4)
    assert rep.failing_primes == ()

    rep = scan([2, 3, 12], 3, 5, 100)
    assert 7 in rep.failing_primes
    assert rep.failing_primes == (7, 37)

    rep = scan([5], 1, 3, 50)
    assert rep.failing_primes == ()


def test_scan_counts_and_density():
    rep = scan([2, 3, 12], 3, 5, 100)
    primes = [p for p in sieve_upto(100) if p >= 5 and p not in (2, 3)]
    assert rep.tested_count == len(primes)
    assert rep.failing_density == Fraction(2, len(primes))
    assert rep.to_json()["failing_density"] == f"2/{len(primes)}"


def test_scan_auto_exclusions():
    rep = scan([9, -4], 4, 2, 200)
    # 2 (always, and k), 3 (support of 9) are excluded automatically
    assert {2, 3} <= rep.excluded
    assert all(p not in rep.excluded for p in rep.failing_primes)


def test_scan_partition_invariance():
    whole = scan([2, 3, 12], 3, 5, 500)
    pieces = [scan([2, 3, 12], 3, lo, hi)
              for lo, hi in [(5, 99), (100, 311), (312, 500)]]
    merged = tuple(sorted(p for rep in pieces for p in rep.failing_primes))
    assert merged == whole.failing_primes
    assert sum(r.tested_count for r in pieces) == whole.tested_count


def test_monotonicity_under_superset():
    base = scan([2, 3], 3, 5, 500).failing_primes
    bigger = scan([2, 3, 12], 3, 5, 500).failing_primes
    assert set(bigger) <= set(base)


def test_find_counterexample():
    assert find_counterexample([2, 3, 12], 3, 100) == 7
    assert find_counterexample([2, 4, 8], 9, 100) == 19
    assert find_counterexample([1], 5, 100) is None
    assert find_counterexample([16], 8, 10**4) is None


def test_counterexample_walk_across_segment_edges():
    # the walk sieves [2, 128], (128, 256], ... lazily; at every bound on or
    # next to an edge it finds the first failing prime of a full scan
    sets = [([2, 3, 12], 3), ([2], 5), ([-3], 4), ([7, 11], 7), ([5], 64),
            ([17, 42], 7), ([2], 257), ([3], 23), ([1], 5)]
    for elements, k in sets:
        assert find_counterexample(elements, k, 1) is None
        for bound in (2, 127, 128, 129, 256, 257, 10**4):
            first = next(iter(scan(elements, k, 2, bound).failing_primes), None)
            assert find_counterexample(elements, k, bound) == first, (elements, k, bound)
    # least failing primes at the first edge and past the first segments
    assert find_counterexample([17, 42], 7, 10**4) == 127
    assert find_counterexample([17, 42], 7, 126) is None
    assert find_counterexample([2], 257, 10**4) == 1543
    assert find_counterexample([2], 257, 1542) is None


def test_counterexample_walk_reads_the_prime_table(monkeypatch):
    # 10007 is the least prime = 1 mod 2 * 5003, and 2 is no 5003rd power
    # there; [16] at 8 has no failing prime at all, so its walk runs to the
    # bound.  Once the table holds the range, no walk or scan below the cap
    # sieves again, and a walk past the cap grows the table to the cap alone
    sieved = []
    real = primes._odd_flags
    monkeypatch.setattr(primes, "_odd_flags",
                        lambda lo, hi, base: sieved.append(lo) or real(lo, hi, base))
    below = 10**6
    for elements, k, prime in (([2], 5003, 10007), ([16], 8, None)):
        assert find_counterexample(elements, k, below) == prime
        report = scan(elements, k, below - 5000, below)
        sieved.clear()
        assert find_counterexample(elements, k, below) == prime
        assert scan(elements, k, below - 5000, below) == report
        assert not sieved
    for hi in (TABLE_CAP + 1, 1 << 21, 1 << 23):
        count, _ = primes.prime_walk(hi - 1000, hi, (1,))
        assert sieved and min(sieved) > TABLE_CAP - (1 << 17)
        assert primes._TABLE[0] == TABLE_CAP and count == len(prime_range(hi - 1000, hi))


def test_verify_failing_prime():
    assert verify_failing_prime([2, 3, 12], 3, 7)
    assert not verify_failing_prime([2, 3, 12], 3, 11)
    assert not verify_failing_prime([2, 3, 12], 3, 2)
    assert not verify_failing_prime([2, 3, 12], 3, 3)  # divides support and k
    assert not verify_failing_prime([2], 12, 3)  # divides k; brute force calls it failing


def test_a_claim_that_is_not_prime_never_fails():
    # 2 is no cube mod 25 (gcd(3, 24) = 3 and 2^8 = 6 mod 25), and 9 divides
    # no exclusion at k = 18, so only the primality check voids these claims
    assert not verify_failing_prime([2], 3, 25)
    assert not verify_failing_prime(["2"], 18, 9)
    assert first_non_failing([2], 3, [7, 25, 13]) == 25


def test_first_non_failing():
    assert first_non_failing([2, 3, 12], 3, [7, 37]) is None
    assert first_non_failing([2, 3, 12], 3, [7, 11, 13, 37]) == 11
    assert first_non_failing(["2", "3", "12"], 3, []) is None
    # void claims: below 3, dividing k, dividing a support
    for p in (-5, 0, 1, 2, 3):
        assert first_non_failing([5, 7], 3, [p]) == p
    assert first_non_failing([2, 3, 12], 3, [7, 37, 2]) == 2
    assert first_non_failing([2, 3, 12], 3, [11, 2]) == 11
    with pytest.raises(ValueError):
        first_non_failing([2], 0, [7])


def test_every_driver_checks_the_power_degree_before_walking(monkeypatch):
    # k < 1 is one ValueError from scan, find_counterexample and
    # first_non_failing (and default_exclusions, where it is checked),
    # raised before any prime is walked
    def no_walk(*args):
        raise AssertionError("a prime was walked")
    monkeypatch.setattr(locus.sieve, "prime_walk", no_walk)
    for k in (0, -3):
        for call in (lambda: scan(["2"], k, 2, 50),
                     lambda: find_counterexample(["2"], k, 100),
                     lambda: first_non_failing(["2"], k, [7]),
                     lambda: verify_failing_prime(["2"], k, 7),
                     lambda: default_exclusions(["2"], k)):
            with pytest.raises(ValueError, match=r"^power degree must be >= 1$"):
                call()


SIGNED_RATIONALS = st.fractions(min_value=-10**4, max_value=10**4,
                                max_denominator=60).filter(lambda f: f != 0)
# ranges below 3000, and one window just above the segmented sieve's 2^22
RANGES = st.one_of(
    st.lists(st.integers(2, 3000), min_size=2, max_size=2).map(sorted),
    st.just([(1 << 22) - 200, (1 << 22) + 2000]))


@given(st.lists(SIGNED_RATIONALS, min_size=1, max_size=4),
       st.one_of(st.integers(1, 24), st.sampled_from([10**5, 10**6])), RANGES)
@settings(max_examples=200, deadline=1000)
def test_kernel_matches_plain_loop(values, k, bounds):
    # a cost growing with k (say, a precomputed num * den^(k-1)) shows as a
    # missed deadline at k = 10^5 and 10^6
    lo, hi = bounds
    texts = [str(v) for v in values]
    xs = [factor(v) for v in values]
    start = 2 if hi <= 3000 else lo
    tested = [p for p in range(start, hi + 1) if is_prime(p) and p != 2
              and k % p and all(x.exponent(p) == 0 for x in xs)]
    failing = [p for p in tested if not any(euler_member(v, k, p) for v in values)]

    rep = scan(texts, k, lo, hi)
    assert rep.failing_primes == tuple(p for p in failing if p >= lo)
    assert rep.tested_count == sum(p >= lo for p in tested)
    if hi <= 3000:
        assert find_counterexample(texts, k, hi) == next(iter(failing), None)
    assert first_non_failing(texts, k, failing) is None
    passing = [p for p in tested if p not in failing]
    if passing:
        claim = sorted(failing + passing[-1:])
        assert first_non_failing(texts, k, claim) == passing[-1]
        assert not verify_failing_prime(texts, k, passing[-1])
    if failing:
        assert verify_failing_prime(texts, k, failing[0])
