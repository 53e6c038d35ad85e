"""The sieve walk on a seeded grid: a frozen record of scan's output, and
the walk checked against prime_range and the plain residue test.

Every k in K_GRID is scanned over ranges from lo = 1, 2 and 3 that end on
or next to the edges of the 2^17-number segments the sieve walks, over a
window above 2^22 one segment wide, and over one-number, empty and small
ranges, with signed and fractional elements.  Three decide documents carry
evidence to 5 * 10^5, so their scans cross segment edges too.  The record
is joined in order and hashed: a change to the sieve that is meant to leave
its output alone must leave SCAN_SHA256 alone.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from locus import primes, sieve
from locus.classify import decide
from locus.errors import RangeTooLarge
from locus.primes import PRIME_RANGE_CEILING, prime_range
from locus.sieve import (default_exclusions, find_counterexample,
                         is_kth_power_mod_p, scan)

K_GRID = (2, 3, 4, 5, 6, 9, 12, 15, 105)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
SEGMENT = 1 << 17

SCAN_SHA256 = "727548d2f6e783b254a4089bf58ddd29458b9340be6338f511efbd54bb453ba3"

EVIDENCE_CASES = ((["5", "7"], 3), (["-2", "3/5"], 5), (["2", "3", "6", "12"], 3))


def _elements(rng: random.Random) -> list[str]:
    out = []
    for _ in range(rng.randint(1, 4)):
        num = rng.choice((1, -1))
        den = 1
        for p in rng.sample(PRIMES, rng.randint(1, 2)):
            if rng.random() < 0.3:
                den *= p ** rng.randint(1, 3)
            else:
                num *= p ** rng.randint(1, 4)
        out.append(str(Fraction(num, den)))
    return out


def _ranges(rng: random.Random):
    """Ranges from lo = 1, 2, 3 ending one or two segments on, within two
    of an edge; a one-segment window above 2^22; one-number, empty and
    small ranges."""
    for lo in (1, 2, 3):
        yield lo, (lo | 1) + rng.choice((1, 2)) * SEGMENT - 1 + rng.randint(-2, 2)
    lo = (1 << 22) + rng.randrange(1000)
    yield lo, lo + SEGMENT + rng.randint(-2, 2)
    p = rng.choice((3, 5, 7, 97, 131071, 131101))
    yield from [(p, p), (p + 1, p + 1), (1, 1), (2, 2), (24, 28), (0, 1)]
    lo = rng.randint(1, 3000)
    yield lo, lo + rng.randint(0, 3000)


def _grid():
    rng = random.Random(20261019)
    for k in K_GRID:
        for lo, hi in _ranges(rng):
            yield _elements(rng), k, lo, hi


def _records():
    for elements, k, lo, hi in _grid():
        yield json.dumps(scan(elements, k, lo, hi).to_json())
    for elements, n in EVIDENCE_CASES:
        verdict = decide(elements, n, attach_evidence=True, evidence_hi=5 * 10**5)
        yield json.dumps(verdict.to_json(n, elements))


def test_scan_output_is_frozen():
    digest = hashlib.sha256("\n".join(_records()).encode()).hexdigest()
    assert digest == SCAN_SHA256


def test_scan_tests_the_primes_that_can_fail(monkeypatch):
    # the kernel is fed exactly the non-excluded primes p of [lo, hi] with
    # gcd(k, p - 1) > 1, and the count is every non-excluded prime
    fed = []

    def failing(xs, k, ps):
        ps = list(ps)
        fed.append(ps)
        return kernel(xs, k, ps)
    kernel = sieve._failing
    monkeypatch.setattr(sieve, "_failing", failing)
    for elements, k, lo, hi in _grid():
        excl = default_exclusions(elements, k)
        tested = [p for p in prime_range(lo, hi) if p not in excl]
        fed.clear()
        report = scan(elements, k, lo, hi)
        assert fed == [[p for p in tested if math.gcd(k, p - 1) > 1]], (elements, k, lo, hi)
        assert report.tested_count == len(tested), (elements, k, lo, hi)


def test_find_counterexample_at_the_doubling_edges():
    # the search walks [2, 128], (128, 256], ...; at and around each edge it
    # finds the least prime that fails by the per-element reference test
    edges = [1 << j for j in range(7, 14)]
    top = edges[-1] + 1
    rng = random.Random(20261019)
    for k in K_GRID:
        for _ in range(3):
            elements = _elements(rng)
            excl = default_exclusions(elements, k)
            failing = [p for p in prime_range(2, top) if p not in excl
                       and not any(is_kth_power_mod_p(x, k, p) for x in elements)]
            for bound in [2, 3] + [e + d for e in edges for d in (-1, 0, 1)]:
                least = next((p for p in failing if p <= bound), None)
                assert find_counterexample(elements, k, bound) == least, (elements, k, bound)


def test_guards_fire_before_any_sieving(monkeypatch):
    def no_flags(*args):
        raise AssertionError("flags allocated for a refused range")
    monkeypatch.setattr(primes, "_odd_flags", no_flags)
    with pytest.raises(RangeTooLarge):
        scan(["2", "3"], 3, 2, PRIME_RANGE_CEILING + 1)
    with pytest.raises(RangeTooLarge):
        scan(["2", "3"], 3, PRIME_RANGE_CEILING, 10**18)
    with pytest.raises(ValueError):
        scan(["2", "3"], 3, 10**8, 10**8 - 1)
    with pytest.raises(ValueError):
        scan(["2", "3"], 3, 10**18, 2)


def test_an_exponent_is_factored_once(monkeypatch):
    # default_exclusions and the walk's strides take the primes of k from
    # primes.prime_factors, which factors each k once per process
    assert [primes.prime_factors(k) for k in (1, 12, 105, 2**10, 97)] == \
        [(), (2, 3), (3, 5, 7), (2,), (97,)]
    elements = ["-2", "3/5", "22"]
    before = {k: (default_exclusions(elements, k), scan(elements, k, 2, 300))
              for k in K_GRID}

    def factorize(n, **kwargs):
        calls.append(n)
        return kernel(n, **kwargs)
    calls, kernel = [], primes.factorize
    monkeypatch.setattr(primes, "factorize", factorize)
    for k in K_GRID:
        assert default_exclusions(elements, k) == before[k][0] == \
            {2, 3, 5, 11, *primes.prime_factors(k)}
        assert scan(elements, k, 2, 300) == before[k][1]
        least = next(iter(before[k][1].failing_primes), None)
        assert find_counterexample(elements, k, 300) == least
    assert not calls
