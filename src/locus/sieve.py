"""Empirical residue sieve over prime ranges.

Turns "almost every prime" claims into checkable finite evidence: a prime p
is a failure for (A, k) when no element of A is a k-th power residue mod p.
Scans always exclude 2, primes dividing k, and primes dividing any support;
finitely many exclusions are harmless for almost-every claims and dodge the
Hensel edge cases.

Kernel (Euler's criterion): with d = gcd(k, p-1), a unit r mod p is a k-th
power exactly when r^((p-1)/d) = 1.  Each element is prepared once as its
signed numerator and denominator; per prime, d = 1 makes every residue a
k-th power, and otherwise num/den passes when num^e = den^e mod p with
e = (p-1)/d, so the cost per prime does not grow with k.  scan,
find_counterexample and the claim check (first_non_failing, which the
verifier calls) all run this one kernel, the library's only residue test.

Only a prime with gcd(k, p-1) > 1 can fail (_strides): every odd prime
for even k, for odd k those = 1 mod 2r for a prime r | k, half the primes
at k = 3.  scan and find_counterexample take just those from one
primes.prime_walk, and scan counts the rest without making them ints.
find_counterexample walks segments that double from [2, 128] and stops at
the first failing prime, which is usually small.  Neither sieves a range
that ends within primes.TABLE_CAP: its flags are a slice of the process's
prime table (primes.prime_walk).  scan returns a SieveReport, an immutable
typing.NamedTuple record.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .primes import first_nonprime, prime_factors, prime_walk
from .rationals import FactoredRational, factor_set

# the primes up to which a failing verdict searches its counterexample prime
COUNTEREXAMPLE_BOUND = 10**4


class SieveReport(NamedTuple):
    elements: tuple[str, ...]
    k: int
    lo: int
    hi: int
    excluded: frozenset[int]
    failing_primes: tuple[int, ...]
    tested_count: int

    @property
    def failing_density(self) -> Fraction:
        return Fraction(len(self.failing_primes), self.tested_count or 1)

    def to_json(self) -> dict:
        d = self.failing_density
        return {
            "params": {
                "elements": list(self.elements),
                "k": self.k,
                "lo": self.lo,
                "hi": self.hi,
                "excluded": sorted(self.excluded),
            },
            "failing_primes": list(self.failing_primes),
            "tested_count": self.tested_count,
            "failing_density": f"{d.numerator}/{d.denominator}",
        }


def default_exclusions(elements, k: int) -> frozenset[int]:
    """The excluded primes of every verdict and scan: {2}, the primes
    dividing k and all support primes.  The one check of k >= 1 for scan,
    find_counterexample and first_non_failing, before any prime is walked."""
    if k < 1:
        raise ValueError("power degree must be >= 1")
    out = {p for x in factor_set(elements) for p, _ in x.factors}
    return frozenset(out.union((2,), prime_factors(k)))


def _failing(xs: list[FactoredRational], k: int, primes):
    """The primes, in order, at which no element is a k-th power residue."""
    pairs = [(x.numerator, x.denominator) for x in xs]
    for p in primes:
        d = math.gcd(k, p - 1)
        if d == 1:
            continue
        e = (p - 1) // d
        for num, den in pairs:
            if pow(num, e, p) == (1 if den == 1 else pow(den, e, p)):
                break
        else:
            yield p


def _strides(k: int) -> tuple[int, ...]:
    """The strides of prime_walk that give the odd primes p with
    gcd(k, p - 1) > 1; at any other prime every unit is a k-th power."""
    return (1,) if k % 2 == 0 else prime_factors(k)


def scan(elements, k: int, lo: int, hi: int) -> SieveReport:
    """Test every non-excluded prime in [lo, hi]; deterministic for fixed
    input.  The exclusions are primes, 2 among them, so the primes tested
    are the walk's odd primes less the odd exclusions in [lo, hi]."""
    if lo > hi:
        raise ValueError("scan range is empty the wrong way round")
    xs = factor_set(elements)
    excl = default_exclusions(xs, k)
    count, candidates = prime_walk(lo, hi, _strides(k))
    return SieveReport(
        elements=tuple(str(x) for x in xs),
        k=k,
        lo=lo,
        hi=hi,
        excluded=excl,
        failing_primes=tuple(_failing(xs, k, (p for p in candidates if p not in excl))),
        tested_count=count - sum(1 for q in excl if q % 2 and lo <= q <= hi),
    )


def find_counterexample(elements, k: int, bound: int):
    """Least non-excluded prime <= bound where no element is a k-th residue.

    The primes that can fail are walked one prime_walk per segment of
    [2, 128], (128, 256], ..., so only the segments reached become ints;
    each goes to the kernel as a list, and most searches end in the first."""
    xs = factor_set(elements)
    excl, strides, lo, hi = default_exclusions(xs, k), _strides(k), 2, 128
    while lo <= bound:
        segment = prime_walk(lo, min(hi, bound), strides)[1]
        if (p := next(_failing(xs, k, _tested(excl, segment)), None)) is not None:
            return p
        lo, hi = hi + 1, 2 * hi
    return None


def _tested(excl: frozenset[int], primes):
    """The primes of a sequence from 3 up that excl (default_exclusions) leaves in."""
    return (p for p in primes if p >= 3 and p not in excl)


def first_non_failing(elements, k: int, primes):
    """The first of a sequence of claimed failing primes that is not a prime
    at which the set fails, or None when all of them are.

    A claim is void when it is not prime (primes.first_nonprime: composite,
    0, 1 and negatives), and at 2 and any other excluded prime
    (default_exclusions).  The elements are factored and prepared once for
    the batch.
    """
    xs = factor_set(elements)
    failing = set(_failing(xs, k, _tested(default_exclusions(xs, k), primes)))
    nonprime = first_nonprime(primes)
    return next((p for p in primes if p == nonprime or p not in failing), None)


def verify_failing_prime(elements, k: int, p: int) -> bool:
    """Re-check one claimed failing prime."""
    return first_non_failing(elements, k, (p,)) is None
