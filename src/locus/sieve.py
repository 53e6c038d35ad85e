"""Empirical residue sieve over prime ranges.

Turns "almost every prime" claims into checkable finite evidence: a prime p
is a failure for (A, k) when no element of A is a k-th power residue mod p.
Scans always exclude 2, primes dividing k, and primes dividing any support;
finitely many exclusions are harmless for almost-every claims and dodge the
Hensel edge cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadPrime
from .primes import factorize, prime_range
from .rationals import RationalLike, factor


@dataclass(frozen=True)
class SieveReport:
    elements: tuple[str, ...]
    k: int
    lo: int
    hi: int
    excluded: frozenset[int]
    failing_primes: tuple[int, ...]
    tested_count: int

    @property
    def failing_density(self) -> Fraction:
        if self.tested_count == 0:
            return Fraction(0)
        return Fraction(len(self.failing_primes), self.tested_count)

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


def is_kth_power_mod_p(a: RationalLike, k: int, p: int) -> bool:
    """Euler test: a^((p-1)/d) == 1 mod p with d = gcd(k, p-1).

    p must be odd and coprime to a's support.
    """
    fa = factor(a)
    if p == 2:
        raise BadPrime("p = 2 is excluded from residue tests")
    if p in fa.support():
        raise BadPrime(f"{p} divides the support of {fa}")
    if k < 1:
        raise ValueError("power degree must be >= 1")
    r = fa.residue_mod(p)
    d = math.gcd(k, p - 1)
    return pow(r, (p - 1) // d, p) == 1


def set_has_kth_power_mod_p(elements, k: int, p: int) -> bool:
    return any(is_kth_power_mod_p(a, k, p) for a in elements)


def default_exclusions(elements, k: int) -> frozenset[int]:
    """The excluded primes of every verdict and scan: {2}, the primes
    dividing k and all support primes."""
    out = {2}
    out.update(factorize(k))
    for a in elements:
        out.update(factor(a).support())
    return frozenset(out)


def scan(elements, k: int, lo: int, hi: int, excluded=frozenset()) -> SieveReport:
    """Test every non-excluded prime in [lo, hi]; deterministic for fixed input."""
    if lo > hi:
        raise ValueError("scan range is empty the wrong way round")
    xs = [factor(a) for a in elements]
    excl = frozenset(excluded) | default_exclusions(xs, k)
    failing = []
    tested = 0
    for p in prime_range(lo, hi):
        if p in excl:
            continue
        tested += 1
        if not set_has_kth_power_mod_p(xs, k, p):
            failing.append(p)
    return SieveReport(
        elements=tuple(str(x) for x in xs),
        k=k,
        lo=lo,
        hi=hi,
        excluded=excl,
        failing_primes=tuple(failing),
        tested_count=tested,
    )


def find_counterexample(elements, k: int, bound: int, excluded=frozenset()):
    """Least non-excluded prime <= bound where no element is a k-th residue."""
    xs = [factor(a) for a in elements]
    excl = frozenset(excluded) | default_exclusions(xs, k)
    for p in prime_range(2, bound):
        if p in excl:
            continue
        if not set_has_kth_power_mod_p(xs, k, p):
            return p
    return None


def verify_failing_prime(elements, k: int, p: int) -> bool:
    """Re-check one claimed failing prime."""
    xs = [factor(a) for a in elements]
    if p == 2 or any(p in x.support() for x in xs) or k % p == 0:
        return False
    return not set_has_kth_power_mod_p(xs, k, p)
