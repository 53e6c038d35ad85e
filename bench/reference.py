"""Answer checks computed apart from locus.

Nothing here imports the engine.  The arithmetic is deliberately plain:
trial division for small numbers, a deterministic Miller-Rabin test, an
Eratosthenes sieve, the Euler residue test pow(a, (p-1)/gcd(n, p-1), p)
and brute force over subsets or over F_q^s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.3e24 (first 13 prime bases)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin bound")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_flags(hi: int) -> bytearray:
    """flags[i] == 1 iff i is prime, for 0 <= i <= hi."""
    flags = bytearray([1]) * (hi + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(hi) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, hi + 1, i)))
    return flags


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by sieving the segment with primes up to sqrt(hi)."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = math.isqrt(hi)
    small = [p for p, f in enumerate(prime_flags(root)) if f]
    seg = bytearray([1]) * (hi - lo + 1)
    for p in small:
        first = max(p * p, -(-lo // p) * p)
        seg[first - lo :: p] = bytes(len(range(first, hi + 1, p)))
    return [lo + i for i, f in enumerate(seg) if f]


def small_factor(n: int) -> dict[int, int]:
    """Trial division; only for the benchmark's small generated numbers."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class Element:
    """A nonzero rational with its factorization known to the benchmark."""

    __slots__ = ("sign", "powers", "value")

    def __init__(self, sign: int, powers: dict[int, int]):
        self.sign = sign
        self.powers = {p: e for p, e in powers.items() if e}
        v = Fraction(sign)
        for p, e in self.powers.items():
            v *= Fraction(p) ** e
        self.value = v

    @classmethod
    def of(cls, x) -> "Element":
        """From a small integer or Fraction, factored by trial division."""
        x = Fraction(x)
        powers = dict(small_factor(abs(x.numerator)))
        for p, e in small_factor(x.denominator).items():
            powers[p] = powers.get(p, 0) - e
        return cls(1 if x > 0 else -1, powers)

    def __mul__(self, other: "Element") -> "Element":
        powers = dict(self.powers)
        for p, e in other.powers.items():
            powers[p] = powers.get(p, 0) + e
        return Element(self.sign * other.sign, powers)

    def __pow__(self, k: int) -> "Element":
        return Element(self.sign if k % 2 else 1,
                       {p: e * k for p, e in self.powers.items()})

    def text(self) -> str:
        v = self.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    def is_power(self, n: int) -> bool:
        if n % 2 == 0 and self.sign < 0:
            return False
        return all(e % n == 0 for e in self.powers.values())


def excluded_primes(elements, n: int) -> set[int]:
    out = {2} | set(small_factor(n))
    for x in elements:
        out.update(x.powers)
    return out


def residue_ok(x: Element, n: int, p: int) -> bool:
    """x is an n-th power residue mod p (p odd, coprime to x)."""
    r = x.sign % p
    for q, e in x.powers.items():
        r = r * pow(q, e % (p - 1), p) % p
    return pow(r, (p - 1) // math.gcd(n, p - 1), p) == 1


def prime_fails(elements, n: int, p: int) -> bool:
    """No element is an n-th power residue mod p."""
    return not any(residue_ok(x, n, p) for x in elements)


def first_failing_prime(elements, n: int, primes, excluded) -> int | None:
    for p in primes:
        if p not in excluded and prime_fails(elements, n, p):
            return p
    return None


def odd_square_subset(elements) -> bool:
    """Brute force: some odd-size subset has a perfect-square product."""
    keys = []
    for x in elements:
        keys.append((x.sign < 0, frozenset(p for p, e in x.powers.items() if e % 2)))
    for size in range(1, len(keys) + 1, 2):
        for pick in combinations(keys, size):
            neg = sum(k[0] for k in pick) % 2
            odd: set = set()
            for _, ps in pick:
                odd ^= ps
            if not neg and not odd:
                return True
    return False


def forms_cover(elements, q: int) -> bool:
    """Brute force over F_q^s: every point is a zero of some element's form."""
    support = sorted({p for x in elements for p in x.powers})
    forms = [tuple(x.powers.get(p, 0) % q for p in support) for x in elements]
    if any(not any(f) for f in forms):
        return True  # a trivial class is a perfect q-th power
    for point in product(range(q), repeat=len(support)):
        if not any(sum(c * v for c, v in zip(f, point)) % q == 0 for f in forms):
            return False
    return True


def fully_factored(value: Fraction, primes) -> bool:
    """value is +-(product of powers of the given primes)."""
    num, den = abs(value.numerator), value.denominator
    for p in primes:
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
    return num == 1 and den == 1
