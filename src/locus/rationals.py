"""Exact arithmetic on factored nonzero rationals.

A FactoredRational is a sign together with an ascending list of
(prime, exponent) pairs, exponents nonzero (negative for denominator
primes).  All operations are pure; instances are immutable and safe to
share between workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import ParseError, UnitInput, ZeroInput
from .primes import factorize, is_prime

RationalLike = Union[int, str, Fraction, "FactoredRational"]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


@dataclass(frozen=True)
class FactoredRational:
    """sign * prod(p^e); empty factor list is +1 or -1."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("factor primes must be strictly increasing")
            if e == 0:
                raise ValueError("zero exponents are not stored")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "FactoredRational":
        return cls(1, ())

    @classmethod
    def minus_one(cls) -> "FactoredRational":
        return cls(-1, ())

    @classmethod
    def from_prime_powers(cls, sign: int, powers: dict[int, int]) -> "FactoredRational":
        items = tuple(sorted((p, e) for p, e in powers.items() if e != 0))
        return cls(sign, items)

    # -- views -------------------------------------------------------------

    def value(self) -> Fraction:
        out = Fraction(self.sign)
        for p, e in self.factors:
            out *= Fraction(p) ** e
        return out

    @property
    def numerator(self) -> int:
        n = self.sign
        for p, e in self.factors:
            if e > 0:
                n *= p**e
        return n

    @property
    def denominator(self) -> int:
        d = 1
        for p, e in self.factors:
            if e < 0:
                d *= p**-e
        return d

    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def is_one(self) -> bool:
        return self.sign == 1 and not self.factors

    def is_unit(self) -> bool:
        return not self.factors

    def is_integral(self) -> bool:
        return all(e > 0 for _, e in self.factors)

    def __str__(self) -> str:
        n, d = self.numerator, self.denominator
        return str(n) if d == 1 else f"{n}/{d}"

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        merged = dict(self.factors)
        for p, e in other.factors:
            merged[p] = merged.get(p, 0) + e
        return FactoredRational.from_prime_powers(self.sign * other.sign, merged)

    def __truediv__(self, other: "FactoredRational") -> "FactoredRational":
        return self * other.inverse()

    def inverse(self) -> "FactoredRational":
        return FactoredRational(self.sign, tuple((p, -e) for p, e in self.factors))

    def __pow__(self, k: int) -> "FactoredRational":
        if k == 0:
            return FactoredRational.one()
        sign = self.sign if k % 2 else 1
        return FactoredRational(sign, tuple((p, e * k) for p, e in self.factors))

    def nth_root(self, k: int) -> "FactoredRational | None":
        """Canonical k-th root, or None when no rational root exists.

        Even k returns the positive root; odd k preserves sign.
        """
        if k < 1:
            raise ValueError("root degree must be >= 1")
        if k % 2 == 0 and self.sign == -1:
            return None
        if any(e % k for _, e in self.factors):
            return None
        sign = self.sign if k % 2 else 1
        return FactoredRational(sign, tuple((p, e // k) for p, e in self.factors))

    def residue_mod(self, p: int) -> int:
        """Value mod p in [0, p-1]; p must not divide the denominator."""
        r = self.sign % p
        for q, e in self.factors:
            r = r * pow(q, e, p) % p
        return r


@dataclass(frozen=True)
class PowerClass:
    """Representative of a rational in Q^x / (Q^x)^k.

    The rep has all exponents in [0, k); for odd k the sign is +1 because
    -1 is itself a k-th power.
    """

    modulus: int
    rep: FactoredRational


def parse_rational(text: str) -> Fraction:
    """Strict syntax: optional sign, integer or num/den, base 10 only."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ParseError(f"not a rational literal: {text!r}")
    value = Fraction(s)
    if value == 0:
        raise ZeroInput("zero is not a valid element")
    return value


def factor(x: RationalLike) -> FactoredRational:
    """Factor a nonzero rational into sign * prod(p^e)."""
    if isinstance(x, FactoredRational):
        return x
    if isinstance(x, str):
        x = parse_rational(x)
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("cannot factor zero")
    sign = 1 if x > 0 else -1
    powers = {p: e for p, e in factorize(abs(x.numerator)).items()}
    for p, e in factorize(x.denominator).items():
        powers[p] = powers.get(p, 0) - e
    return FactoredRational.from_prime_powers(sign, powers)


def clear_denominators(elements: Iterable[RationalLike], n: int) -> list[FactoredRational]:
    """Multiply every element by (product of all denominators)^n.

    The result is integral and each output sits in the same class of
    Q^x/(Q^x)^n as its input.
    """
    xs = [factor(x) for x in elements]
    scale: dict[int, int] = {}
    for x in xs:
        for p, e in x.factors:
            if e < 0:
                scale[p] = scale.get(p, 0) - e
    bump = FactoredRational.from_prime_powers(1, {p: e * n for p, e in scale.items()})
    out = [x * bump for x in xs]
    assert all(y.is_integral() for y in out)
    return out


def is_perfect_power(x: RationalLike, k: int) -> bool:
    """True iff x = r^k for some rational r.

    Every exponent must be divisible by k, and even k additionally needs a
    positive sign.  k = 1 is trivially true.
    """
    if k < 1:
        raise ValueError("power degree must be >= 1")
    fx = factor(x)
    if k % 2 == 0 and fx.sign == -1:
        return False
    return all(e % k == 0 for _, e in fx.factors)


def reduce_class(x: RationalLike, k: int) -> PowerClass:
    """Representative of x in Q^x/(Q^x)^k with exponents in [0, k)."""
    if k < 2:
        raise ValueError("class modulus must be >= 2")
    fx = factor(x)
    sign = 1 if k % 2 else fx.sign
    rep = FactoredRational.from_prime_powers(sign, {p: e % k for p, e in fx.factors})
    return PowerClass(k, rep)


def dedupe(xs: Iterable[RationalLike], k: int) -> list[FactoredRational]:
    """The first element of each class mod (Q^x)^k, in input order."""
    seen = set()
    out = []
    for x in xs:
        fx = factor(x)
        rep = reduce_class(fx, k).rep
        if rep not in seen:
            seen.add(rep)
            out.append(fx)
    return out


def strip_power_layers(x: RationalLike, q: int) -> tuple[FactoredRational, int]:
    """Maximal mu with x = base^(q^mu) and base not a perfect q-th power."""
    fx = factor(x)
    if fx.is_unit():
        raise UnitInput("power layers of +1/-1 are unbounded")
    mu = 0
    while is_perfect_power(fx, q):
        fx = fx.nth_root(q)
        mu += 1
    return fx, mu
