"""Exact arithmetic on factored nonzero rationals.

A FactoredRational is a sign together with an ascending list of
(prime, exponent) pairs, exponents nonzero (negative for denominator
primes).  All operations are pure; instances are immutable (slotted, not
tuples: len, + and < stay undefined), equal by value and safe to share
between workers.  This module parses, factors (one element, or a set
jointly), clears denominators and tests perfect powers; it keeps no class
representatives.  A literal has one text path: _read checks its syntax and
gives (numerator, denominator) ints, which factor factors apart, so a
string never becomes a Fraction on its way to factored form;
parse_rational builds its Fraction from the same reader.  A class mod
(Q^x)^n is keyed from the factors where it is used: by the engine in
classify.exponent_classes, and by the verifier in verify._columns.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

from .errors import ParseError, ZeroInput
from .primes import TRIAL_DIVISION_BOUND, factorize, is_prime

RationalLike = Union[int, str, Fraction, "FactoredRational"]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class FactoredRational:
    """sign * prod(p^e); empty factor list is +1 or -1."""

    __slots__ = ("sign", "factors")

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...]):
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        last = 1
        for p, e in factors:
            if p <= last:
                raise ValueError("factor primes must be strictly increasing")
            if e == 0:
                raise ValueError("zero exponents are not stored")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return other.__class__ is FactoredRational and (
            (self.sign, self.factors) == (other.sign, other.factors))

    def __hash__(self):
        return hash((self.sign, self.factors))

    def __repr__(self) -> str:
        return f"FactoredRational(sign={self.sign!r}, factors={self.factors!r})"

    def __reduce__(self):
        return FactoredRational, (self.sign, self.factors)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "FactoredRational":
        return cls(1, ())

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


def _read(text: str) -> tuple[int, int]:
    """The one reader of a literal: optional sign, an integer or num/den
    (den nonzero), base 10 only, surrounding whitespace stripped.  Returns
    (numerator, denominator) in lowest terms by one gcd, denominator
    positive, numerator nonzero."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ParseError(f"not a rational literal: {text!r}")
    num, _, den = s.partition("/")
    num, den = int(num), int(den or 1)
    if not den:
        raise ParseError(f"zero denominator: {text!r}")
    if not num:
        raise ZeroInput("zero is not a valid element")
    g = math.gcd(num, den)
    return num // g, den // g


def parse_rational(text: str) -> Fraction:
    """The literal text as a nonzero Fraction (syntax: _read)."""
    return Fraction(*_read(text))


def _parts(x: RationalLike) -> tuple[int, int]:
    """x as _read gives a literal: a string is read by it, an int or a
    Fraction gives its own numerator and denominator, and anything else
    goes through Fraction."""
    if isinstance(x, str):
        return _read(x)
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if not x:
        raise ZeroInput("cannot factor zero")
    return x.numerator, x.denominator


def factor(x: RationalLike, *, known=()) -> FactoredRational:
    """Factor a nonzero rational into sign * prod(p^e).

    A string goes straight from its text to ints (_read) and no Fraction is
    built.  The numerator and denominator, prime to each other, are
    factored apart, the denominator's primes with negative exponents; known
    is passed to primes.factorize for both, which divides out its primes
    and splits a composite cofactor by a gcd with an entry before rho, and
    changes no result."""
    if isinstance(x, FactoredRational):
        return x
    num, den = _parts(x)
    powers = factorize(abs(num), known=known)
    if den != 1:
        for p, e in factorize(den, known=known).items():
            powers[p] = -e
    return FactoredRational.from_prime_powers(1 if num > 0 else -1, powers)


def factor_set(elements: Iterable[RationalLike]) -> list[FactoredRational]:
    """[factor(x) for x in elements], the elements factored jointly.

    Every element is read (_parts) before any is factored, so a malformed
    or zero element raises before a factorization can.  The set's
    numerators and denominators of at least 2^16, in lowest terms, are the
    hints (factor's known) of every element, so a large prime that two
    elements share is split off by a gcd rather than searched for by rho.
    Each element then goes to factor as given, which reads a string again
    rather than through a Fraction.  An element that is already a
    FactoredRational passes through and gives no hints.
    """
    xs = list(elements)
    parts = [_parts(x) for x in xs if not isinstance(x, FactoredRational)]
    if not parts:
        return xs
    known = [v for num, den in parts for v in (abs(num), den) if v >= TRIAL_DIVISION_BOUND]
    return [factor(x, known=known) for x in xs]


def clear_denominators(elements: Iterable[RationalLike], n: int) -> list[FactoredRational]:
    """Multiply every element by (product of all denominators)^n.

    The result is integral and each output sits in the same class of
    Q^x/(Q^x)^n as its input; with no denominator it is the factored input.
    """
    xs = factor_set(elements)
    scale: dict[int, int] = {}
    for x in xs:
        for p, e in x.factors:
            if e < 0:
                scale[p] = scale.get(p, 0) - e
    if not scale:
        return xs
    bump = FactoredRational.from_prime_powers(1, {p: e * n for p, e in scale.items()})
    out = [x * bump for x in xs]
    assert all(y.is_integral() for y in out)
    return out


def is_perfect_power(x: RationalLike, k: int) -> bool:
    """True iff x = r^k for some rational r, that is iff x has a k-th root
    (FactoredRational.nth_root).  k = 1 is trivially true."""
    if k < 1:
        raise ValueError("power degree must be >= 1")
    return factor(x).nth_root(k) is not None
