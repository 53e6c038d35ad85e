"""Exact arithmetic on factored nonzero rationals.

A FactoredRational is a sign and an ascending tuple of (prime, exponent)
pairs, exponents nonzero (negative for denominator primes): immutable
(slotted, not a tuple, so len, + and < stay undefined), equal by value,
safe to share between workers, and every operation on it pure.  Its public
constructor checks those parts; products, powers, inverses and roots, and
factorize's certified output, are built from checked parts without the
checks (_made).  This module parses, factors (one element, or a set
jointly), clears denominators and tests perfect powers; a class mod
(Q^x)^n is keyed where it is used (classify.exponent_classes,
verify._columns).  A literal has one text path: _read gives its
(numerator, denominator) ints, factored apart (_factor_parts), so no
Fraction is built and factor_set reads each literal once.  factor_set and
clear_denominators return a read-only list (_Factored) that factor_set
hands back after one type test, so each public helper that calls it passes
a factored list on in O(1).  A literal is factored at most once per
process while it stays in the memo (_FACTORED): MEMO_CAP entries at most,
keyed by the lowest-terms (numerator, denominator) and cleared when full,
and only for keys with both parts below primes.MR_DETERMINISTIC_BOUND,
where factorize always succeeds with one result whatever its hints.  So a
hit is what any call would return, a split that only hints made possible
above the bound is never kept, and the engine and the verifier (which
shares this layer) factor a literal once.  A part read or printed has at
most DIGIT_CAP digits, under the interpreter's own 4,300; past it _read and
str raise FactorizationCapacityExceeded.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Union

from .errors import FactorizationCapacityExceeded, ParseError, ZeroInput
from .primes import MR_DETERMINISTIC_BOUND, TRIAL_DIVISION_BOUND, factorize, is_prime

RationalLike = Union[int, str, Fraction, "FactoredRational"]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# the factoring memo (module docstring): entries held before it is cleared
MEMO_CAP = 256
DIGIT_CAP = 4000  # digits read or printed per part (module docstring)
_PRINT_LIMIT = 10**DIGIT_CAP


class FactoredRational:
    """sign * prod(p^e); empty factor list is +1 or -1.  The constructor and
    from_prime_powers check sign, primality, ascending order, nonzero e."""

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
        _SIGN(self, sign)
        _FACTORS(self, factors)

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
    def from_prime_powers(cls, sign: int, powers: dict[int, int]) -> "FactoredRational":
        return cls(sign, tuple(sorted([(p, e) for p, e in powers.items() if e])))

    # -- views -------------------------------------------------------------

    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

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
        return tuple([p for p, _ in self.factors])

    def exponent(self, p: int) -> int:
        return dict(self.factors).get(p, 0)

    def is_integral(self) -> bool:
        return all(e > 0 for _, e in self.factors)

    def __str__(self) -> str:
        n, d = self.numerator, self.denominator
        if d >= _PRINT_LIMIT or not -_PRINT_LIMIT < n < _PRINT_LIMIT:
            raise FactorizationCapacityExceeded(f"a value past DIGIT_CAP = {DIGIT_CAP} digits")
        return str(n) if d == 1 else f"{n}/{d}"

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        merged = dict(self.factors)
        for p, e in other.factors:
            merged[p] = merged.get(p, 0) + e
        # one sort merges the two ascending runs (other's new primes follow)
        return _made(self.sign * other.sign, tuple(sorted([pe for pe in merged.items() if pe[1]])))

    def __truediv__(self, other: "FactoredRational") -> "FactoredRational":
        return self * other.inverse()

    def inverse(self) -> "FactoredRational":
        return _made(self.sign, tuple([(p, -e) for p, e in self.factors]))

    def __pow__(self, k: int) -> "FactoredRational":
        if k == 0:
            return _made(1, ())
        sign = self.sign if k % 2 else 1
        return _made(sign, tuple([(p, e * k) for p, e in self.factors]))

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
        return _made(sign, tuple([(p, e // k) for p, e in self.factors]))


_SIGN, _FACTORS = FactoredRational.sign.__set__, FactoredRational.factors.__set__


def _made(sign: int, factors: tuple[tuple[int, int], ...]) -> FactoredRational:
    """FactoredRational(sign, factors) unchecked, from parts that pass the checks."""
    x = object.__new__(FactoredRational)
    _SIGN(x, sign)
    _FACTORS(x, factors)
    return x


class _Factored(list):
    """factor_set's list: FactoredRationals only and read-only, so known by
    its type alone; a copy, slice, sum or pickle of one is a plain list."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a factored list is read-only: copy it with list()")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    def __reduce__(self):
        return list, (list(self),)


def _read(text: str) -> tuple[int, int]:
    """The one reader of a literal: optional sign, an integer or num/den
    (den nonzero), base 10 only, surrounding whitespace stripped, DIGIT_CAP
    digits a part at most.  Returns (numerator, denominator) in lowest terms
    by one gcd, denominator positive, numerator nonzero."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ParseError(f"not a rational literal: {text!r}")
    num, _, den = s.partition("/")
    if len(s) > DIGIT_CAP and max(len(num.lstrip("+-")), len(den)) > DIGIT_CAP:
        raise FactorizationCapacityExceeded(f"a literal past DIGIT_CAP = {DIGIT_CAP} digits")
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
    """x as _read gives a literal: a string is read by it, and an int or a
    Fraction gives its own numerator and denominator.  Any other type is a
    ParseError: a bool, float or Decimal prints as no literal to read back."""
    if isinstance(x, str):
        return _read(x)
    if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
        raise ParseError(f"not a rational: {type(x).__name__} {x!r}")
    if not x:
        raise ZeroInput("cannot factor zero")
    return x.numerator, x.denominator


def factor(x: RationalLike, *, known=()) -> FactoredRational:
    """Factor a nonzero rational into sign * prod(p^e).

    A string goes straight from its text to ints (_read) and no Fraction is
    built.  The numerator and denominator, prime to each other, are
    factored apart (_factor_parts); known is passed to primes.factorize
    for both, which divides out its primes and splits a composite cofactor
    by a gcd with an entry before rho, and changes no result.  A literal
    below primes.MR_DETERMINISTIC_BOUND that the process factored before
    comes from the memo (module docstring), whatever known is.  A
    FactoredRational passes through untouched and is never stored."""
    if isinstance(x, FactoredRational):
        return x
    return _factor_parts(*_parts(x), known)


# the memo (module docstring): (numerator, denominator) -> its factored form
_FACTORED: dict[tuple[int, int], FactoredRational] = {}


def _factor_parts(num: int, den: int, known) -> FactoredRational:
    """num/den factored, num and den prime to each other, den > 0: the
    denominator's primes with negative exponents.  Looked up in the memo
    first, and stored there when both are below the deterministic bound."""
    x = _FACTORED.get((num, den))
    if x is not None:
        return x
    powers = factorize(abs(num), known=known)
    if den != 1:
        for p, e in factorize(den, known=known).items():
            powers[p] = -e
    x = _made(1 if num > 0 else -1, tuple(sorted(powers.items())))  # certified primes
    if max(abs(num), den) < MR_DETERMINISTIC_BOUND:
        if len(_FACTORED) >= MEMO_CAP:
            _FACTORED.clear()
        _FACTORED[num, den] = x
    return x


def factor_set(elements: Iterable[RationalLike]) -> list[FactoredRational]:
    """[factor(x) for x in elements], the elements factored jointly, as a
    read-only _Factored list.

    Such a list comes back as it is after one type test, and a list of
    FactoredRationals alone is wrapped after one per entry, before any
    element is read.  Otherwise every element is read once (_parts) before
    any is factored, so a malformed or zero element raises before a
    factorization can.  The set's numerators and denominators of at least
    2^16, in lowest terms, are the hints (factor's known) of every element,
    so a large prime that two elements share is split off by a gcd rather
    than searched for by rho.  The (numerator, denominator) read then goes
    straight to the factoring (_factor_parts), where a literal in the memo
    is not factored again.  An element that is already a FactoredRational
    passes through, gives no hints and is never stored.
    """
    if type(elements) is _Factored:
        return elements
    xs = list(elements)
    if {*map(type, xs)} <= {FactoredRational}:
        return _Factored(xs)
    parts = [None if isinstance(x, FactoredRational) else _parts(x) for x in xs]
    known = [v for nd in parts if nd for v in (abs(nd[0]), nd[1]) if v >= TRIAL_DIVISION_BOUND]
    return _Factored([x if nd is None else _factor_parts(*nd, known) for x, nd in zip(xs, parts)])


def clear_denominators(elements: Iterable[RationalLike], n: int) -> list[FactoredRational]:
    """Multiply every element by (product of all denominators)^n.

    The result, a read-only list as factor_set's, is integral and each
    output sits in the same class of Q^x/(Q^x)^n as its input; with no
    denominator it is the factored input itself.
    """
    xs = factor_set(elements)
    scale: dict[int, int] = {}
    for x in xs:
        for p, e in x.factors:
            if e < 0:
                scale[p] = scale.get(p, 0) - e
    if not scale:
        return xs
    bump = _made(1, tuple(sorted([(p, e * n) for p, e in scale.items()])))
    out = _Factored([x * bump for x in xs])
    assert all(y.is_integral() for y in out)
    return out


def is_perfect_power(x: RationalLike, k: int) -> bool:
    """True iff x = r^k for some rational r, that is iff x has a k-th root
    (FactoredRational.nth_root).  k = 1 is trivially true."""
    if k < 1:
        raise ValueError("power degree must be >= 1")
    return factor(x).nth_root(k) is not None
