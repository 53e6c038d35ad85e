"""Constructors for the witness families used in corpus generation and the
optimality demonstrations: the quadruple {a, b, ab, ab^2} for cubes, the
triple {p1, p2, p1*p2} for squares, their power lifts, and the exceptional
two-element templates for even n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .classify import ExceptionalForm, match_exceptional_pair
from .errors import DegenerateParameters, InapplicableCase
from .primes import is_prime, prime_power_split
from .rationals import FactoredRational, factor


def _reject_degenerate(values: list[FactoredRational], expect: int,
                       allow_units: bool = False):
    uniq = {v.value() for v in values}
    if len(uniq) != expect:
        raise DegenerateParameters(f"parameters collapse the set to {sorted(uniq)}")
    if not allow_units and any(v.is_unit() for v in values):
        raise DegenerateParameters("generated family contains a unit")


def cubic_quad(a: int, b: int) -> list[FactoredRational]:
    """{a, b, ab, ab^2} for distinct nonzero integers."""
    if a == 0 or b == 0:
        raise DegenerateParameters("parameters must be nonzero")
    if a == b:
        raise DegenerateParameters("parameters must be distinct")
    fa, fb = factor(a), factor(b)
    out = [fa, fb, fa * fb, fa * fb**2]
    _reject_degenerate(out, 4)
    return out


def square_triple(p1: int, p2: int) -> list[FactoredRational]:
    """{p1, p2, p1*p2} for distinct odd primes."""
    for p in (p1, p2):
        if p == 2 or not is_prime(p):
            raise DegenerateParameters(f"{p} is not an odd prime")
    if p1 == p2:
        raise DegenerateParameters("primes must be distinct")
    f1, f2 = factor(p1), factor(p2)
    return [f1, f2, f1 * f2]


def lifted(elements, e: int) -> list[FactoredRational]:
    """{x^e : x in A}."""
    if e < 1:
        raise DegenerateParameters("lift exponent must be >= 1")
    return [factor(x) ** e for x in elements]


def odd_optimal(q1: int, q2: int, n: int) -> list[FactoredRational]:
    """{q1, q2, q1*q2, ..., q1*q2^(p1-1)} raised to n/p1, for odd n.

    p1 is the smallest prime factor of n; the set has p1+1 elements and
    contains no perfect p1^a1-th power.
    """
    if n < 3 or n % 2 == 0:
        raise DegenerateParameters(f"odd n >= 3 required, got {n}")
    split = prime_power_split(n)
    p1 = split[0][0]
    for q in (q1, q2):
        if not is_prime(q):
            raise DegenerateParameters(f"{q} is not prime")
        if q == p1:
            raise DegenerateParameters(f"{q} equals the smallest prime of n")
    if q1 == q2:
        raise DegenerateParameters("primes must be distinct")
    f1, f2 = factor(q1), factor(q2)
    base = [f1, f2] + [f1 * f2**j for j in range(1, p1)]
    out = [x ** (n // p1) for x in base]
    _reject_degenerate(out, p1 + 1)
    return out


def even_optimal(q1: int, q2: int, n: int) -> list[FactoredRational]:
    """{q1, q2, q1*q2} raised to n/2, for even n."""
    if n < 2 or n % 2:
        raise DegenerateParameters(f"even n required, got {n}")
    for q in (q1, q2):
        if q == 2 or not is_prime(q):
            raise DegenerateParameters(f"{q} is not an odd prime")
    if q1 == q2:
        raise DegenerateParameters("primes must be distinct")
    return [x ** (n // 2) for x in square_triple(q1, q2)]


def exceptional_pair(n: int, case_tag: str, j: Optional[int],
                     alpha1, alpha2) -> list[FactoredRational]:
    """Instantiate one exceptional two-element template.

    The output is guaranteed to round-trip: match_exceptional_pair recovers
    the same tag and parameters, otherwise the instantiation is rejected
    (some parameter choices are shadowed by an earlier template in the fixed
    matching order).
    """
    if n % 2:
        raise InapplicableCase(f"even n required, got {n}")
    a1, a2 = Fraction(alpha1), Fraction(alpha2)
    if a1 == 0 or a2 == 0:
        raise DegenerateParameters("alpha parameters must be nonzero")
    form = ExceptionalForm(case_tag, j, a1, a2)
    try:
        pair = form.instantiate(n)
    except Exception as exc:
        raise InapplicableCase(f"{case_tag} does not apply to n = {n}: {exc}") from exc
    # a unit slot value (alpha = 1 on a bare power slot) still forms a legal
    # pair; only a collapse to one element is rejected
    _reject_degenerate(pair, 2, allow_units=True)
    back = match_exceptional_pair(pair, n)
    if back != form:
        raise DegenerateParameters(
            f"{case_tag} with alpha = ({a1}, {a2}) is recovered as "
            f"{back.case_tag if back else None}; rejected for round-trip safety")
    return pair
