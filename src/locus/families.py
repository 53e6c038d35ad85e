"""Constructors for the witness families used in corpus generation and the
optimality demonstrations: the quadruple {a, b, ab, ab^2} for cubes, the
triple {p1, p2, p1*p2} for squares, their power lifts, and the exceptional
two-element templates for even n.

An exceptional pair contains an n-th power in Q_p for almost every p and
no perfect n-th power; _templates is the table of their shapes, read by
match_exceptional_pair and exceptional_pair alike.  classify.decide does
not consult it: on a pair the cover criterion holds exactly where a
template matches or a member is a perfect n-th power.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DegenerateParameters, InapplicableCase, NotEven, WrongCardinality
from .primes import is_prime, prime_power_split
from .rationals import FactoredRational, factor, factor_set


def _reject_degenerate(values: list[FactoredRational], expect: int,
                       allow_units: bool = False):
    uniq = {v.value() for v in values}
    if len(uniq) != expect:
        raise DegenerateParameters(f"parameters collapse the set to {sorted(uniq)}")
    if not allow_units and any(not v.factors for v in values):
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
    return [x ** e for x in factor_set(elements)]


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
    return [x ** (n // 2) for x in square_triple(q1, q2)]


class ExceptionalForm(NamedTuple):
    case_tag: str
    pj: Optional[int]
    alpha1: Fraction
    alpha2: Fraction


def _templates(n: int) -> list:
    """(tag, pj, (c1, k1), (c2, k2) or None) per template of even n, in the
    fixed matching order, case first and odd prime second.  A slot (c, k)
    holds c * alpha^k, so x fills it exactly when x/c has a rational k-th
    root; None leaves the second element free.  With P = pj^(n/2),
    T = 2^(n/2) and m = n/pj^aj for each odd pj^aj || n:
      2 || n: A0eq1 (+-P, n), (1, m), - when pj = 3 mod 4;
      4 || n: A0eq2_neg2 (-T, n), (1, n/2), then the rows below;
      8 | n: A0ge3_2half (T, n), free, then the rows below.
    Each row (tag, t, sign, e) gives the slots (T^t P, n), (sign 2^(e m/2), m).
    """
    split = prime_power_split(n)
    a0, h, const = dict(split).get(2, 0), n // 2, FactoredRational.from_prime_powers
    pjs = [(pj, n // pj**aj) for pj, aj in split if pj != 2]
    if a0 == 1:
        return [("A0eq1", pj, (const(-1 if pj % 4 == 3 else 1, {pj: h}), n),
                 (const(1, {}), m)) for pj, m in pjs]
    if a0 == 2:
        head = [("A0eq2_neg2", None, (const(-1, {2: h}), n), (const(1, {}), h))]
        rows = (("A0eq2_pj", 0, 1, 0), ("A0eq2_pj_neg2", 0, -1, 1))
    else:
        head = [("A0ge3_2half", None, (const(1, {2: h}), n), None)]
        rows = (("A0ge3_pj", 0, 1, 0), ("A0ge3_pj_2", 0, 1, 1),
                ("A0ge3_2pj", 1, 1, 0), ("A0ge3_2pj_2", 1, 1, 1))
    return head + [(tag, pj, (const(1, {2: t * h, pj: h}), n),
                    (const(sign, {2: e * m // 2}), m))
                   for tag, t, sign, e in rows for pj, m in pjs]


def match_exceptional_pair(elements, n: int) -> Optional[ExceptionalForm]:
    """First template match in the fixed case order, or None.

    Both assignments of the pair to the two slots are tried; the recovered
    alphas are the canonical roots (positive whenever the degree is even).
    """
    if n % 2:
        raise NotEven(f"exceptional pairs require even n, got {n}")
    xs = factor_set(elements)
    if len(xs) != 2:
        raise WrongCardinality(f"need exactly 2 elements, got {len(xs)}")
    for tag, pj, (c1, k1), second in _templates(n):
        for x, y in ((xs[0], xs[1]), (xs[1], xs[0])):
            a1 = (x / c1).nth_root(k1)
            if a1 is None:
                continue
            a2 = y if second is None else (y / second[0]).nth_root(second[1])
            if a2 is not None:
                return ExceptionalForm(tag, pj, a1.value(), a2.value())
    return None


def _instantiate(form: ExceptionalForm, n: int) -> list[FactoredRational]:
    """The pair of form's template of n, its alphas substituted."""
    for tag, pj, (c1, k1), second in _templates(n):
        if (tag, pj) == (form.case_tag, form.pj):
            c2, k2 = second or (factor(1), 1)
            return [c1 * factor(form.alpha1) ** k1, c2 * factor(form.alpha2) ** k2]
    raise InapplicableCase(f"template {form.case_tag} not applicable to n = {n}")


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
        pair = _instantiate(form, n)
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
