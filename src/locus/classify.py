"""Top-level decision pipeline and the even-n exceptional pair templates.

decide is the one front end: a perfect member, the squares criterion for
n = 2, and otherwise covering.cover_verdict, exact for every n >= 3.

For even n there are finitely many shapes of 2-element sets that contain an
n-th power in Q_p almost everywhere without containing a perfect n-th
power.  match_exceptional_pair names them for callers and families; it is
literal template instantiation, where a slot c * alpha^k matches x exactly
when x/c has a rational k-th root.  decide does not consult it: on a pair
the cover criterion holds exactly where a template matches or a member is
a perfect n-th power.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import InternalInconsistency, NotEven, WrongCardinality, ZeroInput
from .covering import ENUMERATION_CEILING, cover_verdict
from .primes import prime_power_split
from .rationals import (FactoredRational, clear_denominators, dedupe, factor,
                        is_perfect_power)
from .sieve import COUNTEREXAMPLE_BOUND, default_exclusions, find_counterexample, scan
from .squares import square_verdict
from .verdicts import HOLDS, PerfectPowerMember, Verdict


@dataclass(frozen=True)
class ExceptionalForm:
    case_tag: str
    pj: Optional[int]
    alpha1: Fraction
    alpha2: Fraction

    def instantiate(self, n: int) -> list[FactoredRational]:
        """Substitute the parameters back into the tagged template."""
        for tag, pj, slot1, slot2 in _templates(n):
            if tag != self.case_tag or pj != self.pj:
                continue
            first = slot1.fill(self.alpha1)
            second = (factor(self.alpha2) if slot2 is None
                      else slot2.fill(self.alpha2))
            return [first, second]
        raise NotEven(f"template {self.case_tag} not applicable to n = {n}")


@dataclass(frozen=True)
class _Slot:
    constant: FactoredRational
    degree: int

    def match(self, x: FactoredRational) -> Optional[FactoredRational]:
        return (x / self.constant).nth_root(self.degree)

    def fill(self, alpha) -> FactoredRational:
        return self.constant * factor(alpha) ** self.degree


def _templates(n: int):
    """(tag, pj, slot1, slot2) in the fixed matching order; slot2 None means
    the second element is unconstrained."""
    split = prime_power_split(n)
    a0 = dict(split).get(2, 0)
    odd = [(p, a) for p, a in split if p != 2]
    two = factor(2)
    out = []
    if a0 == 1 and n != 2:
        for pj, aj in odd:
            eps = -1 if pj % 4 == 3 else 1  # (-1)^((pj-1)/2)
            const = FactoredRational.from_prime_powers(1, {pj: n // 2})
            if eps == -1:  # n/2 odd here, so the sign survives the power
                const = FactoredRational.minus_one() * const
            out.append(("A0eq1", pj, _Slot(const, n), _Slot(factor(1), n // pj**aj)))
    if a0 == 2:
        out.append(("A0eq2_neg2", None,
                    _Slot(FactoredRational.minus_one() * two ** (n // 2), n),
                    _Slot(factor(1), n // 2)))
        for pj, aj in odd:
            pq = FactoredRational.from_prime_powers(1, {pj: n // 2})
            out.append(("A0eq2_pj", pj, _Slot(pq, n),
                        _Slot(factor(1), n // pj**aj)))
        for pj, aj in odd:
            pq = FactoredRational.from_prime_powers(1, {pj: n // 2})
            out.append(("A0eq2_pj_neg2", pj, _Slot(pq, n),
                        _Slot(FactoredRational.minus_one() * two ** (n // (2 * pj**aj)),
                              n // pj**aj)))
    if a0 >= 3:
        out.append(("A0ge3_2half", None, _Slot(two ** (n // 2), n), None))
        # the case order is primary and the odd prime index secondary
        for tag_kind in ("A0ge3_pj", "A0ge3_pj_2", "A0ge3_2pj", "A0ge3_2pj_2"):
            for pj, aj in odd:
                pq = FactoredRational.from_prime_powers(1, {pj: n // 2})
                both = two ** (n // 2) * pq
                tail = _Slot(factor(1), n // pj**aj)
                tail2 = _Slot(two ** (n // (2 * pj**aj)), n // pj**aj)
                head = _Slot(pq, n) if tag_kind in ("A0ge3_pj", "A0ge3_pj_2") \
                    else _Slot(both, n)
                out.append((tag_kind, pj,
                            head, tail if tag_kind in ("A0ge3_pj", "A0ge3_2pj")
                            else tail2))
    return out


def match_exceptional_pair(elements, n: int) -> Optional[ExceptionalForm]:
    """First template match in the fixed case order, or None.

    Both assignments of the pair to the two slots are tried; the recovered
    alphas are the canonical roots (positive whenever the degree is even).
    """
    if n % 2:
        raise NotEven(f"exceptional pairs require even n, got {n}")
    xs = [factor(a) for a in elements]
    if len(xs) != 2:
        raise WrongCardinality(f"need exactly 2 elements, got {len(xs)}")
    for tag, pj, slot1, slot2 in _templates(n):
        for first, second in ((xs[0], xs[1]), (xs[1], xs[0])):
            a1 = slot1.match(first)
            if a1 is None:
                continue
            if slot2 is None:
                return ExceptionalForm(tag, pj, a1.value(), second.value())
            a2 = slot2.match(second)
            if a2 is None:
                continue
            return ExceptionalForm(tag, pj, a1.value(), a2.value())
    return None


def decide(elements, n: int, *, want_counterexample: bool = True,
           ceiling: int = ENUMERATION_CEILING, attach_evidence: bool = False,
           evidence_hi: int = 10**4) -> Verdict:
    """Does the set contain an n-th power in Q_p for almost every prime p?

    The only router: denominators are cleared, classes mod (Q^x)^n
    deduplicated, and _route decides.  The routes run without a
    counterexample search of their own: a failing verdict gets its prime
    here, searched over the whole cleared set, so that the support primes
    of dropped duplicates stay excluded.
    """
    if n < 2:
        raise ValueError("exponent must be >= 2")
    raw = [factor(a) for a in elements]
    if not raw:
        raise ZeroInput("empty set has no verdict")
    cleared = clear_denominators(raw, n)
    v = _route(dedupe(cleared, n), n, ceiling)
    if v.fails() and want_counterexample:
        prime = find_counterexample(cleared, n, COUNTEREXAMPLE_BOUND)
        v = replace(v, certificate=replace(v.certificate, counterexample_prime=prime))
    v = replace(v, excluded_primes=default_exclusions(cleared, n))
    if attach_evidence:
        report = scan(cleared, n, 2, evidence_hi)
        v = replace(v, evidence=report.to_json())
        if v.holds() and report.failing_primes:
            raise InternalInconsistency(
                f"holds verdict with sieve failures at {report.failing_primes[:5]}")
    return v


def _route(xs: list[FactoredRational], n: int, ceiling: int) -> Verdict:
    """Verdict for distinct integral classes: a perfect member holds; n = 2
    is the squares criterion, whose witness names the square product; every
    other n is the cover criterion over the classes of its Galois group."""
    for x in xs:
        if is_perfect_power(x, n):
            return Verdict(HOLDS, PerfectPowerMember(str(x), str(x.nth_root(n)), n))
    if n == 2:
        return square_verdict(xs)
    return cover_verdict(xs, n, ceiling)
