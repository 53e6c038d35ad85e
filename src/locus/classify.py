"""Top-level decision pipeline and the even-n exceptional pair templates.

For even n there are finitely many shapes of 2-element sets that contain an
n-th power in Q_p almost everywhere without containing a perfect n-th
power; matching is literal template instantiation where a slot c * alpha^k
matches x exactly when x/c has a rational k-th root.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import InternalInconsistency, NotEven, WrongCardinality, ZeroInput
from .prime_power import decide_prime_power
from .primes import prime_power_split
from .rationals import (FactoredRational, clear_denominators, dedupe, factor,
                        is_perfect_power)
from .sieve import default_exclusions, find_counterexample, scan
from .squares import decide_square, decide_two_power
from .verdicts import (FAILS, HOLDS, INCONCLUSIVE, ComponentFailure, Evidence,
                       ExceptionalFormCert, LiftedFamily, PerfectPowerMember,
                       Verdict, WangException)


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


def form_to_certificate(form: ExceptionalForm, n: int = 0) -> ExceptionalFormCert:
    def fmt(f: Fraction) -> str:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return ExceptionalFormCert(form.case_tag, form.pj, fmt(form.alpha1),
                               fmt(form.alpha2), n)


def classify_singleton(a, n: int, *, want_counterexample: bool = True,
                       counterexample_bound: int = 10**4) -> Verdict:
    """One rational: perfect power, the 8|n exception, or failure."""
    x = factor(a)
    excluded = default_exclusions([x], n)
    if is_perfect_power(x, n):
        return Verdict(HOLDS, PerfectPowerMember(str(x), str(x.nth_root(n)), n),
                       excluded)
    if n % 8 == 0:
        b = (x / factor(2) ** (n // 2)).nth_root(n)
        if b is not None:
            return Verdict(HOLDS, WangException(str(x), str(b), n), excluded)
    prime = None
    if want_counterexample:
        prime = find_counterexample([x], n, counterexample_bound)
    return Verdict(FAILS,
                   Evidence(reason="grunwald_wang_singleton",
                            counterexample_prime=prime),
                   excluded)


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, a in prime_power_split(n):
        out = [d * p**i for d in out for i in range(a + 1)]
    return sorted(out)


def _try_lift(xs: list[FactoredRational], n: int, ceiling: int,
              monte_carlo: bool) -> Optional[Verdict]:
    """A = {x^e} with the root family holding for n/e lifts to a Holds."""
    for e in _divisors(n):
        if e < 2 or e == n or (n // e) < 2:
            continue
        roots = [x.nth_root(e) for x in xs]
        if any(r is None for r in roots):
            continue
        base = decide(roots, n // e, want_counterexample=False,
                      ceiling=ceiling, monte_carlo=monte_carlo)
        if base.holds():
            cert = LiftedFamily(e, tuple(str(r) for r in roots),
                                base.certificate)
            return Verdict(HOLDS, cert, base.excluded_primes)
    return None


def decide(elements, n: int, *, want_counterexample: bool = True,
           counterexample_bound: int = 10**4, ceiling: int = 1 << 24,
           monte_carlo: bool = False, attach_evidence: bool = False,
           evidence_hi: int = 10**4) -> Verdict:
    """Does the set contain an n-th power in Q_p for almost every prime p?

    The only router: denominators are cleared, classes mod (Q^x)^n
    deduplicated, and _route picks the exact regime; an inconclusive
    verdict then tries the lifted-family fast path.  The leaves run without
    a counterexample search of their own: a failing verdict gets its prime
    here, searched over the whole cleared set, so that the support primes
    of dropped duplicates stay excluded.
    """
    if n < 2:
        raise ValueError("exponent must be >= 2")
    raw = [factor(a) for a in elements]
    if not raw:
        raise ZeroInput("empty set has no verdict")
    cleared = clear_denominators(raw, n)
    xs = dedupe(cleared, n)
    v = _route(xs, n, ceiling, monte_carlo)
    if v.status == INCONCLUSIVE:
        v = _try_lift(xs, n, ceiling, monte_carlo) or v

    if v.fails() and want_counterexample:
        cert = v.certificate
        if isinstance(cert, ComponentFailure):
            prime = find_counterexample(cleared, cert.q**cert.m, counterexample_bound)
            cert = replace(cert, inner=replace(cert.inner, counterexample_prime=prime))
        else:
            prime = find_counterexample(cleared, n, counterexample_bound)
            cert = replace(cert, counterexample_prime=prime)
        v = replace(v, certificate=cert)
    v = v.with_excluded(default_exclusions(cleared, n))
    if attach_evidence:
        report = scan(cleared, n, 2, evidence_hi)
        v = v.with_evidence(report.to_json())
        if v.holds() and report.failing_primes:
            raise InternalInconsistency(
                f"holds verdict with sieve failures at {report.failing_primes[:5]}")
    return v


def _route(xs: list[FactoredRational], n: int, ceiling: int,
           monte_carlo: bool) -> Verdict:
    """Verdict for distinct integral classes, in this order: a perfect
    member; one class; squares; an even-n pair; no criterion for three or
    more classes and n = 2^a; an odd prime power; otherwise the necessary
    prime-power components, then the odd small-set theorem."""
    for x in xs:
        if is_perfect_power(x, n):
            return Verdict(HOLDS, PerfectPowerMember(str(x), str(x.nth_root(n)), n))
    if len(xs) == 1:
        return classify_singleton(xs[0], n, want_counterexample=False)
    if n == 2:
        return decide_square(xs, want_counterexample=False)
    if n % 2 == 0 and len(xs) == 2:
        form = match_exceptional_pair(xs, n)
        if form is not None:
            return Verdict(HOLDS, form_to_certificate(form, n))
        return Verdict(FAILS, Evidence(reason="no_exceptional_template"))
    split = prime_power_split(n)
    if len(split) == 1:
        q, a = split[0]
        if q == 2:
            return Verdict(INCONCLUSIVE,
                           Evidence(reason="no_two_power_criterion_beyond_pairs"))
        return decide_prime_power(xs, q, a, want_counterexample=False,
                                  ceiling=ceiling, monte_carlo=monte_carlo)

    # an n-th power is a q^a-th power for each q^a || n
    for q, a in split:
        if q == 2:
            comp = decide_two_power(xs, a, want_counterexample=False)
        else:
            comp = decide_prime_power(xs, q, a, want_counterexample=False,
                                      ceiling=ceiling, monte_carlo=monte_carlo)
        if comp.fails():
            return Verdict(FAILS, ComponentFailure(q, a, comp.certificate),
                           comp.excluded_primes)
    if n % 2 == 1 and len(xs) <= split[0][0]:
        # odd n, at most p1 classes, no perfect n-th power: fails outright;
        # no component refutation exists in general
        return Verdict(FAILS, Evidence(reason="odd_small_set"))
    return Verdict(INCONCLUSIVE, Evidence(reason="no_composite_criterion"))
