"""The decision front end: decide routes a set to a perfect member, the
squares criterion for n = 2, or covering.cover_verdict, exact for every
n >= 3.  The even-n exceptional templates live in families; ExceptionalForm
and match_exceptional_pair are re-exported here under their old path.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import InternalInconsistency, ZeroInput
from .covering import ENUMERATION_CEILING, cover_verdict
from .families import ExceptionalForm, match_exceptional_pair  # noqa: F401
from .rationals import (FactoredRational, clear_denominators, dedupe, factor,
                        is_perfect_power)
from .sieve import COUNTEREXAMPLE_BOUND, default_exclusions, find_counterexample, scan
from .squares import square_verdict
from .verdicts import HOLDS, PerfectPowerMember, Verdict


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
