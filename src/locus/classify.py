"""The decision front end: decide keys a set's classes once, as exponent
vectors, and routes them to a perfect member or covering.cover_verdict,
exact for every n >= 2.  The even-n
exceptional templates live in families; ExceptionalForm and
match_exceptional_pair are re-exported here under their old path.
"""

from __future__ import annotations

from .errors import InternalInconsistency, ZeroInput
from .covering import ENUMERATION_CEILING, cover_verdict
from .families import ExceptionalForm, match_exceptional_pair  # noqa: F401
from .rationals import FactoredRational, clear_denominators, factor_set
from .sieve import COUNTEREXAMPLE_BOUND, default_exclusions, find_counterexample, scan
from .verdicts import HOLDS, PerfectPowerMember, Verdict


def decide(elements, n: int, *, want_counterexample: bool = True,
           ceiling: int = ENUMERATION_CEILING, attach_evidence: bool = False,
           evidence_hi: int = 10**4) -> Verdict:
    """Does the set contain an n-th power in Q_p for almost every prime p?

    The only router: denominators are cleared, the classes mod (Q^x)^n
    keyed once (exponent_classes), and _route decides on their columns.
    The routes run without a counterexample search of their own: a failing
    verdict gets its prime here, searched over the whole cleared set, so
    that the support primes of dropped duplicates stay excluded.
    """
    if n < 2:
        raise ValueError("exponent must be >= 2")
    raw = factor_set(elements)
    if not raw:
        raise ZeroInput("empty set has no verdict")
    cleared = clear_denominators(raw, n)
    v = _route(*exponent_classes(cleared, n), n, ceiling)
    cert = v.certificate
    if v.fails() and want_counterexample:
        prime = find_counterexample(cleared, n, COUNTEREXAMPLE_BOUND)
        cert = cert._replace(counterexample_prime=prime)
    excluded, evidence = default_exclusions(cleared, n), None
    if attach_evidence:
        report = scan(cleared, n, 2, evidence_hi)
        evidence = report.to_json()
        if v.holds() and report.failing_primes:
            raise InternalInconsistency(
                f"holds verdict with sieve failures at {report.failing_primes[:5]}")
    return Verdict(v.status, cert, excluded, evidence)


def exponent_classes(xs: list[FactoredRational], n: int):
    """(representatives, support, columns) of the classes of the integral
    xs mod (Q^x)^n.  Each element is keyed once, by its sign for even n and
    its (p, e mod n) with e mod n nonzero; a representative is the first
    element of its key in input order, and a column is its key's exponent
    vector over the support, led for even n by the sign entry -1, 1 there
    for a negative class.  The perfect n-th powers have the zero column."""
    classes = {}
    for x in xs:
        key = (x.sign if n % 2 == 0 else 1, tuple((p, e % n) for p, e in x.factors if e % n))
        classes.setdefault(key, x)
    primes = sorted({p for _, powers in classes for p, _ in powers})
    support = tuple(primes) if n % 2 else (-1, *primes)
    columns = []
    for sign, powers in classes:
        exponents = {-1: int(sign < 0), **dict(powers)}
        columns.append(tuple(exponents.get(p, 0) for p in support))
    return list(classes.values()), support, tuple(columns)


def _route(reps: list[FactoredRational], support, columns, n: int, ceiling: int) -> Verdict:
    """Verdict for the classes of exponent_classes: a perfect member holds,
    and otherwise the cover criterion over the classes of the Galois group
    decides, n = 2 included."""
    for x, col in zip(reps, columns):
        if not any(col):
            return Verdict(HOLDS, PerfectPowerMember(str(x), str(x.nth_root(n)), n))
    return cover_verdict(support, columns, n, ceiling)
