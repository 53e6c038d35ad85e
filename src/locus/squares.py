"""The squares entry points, n = 2 and n = 2^a, as calls into classify.decide.

n = 2 has no criterion of its own: covering.cover_verdict decides it over
the two classes t = 1, 3 mod 4, which is Fried's odd-subset criterion (see
the covering docstring).  decide_square keeps its name for callers of the
squares criterion, and decide_two_power for bench/spans.py, which traces it.
classify never imports this module, so decide is imported here once.
"""

from __future__ import annotations

from .classify import decide
from .verdicts import Verdict


def decide_square(elements, *, want_counterexample: bool = True) -> Verdict:
    """classify.decide with n = 2: the Fried / Filaseta-Richman criterion."""
    return decide(elements, 2, want_counterexample=want_counterexample)


def decide_two_power(elements, a0: int) -> Verdict:
    """classify.decide with n = 2^a0."""
    return decide(elements, 2**a0)
