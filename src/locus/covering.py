"""Hyperplane covering over F_q and the q-th power decision it encodes.

Each q-free integer a_j with exponents (mu_1j, ..., mu_sj) over the joint
support induces the linear form sum_i mu_ij x_i on F_q^s.  The set contains
a q-th power in Z_p for almost every p exactly when the kernels of these
forms cover all of F_q^s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Optional, Union

from .errors import InstanceTooLarge, NotQFree, UnitElement
from .primes import is_prime
from .rationals import dedupe, factor, reduce_class
from .sieve import default_exclusions, find_counterexample
from .verdicts import (FAILS, HOLDS, HyperplaneCover, PerfectPowerMember,
                       UncoveredPoint, Verdict)

ENUMERATION_CEILING = 1 << 24


@dataclass(frozen=True)
class Hyperplane:
    """Kernel of a nonzero linear form over F_q^s."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not any(self.coeffs):
            raise ValueError("hyperplane needs a nonzero coefficient vector")


@dataclass(frozen=True)
class ExponentMatrixModQ:
    """Columns are element exponent vectors mod q over the joint support."""

    q: int
    support: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Covered:
    witness: Optional[dict] = None  # point -> first covering form index


@dataclass(frozen=True)
class Uncovered:
    point: tuple[int, ...]


CoverOutcome = Union[Covered, Uncovered]

_WITNESS_MAP_LIMIT = 512


def build_hyperplanes(elements, q: int):
    """(matrix, hyperplanes, trivial_flag) for a set of q-free integers.

    Inputs must be q-free (exponents in [0, q)) and not +-1; the sign plays
    no role for odd q since -1 is a q-th power.
    """
    xs = [factor(a) for a in elements]
    for x in xs:
        if x.is_unit():
            raise UnitElement(f"{x} cannot enter the hyperplane construction")
        if any(e < 0 or e >= q for _, e in x.factors):
            raise NotQFree(f"{x} is not {q}-free")
    support = tuple(sorted({p for x in xs for p in x.support()}))
    index = {p: i for i, p in enumerate(support)}
    columns = []
    for x in xs:
        col = [0] * len(support)
        for p, e in x.factors:
            col[index[p]] = e % q
        columns.append(tuple(col))
    trivial = any(not any(col) for col in columns)
    matrix = ExponentMatrixModQ(q, support, tuple(columns))
    planes = [Hyperplane(col) for col in columns if any(col)]
    return matrix, planes, trivial


def covers(hyperplanes, q: int, s: int, ceiling: int = ENUMERATION_CEILING) -> CoverOutcome:
    """Exhaustive point check; Uncovered returns the lexicographically least miss."""
    if not hyperplanes:
        raise ValueError("hyperplane list must be nonempty")
    if q**s > ceiling:
        raise InstanceTooLarge(f"q^s = {q**s} exceeds ceiling {ceiling}")
    forms = sorted({h.coeffs for h in hyperplanes})  # duplicates cannot change the union
    collect = q**s <= _WITNESS_MAP_LIMIT
    witness: dict = {} if collect else None
    for point in product(range(q), repeat=s):
        hit = None
        for i, coeffs in enumerate(forms):
            if sum(c * x for c, x in zip(coeffs, point)) % q == 0:
                hit = i
                break
        if hit is None:
            return Uncovered(point)
        if collect:
            witness[point] = hit
    return Covered(witness)


def covers_sampled(hyperplanes, q: int, s: int, samples: int = 20000,
                   seed: int = 0) -> Optional[Uncovered]:
    """Monte Carlo miss search for oversized instances; never proves a cover."""
    rng = random.Random(seed)
    forms = sorted({h.coeffs for h in hyperplanes})
    for _ in range(samples):
        point = tuple(rng.randrange(q) for _ in range(s))
        if all(sum(c * x for c, x in zip(coeffs, point)) % q != 0 for coeffs in forms):
            return Uncovered(point)
    return None


def _verify_uncovered(point, forms, q) -> None:
    # certificate soundness: asserted before any Uncovered leaves the module
    assert all(sum(c * x for c, x in zip(coeffs, point)) % q != 0 for coeffs in forms), \
        "uncovered point is covered; internal covering bug"


def decide_q(elements, q: int, *, want_counterexample: bool = True,
             counterexample_bound: int = 10**4,
             ceiling: int = ENUMERATION_CEILING,
             monte_carlo: bool = False,
             reduction=None) -> Verdict:
    """Does the set contain a q-th power in Z_p for almost every p (odd q)?

    Pipeline: reduce each element mod (Q^x)^q, short-circuit on any trivial
    class, otherwise build hyperplanes and test the cover.
    """
    if q == 2 or not is_prime(q):
        raise ValueError("decide_q needs an odd prime; squares live elsewhere")
    xs = [factor(a) for a in elements]
    if not xs:
        raise ValueError("empty set has no verdict")
    excluded = default_exclusions(xs, q)

    uniq = dedupe(xs, q)
    for x in uniq:
        root = x.nth_root(q)  # the trivial class: odd q absorbs the sign
        if root is not None:
            return Verdict(HOLDS, PerfectPowerMember(str(x), str(root), q), excluded)
    reps = [reduce_class(x, q).rep for x in uniq]

    matrix, planes, _ = build_hyperplanes(reps, q)
    s = len(matrix.support)

    if monte_carlo and q**s > ceiling:
        miss = covers_sampled(planes, q, s)
        if miss is None:
            from .verdicts import Evidence, INCONCLUSIVE
            return Verdict(INCONCLUSIVE,
                           Evidence(reason="monte_carlo_no_miss_found"),
                           excluded)
        outcome: CoverOutcome = miss
    else:
        outcome = covers(planes, q, s, ceiling=ceiling)

    if isinstance(outcome, Covered):
        return Verdict(HOLDS,
                       HyperplaneCover(q, matrix.support, matrix.columns,
                                       reduction=reduction),
                       excluded)

    _verify_uncovered(outcome.point, [h.coeffs for h in planes], q)
    prime = None
    if want_counterexample:
        prime = find_counterexample(xs, q, counterexample_bound)
    cert = UncoveredPoint(q, matrix.support, matrix.columns, outcome.point,
                          reduction=reduction, counterexample_prime=prime)
    return Verdict(FAILS, cert, excluded)
