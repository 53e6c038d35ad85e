"""Hyperplane covering over F_q and the q-th power decision it encodes.

Each q-free integer a_j with exponents (mu_1j, ..., mu_sj) over the joint
support induces the linear form sum_i mu_ij x_i on F_q^s.  The set contains
a q-th power in Z_p for almost every p exactly when the kernels of these
forms cover all of F_q^s.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """The kernels cover all of F_q^s."""


@dataclass(frozen=True)
class Uncovered:
    point: tuple[int, ...]


CoverOutcome = Union[Covered, Uncovered]


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


def _normalize(form, q: int) -> Optional[tuple[int, ...]]:
    """The form scaled by F_q^* to a leading 1, or None for the zero form."""
    for c in form:
        if c % q:
            inv = pow(c, -1, q)
            return tuple(a * inv % q for a in form)
    return None


def _has_miss(forms, q: int, budget) -> bool:
    """Does some point lie off the kernels of these forms?

    The forms are nonzero and pairwise non-proportional.  At most q of them
    never cover, since F_q^r is not a union of q proper subspaces.  Otherwise
    r independent forms, found by elimination, become the coordinates y of
    the image and every other form a combination lam . y.  A miss is a y in
    {1} x (F_q^*)^(r-1) off every lam; the search assigns y one coordinate at
    a time and drops a branch once a fully assigned combination vanishes.
    Each value tried takes one item of budget.
    """
    if len(forms) <= q:
        return True
    width = len(forms[0])
    pivots = []   # (column, row with 1 there, that row as a combination of y)
    combos = []   # each dependent form as a combination of y
    for form in forms:
        row, lam = list(form), [0] * width
        for col, prow, pcombo in pivots:
            c = row[col]
            if c:
                row = [(a - c * b) % q for a, b in zip(row, prow)]
                lam = [(a + c * b) % q for a, b in zip(lam, pcombo)]
        col = next((i for i, a in enumerate(row) if a), None)
        if col is None:
            combos.append(lam)
            continue
        inv = pow(row[col], -1, q)
        pcombo = [-inv * a % q for a in lam]
        pcombo[len(pivots)] = inv
        pivots.append((col, [a * inv % q for a in row], pcombo))

    # coordinates no combination uses take any nonzero value; the others are
    # assigned most used first, so that combinations complete early
    uses = [sum(1 for lam in combos if lam[k]) for k in range(len(pivots))]
    order = sorted((k for k in range(len(pivots)) if uses[k]), key=lambda k: -uses[k])
    if not order:
        return True
    pos = {k: i for i, k in enumerate(order)}
    checks = [[] for _ in order]  # combinations by their last assigned coordinate
    for lam in combos:
        terms = sorted((pos[k], a) for k, a in enumerate(lam) if a)
        checks[terms[-1][0]].append(terms)

    # a combination uses two coordinates or more, since no two forms are
    # proportional; y[0] = 1 by scaling
    y = [1] * len(order)
    stack = [iter(range(1, q))]  # values left to try at coordinate len(stack)
    while stack:
        i = len(stack)
        for v in stack[-1]:
            if next(budget, None) is None:
                raise InstanceTooLarge("cover search passed its candidate ceiling")
            y[i] = v
            if all(sum(a * y[j] for j, a in terms) % q for terms in checks[i]):
                break
        else:
            stack.pop()
            continue
        if i + 1 == len(order):
            return True
        stack.append(iter(range(1, q)))
    return False


def _completable(forms, offsets, i: int, q: int, budget) -> bool:
    """Does some point with a fixed first i coordinates lie off every kernel?

    offsets[j] is the fixed coordinates' part a_j of form j.  Setting t = 1,
    such a point is a miss of the homogenised arrangement {t} and
    {a_j t + c'_j . x'}, where c'_j is form j on the free coordinates x'.
    """
    rests = [(a,) + form[i:] for a, form in zip(offsets, forms)]
    if not all(any(g) for g in rests):
        return False
    if len(rests) < q:
        return True  # with t at most q forms, which never cover
    arrangement = {(1,) + (0,) * (len(forms[0]) - i)}
    arrangement.update(_normalize(g, q) for g in rests)
    return _has_miss(sorted(arrangement), q, budget)


def covers(hyperplanes, q: int, s: int, ceiling: int = ENUMERATION_CEILING) -> CoverOutcome:
    """Covered, or Uncovered at the lexicographically least missed point.

    The point is fixed one coordinate at a time, each time to the least value
    whose prefix still extends to a miss.  ceiling bounds the coordinate
    values the projective searches try in total; past it InstanceTooLarge.
    """
    if not hyperplanes:
        raise ValueError("hyperplane list must be nonempty")
    forms = {_normalize(h.coeffs, q) for h in hyperplanes}
    if None in forms:
        return Covered()
    forms = sorted(forms)
    budget = iter(range(ceiling))  # one item per candidate value tried
    offsets = [0] * len(forms)
    if not _completable(forms, offsets, 0, q, budget):
        return Covered()
    point = []
    for i in range(s):
        for v in range(q):
            shifted = [(a + v * form[i]) % q for a, form in zip(offsets, forms)]
            # some value extends the prefix, so the last one needs no test
            if v == q - 1 or _completable(forms, shifted, i + 1, q, budget):
                break
        offsets = shifted
        point.append(v)
    return Uncovered(tuple(point))


def _verify_uncovered(point, forms, q) -> None:
    # certificate soundness: asserted before any Uncovered leaves the module
    assert all(sum(c * x for c, x in zip(coeffs, point)) % q != 0 for coeffs in forms), \
        "uncovered point is covered; internal covering bug"


def decide_q(elements, q: int, *, want_counterexample: bool = True,
             counterexample_bound: int = 10**4,
             ceiling: int = ENUMERATION_CEILING,
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
