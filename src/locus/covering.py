"""Kernel covering over Z/n and the n-th power decision it encodes (odd n).

Each element a_j with exponent vector e_j over the joint support induces the
form x -> <x, e_j> mod n on (Z/n)^s.  For odd n the sign drops out and
Gal(Q(zeta_n, A^(1/n))/Q) = (Z/n)^s x| (Z/n)^x (Schinzel), so by Chebotarev
the set contains an n-th power in Q_p for almost every p exactly when the
kernels of these forms cover (Z/n)^s.  `covers` decides a prime n on the
projective image after elimination over F_q; `covers_mod` decides any odd n
on the image of a diagonal form of the exponent matrix.  Both spend one
budget of candidate values and raise InstanceTooLarge past it.
"""

from __future__ import annotations

import math
from collections import Counter
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
    """Kernel of a nonzero linear form over (Z/q)^s."""

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
    """The kernels cover all of (Z/q)^s."""


@dataclass(frozen=True)
class Uncovered:
    point: tuple[int, ...]


CoverOutcome = Union[Covered, Uncovered]


def build_hyperplanes(elements, q: int):
    """(matrix, hyperplanes, trivial_flag) for a set of q-free integers.

    Inputs must be q-free (exponents in [0, q)) and not +-1; the sign plays
    no role for odd q since -1 is a q-th power.  q need not be prime.
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


def _diagonal_form(columns, n: int):
    """(m_k, r_k) per generator of the image {x . E : x in (Z/n)^s}, E the
    s x l matrix with these columns: each image vector is x . E at
    x = sum t_k r_k for exactly one t in prod Z/m_k.

    Row and column operations over Z/n bring E to a diagonal D = R E C, by
    Euclid on the least nonzero entry.  With r_k row k of R, r_k . E is d_k
    times row k of C^-1, and t -> t d_k maps Z/m_k one to one onto the
    multiples of gcd(d_k, n) = n / m_k.
    """
    s, l = len(columns[0]), len(columns)
    a = [[col[p] % n for col in columns] for p in range(s)]
    rows = [[int(i == j) for j in range(s)] for i in range(s)]  # R
    out = []
    for k in range(min(s, l)):
        while True:
            rest = [(a[i][j], i, j) for i in range(k, s) for j in range(k, l) if a[i][j]]
            if not rest:
                return out
            d, i, j = min(rest)
            a[k], a[i], rows[k], rows[i] = a[i], a[k], rows[i], rows[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
            for i in range(k + 1, s):  # row i -= c row k, leaving a[i][k] < d
                c = a[i][k] // d
                a[i] = [(x - c * y) % n for x, y in zip(a[i], a[k])]
                rows[i] = [(x - c * y) % n for x, y in zip(rows[i], rows[k])]
            for j in range(k + 1, l):  # column j -= c column k
                c = a[k][j] // d
                for row in a:
                    row[j] = (row[j] - c * row[k]) % n
            if not any(a[i][k] for i in range(k + 1, s)) and not any(a[k][k + 1:]):
                break
        out.append((n // math.gcd(d, n), rows[k]))
    return out


def covers_mod(columns, n: int, ceiling: int = ENUMERATION_CEILING) -> CoverOutcome:
    """Covered, or Uncovered at a point of (Z/n)^s off every kernel of
    x -> <x, col> mod n.

    The search assigns the coordinates t of the image (_diagonal_form) most
    used first and drops a branch once an assigned combination vanishes.
    Points scale by units of Z/n, so while t is zero so far its next entry
    is 0 or a divisor of its modulus m below m.  ceiling bounds the values
    tried; past it InstanceTooLarge.
    """
    if not columns:
        raise ValueError("column list must be nonempty")
    gens = _diagonal_form(columns, n)
    # column i of the image as a combination of the coordinates t_k
    terms = [[(k, c) for k, (_, r) in enumerate(gens)
              if (c := sum(x * y for x, y in zip(r, col)) % n)] for col in columns]
    if not all(terms):
        return Covered()  # a zero column: its kernel is everything
    uses = Counter(k for ts in terms for k, _ in ts)
    order = sorted(uses, key=lambda k: -uses[k])
    pos = {k: i for i, k in enumerate(order)}
    checks = [[] for _ in order]  # combinations by their last assigned coordinate
    for ts in terms:
        ts = sorted((pos[k], c) for k, c in ts)
        checks[ts[-1][0]].append(ts)

    def values(i, zero_so_far):
        m = gens[order[i]][0]
        return iter([0] + [d for d in range(1, m) if m % d == 0] if zero_so_far
                    else range(m))

    budget = iter(range(ceiling))
    t = [0] * len(order)
    stack = [values(0, True)]
    while stack:
        i = len(stack) - 1
        for v in stack[-1]:
            if next(budget, None) is None:
                raise InstanceTooLarge("cover search passed its candidate ceiling")
            t[i] = v
            if all(sum(c * t[j] for j, c in ts) % n for ts in checks[i]):
                break
        else:
            stack.pop()
            continue
        if i + 1 < len(order):
            stack.append(values(i + 1, not any(t[:i + 1])))
            continue
        point = [0] * len(columns[0])
        for k, v in zip(order, t):
            point = [(x + v * y) % n for x, y in zip(point, gens[k][1])]
        return Uncovered(tuple(point))
    return Covered()


def decide_q(elements, n: int, *, want_counterexample: bool = True,
             counterexample_bound: int = 10**4,
             ceiling: int = ENUMERATION_CEILING) -> Verdict:
    """Does the set contain an n-th power in Z_p for almost every p (odd n)?

    Pipeline: reduce each element mod (Q^x)^n, short-circuit on any trivial
    class, otherwise test the cover of (Z/n)^s: by `covers` for prime n and
    by `covers_mod` otherwise.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("decide_q needs an odd n; squares live elsewhere")
    xs = [factor(a) for a in elements]
    if not xs:
        raise ValueError("empty set has no verdict")
    excluded = default_exclusions(xs, n)

    uniq = dedupe(xs, n)
    for x in uniq:
        root = x.nth_root(n)  # the trivial class: odd n absorbs the sign
        if root is not None:
            return Verdict(HOLDS, PerfectPowerMember(str(x), str(root), n), excluded)
    reps = [reduce_class(x, n).rep for x in uniq]

    matrix, planes, _ = build_hyperplanes(reps, n)
    s = len(matrix.support)

    if is_prime(n):
        outcome = covers(planes, n, s, ceiling=ceiling)
    else:
        outcome = covers_mod(matrix.columns, n, ceiling=ceiling)
    if isinstance(outcome, Covered):
        return Verdict(HOLDS, HyperplaneCover(n, matrix.support, matrix.columns),
                       excluded)

    # certificate soundness: asserted before any Uncovered leaves the module
    assert all(sum(c * x for c, x in zip(col, outcome.point)) % n
               for col in matrix.columns), "uncovered point is covered; internal covering bug"
    prime = None
    if want_counterexample:
        prime = find_counterexample(xs, n, counterexample_bound)
    cert = UncoveredPoint(n, matrix.support, matrix.columns, outcome.point,
                          counterexample_prime=prime)
    return Verdict(FAILS, cert, excluded)
