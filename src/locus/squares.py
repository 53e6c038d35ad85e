"""The squares criterion.

A set contains a square in Z_p for almost every odd prime exactly when some
odd-cardinality subset has a perfect-square product.  Over GF(2) that is a
kernel vector of the (sign row + exponent-parity rows) matrix with odd
weight, which Gaussian elimination finds directly.  Other powers of 2 are
routed by classify.decide.
"""

from __future__ import annotations

from .errors import ZeroInput
from .rationals import FactoredRational, dedupe, factor, is_perfect_power
from .sieve import default_exclusions, find_counterexample
from .verdicts import (FAILS, HOLDS, OddSubsetWitness, ParityObstruction,
                       PerfectPowerMember, Verdict)

_NULLSPACE_ENUM_LIMIT = 16


def _solve_gf2(rows: list[int], rhs: list[int], ncols: int):
    """Solve M x = rhs over GF(2); each row is a bitmask over the columns.

    Returns (particular solution, nullspace basis) as bitmasks, or None when
    the system is inconsistent.
    """
    echelon: dict[int, tuple[int, int]] = {}  # pivot column -> (row, b)
    for row, b in zip(rows, rhs):
        cur, cb = row, b
        while cur:
            col = (cur & -cur).bit_length() - 1
            if col in echelon:
                prow, pb = echelon[col]
                cur ^= prow
                cb ^= pb
            else:
                echelon[col] = (cur, cb)
                break
        else:
            if cb:
                return None

    def back_solve(x_free: int, use_rhs: bool) -> int:
        # pivot rows carry only higher columns besides their pivot, so a
        # high-to-low sweep sees every dependency already settled
        x = x_free
        for col in sorted(echelon, reverse=True):
            prow, pb = echelon[col]
            rest = prow & ~(1 << col)
            val = (pb if use_rhs else 0) ^ (bin(rest & x).count("1") & 1)
            if val:
                x |= 1 << col
        return x

    particular = back_solve(0, True)
    basis = [back_solve(1 << c, False) for c in range(ncols) if c not in echelon]
    return particular, basis


def _build_matrix(xs: list[FactoredRational]):
    support = sorted({p for x in xs for p in x.support()})
    labels = ["sign"] + [str(p) for p in support]
    rows = []
    sign_row = 0
    for j, x in enumerate(xs):
        if x.sign == -1:
            sign_row |= 1 << j
    rows.append(sign_row)
    for p in support:
        row = 0
        for j, x in enumerate(xs):
            if x.exponent(p) % 2:
                row |= 1 << j
        rows.append(row)
    return rows, labels


def _best_odd_solution(particular: int, basis: list[int], ncols: int):
    """Smallest-weight, then lexicographically least, solution bitmask."""
    if len(basis) > _NULLSPACE_ENUM_LIMIT:
        return particular  # best effort beyond enumeration reach
    best = None
    for mask in range(1 << len(basis)):
        v = particular
        k = mask
        i = 0
        while k:
            if k & 1:
                v ^= basis[i]
            k >>= 1
            i += 1
        key = (bin(v).count("1"), tuple(j for j in range(ncols) if v >> j & 1))
        if best is None or key < best[0]:
            best = (key, v)
    return best[1]


def decide_square(elements, *, want_counterexample: bool = True,
                  counterexample_bound: int = 10**4) -> Verdict:
    """Fried / Filaseta-Richman criterion with witness extraction."""
    xs = [factor(a) for a in elements]
    if not xs:
        raise ZeroInput("empty set has no verdict")
    excluded = default_exclusions(xs, 2)
    uniq = dedupe(xs, 2)

    l = len(uniq)
    rows, labels = _build_matrix(uniq)
    # parity constraint sum x_j = 1 appended as an all-ones row
    solved = _solve_gf2(rows + [(1 << l) - 1], [0] * len(rows) + [1], l)

    if solved is not None:
        particular, basis = solved
        pick = _best_odd_solution(particular, basis, l)
        indices = tuple(j for j in range(l) if pick >> j & 1)
        prod = FactoredRational.one()
        for j in indices:
            prod = prod * uniq[j]
        root = prod.nth_root(2)
        assert root is not None and len(indices) % 2 == 1, \
            "odd-subset witness does not square; elimination bug"
        return Verdict(HOLDS,
                       OddSubsetWitness(tuple(j + 1 for j in indices), str(root)),
                       excluded)

    # infeasible: the all-ones functional is a combination of matrix rows
    combo = _solve_gf2(_transpose(rows, l), [1] * l, len(rows))
    assert combo is not None, "parity functional not in row space despite infeasibility"
    row_pick, _ = combo
    picked = tuple(labels[i] for i in range(len(rows)) if row_pick >> i & 1)
    acc = 0
    for i in range(len(rows)):
        if row_pick >> i & 1:
            acc ^= rows[i]
    assert acc == (1 << l) - 1, "row combination does not reproduce all-ones"
    prime = None
    if want_counterexample:
        prime = find_counterexample(xs, 2, counterexample_bound)
    return Verdict(FAILS, ParityObstruction(picked, counterexample_prime=prime),
                   excluded)


def _transpose(rows: list[int], ncols: int) -> list[int]:
    out = []
    for c in range(ncols):
        v = 0
        for i, row in enumerate(rows):
            if row >> c & 1:
                v |= 1 << i
        out.append(v)
    return out


def decide_two_power(elements, a0: int, *, want_counterexample: bool = True,
                     counterexample_bound: int = 10**4) -> Verdict:
    """Decision for n = 2^a0.

    a0 = 1 is the exact squares criterion (a perfect square member first);
    a0 >= 2 is classify.decide with n = 2^a0.
    """
    if a0 >= 2:
        from .classify import decide
        return decide(elements, 2**a0, want_counterexample=want_counterexample,
                      counterexample_bound=counterexample_bound)
    xs = [factor(a) for a in elements]
    for x in xs:
        if is_perfect_power(x, 2):
            return Verdict(HOLDS, PerfectPowerMember(str(x), str(x.nth_root(2)), 2),
                           default_exclusions(xs, 2))
    return decide_square(xs, want_counterexample=want_counterexample,
                         counterexample_bound=counterexample_bound)
