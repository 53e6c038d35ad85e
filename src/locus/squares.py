"""The squares criterion, n = 2.

A set contains a square in Q_p for almost every prime p exactly when some
odd-cardinality subset of its classes mod squares has a square product
(Fried; Filaseta-Richman).  Over GF(2) that is an x with M x = 0 and an
odd weight, M the (sign row + exponent-parity rows) matrix: a solution of
[M; all-ones] x = [0; 1].  One elimination either solves it, and the
least such subset is the witness, or reduces the all-ones row to zero,
and the rows it was reduced by XOR to all-ones, so every kernel vector of
M has even weight.  square_verdict applies it to the classes and columns
classify.decide keys; decide_square and decide_two_power are calls into
decide.
"""

from __future__ import annotations

from .rationals import FactoredRational
from .verdicts import FAILS, HOLDS, OddSubsetWitness, ParityObstruction, Verdict

_NULLSPACE_ENUM_LIMIT = 16


def _solve_gf2(rows: list[int], rhs: list[int], ncols: int):
    """Solve M x = rhs over GF(2); each row is a bitmask over the columns.

    Returns (particular solution, nullspace basis) as bitmasks, or, when the
    system is inconsistent, (None, the bitmask of the input rows whose sum
    is the zero row with right-hand side 1).  Each echelon row records the
    input rows it sums, so the obstruction comes out of the same pass.
    """
    echelon: dict[int, tuple[int, int, int]] = {}  # pivot column -> (row, b, rows summed)
    for i, (row, b) in enumerate(zip(rows, rhs)):
        cur, cb, used = row, b, 1 << i
        while cur:
            col = (cur & -cur).bit_length() - 1
            if col not in echelon:
                echelon[col] = (cur, cb, used)
                break
            prow, pb, pused = echelon[col]
            cur, cb, used = cur ^ prow, cb ^ pb, used ^ pused
        else:
            if cb:
                return None, used

    def back_solve(x_free: int, use_rhs: bool) -> int:
        # pivot rows carry only higher columns besides their pivot, so a
        # high-to-low sweep sees every dependency already settled
        x = x_free
        for col in sorted(echelon, reverse=True):
            prow, pb, _ = echelon[col]
            rest = prow & ~(1 << col)
            val = (pb if use_rhs else 0) ^ (bin(rest & x).count("1") & 1)
            if val:
                x |= 1 << col
        return x

    particular = back_solve(0, True)
    basis = [back_solve(1 << c, False) for c in range(ncols) if c not in echelon]
    return particular, basis


def _best_odd_solution(particular: int, basis: list[int], ncols: int):
    """Smallest-weight, then lexicographically least, solution bitmask."""
    if len(basis) > _NULLSPACE_ENUM_LIMIT:
        return particular  # best effort beyond enumeration reach
    best = None
    for mask in range(1 << len(basis)):
        v = particular
        for i, b in enumerate(basis):
            if mask >> i & 1:
                v ^= b
        key = (bin(v).count("1"), tuple(j for j in range(ncols) if v >> j & 1))
        if best is None or key < best[0]:
            best = (key, v)
    return best[1]


def square_verdict(xs: list[FactoredRational], support, columns) -> Verdict:
    """Verdict for distinct integral classes mod squares, none a square,
    and their columns over the support: the least odd subset with a square
    product, indexed 1-based into xs, or the labels of the rows that XOR to
    all-ones.  The failing verdict carries no counterexample prime;
    classify.decide searches one.
    """
    l = len(xs)
    # row i of M is entry i of every column, as a bitmask over the classes
    rows = [sum(col[i] << j for j, col in enumerate(columns)) for i in range(len(support))]
    labels = ["sign" if p == -1 else str(p) for p in support]
    everything = (1 << l) - 1
    solution, rest = _solve_gf2(rows + [everything], [0] * len(rows) + [1], l)

    if solution is None:
        picked = [i for i in range(len(rows)) if rest >> i & 1]
        acc = 0
        for i in picked:
            acc ^= rows[i]
        assert acc == everything, "row combination does not reproduce all-ones"
        return Verdict(FAILS, ParityObstruction(tuple(labels[i] for i in picked)))

    pick = _best_odd_solution(solution, rest, l)
    indices = tuple(j for j in range(l) if pick >> j & 1)
    prod = FactoredRational.one()
    for j in indices:
        prod = prod * xs[j]
    root = prod.nth_root(2)
    assert root is not None and len(indices) % 2 == 1, \
        "odd-subset witness does not square; elimination bug"
    return Verdict(HOLDS, OddSubsetWitness(tuple(j + 1 for j in indices), str(root)))


def decide_square(elements, *, want_counterexample: bool = True) -> Verdict:
    """classify.decide with n = 2: the Fried / Filaseta-Richman criterion."""
    from .classify import decide
    return decide(elements, 2, want_counterexample=want_counterexample)


def decide_two_power(elements, a0: int, *, want_counterexample: bool = True) -> Verdict:
    """classify.decide with n = 2^a0; the name stays for bench/spans.py,
    which traces it."""
    from .classify import decide
    return decide(elements, 2**a0, want_counterexample=want_counterexample)
