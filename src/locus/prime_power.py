"""Deciding q^m-th powers for odd q, and the subset-product oracle.

decide_prime_power is the cover test over Z/q^m (covering.decide_q).  The
oracle, the tests' reference for the cover test, is the paper's Skalba
criterion: it walks every exponent tuple c in (Z/q^m)^l in
lexicographic order and looks for disjoint index sets B, C with
|B| != |C| mod q whose weighted product ratio is a perfect q^m-th power; the
first tuple with no such pair is the witness.  It exists to be dumb and
trustworthy; the only liberties taken are these:
- tuples are enumerated mod q^m: a^(q^m) is itself a perfect q^m-th power;
- B, C may be assumed disjoint: shared indices cancel from the ratio and
  shift |B|, |C| equally;
- tuples sharing a prefix share the sums of the prefix's sign vectors: the
  ratio's exponent vector is the sum of the prefix's terms and the rest's;
- a prefix that some pair already satisfies skips its subtree: the same pair
  with no later index satisfies every completion.
The search stops past ORACLE_WORK_BUDGET reach entries, and a witness is
re-checked on every sign vector, on exponent vectors read afresh from the
factored elements, before it is returned.  The answer is an OracleAnswer,
no certificate: only classify.decide writes verdict documents.
"""

from __future__ import annotations

from itertools import product
from operator import mul
from typing import NamedTuple, Optional

from .covering import decide_q
from .errors import NonUnitExponent, OracleLimitExceeded
from .primes import is_prime
from .rationals import FactoredRational, factor_set
from .verdicts import FAILS, HOLDS, Verdict

ORACLE_ELEMENT_LIMIT = 8
ORACLE_MODULUS_LIMIT = 27
# reach entries the oracle's search may touch: 2^20 take about 3 s on eight
# elements over four primes (Python 3.11); no tier-1 or benchmark instance
# needs more than 1,500
ORACLE_WORK_BUDGET = 1 << 20


class OracleSearch(NamedTuple):
    """The first witness tuple c, None when every tuple admits a pair, and
    the tuples checked up to it, or all (q^m)^l of them."""

    c: Optional[tuple[int, ...]]
    tuples_checked: int


class OracleAnswer(NamedTuple):
    status: str
    certificate: OracleSearch

    def holds(self) -> bool:
        return self.status == HOLDS

    def fails(self) -> bool:
        return self.status == FAILS


def skalba_oracle(elements, q: int, m: int) -> OracleAnswer:
    """Exact q^m-th power decision by exhaustive subset-product search."""
    if q == 2 or not is_prime(q):
        raise ValueError("the subset-product criterion needs an odd prime q")
    xs = factor_set(elements)
    l = len(xs)
    qm = q**m
    if l > ORACLE_ELEMENT_LIMIT:
        raise OracleLimitExceeded(
            f"{l} elements exceeds oracle limit {ORACLE_ELEMENT_LIMIT}")
    if qm > ORACLE_MODULUS_LIMIT:
        raise OracleLimitExceeded(
            f"q^m = {qm} exceeds oracle limit {ORACLE_MODULUS_LIMIT}")
    if l == 0:
        raise ValueError("empty set has no verdict")

    # table[j][c] is the exponent vector of a_j^c mod q^m on the support:
    # the same factored arithmetic (multiplication adds exponents), just
    # without object churn
    support = sorted({p for x in xs for p in x.support()})
    table = [[tuple(c * x.exponent(p) % qm for p in support) for c in range(qm)]
             for x in xs]
    witness, checked = _first_witness(table, q, qm)

    if witness is None:
        return OracleAnswer(HOLDS, OracleSearch(None, checked))

    # re-verify before returning, on exponent vectors read afresh from the
    # factored elements, not from table: for odd q^m the ratio of a pair is
    # a q^m-th power exactly when sum s_j c_j e_j = 0 mod q^m; the sign
    # vectors are those of every disjoint B, C with |B| != |C| mod q
    rows = [[cj * x.exponent(p) for cj, x in zip(witness, xs)] for p in support]
    for signs in product((0, 1, -1), repeat=l):
        if (signs.count(1) - signs.count(-1)) % q:
            assert any(sum(map(mul, signs, row)) % qm for row in rows), \
                "skalba witness admits a perfect-power pair; oracle bug"
    return OracleAnswer(FAILS, OracleSearch(witness, checked))


def _first_witness(table, q: int, qm: int):
    """(the lexicographically first tuple c that no sign vector satisfies, or
    None; the tuples up to and including it, or all (q^m)^l of them).

    A sign vector s in {-1, 0, 1}^l satisfies c when sum s_j c_j v_j = 0 mod
    q^m and its count #{s_j = 1} - #{s_j = -1} is nonzero mod q.  Depth first
    over the prefixes of c that nothing satisfies yet, `reach` maps each
    partial sum over the prefix to the bitmask of the counts mod q that reach
    it; its zero vector reaches count 0 alone.
    """
    l = len(table)
    full = (1 << q) - 1
    ends_up = full & ~(1 << (q - 1))   # counts d with d + 1 != 0 mod q
    ends_down = full & ~(1 << 1)       # counts d with d - 1 != 0 mod q
    work = 0
    checked = 0

    def spend(entries):
        nonlocal work
        work += entries
        if work > ORACLE_WORK_BUDGET:
            raise OracleLimitExceeded(
                f"oracle work budget exceeded: {work} reach entries touched "
                f"(budget {ORACLE_WORK_BUDGET}), {checked} tuples checked")

    def walk(depth, reach):
        nonlocal checked
        # c_depth is satisfied, with signs 0 after it, exactly when its
        # vector t completes some entry u to zero by s = +1 (t = -u) or
        # s = -1 (t = u) with a nonzero count
        spend(len(reach))
        good = set()
        for u, mask in reach.items():
            if mask & ends_up:
                good.add(tuple(-a % qm for a in u))
            if mask & ends_down:
                good.add(u)
        rest = qm ** (l - depth - 1)
        for c, t in enumerate(table[depth]):
            if t in good:
                checked += rest
                continue
            if depth == l - 1:
                checked += 1
                return (c,)
            spend(len(reach))
            nxt = dict(reach)
            for u, mask in reach.items():
                up = ((mask << 1) | (mask >> (q - 1))) & full
                down = ((mask >> 1) | (mask << (q - 1))) & full
                w = tuple((a + b) % qm for a, b in zip(u, t))
                nxt[w] = nxt.get(w, 0) | up
                w = tuple((a - b) % qm for a, b in zip(u, t))
                nxt[w] = nxt.get(w, 0) | down
            found = walk(depth + 1, nxt)
            if found is not None:
                return (c,) + found
        return None

    witness = walk(0, {table[0][0]: 1})  # the empty prefix: zero, count 0
    return witness, checked


def decide_prime_power(elements, q: int, m: int, *,
                       want_counterexample: bool = True) -> Verdict:
    """Does the set contain a q^m-th power in Z_p for almost every p (odd q)?"""
    if q == 2 or not is_prime(q):
        raise ValueError("decide_prime_power needs an odd prime q")
    return decide_q(elements, q**m, want_counterexample=want_counterexample)


def exponentiate_classes(elements, c, q: int) -> list[FactoredRational]:
    """{a_j^(c_j)} for unit exponents mod q; negative entries allowed."""
    xs = factor_set(elements)
    if len(c) != len(xs):
        raise ValueError("exponent vector length mismatch")
    for cj in c:
        if cj % q == 0:
            raise NonUnitExponent(f"{cj} is divisible by {q}")
    return [x**cj for x, cj in zip(xs, c)]
