"""Kernel covering over Z/n and the n-th power decision it encodes (odd n).

Each element a_j with exponent vector e_j over the joint support induces the
form x -> <x, e_j> mod n on (Z/n)^s.  For odd n the sign drops out and
Gal(Q(zeta_n, A^(1/n))/Q) = (Z/n)^s x| (Z/n)^x (Schinzel), so by Chebotarev
the set contains an n-th power in Q_p for almost every p exactly when the
kernels of these forms cover (Z/n)^s; one class is the one-column case, the
Grunwald-Wang theorem for odd n.  `covers` decides every odd n, prime or
not, on plain column tuples, by one search over the image of a reduced row
echelon form of the exponent matrix; a budget of candidate values bounds
it, past which it raises InstanceTooLarge.  `cover_verdict` is the one
criterion that classify.decide applies to the classes of every odd-n set,
and `decide_q` is that decision under its odd-n name.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import InstanceTooLarge
from .rationals import reduce_class
from .verdicts import FAILS, HOLDS, HyperplaneCover, UncoveredPoint, Verdict

ENUMERATION_CEILING = 1 << 24


def _echelon(columns, n: int, s: int):
    """(m_k, r_k, h_k) per generator of the image {x . E : x in (Z/n)^s},
    E the s x l matrix with these columns: h_k = r_k . E, of additive order
    m_k, and every image vector is sum t_k h_k at x = sum t_k r_k.

    Integer row operations, tracked in the rows r, keep the group the rows
    of E generate.  For each column in turn, Euclid on the rows not yet taken
    leaves one of them nonzero there.  Scaled by a unit so that this entry
    becomes the divisor d = gcd(entry, n), it becomes the generator of that
    pivot column and reduces the earlier generators' entries there below d.
    For prime n, d = 1 and each pivot column is touched by its own
    generator alone.
    """
    rows = [([col[p] % n for col in columns], [int(i == p) for i in range(s)])
            for p in range(s)]
    gens = []
    for j in range(len(columns)):
        while True:
            live = sorted((row for row in rows if row[0][j]), key=lambda row: row[0][j])
            if len(live) < 2:
                break
            h0, r0 = live[0]
            for h, r in live[1:]:
                c = h[j] // h0[j]
                h[:] = [(a - c * b) % n for a, b in zip(h, h0)]
                r[:] = [(a - c * b) % n for a, b in zip(r, r0)]
        if not live:
            continue
        rows.remove(live[0])
        h0, r0 = live[0]
        d = math.gcd(h0[j], n)
        u = pow(h0[j] // d, -1, n // d)  # u h0[j] = d mod n; make u a unit mod n
        while math.gcd(u, n) > 1:
            u += n // d
        h0, r0 = [u * a % n for a in h0], [u * a % n for a in r0]
        for h, r in gens:
            c = h[j] // d
            if c:
                h[:] = [(a - c * b) % n for a, b in zip(h, h0)]
                r[:] = [(a - c * b) % n for a, b in zip(r, r0)]
        gens.append((h0, r0))
    return [(n // math.gcd(n, *h), r, h) for h, r in gens]


def covers(columns, q: int, s: int, ceiling: int = ENUMERATION_CEILING):
    """None when the kernels of x -> <x, c> mod q, c over the columns, cover
    (Z/q)^s; otherwise some point of (Z/q)^s off every kernel, as a tuple.
    Any odd modulus q.

    The search runs over the image of the forms' matrix (_echelon): it
    assigns the coordinates t most used first and drops a branch once an
    assigned combination vanishes.  Points scale by units of Z/q, so while t
    is zero so far its next entry is 0 or a divisor of its modulus m below
    m.  ceiling bounds the values tried; past it InstanceTooLarge.
    """
    if not columns:
        raise ValueError("column list must be nonempty")
    gens = _echelon(columns, q, s)
    # column i of the image as a combination of the coordinates t_k
    terms = [[(k, h[i]) for k, (_, _, h) in enumerate(gens) if h[i]]
             for i in range(len(columns))]
    if not all(terms):
        return None  # a zero form mod q: its kernel is everything
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
            if all(sum(c * t[j] for j, c in ts) % q for ts in checks[i]):
                break
        else:
            stack.pop()
            continue
        if i + 1 < len(order):
            stack.append(values(i + 1, not any(t[:i + 1])))
            continue
        point = [0] * s
        for k, v in zip(order, t):
            point = [(x + v * y) % q for x, y in zip(point, gens[k][1])]
        return tuple(point)
    return None


def cover_verdict(xs, n: int, ceiling: int) -> Verdict:
    """Verdict for distinct integral classes mod (Q^x)^n, odd n, none of
    them a perfect n-th power: a cover of (Z/n)^s by the kernels of their
    exponent vectors mod n holds, an uncovered point fails.  The failing
    verdict carries no counterexample prime; classify.decide searches one.
    """
    reps = [reduce_class(x, n) for x in xs]
    support = tuple(sorted({p for x in reps for p in x.support()}))
    columns = tuple(tuple(x.exponent(p) for p in support) for x in reps)
    point = covers(columns, n, len(support), ceiling)
    if point is None:
        return Verdict(HOLDS, HyperplaneCover(n, support, columns))
    # certificate soundness: asserted before any point leaves the module
    assert all(sum(c * x for c, x in zip(col, point)) % n
               for col in columns), "uncovered point is covered; internal covering bug"
    return Verdict(FAILS, UncoveredPoint(n, support, columns, point))


def decide_q(elements, n: int, *, want_counterexample: bool = True,
             ceiling: int = ENUMERATION_CEILING) -> Verdict:
    """Does the set contain an n-th power in Z_p for almost every p (odd n)?

    classify.decide for odd n > 1, which reaches cover_verdict.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("decide_q needs an odd n; squares live elsewhere")
    from .classify import decide
    return decide(elements, n, want_counterexample=want_counterexample,
                  ceiling=ceiling)
