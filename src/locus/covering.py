"""Kernel covering over Z/g and the n-th power decision it encodes, n >= 3.

Take the classes a_i of a set mod (Q^x)^n, with exponent vectors e_i over
their joint support S.  Let N = lcm(2n, 8 * the odd primes of S) and M =
Q(zeta_N, p^(1/n) : p in S), real positive roots.  By Schinzel's theorem
Gal(M/Q) is the set of pairs (x, t) in (Z/n)^S x (Z/N)^x with x_p odd, for
even n, exactly when the Jacobi symbol (p/t) is -1, since sqrt(p) is all of
<S> that becomes an n-th power in Q(zeta_N).  (x, t) fixes a root of
X^n - a_i exactly when g = gcd(t - 1, n) divides <x, e_i> + h [a_i < 0],
h = (t - 1)/2, the n-th root of -1 being zeta_2n; for odd n the sign drops
out.  By Chebotarev the set contains an n-th power in Q_p for almost every
p exactly when every pair fixes some root.  Only t mod 2n matters: it fixes
g and h, and the parity of x_p for the p whose (p/t) has conductor
dividing 2n, the odd p | n and 2 when 4 | n; every other parity is free.
So the criterion is at most phi(2n) affine cover problems over Z/g, one
per class t (_classes); for odd n the class t = 1 alone decides, the cover
of (Z/n)^S by the kernels of the e_i.

`_search` searches one problem on plain column tuples, over the image of a
reduced row echelon form of the matrix moved by the constants; a budget of
candidate values bounds it, past which it raises InstanceTooLarge.
`covers` is that search with no constants, the linear problem alone.
`class_columns` gives the support and columns of a set's classes, for
this criterion and for squares.square_verdict.  `cover_verdict` is the one
criterion that classify.decide applies to the classes of every set with
n >= 3, and `decide_q` is that decision under its odd-n name.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import islice

from .errors import InstanceTooLarge
from .primes import jacobi
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
    Any modulus q.  ceiling bounds the values tried; past it
    InstanceTooLarge.
    """
    if not columns:
        raise ValueError("column list must be nonempty")
    return _search(columns, q, s, (0,) * len(columns), iter(range(ceiling)))


def _search(columns, q: int, s: int, shift, budget):
    """covers for the affine forms x -> <x, c> + c_0 mod q, c over the
    columns and c_0 its constant in shift, drawing each value tried from the
    iterator budget, which several searches may share.

    The search runs over the image of the forms' matrix (_echelon), moved
    by the shift: it assigns the coordinates t most used first and drops a
    branch once an assigned form vanishes.  While no form that can vanish
    has a constant, points scale by units of Z/q, so while t is zero so far
    its next entry is 0 or a divisor of its modulus m below m.
    """
    if any(c % q == 0 and not any(e % q for e in col) for col, c in zip(columns, shift)):
        return None  # a form that vanishes everywhere
    gens = _echelon(columns, q, s)
    # column i of the image as a combination of the coordinates t_k
    terms = [[(k, h[i]) for k, (_, _, h) in enumerate(gens) if h[i]]
             for i in range(len(columns))]
    forms = [(ts, c) for ts, c in zip(terms, shift) if ts]  # the rest never vanish
    uses = Counter(k for ts, _ in forms for k, _ in ts)
    order = sorted(uses, key=lambda k: -uses[k])
    if not order:
        return (0,) * s
    pos = {k: i for i, k in enumerate(order)}
    checks = [[] for _ in order]  # forms by their last assigned coordinate
    scale = True  # units of Z/q map misses to misses while no constant counts
    for ts, c in forms:
        ts = sorted((pos[k], a) for k, a in ts)
        last = ts[-1][0]
        if c % q:  # the constant is the coefficient of a last entry of t, held at 1
            ts.append((-1, c))
            scale = False
        checks[last].append(ts)

    def values(i, zero_so_far):
        m = gens[order[i]][0]
        return iter([0] + [d for d in range(1, m) if m % d == 0]
                    if scale and zero_so_far else range(m))

    t = [0] * len(order) + [1]
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


def _classes(n: int, support, budget) -> list:
    """(t, g, pins) per class of Frobenius elements (x, t) to search, t an
    odd unit below 2n: a point x lives mod g = gcd(t - 1, n), and for each
    (j, a, b) in pins its coordinate j is a + b y_j, y free, where the
    coordinates not pinned are y_j themselves.  The sign entry -1 is pinned
    to h = (t - 1)/2 (b = 0); an odd p | n, and 2 when 4 | n, to the parity
    [(p/t) = -1] (b = 2), since sqrt(p) lies in Q(zeta_2n).  One class per
    distinct (g, pins), the least t first, smallest g first.  The walk draws
    one value from budget per odd t, all n of them before it starts.  For
    odd n the class t = 1 (g = n, nothing pinned) alone decides: a point off
    every kernel mod a divisor g of n, times n/g, is one mod n.
    """
    if n % 2:
        return [(1, n, ())]
    pinned = [(j, p) for j, p in enumerate(support)
              if p == -1 or n % (4 if p == 2 else p) == 0]
    if next(islice(budget, n - 1, None), None) is None:
        raise InstanceTooLarge("class walk passed its candidate ceiling")
    found = {}
    for t in range(1, 2 * n, 2):
        if math.gcd(t, n) == 1:
            g = math.gcd(t - 1, n)
            pins = tuple((j, (t - 1) // 2 % g, 0) if p == -1
                         else (j, int(jacobi(p, t) == -1), 2) for j, p in pinned)
            found.setdefault((g, pins), t)
    return sorted(((t, g, pins) for (g, pins), t in found.items()), key=lambda c: c[1])


def class_columns(xs, n: int):
    """The joint support of the classes of xs mod (Q^x)^n, led for even n
    by the sign entry -1, and their exponent vectors mod n over it, with 1
    at -1 for a negative class."""
    reps = [reduce_class(x, n) for x in xs]
    primes = sorted({p for x in reps for p in x.support()})
    support = tuple(primes) if n % 2 else (-1, *primes)
    return support, tuple(tuple(x.exponent(p) if p > 0 else int(x.sign < 0)
                                for p in support) for x in reps)


def cover_verdict(xs, n: int, ceiling: int) -> Verdict:
    """Verdict for distinct integral classes mod (Q^x)^n, n >= 3, none of
    them a perfect n-th power, with the columns of class_columns.  Each
    class of _classes is an affine cover problem over Z/g; the walk over the
    classes and every search draw on one budget of ceiling values.  A point
    where every column's form is nonzero mod g fails, with its t for even
    n; if no class has one, the set holds.  The failing verdict carries no
    counterexample prime; classify.decide searches one.
    """
    support, columns = class_columns(xs, n)
    budget = iter(range(ceiling))
    for t, g, pins in _classes(n, support, budget):
        moved, shift = columns, [0] * len(columns)
        for j, a, b in pins:
            moved = [col[:j] + (b * col[j],) + col[j + 1:] for col in moved]
            shift = [c + a * col[j] for c, col in zip(shift, columns)]
        y = _search(moved, g, len(support), shift, budget)
        if y is None:
            continue
        point = list(y)
        for j, a, b in pins:
            point[j] = a + b * y[j]
        point = tuple(v % g for v in point)
        # certificate soundness: asserted before any point leaves the module
        assert all(sum(c * x for c, x in zip(col, point)) % g
                   for col in columns), "uncovered point is covered; internal covering bug"
        return Verdict(FAILS, UncoveredPoint(n, support, columns, point,
                                             t=None if n % 2 else t))
    return Verdict(HOLDS, HyperplaneCover(n, support, columns))


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
