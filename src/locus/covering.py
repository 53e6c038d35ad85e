"""Kernel covering over Z/g and the n-th power decision it encodes, n >= 2.

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
of (Z/n)^S by the kernels of the e_i.  For n = 2 the classes are t = 1 and
t = 3 mod 4, g = 2, the sign pinned to 0 and to 1 and every prime free: the
set holds exactly when no x in (Z/2)^(1+|S|) has <x, e_i> = 1 for every
class, that is when the all-ones vector is no sum of rows of the parity
matrix, that is when some odd subset of the classes has a square product
(Fried).

`_search` searches one problem on plain column tuples: one recursion over
the image of a reduced row echelon form of the matrix (_echelon, one pass
over its rows augmented by the identity), moved by the constants; a budget
of candidate values bounds it, past which it raises InstanceTooLarge.  The
budget is verify.COVER_RECHECK_LIMIT, read at the start of each call: the
verifier walks the same classes and generators and draws the same values,
so every cover the engine emits re-checks.
`_classes` pins the coordinates it fixes to a + b y and leaves the rest
free.  `covers` is that search with no constants, the linear problem
alone.  `cover_verdict` is the one criterion that classify.decide applies
to every set, for every n >= 2, on the exponent columns of its classes
(classify.exponent_classes, which keys each class once), and `decide_q` is
that decision under its odd-n name.
"""

from __future__ import annotations

import math
from itertools import islice

from . import verify
from .errors import InstanceTooLarge
from .primes import divisors, jacobi
from .verdicts import FAILS, HOLDS, HyperplaneCover, UncoveredPoint, Verdict


def _echelon(columns, n: int, s: int):
    """(m_k, r_k, h_k) per generator of the image {x . E : x in (Z/n)^s},
    E the s x l matrix with these columns: h_k = r_k . E, of additive order
    m_k, and every image vector is sum t_k h_k at x = sum t_k r_k.

    Each row of E carries its row of the identity after it, so integer row
    operations keep both the group the rows generate and the x behind each
    row.  For each column in turn, Euclid on the rows not yet taken leaves
    one of them nonzero there.  Scaled by a unit so that this entry becomes
    the divisor d = gcd(entry, n), it becomes the generator of that pivot
    column and reduces the earlier generators' entries there below d.  For
    prime n, d = 1 and each pivot column is touched by its own generator
    alone.  Once every row is taken, the later columns have nothing left to
    reduce, so the loop stops there.
    """
    l = len(columns)
    rows = [[col[p] % n for col in columns] + [0] * s for p in range(s)]
    for p, row in enumerate(rows):
        row[l + p] = 1
    gens = []
    for j in range(l):
        if not rows:
            break  # full rank: every later column is a no-op
        while True:
            live = [row for row in rows if row[j]]
            if len(live) < 2:
                break
            live.sort(key=lambda row: row[j])
            top = live[0]
            for row in live[1:]:
                c = row[j] // top[j]
                row[:] = [(a - c * b) % n for a, b in zip(row, top)]
        if not live:
            continue
        top = live[0]
        rows.remove(top)  # top alone is nonzero at j, so this is top itself
        d = math.gcd(top[j], n)
        u = pow(top[j] // d, -1, n // d)  # u h[j] = d mod n; make u a unit mod n
        while math.gcd(u, n) > 1:
            u += n // d
        pivot = top if u == 1 else [u * a % n for a in top]
        for row in gens:
            c = row[j] // d
            if c:
                row[:] = [(a - c * b) % n for a, b in zip(row, pivot)]
        gens.append(pivot)
    return [(n // math.gcd(n, *row[:l]), row[l:], row[:l]) for row in gens]


def covers(columns, q: int, s: int):
    """None when the kernels of x -> <x, c> mod q, c over the columns, cover
    (Z/q)^s; otherwise some point of (Z/q)^s off every kernel, as a tuple.
    Any modulus q.  Past verify.COVER_RECHECK_LIMIT values tried,
    InstanceTooLarge.
    """
    if not columns:
        raise ValueError("column list must be nonempty")
    return _search(columns, q, s, (0,) * len(columns), iter(range(verify.COVER_RECHECK_LIMIT)))


def _search(columns, q: int, s: int, shift, budget):
    """covers for the affine forms x -> <x, c> + c_0 mod q, c over the
    columns and c_0 its constant in shift, drawing each value tried from the
    iterator budget, which several searches may share.

    A form whose column vanishes mod q is a constant: zero ends the search,
    and any other value never vanishes, so the form is dropped.  The search
    runs over the image of the rest: z = shift + sum t_k h_k for t in
    prod Z/m_k (_echelon), generators touching the most forms first, ties
    to the one whose first form comes first, each form tested once every
    generator touching it is set.  While no form has a nonzero constant,
    points scale by units of Z/q, so while t is zero so far its next entry
    is 0 or a divisor of m_k below m_k.  The point is rebuilt from t as
    sum t_k r_k.
    """
    forms = []
    for col, c in zip(columns, shift):
        if any(e % q for e in col):
            forms.append((col, c))
        elif c % q == 0:
            return None  # a form that vanishes everywhere
    gens = sorted(_echelon([col for col, _ in forms], q, s), key=lambda gen: (
        -sum(map(bool, gen[2])), next(i for i, a in enumerate(gen[2]) if a)))
    last = [None] * len(forms)
    for k, (_, _, h) in enumerate(gens):
        for i, a in enumerate(h):
            if a:
                last[i] = k
    assert None not in last, "a kept form is touched by no generator"
    checks = [[] for _ in gens]
    for i, k in enumerate(last):
        checks[k].append(i)
    scale = not any(c % q for _, c in forms)

    def miss(k, z, zero):
        if k == len(gens):
            return []
        m, _, h = gens[k]
        for v in (0, *divisors(m)[:-1]) if scale and zero else range(m):
            if next(budget, None) is None:
                raise InstanceTooLarge("cover search passed its candidate ceiling")
            y = [(a + v * b) % q for a, b in zip(z, h)]
            if all(y[i] for i in checks[k]):
                t = miss(k + 1, y, zero and not v)
                if t is not None:
                    return [v] + t
        return None

    t = miss(0, [c % q for _, c in forms], True)
    if t is None:
        return None
    return tuple(sum(v * r[i] for v, (_, r, _) in zip(t, gens)) % q for i in range(s))


def _classes(n: int, support, budget) -> list:
    """(t, g, pins) per class of Frobenius elements (x, t) to search, t an
    odd unit below 2n: a point x lives mod g = gcd(t - 1, n), and for each
    (j, a, b) in pins its coordinate j is a + b y_j, y free; every other
    coordinate is free.  The sign entry -1 is pinned to h = (t - 1)/2
    (b = 0); an odd p | n, and 2 when 4 | n, to the parity [(p/t) = -1]
    (b = 2), since sqrt(p) lies in Q(zeta_2n).  Only those coordinates are
    read per t.  One class per distinct (g, pins), the least t first,
    smallest g first.  The walk draws one value from budget per odd t, all
    n of them before it starts.  For odd n the class t = 1 (g = n, nothing
    pinned) alone decides: a point off every kernel mod a divisor g of n,
    times n/g, is one mod n.
    """
    if n % 2:
        return [(1, n, ())]
    if next(islice(budget, n - 1, None), None) is None:
        raise InstanceTooLarge("class walk passed its candidate ceiling")
    fixed = [j for j, p in enumerate(support) if p == -1 or n % (4 if p == 2 else p) == 0]
    found = {}
    for t in range(1, 2 * n, 2):
        if math.gcd(t, n) == 1:
            g = math.gcd(t - 1, n)
            found.setdefault((g, tuple((j, (t - 1) // 2 % g, 0) if support[j] == -1
                                       else (j, int(jacobi(support[j], t) == -1), 2)
                                       for j in fixed)), t)
    return sorted(((t, g, pins) for (g, pins), t in found.items()), key=lambda c: c[1])


def _pinned(columns, pins):
    """(moved, shift) for the pins of a class: each column with its entry j
    scaled by b, and its constant sum a c_j, over (j, a, b) in pins.  With
    nothing pinned the columns pass through unchanged."""
    if not pins:
        return columns, (0,) * len(columns)
    moved = [list(col) for col in columns]
    for col in moved:
        for j, _, b in pins:
            col[j] *= b
    return moved, [sum(a * col[j] for j, a, _ in pins) for col in columns]


def cover_verdict(support, columns, n: int) -> Verdict:
    """Verdict for the distinct classes mod (Q^x)^n of a set, n >= 2, none
    of them a perfect n-th power, given as their exponent columns over the
    support (classify.exponent_classes).  Each class of _classes is an
    affine cover problem over Z/g; the walk over the classes and every
    search draw on one budget of verify.COVER_RECHECK_LIMIT values.  A point
    where every column's form is nonzero mod g fails, with its t for even n;
    if no class has one, the set holds.  The failing verdict carries no
    counterexample prime; classify.decide searches one.
    """
    budget = iter(range(verify.COVER_RECHECK_LIMIT))
    for t, g, pins in _classes(n, support, budget):
        moved, shift = _pinned(columns, pins)
        y = _search(moved, g, len(support), shift, budget)
        if y is None:
            continue
        point = list(y)
        for j, a, b in pins:
            point[j] = (a + b * y[j]) % g
        point = tuple(point)
        # certificate soundness: asserted before any point leaves the module
        assert all(sum(c * x for c, x in zip(col, point)) % g
                   for col in columns), "uncovered point is covered; internal covering bug"
        return Verdict(FAILS, UncoveredPoint(n, support, columns, point,
                                             t=None if n % 2 else t))
    return Verdict(HOLDS, HyperplaneCover(n, support, columns))


def decide_q(elements, n: int, *, want_counterexample: bool = True) -> Verdict:
    """Does the set contain an n-th power in Z_p for almost every p (odd n)?

    classify.decide for odd n > 1, which reaches cover_verdict.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("decide_q needs an odd n >= 3")
    from .classify import decide
    return decide(elements, n, want_counterexample=want_counterexample)
