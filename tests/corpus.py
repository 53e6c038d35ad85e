"""Shared corpus builders for the acceptance suite and the elimination tests.

Instances are exhaustive enumerations over small supports: every set of
distinct nonzero exponent-vector columns over one or two primes drawn from
{2,3,5,7} minus the decision prime.  elimination_cases draws seeded random
matrices over Z/n for the two reduced echelon forms (the engine's and the
verifier's); image is the brute-force image their generators must span.
"""

import random
from itertools import combinations, product

from locus.rationals import FactoredRational

SUPPORT_POOL = (2, 3, 5, 7)


def supports_for(q):
    pool = [p for p in SUPPORT_POOL if p != q]
    singles = [(p,) for p in pool]
    pairs = list(combinations(pool, 2))
    return singles + pairs


def elements_from_columns(support, columns):
    return [FactoredRational.from_prime_powers(1, dict(zip(support, col)))
            for col in columns]


def criterion1_instances(q, max_size=4):
    """(support, columns, elements) for every column set of size <= max_size."""
    for support in supports_for(q):
        s = len(support)
        cols = [c for c in product(range(q), repeat=s) if any(c)]
        for size in range(1, max_size + 1):
            for chosen in combinations(cols, size):
                yield support, chosen, elements_from_columns(support, chosen)


def criterion2_instances(q=3, max_size=3):
    """Layered sets {b^(q^mu)} with mu in {0,1}, bases from the q corpus."""
    for support, columns, elements in criterion1_instances(q, max_size):
        for mus in product((0, 1), repeat=len(elements)):
            yield support, columns, mus, \
                [b ** (q**mu) for b, mu in zip(elements, mus)]


ELIMINATION_MODULI = (2, 3, 4, 5, 6, 8, 9, 12, 25, 27)


def elimination_cases(seed, count):
    """(n, s, columns): count seeded s x l matrices over Z/n as l column
    tuples, s <= 4 and l <= 6, n^s at most 1728 so that the image can be
    brute-forced.  A quarter start with s unit multiples of the unit
    vectors, so they reach full rank before their last column; a quarter
    get a zero column and a quarter a repeated one."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.choice(ELIMINATION_MODULI)
        s = rng.randint(1, max(d for d in range(1, 5) if n**d <= 1728))
        if i % 4 == 0:
            units = [u for u in range(1, n) if all(u % p for p in (2, 3, 5) if n % p == 0)]
            cols = [tuple(rng.choice(units) if p == k else 0 for p in range(s))
                    for k in range(s)]
            cols += [tuple(rng.randrange(n) for _ in range(s))
                     for _ in range(rng.randint(1, 6 - s))]
        else:
            cols = [tuple(rng.randrange(n) for _ in range(s)) for _ in range(rng.randint(1, 5))]
            if i % 4 == 1:
                cols.insert(rng.randrange(len(cols) + 1), (0,) * s)
            elif i % 4 == 2:
                cols.insert(rng.randrange(len(cols) + 1), rng.choice(cols))
            else:
                cols.append(tuple(rng.randrange(n) for _ in range(s)))
        yield n, s, cols


def image(columns, n, s):
    """{x . E mod n : x in (Z/n)^s}, E the matrix with these columns."""
    return {tuple(sum(a * b for a, b in zip(x, col)) % n for col in columns)
            for x in product(range(n), repeat=s)}


def span(gens, n, l):
    """Every sum t_k h_k in (Z/n)^l, t in prod Z/m_k, over the (m_k, h_k)
    pairs."""
    out = {(0,) * l}
    for m, h in gens:
        out = {tuple((a + v * b) % n for a, b in zip(y, h)) for y in out for v in range(m)}
    return out


def additive_order(h, n):
    return next(m for m in range(1, n + 1) if all(m * a % n == 0 for a in h))
