"""A frozen record of the even-n exceptional templates on a seeded grid.

exceptional_pair is called for every n up to 48 (the odd ones are
refused), every tag, j in {None, 3, 5, 7} and four alpha pairs, and
match_exceptional_pair on 2,000 seeded pairs shaped like the templates:
signed prime powers scaled by b^n.  Each output, or the name of the
exception raised, is one line; the joined lines are hashed.  A change
meant to leave the templates alone must leave this hash alone.
"""

import hashlib
import random
from fractions import Fraction

from locus.classify import match_exceptional_pair
from locus.errors import LocusError
from locus.families import exceptional_pair

TAGS = ("A0eq1", "A0eq2_neg2", "A0eq2_pj", "A0eq2_pj_neg2", "A0ge3_2half",
        "A0ge3_pj", "A0ge3_pj_2", "A0ge3_2pj", "A0ge3_2pj_2")
ALPHAS = ((1, 2), (3, 1), (-2, 5), (Fraction(2, 3), Fraction(-7, 5)))
PRIMES = (2, 3, 5, 7, 11, 13)
BASES = (1, 1, 2, 3, 5, Fraction(1, 2), Fraction(3, 7))

GOLDEN_SHA256 = "5dbfe196bd68631e5a2833b1942130d049d5703ba96b39262ff744435bcca2d5"


def _instantiated():
    for n in range(49):
        for tag in TAGS:
            for j in (None, 3, 5, 7):
                for a1, a2 in ALPHAS:
                    try:
                        out = " ".join(map(str, exceptional_pair(n, tag, j, a1, a2)))
                    except LocusError as exc:
                        out = type(exc).__name__
                    yield f"{n} {tag} {j} {a1} {a2}: {out}"


def _near_template(rng: random.Random, n: int) -> list[Fraction]:
    """+-2^(t n/2) p^(n/2) b^n and +-2^(e k/2) b'^k in either order, t and e
    in {0, 1}, p mostly an odd prime of n and k mostly n/p^a for p^a || n;
    sometimes one more prime power, or a third element."""
    p = rng.choice([q for q in PRIMES[1:] if n % q == 0] + [1, rng.choice(PRIMES)])
    pa = max(p**a for a in range(1, 7) if n % p**a == 0) if n % p == 0 else 2
    k = rng.choice((n // pa, n // 2, rng.choice([d for d in range(1, n + 1) if n % d == 0])))
    xs = [rng.choice((1, -1)) * 2 ** (rng.randrange(2) * (n // 2)) * p ** (n // 2)
          * Fraction(rng.choice(BASES)) ** n,
          rng.choice((1, -1)) * 2 ** (rng.randrange(2) * (k // 2))
          * Fraction(rng.choice(BASES)) ** k]
    if rng.random() < 0.2:
        xs[rng.randrange(2)] *= rng.choice(PRIMES) ** rng.randrange(1, n + 1)
    if rng.random() < 0.03:
        xs.append(Fraction(rng.choice(PRIMES)))
    rng.shuffle(xs)
    return xs


def _matched(count: int):
    rng = random.Random(20240806)
    for _ in range(count):
        n = rng.randrange(2, 49, 2) if rng.random() < 0.95 else rng.randrange(3, 49, 2)
        xs = _near_template(rng, n)
        try:
            form = match_exceptional_pair(xs, n)
            out = form and f"{form.case_tag} {form.pj} {form.alpha1} {form.alpha2}"
        except LocusError as exc:
            out = type(exc).__name__
        yield f"{n} {' '.join(map(str, xs))}: {out}"


def test_template_output_is_frozen():
    made, matched = list(_instantiated()), list(_matched(2000))
    assert all(any(f": {tag} " in line for line in matched) for tag in TAGS)
    digest = hashlib.sha256("\n".join(made + matched).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
