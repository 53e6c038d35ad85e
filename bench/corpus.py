"""Seeded inputs for the four workloads.

Every round of a workload draws fresh inputs from
random.Random(f"{workload}:{seed}:{round}") with the same make-up, so a
run is whole rounds of the same operations.  A set of keys already used in
the run makes the generators redraw instead of repeating an instance.
Elements are built from their factorizations (reference.Element), so the
benchmark knows every answer's arithmetic without asking locus.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from reference import Element, is_prime, odd_square_subset

HOLDS, FAILS = "holds", "fails"

SMALL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
POOL = [p for p in range(2, 300) if is_prime(p)]


@dataclass
class Instance:
    family: str
    n: int
    elements: list            # reference.Element
    expect: str | None        # known status, or None: the residue check decides
    kwargs: dict = field(default_factory=dict)

    @property
    def texts(self) -> list[str]:
        return [x.text() for x in self.elements]

    def key(self):
        return (self.n, tuple(sorted(self.texts)))


@dataclass
class Scan:
    elements: list
    k: int
    lo: int
    hi: int

    @property
    def texts(self) -> list[str]:
        return [x.text() for x in self.elements]

    def key(self):
        return ("scan", self.k, self.lo, self.hi, tuple(self.texts))


@dataclass
class Command:
    """One locus.cli command; `subject` is what its output is checked against."""

    kind: str           # decide, decide-evidence, verify, sieve, oracle, generate
    subject: object     # Instance, Scan or (a, b) for generate

    def argv(self, doc_path: str) -> list[str]:
        if self.kind == "generate":
            a, b = self.subject
            return ["generate", "--family", "cubic-quad", "--a", str(a), "--b", str(b)]
        if self.kind == "verify":
            return ["verify-certificate", doc_path]
        s = self.subject
        elems = [f"--elem={t}" for t in s.texts]
        if self.kind == "sieve":
            return ["sieve", "--n", str(s.k), *elems, "--lo", str(s.lo), "--hi", str(s.hi)]
        if self.kind == "oracle":
            return ["oracle", "--n", str(s.n), *elems]
        out = ["decide", "--n", str(s.n), *elems]
        if self.kind == "decide-evidence":
            out += ["--evidence", "--json", doc_path]
        return out


@dataclass
class Round:
    instances: list = field(default_factory=list)
    scans: list = field(default_factory=list)
    commands: list = field(default_factory=list)


E = Element.of


def _prod(primes, exps):
    x = E(1)
    for p, e in zip(primes, exps):
        x = x * E(p) ** e
    return x


# -- exact: small supports, every exact regime ------------------------------

def _base_pair(rng, q, avoid=(), small=False):
    """(a, b) distinct primes below 300; with small, a*b^(q-1) stays near 10^4."""
    limit = {3: 50000, 5: 200000, 7: 50000}[q] if small else math.inf
    pool = [p for p in POOL if p != q and p not in avoid]
    while True:
        a, b = rng.sample(pool, 2)
        if a * b ** (q - 1) <= limit:
            return a, b


def cover_hold(rng, q, s):
    """{a, b, ab, ..., ab^(q-1)} covers F_q^2, so any superset holds."""
    a, b = _base_pair(rng, q, small=True)
    rest = rng.sample([p for p in SMALL if p not in (a, b, q)], s - 2)
    xs = [E(b)] + [E(a) * E(b) ** j for j in range(q)]
    for i, p in enumerate(rest):
        x = E(p) ** rng.randrange(1, q)
        if i and rng.random() < 0.5:
            x = x * E(rest[i - 1])
        xs.append(x)
    rng.shuffle(xs)
    return Instance(f"cover{q}_hold", q, xs, HOLDS)


def cover_fail(rng, q, s, l):
    """Every form misses a chosen point x in (F_q^*)^s, so x is uncovered."""
    support = rng.sample([p for p in SMALL if p != q][:12], s)
    x = [rng.randrange(1, q) for _ in range(s)]
    xs = []
    while len(xs) < l:
        idx = rng.sample(range(s), rng.choice((1, 2)))
        v = [0] * s
        for i in idx:
            v[i] = rng.randrange(1, min(q, 3))
        if sum(a * b for a, b in zip(v, x)) % q:
            xs.append(_prod(support, v))
    return Instance(f"cover{q}_fail", q, xs, FAILS)


def deep_layer(rng, n):
    """odd_optimal: {q1, q2, q1 q2, ..., q1 q2^(p-1)}^(n/p) holds for n = p^m."""
    p = 3 if n % 3 == 0 else 5
    q1, q2 = _base_pair(rng, p)
    base = [E(q1), E(q2)] + [E(q1) * E(q2) ** j for j in range(1, p)]
    xs = [x ** (n // p) for x in base]
    rng.shuffle(xs)
    return Instance("deep_layer", n, xs, HOLDS)


def oracle_quad(rng, n):
    """Cubic quads for n = 9 or 27: the cover holds but no layer lifts it."""
    a, b = _base_pair(rng, 3)
    xs = [E(a), E(b), E(a) * E(b), E(a) * E(b) ** 2]
    rng.shuffle(xs)
    return Instance("oracle", n, xs, None)


def square_set(rng):
    """n = 2 with distinct classes mod squares (see the FOUND line on class
    duplicates in CHANGES.md); the answer is brute force over odd subsets."""
    l = rng.randrange(4, 9)
    support = rng.sample(SMALL[:10], 6)
    xs, classes = [], set()
    while len(xs) < l:
        idx = rng.sample(range(6), rng.choice((1, 2, 2, 3)))
        x = _prod([support[i] for i in idx], [rng.randrange(1, 3) for _ in idx])
        if rng.random() < 0.3:
            x = x * E(-1)
        if rng.random() < 0.2:
            x = x * E(rng.choice(support)) ** -1
        key = (x.sign, frozenset(p for p, e in x.powers.items() if e % 2))
        if x.powers and key not in classes:
            classes.add(key)
            xs.append(x)
    return Instance("square", 2, xs, HOLDS if odd_square_subset(xs) else FAILS)


def _alpha(rng):
    return E(rng.choice([1, 1] + POOL[:12])) * E(rng.choice([1, 1, 1, 2, 3]))


def pair_template(rng):
    """Exceptional pairs of even n, instantiated from the paper's templates."""
    kind = rng.randrange(3)
    a1, a2 = _alpha(rng), _alpha(rng)
    if kind == 0:   # A0eq1: n = 2 * p^a, {eps p^(n/2) a1^n, a2^(n/p^a)}
        n, p = rng.choice([(6, 3), (10, 5), (14, 7), (18, 3)])
        pa = max(pk for pk in (p, p * p) if n % pk == 0)
        eps = E(-1) if p % 4 == 3 else E(1)
        xs = [eps * E(p) ** (n // 2) * a1 ** n, a2 ** (n // pa)]
    elif kind == 1:  # A0eq2_neg2: 4 || n, {-2^(n/2) a1^n, a2^(n/2)}
        n = rng.choice([4, 12, 20])
        xs = [E(-1) * E(2) ** (n // 2) * a1 ** n, a2 ** (n // 2)]
    else:           # A0eq2_pj: 4 || n, p^a || n, {p^(n/2) a1^n, a2^(n/p^a)}
        n, p = rng.choice([(12, 3), (20, 5)])
        xs = [E(p) ** (n // 2) * a1 ** n, a2 ** (n // p)]
    rng.shuffle(xs)
    return Instance("pair_template", n, xs, HOLDS)


def pair_plain(rng):
    """Two random classes for even n; the residue check decides."""
    n = rng.choice([4, 6, 8, 10, 12])
    xs = []
    while len(xs) < 2:
        p, r = rng.sample(SMALL[:8], 2)
        x = E(p) * E(r) ** rng.randrange(0, 3)
        if rng.random() < 0.3:
            x = x * E(-1)
        xs.append(x)
    return Instance("pair_plain", n, xs, None)


def wang(rng):
    """2^(n/2) b^n with 8 | n: an n-th power in every Q_p but not in Q."""
    n = rng.choice([8, 16, 24])
    b = E(rng.choice(POOL[1:])) * E(rng.choice([1, 1, 2, 3, 5, 7]))
    return Instance("wang", n, [E(2) ** (n // 2) * b ** n], HOLDS)


def singleton_fail(rng):
    """Neither a perfect n-th power nor of Wang's form: fails."""
    n = rng.randrange(3, 13)
    p = rng.choice(SMALL[1:])
    x = E(p) ** rng.randrange(1, n) * E(rng.choice([1, 1, 2, 3]))
    if x.is_power(n) or (n % 8 == 0 and (x * E(2) ** -(n // 2)).is_power(n)):
        x = E(p)
    return Instance("singleton", n, [x], FAILS)


def member(rng):
    """A set holding a perfect n-th power holds."""
    n = rng.randrange(3, 9)
    r = E(rng.choice(SMALL[:5])) * E(rng.choice([1, -1]) if n % 2 else 1)
    xs = [r ** n] + [E(p) for p in rng.sample(SMALL[1:], rng.randrange(1, 4))]
    rng.shuffle(xs)
    return Instance("member", n, xs, HOLDS)


def lifted_set(rng):
    """{a, b, ab, ..., ab^4}^3 for n = 15: the n = 5 family lifted by 3."""
    a, b = _base_pair(rng, 5, avoid=(3,))
    xs = [E(b) ** 3] + [(E(a) * E(b) ** j) ** 3 for j in range(5)]
    rng.shuffle(xs)
    return Instance("lifted", 15, xs, HOLDS)


def odd_optimal_composite(rng):
    n = rng.choice([15, 21])
    q1, q2 = _base_pair(rng, 3, avoid=(5, 7))
    base = [E(q1), E(q2), E(q1) * E(q2), E(q1) * E(q2) ** 2]
    return Instance("odd_optimal", n, [x ** (n // 3) for x in base], HOLDS)


def component(rng):
    """Composite n with four random classes; the residue check decides."""
    n = rng.choice([15, 21, 45])
    xs = [E(p) ** rng.randrange(1, 3) for p in rng.sample(SMALL[:9], 4)]
    return Instance("component", n, xs, None)


def odd_small(rng):
    """At most p1 classes, no perfect n-th power, odd n: fails."""
    n = rng.choice([15, 21, 35])
    xs = [E(p) for p in rng.sample(POOL[1:20], 2 if n == 35 else 3)]
    return Instance("odd_small", n, xs, FAILS)


def primes_pair(rng, n):
    """{p1, p2}: two independent classes, a fixed share of failing primes."""
    p1, p2 = rng.sample(POOL[1:], 2)
    return Instance("primes_pair", n, [E(p1), E(p2)], FAILS)


EXACT_SLOTS = [
    lambda r: cover_hold(r, 3, 6), lambda r: cover_hold(r, 3, 7),
    lambda r: cover_hold(r, 3, 8), lambda r: cover_hold(r, 3, 9),
    lambda r: cover_hold(r, 5, 4), lambda r: cover_hold(r, 5, 5),
    lambda r: cover_hold(r, 7, 3),
    lambda r: cover_fail(r, 3, 7, 6), lambda r: cover_fail(r, 5, 4, 5),
    lambda r: cover_fail(r, 7, 3, 4),
    lambda r: deep_layer(r, 9), lambda r: deep_layer(r, 25), lambda r: deep_layer(r, 27),
    lambda r: oracle_quad(r, 9), lambda r: oracle_quad(r, 9), lambda r: oracle_quad(r, 27),
    square_set, square_set, square_set,
    pair_template, pair_template, pair_plain, pair_plain,
    wang, singleton_fail, member,
    lifted_set, odd_optimal_composite, component, odd_small,
]


def _draw(rng, make, seen):
    for _ in range(1000):
        item = make(rng)
        if item.key() not in seen:
            seen.add(item.key())
            return item
    raise RuntimeError("generator keeps repeating an instance")


def _scan(rng, seen, lo_range, width, big=False):
    """Three classes and k = 3, so every scan of a width costs about the same."""
    def make(r):
        xs = _bigs(r, 3) if big else [E(p) ** r.randrange(1, 3) for p in r.sample(POOL[1:], 3)]
        lo = r.randrange(*lo_range)
        return Scan(xs, 3, lo, lo + width)
    return _draw(rng, make, seen)


def _commands(rng, seen, decide, evidence, oracle, scan_width, generate_pool,
              extra=(), repeat=1):
    """A command mix in which four decides of one family sit in the middle
    of the cost order, so the median lands inside one family's spread;
    `extra` adds single decides of cheaper families."""
    cmds = []
    for _ in range(repeat):
        cmds += [Command("decide", _draw(rng, make, seen)) for make in extra]
        cmds += [Command("decide", _draw(rng, decide, seen)) for _ in range(4)]
        inst = _draw(rng, evidence, seen)
        cmds += [Command("decide-evidence", inst), Command("verify", inst),
                 Command("oracle", _draw(rng, oracle, seen)),
                 Command("sieve", _scan(rng, seen, (2, 1000), scan_width)),
                 Command("generate", tuple(rng.sample(generate_pool, 2)))]
    return cmds


def _small_commands(rng, seen, repeat=1):
    return _commands(rng, seen, lambda r: cover_hold(r, 3, 5),
                     lambda r: cover_fail(r, 3, 4, 3), lambda r: oracle_quad(r, 9),
                     5000, POOL[1:] + [4, 6, 10, 12, 15], (square_set, pair_template),
                     repeat)


def exact_round(rng, seen) -> Round:
    rnd = Round()
    rnd.instances = [_draw(rng, make, seen) for make in EXACT_SLOTS]
    rnd.scans = [_scan(rng, seen, (2 * 10**5, 3 * 10**5), 10000) for _ in range(3)]
    rnd.commands = _small_commands(rng, seen)
    return rnd


# -- evidence: sieve-heavy ---------------------------------------------------

EVIDENCE_HI = 5 * 10**5
EVIDENCE_SLOTS = [lambda r: primes_pair(r, 3), lambda r: primes_pair(r, 5),
                  lambda r: cover_hold(r, 3, 4)]


def evidence_round(rng, seen) -> Round:
    rnd = Round()
    for make in EVIDENCE_SLOTS:
        inst = _draw(rng, make, seen)
        inst.kwargs = {"attach_evidence": True, "evidence_hi": EVIDENCE_HI}
        rnd.instances.append(inst)
    rnd.scans = [_scan(rng, seen, (1 << 22, 1 << 24), 100000) for _ in range(3)]
    rnd.commands = _small_commands(rng, seen, repeat=3)
    return rnd


# -- large-factors: factorization-heavy ------------------------------------

def _big_prime(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi) | 1
        if is_prime(p):
            return p


# Factors stay in bands that keep Brent rho's share small and steady: one
# factor of each semiprime lies below 10^7, so trial division over the primes
# below 10^6, paid by every factorization, stays the main cost.

def _semiprime(rng):
    return Element(1, {_big_prime(rng, 10**6, 10**7): 1, _big_prime(rng, 10**7, 10**9): 1})


def _bigs(rng, k, fractions=True):
    """k classes with prime factors above the trial-division bound, in a
    fixed order of kinds so that every draw costs about the same.

    Denominators appear only where the certificate records no cleared
    element: the verifier re-factors cleared elements from their strings,
    and a large denominator raised to the n-th power is past its capacity.
    """
    out = []
    for i in range(k):
        kind = i % (4 if fractions else 3)
        if kind == 0:
            x = _semiprime(rng)
        elif kind == 1:
            x = Element(1, {_big_prime(rng, 10**12 - 10**9, 10**12 + 10**9): 1})
        elif kind == 2:
            x = Element(1, {_big_prime(rng, 10**6, 10**9): 1}) * E(rng.choice(SMALL[:6]))
        else:
            x = E(rng.choice(SMALL[:6])) * Element(1, {_big_prime(rng, 10**6, 10**8): -1})
        out.append(x)
    return out


# n = 2 sets carry no denominators: clearing them would put the large primes
# of every denominator into the witness root, past factorization capacity.

def big_squares_hold(rng):
    """{A, B, AB c^2} plus two more classes: the odd subset {A, B, AB c^2} squares."""
    a = Element(1, {_big_prime(rng, 10**6, 10**9): 1}) * E(rng.choice(SMALL[:6]))
    b = Element(1, {_big_prime(rng, 10**6, 10**12): 1})
    xs = _bigs(rng, 2, fractions=False) + [a, b, a * b * E(rng.choice(SMALL[:6])) ** 2]
    rng.shuffle(xs)
    return Instance("big_square", 2, xs, HOLDS if odd_square_subset(xs) else FAILS)


def big_squares_fail(rng):
    xs = _bigs(rng, 4, fractions=False)
    return Instance("big_square", 2, xs, HOLDS if odd_square_subset(xs) else FAILS)


def big_small_set(rng, q):
    """q classes for odd prime q and no perfect q-th power: fails."""
    return Instance("big_small_set", q, _bigs(rng, q, fractions=False), FAILS)


def big_member(rng):
    """P^3 with P above 10^6 (P^3 stays below the 3.3e24 certification bound)."""
    xs = [Element(1, {_big_prime(rng, 10**6, 10**8): 3})] + _bigs(rng, 2, fractions=False)
    return Instance("big_member", 3, xs, HOLDS)


def big_singleton(rng):
    """A prime near 10^12 over a prime above 10^6: fails."""
    x = Element(1, {_big_prime(rng, 10**12 - 10**9, 10**12 + 10**9): 1,
                    _big_prime(rng, 10**6, 10**9): -1})
    return Instance("big_singleton", rng.choice((2, 3, 4, 5, 6)), [x], FAILS)


def huge_semiprime(rng):
    """A 20-24 digit semiprime with a factor near 10^7, decided as a singleton."""
    digits = rng.randrange(20, 25)
    a = _big_prime(rng, 5 * 10**6, 2 * 10**7)
    b = _big_prime(rng, 10 ** (digits - 1) // a + 1, 10**digits // a)
    return Instance("huge_semiprime", rng.choice((2, 3)), [Element(1, {a: 1, b: 1})], FAILS)


def big_template(rng):
    """{-27 a^6, P^2} for n = 6 (template A0eq1, p = 3) with P above 10^6."""
    a = E(rng.choice([1, 2, 5, 7]))
    xs = [E(-27) * a ** 6, Element(1, {_big_prime(rng, 10**6, 10**7): 2})]
    return Instance("big_pair", 6, xs, HOLDS)


def big_pair_plain(rng):
    """Two large classes for n = 6; the residue check decides."""
    return Instance("big_pair", 6, _bigs(rng, 2), None)


def large_round(rng, seen) -> Round:
    rnd = Round()
    makers = [big_squares_hold, big_squares_fail, lambda r: big_small_set(r, 3),
              lambda r: big_small_set(r, 5), big_member, big_singleton,
              big_template, big_pair_plain, huge_semiprime]
    rnd.instances = [_draw(rng, make, seen) for make in makers]
    rnd.scans = [_scan(rng, seen, (2, 100), 20000, big=True) for _ in range(2)]
    pool = [_big_prime(rng, 10**6, 10**9) for _ in range(4)]
    rnd.commands = _commands(rng, seen, big_singleton, big_template,
                             lambda r: Instance("big_oracle", 9, _bigs(r, 2), None),
                             3000, pool)
    return rnd


# -- cli: fresh-interpreter commands on small inputs -----------------------

def cli_round(rng, seen) -> Round:
    rnd = Round()
    rnd.commands = _small_commands(rng, seen)
    return rnd


ROUNDS = {"exact": exact_round, "evidence": evidence_round,
          "large-factors": large_round, "cli": cli_round}


def make_round(workload: str, seed: int, index: int, seen: set) -> Round:
    return ROUNDS[workload](random.Random(f"{workload}:{seed}:{index}"), seen)
