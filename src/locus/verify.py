"""Independent re-verification of serialized verdicts.

Given a verdict document (as produced by the CLI), re-check the certificate
against the element set without trusting the engine's decision path.  Every
check here recomputes from first principles: roots are re-raised, uncovered
points re-evaluated, covers re-searched, claimed failing primes, all of a
document's in one batch, put to the sieve's claim check (first_non_failing:
each must be a prime where the set fails).  The status is holds or fails,
and every integer field holds ints alone (a float or a bool is refused).
One class key, _columns, reads the classes of a list mod
(Q^x)^n straight off the factors: their support, led for even n by the
sign entry -1, and their exponent vectors.  A member is checked by it to be
in the class of an element, and a cover or an uncovered point has q = n and
columns those of the cleared set, mapped onto the recorded support.  The
verifier re-derives the classes of Frobenius elements on its own (_class:
t, g = gcd(t - 1, n), the sign pinned to (t - 1)/2 and the parities of the
fixed primes to Jacobi symbols): an uncovered point is checked in its class
t in O(l*s), and a cover re-checked class by class, by a search over the
image of the pinned columns on the verifier's own reduced echelon form.
n = 2 is no special case: its classes are t = 1 and t = 3.  A
counterexample prime passes the same claim check.  Certificate kinds are
checked against the status they may support, exactly the kinds that
classify.decide emits (the records of locus.verdicts), at an integer
n >= 2, and the cover re-check of a document tries at most
COVER_RECHECK_LIMIT candidate values over all its classes, the engine's
cover budget too; past it, DIGIT_CAP or rho's cycle limit, a document is
too large to re-check (TOO_LARGE).
None of the engine's decision code is imported: only the arithmetic layers
(primes, rationals, sieve) and the status names.
The elements must be a nonempty list, and every element, member and root a
string; each is factored by primes.factorize with the document's excluded
primes as hints (its known), so a wrong or missing entry changes no
factorization, or comes from the memo of rationals, where hints change
nothing.  What the hints leave takes factorize's own path, whose rho gives
up on a composite above the Miller-Rabin bound once its cycle length passes
primes.RHO_CYCLE_LIMIT, so a crafted element costs about 0.3 s per split
attempt there for a cofactor of 200 bits, and more for a larger one
(factorize gives the times).  The excluded primes must then be prime (a
support prime is, by that factorization) and include 2, the primes of n and
every support prime.  An evidence block must match the document (exponent,
cleared elements, excluded primes), and its density must be its failing
count over tested_count.  tested_count is not recounted, which would sieve
[lo, hi], but bounded in O(1): at most (hi - lo) // 2 + 2, and at most
1.25506 hi / ln hi, Rosser and Schoenfeld's bound on pi(hi).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from .primes import divisors, is_prime, jacobi, prime_factors
from .rationals import FactorizationCapacityExceeded, clear_denominators, factor
from .sieve import first_non_failing, verify_failing_prime
from .verdicts import FAILS, HOLDS


# the certificate kinds that can support each status
ALLOWED_KINDS = {
    HOLDS: {"perfect_power_member", "hyperplane_cover"},
    FAILS: {"uncovered_point"},
}

# the one cover budget, here and in covering (read at each call): candidate
# values a cover search may try over all classes of one set; a value costs a
# check per form, so decide spends it in about 7 s on the 236 forms of the
# README's Mycielski set M6 at n = 5 (Python 3.11.7)
COVER_RECHECK_LIMIT = 1 << 19

# the problems of a document past a capacity bound (the cover budget's, then
# the rest's): too large to re-check, not invalid, so the CLI exits 4 on them
TOO_LARGE = ("cover too large to re-check", "too large to re-check: ")

# the certificate fields that hold an integer, or lists of integers
INT_FIELDS = ("exponent", "q", "t", "support", "coeffs", "point",
              "counterexample_prime")


class VerificationFailure(Exception):
    pass


def _need(cond: bool, message: str):
    if not cond:
        raise VerificationFailure(message)


def verify_document(doc: dict) -> list[str]:
    """Re-check a verdict document; returns a list of problems (empty = valid)."""
    try:
        _verify(doc)
        return []
    except VerificationFailure as exc:
        return [str(exc)]
    except FactorizationCapacityExceeded as exc:  # like the cover budget's refusal
        return [f"{TOO_LARGE[1]}{exc}"]
    except Exception as exc:  # malformed documents
        return [f"malformed document: {exc!r}"]


def _need_ints(name: str, value):
    """An integer field, or a list of them at any depth, holds ints alone: a
    float or a bool compares equal to an int, and would pass later checks."""
    if type(value) is int:
        return
    if not isinstance(value, (list, tuple)):  # the message is built only on failure
        raise VerificationFailure(f"{name} holds {value!r}, not an integer")
    if {*map(type, value)} - {int}:  # entries are walked only past a non-int
        for v in value:
            _need_ints(name, v)


def _need_str(name: str, value) -> str:
    if type(value) is not str:  # factor would read an int or a float too
        raise VerificationFailure(f"{name} {value!r} is not a string")
    return value


def _verify(doc: dict):
    n = doc["n"]
    _need(type(n) is int and n >= 2, f"exponent {n!r} is not an integer >= 2")
    excluded = doc.get("excluded_primes", [])
    known = [p for p in excluded if type(p) is int] if type(excluded) is list else ()
    _need(type(doc["elements"]) is list, f"elements {doc['elements']!r} is not a list")
    _need(doc["elements"], "elements is empty: an empty set has no verdict")
    elements = [factor(_need_str("element", e), known=known) for e in doc["elements"]]
    status = doc["status"]
    cert = doc["certificate"]
    _need(status in (HOLDS, FAILS), f"unknown status {status}")
    cleared = clear_denominators(elements, n)
    _verify_certificate(cert, elements, cleared, n, status, known)
    _need_ints("excluded_primes", excluded)
    support = {p for x in elements for p, _ in x.factors}  # factorize certified these
    for p in excluded:
        _need(p in support or is_prime(p), f"excluded entry {p} is not prime")
    missing = {2, *prime_factors(n), *support} - set(excluded)
    _need(not missing, f"excluded primes omit {sorted(missing)}")
    evidence = doc.get("evidence")
    if evidence is not None:
        params, primes = evidence["params"], evidence["failing_primes"]
        for name in ("k", "lo", "hi", "excluded"):
            _need_ints(f"evidence {name}", params[name])
        _need_ints("evidence failing_primes", primes)
        _need_ints("evidence tested_count", evidence["tested_count"])
        _need(params["k"] == n, "evidence exponent differs from the verdict")
        _need(all(a < b for a, b in zip(primes, primes[1:])),
              "claimed failing primes are not strictly ascending")
        _need(not primes or params["lo"] <= primes[0] and primes[-1] <= params["hi"],
              "claimed failing primes lie outside the scanned range")
        p = first_non_failing(elements, n, primes)
        if p is not None:
            _need(is_prime(p), f"claimed failing prime {p} is not prime")
            raise VerificationFailure(f"claimed failing prime {p} does not fail")
        if status == HOLDS:
            _need(not primes, "holds verdict carries sieve failures; inconsistency")
        # the block's own arithmetic; tested_count is not recounted, which
        # would take a sieve of [lo, hi], but bounded by the odd numbers of
        # [lo, hi] and 2, and by pi(hi) < 1.25506 hi / ln hi for hi > 1
        # (Rosser-Schoenfeld)
        lo, hi = params["lo"], params["hi"]
        _need(lo <= hi, "scanned range has lo above hi")
        tested = evidence["tested_count"]
        _need(len(primes) <= tested, "more failing primes claimed than primes tested")
        bound = min((hi - lo) // 2 + 2, 1.25506 * hi / math.log(hi)) if hi > 1 else 0
        _need(tested <= bound, "more primes tested than the scanned range holds")
        d = Fraction(len(primes), tested) if tested else Fraction(0)
        _need(evidence["failing_density"] == f"{d.numerator}/{d.denominator}",
              "failing density is not failing primes over primes tested")
        _need(params["elements"] == [str(x) for x in cleared],
              "evidence elements are not the cleared element set")
        _need(params["excluded"] == excluded,
              "evidence exclusions differ from the excluded primes")


def _verify_certificate(cert: dict, elements, cleared, n: int, status: str, known):
    kind = cert["kind"]
    _need(kind in ALLOWED_KINDS[status],
          f"certificate kind {kind} cannot support status {status}")
    for name in INT_FIELDS:
        if name in cert:
            _need_ints(name, cert[name])

    if kind == "perfect_power_member":
        k = cert["exponent"]
        _need(k == n, f"member certificate is for exponent {k}, expected {n}")
        member = factor(_need_str("member element", cert["element"]), known=known)
        root = factor(_need_str("root", cert["root"]), known=known)
        _need(root**k == member, f"{cert['root']}^{k} != {cert['element']}")
        cols = _columns([member, *elements, *cleared], n)[1]
        _need(cols[0] in cols[1:], f"{member} is not one of the decided elements")
        return

    # a hyperplane cover or an uncovered point
    q = cert["q"]
    _need(q == n, f"cover modulus {q} is not the exponent {n}")
    support = list(cert["support"])
    coeffs = [tuple(c) for c in cert["coeffs"]]
    # the set's columns mapped onto the recorded support: a cover may use
    # some of them, a refutation must use all, and none may be zero
    index = {p: i for i, p in enumerate(support)}
    own, cols = _columns(cleared, n)
    want = set()
    for x, col in zip(cleared, cols):
        mapped = [0] * len(support)
        for p, e in zip(own, col):
            if e:
                if p not in index:  # the message is built only on failure
                    raise VerificationFailure(f"element {x} " + (
                        "is negative and the support has no sign entry" if p == -1
                        else "uses a prime outside the recorded support"))
                mapped[index[p]] = e
        if not any(mapped):
            _need(kind != "uncovered_point", f"element {x} is an n-th power for n = {n}")
        want.add(tuple(mapped))
    got = {c for c in coeffs if any(c)}
    if kind == "hyperplane_cover":
        _need(got <= want, "recorded columns contain vectors not induced by the set")
        _need(_covers_mod(coeffs, n, support), "claimed cover has a hole")
        return
    _need(got == want, "recorded columns differ from those the set induces")
    _need(("t" in cert) == (n % 2 == 0),
          "a refutation names its class t exactly when n is even")
    t = cert.get("t", 1)
    _need(t % 2 == 1 and 0 < t < 2 * n and math.gcd(t, n) == 1,
          f"class {t} is not an odd unit below 2n")
    g, pins = _class(n, support, t)
    point = tuple(cert["point"])
    _need(len(point) == len(support), "point and support differ in length")
    _need(all(b == 1 or (x - a) % (g if b == 0 else 2) == 0
              for (a, b), x in zip(pins, point)),
          f"point is not pinned to the sign and parities of class {t}")
    _need(all(sum(c * x for c, x in zip(col, point)) % g != 0
              for col in coeffs if any(col)),
          "claimed uncovered point is covered")
    _need_counterexample(cert, elements, n)


def _need_counterexample(cert: dict, elements, n: int):
    """A recorded counterexample prime must be a prime where the set fails."""
    if "counterexample_prime" in cert:
        p = cert["counterexample_prime"]
        if not verify_failing_prime(elements, n, p):
            _need(is_prime(p), f"counterexample prime {p} is not prime")
            raise VerificationFailure("counterexample prime does not fail")


def _columns(xs, n: int):
    """The joint support of the classes of the factored xs mod (Q^x)^n, led
    for even n by the sign entry -1, and their exponent vectors over it,
    read off the factors: each exponent mod n, in [0, n), and 1 at -1 for a
    negative x.  For odd n the sign is dropped, -1 being an n-th power."""
    keys = [{-1: int(x.sign < 0)} | {p: e % n for p, e in x.factors if e % n} for x in xs]
    primes = sorted({p for key in keys for p in key} - {-1})
    support = primes if n % 2 else [-1] + primes
    return support, [tuple(key.get(p, 0) for p in support) for key in keys]


def _image_generators(cols, n: int):
    """(h, m) pairs, h of additive order m, that generate the image
    {x . E : x in (Z/n)^s} of the matrix E with these columns.

    Integer row operations keep the group the rows of E generate.  For each
    column in turn, Euclid on the rows not yet taken leaves one of them
    nonzero there, and that row, scaled by a unit to gcd(entry, n), becomes
    a generator; it reduces the earlier generators' entries in its column
    below its own, so for prime n no other generator touches that column.
    Once every row is taken the later columns change nothing, and the loop
    stops.
    """
    rows = [[c % n for c in row] for row in zip(*cols)]
    gens = []
    for j in range(len(cols)):
        if not rows:
            break
        while True:
            live = [r for r in rows if r[j]]
            if len(live) < 2:
                break
            live.sort(key=lambda r: r[j])
            for r in live[1:]:
                c = r[j] // live[0][j]
                r[:] = [(a - c * b) % n for a, b in zip(r, live[0])]
        if live:
            rows.remove(live[0])
            d = math.gcd(live[0][j], n)
            u = pow(live[0][j] // d, -1, n // d)
            while math.gcd(u, n) > 1:
                u += n // d
            pivot = [u * a % n for a in live[0]]
            for h in gens:
                c = h[j] // d
                if c:
                    h[:] = [(a - c * b) % n for a, b in zip(h, pivot)]
            gens.append(pivot)
    return [(h, n // math.gcd(n, *h)) for h in gens]


def _class(n: int, support, t: int):
    """(g, pins) of the Frobenius elements (x, t): x lives mod g = gcd(t - 1,
    n), and x_j = a + b y_j, y free, for (a, b) = pins[j].  For even n the
    sign entry -1 is pinned to (t - 1)/2, and an odd p | n, or 2 when 4 | n,
    to the parity [(p/t) = -1]; every other coordinate is free."""
    g = math.gcd(t - 1, n)
    if n % 2:
        return g, [(0, 1)] * len(support)
    return g, [((t - 1) // 2 % g, 0) if p == -1
               else (int(jacobi(p, t) == -1), 2) if n % (4 if p == 2 else p) == 0
               else (0, 1) for p in support]


def _covers_mod(coeffs, n: int, support) -> bool:
    """Does every Frobenius element fix a root, the columns the exponent
    vectors mod n over support?  For odd n the class t = 1 alone decides,
    and of support only the number of entries matters; for even n each odd
    t below 2n prime to n is a class, re-derived here, and each distinct
    (g, pins) is searched once (_misses).  The walk over the n odd t and
    the searches share one budget of COVER_RECHECK_LIMIT values.  A zero
    column is left out: a set with a perfect n-th power has its own
    certificate.
    """
    cols = [col for col in coeffs if any(c % n for c in col)]
    budget = iter(range(COVER_RECHECK_LIMIT))
    if n % 2:
        units = [1]
    else:  # one value per odd t below 2n, drawn before the walk
        _need(next(islice(budget, n - 1, None), None) is not None,
              TOO_LARGE[0])
        units = (t for t in range(1, 2 * n, 2) if math.gcd(t, n) == 1)
    seen = set()
    for t in units:
        g, pins = _class(n, support, t)
        if (g, tuple(pins)) in seen:
            continue
        seen.add((g, tuple(pins)))
        moved = [[b * c for (_, b), c in zip(pins, col)] for col in cols]
        shift = [sum(a * c for (a, _), c in zip(pins, col)) for col in cols]
        if _misses(moved, g, shift, budget):
            return False
    return True


def _misses(cols, n: int, shift, budget) -> bool:
    """Is some y with every entry of shift + y . E nonzero mod n, E the
    matrix with these columns?

    A column that vanishes mod n is a constant: with a zero shift it
    vanishes everywhere, so nothing misses, and with any other it never
    vanishes, so it is dropped.  The search runs over the image of the
    rest: shift + sum t_k h_k for t in prod Z/m_k (_image_generators),
    generators touching the most columns first, each column tested once
    every generator touching it is set.  With no shift a unit multiple of a
    miss is a miss, so while t is zero so far its next entry is 0 or a
    divisor of m_k below m_k.  Each value tried is drawn from budget; past
    its end the cover counts as too large to re-check.
    """
    if any(c % n == 0 and not any(e % n for e in col) for col, c in zip(cols, shift)):
        return False  # a column vanishing everywhere
    kept = [j for j, col in enumerate(cols) if any(e % n for e in col)]
    cols, shift = [cols[j] for j in kept], [shift[j] for j in kept]
    gens = sorted(_image_generators(cols, n), key=lambda g: -sum(map(bool, g[0])))
    last = [None] * len(cols)
    for k, (h, _) in enumerate(gens):
        for j, a in enumerate(h):
            if a:
                last[j] = k
    assert None not in last, "a kept column is touched by no generator"
    checks = [[] for _ in gens]
    for j, k in enumerate(last):
        checks[k].append(j)
    scale = not any(c % n for c in shift)

    def miss(k, y, zero):
        if k == len(gens):
            return True
        h, m = gens[k]
        for v in (0, *divisors(m)[:-1]) if scale and zero else range(m):
            _need(next(budget, None) is not None, TOO_LARGE[0])
            z = [(a + v * b) % n for a, b in zip(y, h)]
            if all(z[j] for j in checks[k]) and miss(k + 1, z, zero and not v):
                return True
        return False

    return miss(0, [c % n for c in shift], True)

