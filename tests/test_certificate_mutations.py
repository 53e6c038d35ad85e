"""Mutated genuine certificates: every mutant whose claim is false is rejected.

A document claims its status for its elements and n.  The status is
re-derived here by brute force: for n = 2 an odd subset with a square
product; for odd n a plain loop over (Z/n)^s for a point off every kernel
of x -> <x, e_j> mod n; for other even n the whole Galois group
(galois_reference).  A certificate kind that supports only the other
status proves nothing, and the retired kinds skalba_witness and
oracle_exhaustion support neither.  For the kinds whose assertion the brute
force can re-derive as well (hyperplane_cover and uncovered_point with
q = n), the claim also includes that assertion; a missing field makes it
false.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd

import galois_reference

from locus.classify import decide
from locus.verify import verify_document

HOLDS_KINDS = {"perfect_power_member", "hyperplane_cover"}
FAILS_KINDS = {"uncovered_point"}
RETIRED_KINDS = {"skalba_witness", "oracle_exhaustion"}

DECIDED = [(["8", "5"], 3), (["2", "3", "6", "18"], 3), (["2", "3", "12"], 3),
           (["2", "5", "7", "10", "14", "35"], 5), (["2", "3", "6", "18"], 9),
           (["3", "5", "15"], 2), (["2", "3"], 2), (["16"], 8), (["-27", "4"], 6),
           (["4", "9", "36"], 4), (["2", "3", "5", "7"], 15), (["3", "4"], 6),
           (["8", "125", "1000", "125000"], 9),
           (["32", "3125", "100000", "312500000"], 15), (["2", "3", "7", "11"], 6),
           (["2", "3", "5"], 4), (["-4", "9", "3"], 4), (["4", "9", "36", "324", "5"], 6),
           (["-12", "18"], 8), (["2", "3", "18"], 3), (["8", "5", "10", "50"], 9)]


def vectors(elements):
    """(support, exponent vectors) by trial division; small inputs only."""
    values = [Fraction(e) for e in elements]
    support = [p for p in range(2, 100) if all(p % d for d in range(2, p))
               and any(v.numerator % p == 0 or v.denominator % p == 0
                       for v in values)]
    vecs = []
    for v in values:
        num, den, vec = abs(v.numerator), v.denominator, []
        for p in support:
            e = 0
            while num % p == 0:
                num, e = num // p, e + 1
            while den % p == 0:
                den, e = den // p, e - 1
            vec.append(e)
        assert num == den == 1, v
        vecs.append(vec)
    return support, vecs


@lru_cache(maxsize=None)
def true_status(elements, n):
    if n == 2:
        values = [Fraction(e) for e in elements]
        for r in range(1, len(values) + 1, 2):
            for idx in combinations(values, r):
                prod = Fraction(1)
                for x in idx:
                    prod *= x
                if prod > 0 and all(round(abs(t) ** 0.5) ** 2 == abs(t)
                                    for t in (prod.numerator, prod.denominator)):
                    return "holds"
        return "fails"
    if n % 2 == 0:
        return "holds" if galois_reference.holds(elements, n) else "fails"
    _, vecs = vectors(elements)
    return "fails" if uncovered(vecs, n) else "holds"


def uncovered(vecs, n):
    """Is some x in (Z/n)^s off every kernel of x -> <x, v> mod n?"""
    return any(all(sum(a * b for a, b in zip(v, x)) % n for v in vecs)
               for x in product(range(n), repeat=len(vecs[0])))


def certificate_true(doc):
    """The kind-specific assertion, where the brute force can re-derive it."""
    cert, n = doc["certificate"], doc["n"]
    primes, vecs = vectors(doc["elements"])
    if cert["kind"] in ("hyperplane_cover", "uncovered_point"):
        q, support = cert["q"], cert["support"]
        # for even n a negative class has 1 at the sign entry -1
        negative = [n % 2 == 0 and Fraction(e) < 0 for e in doc["elements"]]
        needed = primes + ([-1] if any(negative) else [])
        if q != n or any(p not in support for p in needed):
            return False
        at = [support.index(p) for p in primes]
        induced = set()
        for v, neg in zip(vecs, negative):
            col = [0] * len(support)
            for i, e in zip(at, v):
                col[i] = e % q
            if neg:
                col[support.index(-1)] = 1
            induced.add(tuple(col))
        cols = {tuple(c) for c in cert["coeffs"]}
        zero = (0,) * len(support)
        if cert["kind"] == "hyperplane_cover":
            return cols - {zero} <= induced and cover_holds(cols - {zero}, n, support)
        return cols == induced and zero not in cols and point_misses(cert, cols, n)
    return True


def cover_holds(cols, n, support):
    """Does every element of the Galois group fix a root, for these columns?"""
    if n % 2:
        return all(any(sum(a * b for a, b in zip(c, x)) % n == 0 for c in cols)
                   for x in product(range(n), repeat=len(support)) if any(x))
    primes = [p for p in support if p != -1]
    ref = [[c[support.index(-1)] if -1 in support else 0]
           + [c[support.index(p)] for p in primes] for c in cols]
    return bool(cols) and galois_reference.failing_density(n, primes, ref) == 0


def point_misses(cert, cols, n):
    """Is the point, in its class t, off every column mod g = gcd(t - 1, n)?"""
    x, support = tuple(cert["point"]), cert["support"]
    if n % 2:
        if "t" in cert or not any(x):
            return False
        t = 1
    else:
        t = cert.get("t")
        if not isinstance(t, int) or t % 2 == 0 or not 0 < t < 2 * n or gcd(t, n) > 1:
            return False
    g = gcd(t - 1, n)
    for p, v in zip(support, x):
        if n % 2:
            continue
        if p == -1 and (v - (t - 1) // 2) % g:
            return False
        fixed = p > 2 and n % p == 0 or p == 2 and n % 4 == 0
        if fixed and v % 2 != (galois_reference.legendre_jacobi(p, t) == -1):
            return False
    return len(x) == len(support) and all(
        sum(a * b for a, b in zip(c, x)) % g for c in cols)


def claim_true(doc):
    status, kind = doc["status"], doc["certificate"]["kind"]
    if kind not in (HOLDS_KINDS if status == "holds" else FAILS_KINDS):
        return False
    if true_status(tuple(doc["elements"]), doc["n"]) != status:
        return False
    try:
        return certificate_true(doc)
    except (KeyError, TypeError):
        return False


def genuine_documents():
    return [decide(elements, n).to_json(n, elements) for elements, n in DECIDED]


def copy(doc):
    out = dict(doc)
    out["certificate"] = dict(doc["certificate"])
    return out


def mutants(doc, kinds):
    flipped = copy(doc)
    flipped["status"] = "fails" if doc["status"] == "holds" else "holds"
    yield "flip the status", flipped
    for kind in sorted(kinds - {doc["certificate"]["kind"]}):
        swapped = copy(doc)
        swapped["certificate"]["kind"] = kind
        yield f"swap the kind to {kind}", swapped
    cert = doc["certificate"]
    for i, col in enumerate(cert.get("coeffs", [])):
        dropped = copy(doc)
        dropped["certificate"]["coeffs"] = cert["coeffs"][:i] + cert["coeffs"][i + 1:]
        yield f"drop column {i}", dropped
        doubled = copy(doc)
        doubled["certificate"]["coeffs"] = cert["coeffs"] + [col]
        yield f"duplicate column {i}", doubled
    if "t" in cert:
        n = doc["n"]
        units = [t for t in range(1, 2 * n, 2) if gcd(t, n) == 1]
        shared = next((t for t in range(3, 2 * n, 2) if gcd(t, n) > 1), None)
        for t in [cert["t"] + 1, shared] + [u for u in units if u != cert["t"]]:
            if t is not None:
                moved = copy(doc)
                moved["certificate"]["t"] = t
                yield f"move to the class t = {t}", moved
        for j, p in enumerate(cert["support"]):
            if p == -1 or n % (4 if p == 2 else p) == 0:
                shifted = copy(doc)
                point = list(cert["point"])
                point[j] += 1
                shifted["certificate"]["point"] = point
                yield f"shift the point's pinned entry at {p}", shifted


def test_genuine_documents_cover_every_kind_and_state_true_claims():
    docs = genuine_documents()
    assert {d["certificate"]["kind"] for d in docs} == HOLDS_KINDS | FAILS_KINDS
    for doc in docs:
        assert claim_true(doc), doc
        assert verify_document(doc) == [], doc


def test_every_false_mutant_is_rejected():
    kinds = HOLDS_KINDS | FAILS_KINDS | RETIRED_KINDS
    false = true = 0
    for doc in genuine_documents():
        for what, mutant in mutants(doc, kinds):
            if claim_true(mutant):
                true += 1
                continue
            false += 1
            assert verify_document(mutant), (what, mutant)
    # the drops and most shifts are false claims; duplicates and some
    # shifts are not
    assert false > 150 and true > 10, (false, true)
