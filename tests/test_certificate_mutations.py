"""Mutated genuine certificates: every mutant whose claim is false is rejected.

A document claims its status for its elements and n.  The status is
re-derived here by brute force: for n = 2 an odd subset with a square
product; for odd n a plain loop over (Z/n)^s for a point off every kernel
of x -> <x, e_j> mod n; for other even n the subset-product criterion on
exponent vectors for every odd prime power q^m dividing n, and the three
holds are classical (CLASSICAL_HOLDS).  A certificate kind that supports
only the other status proves nothing.  For the kinds whose assertion the
brute force can re-derive as well (hyperplane_cover and uncovered_point
with q = n, skalba_witness, oracle_exhaustion), the claim also includes
that assertion; a missing field makes it false.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from test_prime_power import brute_vectors

from locus.classify import decide
from locus.prime_power import skalba_oracle
from locus.verify import verify_document

HOLDS_KINDS = {"perfect_power_member", "wang_exception", "exceptional_form",
               "hyperplane_cover", "odd_subset_witness", "oracle_exhaustion",
               "lifted_family"}
FAILS_KINDS = {"uncovered_point", "parity_obstruction", "skalba_witness",
               "component_failure", "evidence"}

# Wang's 16 for n = 8, the exceptional pair for n = 6, and the lift of
# {2, 3, 6} (2 * 3 * 6 = 6^2) for n = 4
CLASSICAL_HOLDS = {(("16",), 8), (("-27", "4"), 6), (("4", "9", "36"), 4)}

DECIDED = [(["8", "5"], 3), (["2", "3", "6", "18"], 3), (["2", "3", "12"], 3),
           (["2", "5", "7", "10", "14", "35"], 5), (["2", "3", "6", "18"], 9),
           (["3", "5", "15"], 2), (["2", "3"], 2), (["16"], 8), (["-27", "4"], 6),
           (["4", "9", "36"], 4), (["2", "3", "5", "7"], 15), (["3", "4"], 6),
           (["8", "125", "1000", "125000"], 9),
           (["32", "3125", "100000", "312500000"], 15), (["2", "3", "7", "11"], 6)]
ORACLE = [(["2", "3", "6", "18"], 3, 1), (["2", "3", "18"], 3, 1),
          (["8", "5", "10", "50"], 3, 2)]


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


def odd_prime_powers(n):
    for q in range(3, n + 1, 2):
        if n % q == 0 and all(q % d for d in range(2, q)):
            m = 0
            while n % q ** (m + 1) == 0:
                m += 1
            yield q, m


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
    _, vecs = vectors(elements)
    if n % 2:
        return "fails" if uncovered(vecs, n) else "holds"
    for q, m in odd_prime_powers(n):
        if brute_vectors(vecs, q, m)[0] is not None:
            return "fails"
    return "holds" if (elements, n) in CLASSICAL_HOLDS else "fails"


def uncovered(vecs, n):
    """Is some x in (Z/n)^s off every kernel of x -> <x, v> mod n?"""
    return any(all(sum(a * b for a, b in zip(v, x)) % n for v in vecs)
               for x in product(range(n), repeat=len(vecs[0])))


def admits_pair(vecs, c, q, qm):
    return any(all(sum(s * cj * v[i] for s, cj, v in zip(signs, c, vecs)) % qm == 0
                   for i in range(len(vecs[0])))
               for signs in product((0, 1, -1), repeat=len(vecs))
               if (signs.count(1) - signs.count(-1)) % q)


def certificate_true(doc):
    """The kind-specific assertion, where the brute force can re-derive it."""
    cert, n = doc["certificate"], doc["n"]
    support, vecs = vectors(doc["elements"])
    if cert["kind"] in ("hyperplane_cover", "uncovered_point"):
        q = cert["q"]
        if q != n or n % 2 == 0 or any(p not in cert["support"] for p in support):
            return False
        at = [cert["support"].index(p) for p in support]
        induced = set()
        for v in vecs:
            col = [0] * len(cert["support"])
            for i, e in zip(at, v):
                col[i] = e % q
            induced.add(tuple(col))
        cols = {tuple(c) for c in cert["coeffs"]}
        points = product(range(q), repeat=len(cert["support"]))
        if cert["kind"] == "hyperplane_cover":
            return cols - {(0,) * len(cert["support"])} <= induced and all(
                any(sum(a * b for a, b in zip(c, x)) % q == 0 for c in cols)
                for x in points if any(x))
        x = tuple(cert["point"])
        return cols == induced and (0,) * len(x) not in cols and any(x) and all(
            sum(a * b for a, b in zip(c, x)) % q for c in cols)
    if cert["kind"] in ("skalba_witness", "oracle_exhaustion"):
        q, m = cert["q"], cert["m"]
        if q**m != n or q not in {p for p, _ in odd_prime_powers(n)}:
            return False
        if cert["kind"] == "skalba_witness":
            c = cert["c"]
            return len(c) == len(vecs) and not admits_pair(vecs, c, q, n)
        return cert["tuples_checked"] == n ** len(vecs) and \
            brute_vectors(vecs, q, m)[0] is None
    return True


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
    docs = [decide(elements, n).to_json(n, elements) for elements, n in DECIDED]
    docs += [skalba_oracle(elements, q, m).to_json(q**m, elements)
             for elements, q, m in ORACLE]
    return docs


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
    if cert["kind"] == "skalba_witness":
        qm = cert["q"] ** cert["m"]
        for i, step in product(range(len(cert["c"])), (1, -1)):
            shifted = copy(doc)
            c = list(cert["c"])
            c[i] = (c[i] + step) % qm
            shifted["certificate"]["c"] = c
            yield f"shift witness entry {i} by {step}", shifted


def test_genuine_documents_cover_every_kind_and_state_true_claims():
    docs = genuine_documents()
    assert {d["certificate"]["kind"] for d in docs} == HOLDS_KINDS | FAILS_KINDS
    for doc in docs:
        assert claim_true(doc), doc
        assert verify_document(doc) == [], doc


def test_every_false_mutant_is_rejected():
    kinds = HOLDS_KINDS | FAILS_KINDS
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
