import random
from fractions import Fraction
from itertools import combinations

import pytest

from locus.classify import decide
from locus.errors import InstanceTooLarge
from locus.squares import decide_square, decide_two_power
from locus.verdicts import FAILS, HOLDS
from locus.verify import verify_document


def brute_square_decision(elems):
    """Odd-cardinality subset with perfect-square product, by full search."""
    xs = [Fraction(e) for e in elems]
    for r in range(1, len(xs) + 1, 2):
        for idx in combinations(range(len(xs)), r):
            prod = Fraction(1)
            for i in idx:
                prod *= xs[i]
            if prod > 0:
                num, den = prod.numerator, prod.denominator
                rn, rd = round(num**0.5), round(den**0.5)
                if any(a * a == num for a in (rn - 1, rn, rn + 1)) and \
                   any(a * a == den for a in (rd - 1, rd, rd + 1)):
                    return True
    return False


def test_examples():
    v = decide_square([3, 5, 15])
    assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover"
    assert verify_document(v.to_json(2, ["3", "5", "15"])) == []

    v = decide_square([9])  # a square member is its own certificate
    assert v.status == HOLDS and v.certificate.kind == "perfect_power_member"
    assert v.certificate.root == "3"

    v = decide_square([2, 3])
    assert v.status == FAILS
    assert v.certificate.counterexample_prime == 5


def test_negative_elements_need_sign_row():
    assert decide_square([-1]).status == FAILS
    assert decide_square([-1, -4]).status == FAILS   # only even subsets square
    # -2 and -8 share the class -1*2 mod squares; a single non-square remains
    assert decide_square([-2, -8]).status == FAILS
    # signs cancel over the odd triple (-2)(-3)(6) = 36
    v = decide_square([-2, -3, 6])
    assert v.status == HOLDS
    assert verify_document(v.to_json(2, ["-2", "-3", "6"])) == []


def test_witness_minimality():
    # 210 * 2 * 3 * 5 * 7 and 2 * 3 * 6 both square: the cover holds
    elements = [210, 2, 3, 5, 7, 6]
    v = decide_square(elements)
    assert v.status == HOLDS
    assert verify_document(v.to_json(2, [str(x) for x in elements])) == []
    # a square member beats every subset
    v = decide_square([3, 9, 27])
    assert v.certificate.kind == "perfect_power_member"
    assert v.certificate.element == "9"


def test_duplicate_classes_collapse():
    # 3 and 12 share the class mod squares; the pair cannot hold
    v = decide_square([3, 12])
    assert v.status == FAILS


def test_rationals_enter_mod_two():
    v = decide_square([Fraction(1, 3), 27])
    # 1/3 and 27 are both the class of 3; dedupe -> single non-square
    assert v.status == FAILS
    v = decide_square([Fraction(5, 4)])
    assert v.status == FAILS
    v = decide_square([Fraction(9, 4)])  # cleared to 9/4 * 4^2 = 36
    assert v.status == HOLDS and v.certificate.kind == "perfect_power_member"
    assert v.certificate.element == "36" and v.certificate.root == "6"


def test_fractional_documents_verify():
    # the certificates name the cleared classes, which the verifier
    # re-derives: 1/4 clears to 4, and 1/2, 3/4, 6 to 32, 48, 384
    for elements, kind in [(["1/4"], "perfect_power_member"),
                           (["1/2", "3/4", "6"], "hyperplane_cover")]:
        v = decide_square(elements)
        assert v.status == HOLDS and v.certificate.kind == kind
        assert verify_document(v.to_json(2, elements)) == [], elements


def test_exhaustive_equivalence_squarefree_support_357():
    values = []
    for mask in range(1, 8):
        v = 1
        for bit, p in enumerate((3, 5, 7)):
            if mask >> bit & 1:
                v *= p
        values.extend([v, -v])
    values.extend([1, -1])
    for r in range(1, 4):
        for elems in combinations(values, r):
            got = decide_square(list(elems), want_counterexample=False)
            want = brute_square_decision(list(elems))
            assert (got.status == HOLDS) == want, elems


def test_fails_certificate_row_combination():
    for elements in ([2, 3], [-1], [-2, -3], [-6, 10, 15]):
        v = decide_square(elements, want_counterexample=False)
        assert v.status == FAILS and v.certificate.kind == "uncovered_point"
        cert = v.certificate
        # the point's nonzero entries name rows that XOR to all-ones over
        # the columns; the sign row is among them exactly when t = 3
        assert cert.support[0] == -1 and cert.t in (1, 3)
        assert cert.point[0] == (cert.t - 1) // 2
        rows = [j for j, x in enumerate(cert.point) if x]
        assert all(sum(col[j] for j in rows) % 2 == 1 for col in cert.coeffs), elements


def test_decide_two_power_examples():
    # n = 2^a is decided by classify.decide; decide_two_power is that call
    v = decide([16], 8)  # Wang's 2^4 * 1^8
    assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover"

    v = decide([3, 5, 15], 2)
    assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover"

    v = decide([2, 3, 5], 4)  # density 35/128; 17 is the least failing prime
    assert v.status == FAILS and v.certificate.counterexample_prime == 17

    v = decide([-4, 9], 4)  # the exceptional pair A0eq2_neg2
    assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover"

    v = decide([256], 8)
    assert v.status == HOLDS and v.certificate.kind == "perfect_power_member"

    v = decide([2, 3], 4)
    assert v.status == FAILS and v.certificate.kind == "uncovered_point"

    assert decide_two_power([2, 3, 5], 2) == decide([2, 3, 5], 4)


def test_seeded_signed_fractions_agree_with_brute_force():
    # signed fractions over the primes up to 13, at most 8 elements; each
    # document verifies
    rng = random.Random(2)
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(1000):
        elements = []
        for _ in range(rng.randint(1, 8)):
            num = rng.choice((1, -1))
            den = 1
            for p in rng.sample(primes, rng.randint(0, 3)):
                if rng.random() < 0.3:
                    den *= p ** rng.randint(1, 2)
                else:
                    num *= p ** rng.randint(1, 3)
            elements.append(str(Fraction(num, den)))
        v = decide(elements, 2, want_counterexample=False)
        assert (v.status == HOLDS) == brute_square_decision(elements), elements
        assert verify_document(v.to_json(2, elements)) == [], elements


def test_squares_obey_the_ceiling(monkeypatch):
    # the walk over t = 1, 3 draws 2 values and each class's search 4
    import locus.verify
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 9)
    with pytest.raises(InstanceTooLarge):
        decide(["3", "5", "15"], 2)
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 10)
    assert decide(["3", "5", "15"], 2).status == HOLDS
