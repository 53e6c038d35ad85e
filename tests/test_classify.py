from fractions import Fraction

import pytest

from locus.classify import (ExceptionalForm, classify_singleton, decide,
                            match_exceptional_pair)
from locus.errors import NotEven, WrongCardinality, ZeroInput
from locus.sieve import scan
from locus.verdicts import FAILS, HOLDS, INCONCLUSIVE


def test_classify_singleton():
    v = classify_singleton(16, 8)
    assert v.status == HOLDS and v.certificate.kind == "wang_exception"
    assert v.certificate.b == "1"

    v = classify_singleton(2**24, 8)  # (2^3)^8
    assert v.status == HOLDS and v.certificate.kind == "perfect_power_member"

    v = classify_singleton(2, 3)
    assert v.status == FAILS
    assert v.certificate.counterexample_prime == 7

    v = classify_singleton(16, 16)  # 16 is not 2^8 * b^16
    assert v.status == FAILS
    assert v.certificate.counterexample_prime == 17


def test_wang_exception_scaled():
    # 2^(n/2) * b^n for n = 8, b = 3/2
    x = Fraction(2**4) * Fraction(3, 2) ** 8
    v = classify_singleton(x, 8)
    assert v.status == HOLDS and v.certificate.kind == "wang_exception"
    assert v.certificate.b == "3/2"


def test_match_exceptional_pair_examples():
    form = match_exceptional_pair([-27, 4], 6)
    assert form == ExceptionalForm("A0eq1", 3, Fraction(1), Fraction(2))

    form = match_exceptional_pair([-4, 9], 4)
    assert form == ExceptionalForm("A0eq2_neg2", None, Fraction(1), Fraction(3))

    assert match_exceptional_pair([2, 3], 6) is None


def test_match_exceptional_pair_argument_checks():
    with pytest.raises(NotEven):
        match_exceptional_pair([2, 3], 3)
    with pytest.raises(WrongCardinality):
        match_exceptional_pair([2, 3, 5], 6)


def test_match_exceptional_pair_rational_alphas():
    # {-27 * (3/2)^6, 25} for n = 6
    a = Fraction(-27) * Fraction(3, 2) ** 6
    form = match_exceptional_pair([a, 25], 6)
    assert form is not None
    assert form.case_tag == "A0eq1" and form.alpha1 == Fraction(3, 2)
    assert form.alpha2 == 5


def test_match_against_wang8_style_member():
    # a0 >= 3: an element 2^(n/2) * alpha^n matches regardless of the partner
    form = match_exceptional_pair([2**12, 7], 24)
    assert form is not None and form.case_tag == "A0ge3_2half"
    assert form.alpha2 == 7


def test_decide_examples_from_overview():
    v = decide([2, 3, 6, 18], 3)
    assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover"

    v = decide([4, 8], 6)
    assert v.status == FAILS
    assert v.certificate.counterexample_prime == 13

    v = decide([4, 9, 36, 324], 6)
    assert v.status == HOLDS and v.certificate.kind == "lifted_family"
    assert v.certificate.exponent == 2
    assert v.certificate.base_certificate.kind == "hyperplane_cover"


def test_decide_rejects_bad_input():
    with pytest.raises(ZeroInput):
        decide([], 3)
    with pytest.raises(ZeroInput):
        decide([0, 2], 3)
    with pytest.raises(ValueError):
        decide([2], 1)


def test_decide_clears_denominators_and_dedupes():
    # 1/2 and 8 share the class of 2 mod cubes after clearing
    v1 = decide([Fraction(1, 2), 8, 3, 6, 18], 3)
    v2 = decide([2, 3, 6, 18], 3)
    assert v1.status == v2.status == HOLDS


def test_decide_singleton_routes():
    assert decide([16], 8).certificate.kind == "wang_exception"
    assert decide([-8], 3).certificate.kind == "perfect_power_member"
    assert decide([2], 3).status == FAILS


def test_decide_two_power_routes():
    assert decide([2, 3, 5], 4).status == INCONCLUSIVE
    assert decide([3, 5, 15], 2).status == HOLDS
    assert decide([16, 5], 8).status == HOLDS  # wang member in a pair


def test_decide_odd_small_sets_fail():
    # odd n, at most p1 classes, no perfect n-th power: always fails
    v = decide([32, 8], 15)
    assert v.status == FAILS
    assert v.certificate.kind == "uncovered_point"
    assert v.certificate.counterexample_prime == 61

    assert decide([2, 3, 5], 9).status == FAILS
    assert decide([4, 2], 3).status == FAILS


def test_decide_odd_composite_refutes_with_a_point():
    v = decide([2, 3, 5], 15)
    assert v.status == FAILS
    assert v.certificate.kind == "uncovered_point"
    assert (v.certificate.q, v.certificate.point) == (15, (1, 1, 1))


MOD_9_COLUMNS = [[1, 0], [0, 1]] + [[1, a] for a in (1, 2, 4, 5, 7, 8)] + [[3, 8], [3, 4]]
N15_HOLDS = ["3200000", "100000", "32", "781250000000", "512", "78125000", "9765625"]


@pytest.mark.parametrize("elements,n,status,prime", [
    ([str(2**a * 3**b) for a, b in MOD_9_COLUMNS], 9, FAILS, 109),
    (N15_HOLDS, 15, HOLDS, None),
    (["2", "3", "6", "12", "5", "10"], 27, FAILS, 19),
    (["2", "7", "14", "98", "686", "4802"], 25, FAILS, 101),
])
def test_cover_mod_n_verdicts_agree_with_the_sieve(elements, n, status, prime):
    # layered sets mod prime powers, and a set mod 15 whose components both
    # hold; the sieve to 2 * 10^5 agrees with each verdict
    v = decide(elements, n)
    assert v.status == status
    assert v.certificate.kind == ("hyperplane_cover" if status == HOLDS
                                  else "uncovered_point")
    assert v.certificate.q == n
    failing = scan(elements, n, 2, 2 * 10**5).failing_primes
    if status == HOLDS:
        assert failing == ()
    else:
        assert v.certificate.counterexample_prime == failing[0] == prime


def test_decide_even_pair_iff():
    assert decide([-27, 4], 6).status == HOLDS
    assert decide([-4, 9], 4).status == HOLDS
    assert decide([3, 4], 6).status == FAILS
    assert decide([2, 3], 6).certificate.counterexample_prime == 5


def test_decide_composite_inconclusive_without_structure():
    # both components hold (4 is a square; the cube classes cover) but 5 has
    # no square root, so no lift applies and no criterion decides the set
    v = decide([4, 9, 36, 324, 5], 6)
    assert v.status == INCONCLUSIVE
    assert v.certificate.kind == "evidence"


def test_decide_component_failure_names_failing_component():
    v = decide([2, 3, 7, 11], 6)  # squares component fails
    assert v.status == FAILS
    assert v.certificate.kind == "component_failure"
    assert (v.certificate.q, v.certificate.m) == (2, 1)


def test_excluded_primes_cover_n_and_supports():
    v = decide([Fraction(5, 4), 21], 6)
    assert {2, 3, 5, 7} <= set(v.excluded_primes)


def test_lift_of_square_triple():
    v = decide([27, 125, 3375], 6)
    assert v.status == HOLDS
    assert v.certificate.kind == "lifted_family"
    assert v.certificate.exponent == 3
    assert v.certificate.base_certificate.kind == "odd_subset_witness"


def test_small_set_theorem_exhaustive():
    """Odd n, at most 3 classes over {2,5}, no perfect n-th power: always fails.

    Exhausts every set of <= 3 elements 2^a * 5^b with 0 <= a, b <= 8; the
    same corpus also pins the q^m cardinality bound for q = 3, m = 2.
    """
    from itertools import combinations, product

    from locus.prime_power import decide_prime_power
    from locus.rationals import FactoredRational, is_perfect_power

    elems = [FactoredRational.from_prime_powers(1, {2: a, 5: b})
             for a, b in product(range(9), repeat=2) if (a, b) != (0, 0)]
    checked = 0
    for size in (1, 2, 3):
        for idx in combinations(range(len(elems)), size):
            sub = [elems[i] for i in idx]
            if any(is_perfect_power(x, 9) for x in sub):
                continue  # none exist below exponent 9, but keep the guard
            v = decide_prime_power(sub, 3, 2, want_counterexample=False)
            assert v.status == FAILS, [str(x) for x in sub]
            if not any(is_perfect_power(x, 15) for x in sub):
                v = decide(sub, 15, want_counterexample=False)
                assert v.status == FAILS, [str(x) for x in sub]
            checked += 1
    assert checked == 80 + 3160 + 82160


def test_evidence_attachment_is_consistent():
    v = decide([2, 3, 6, 18], 3, attach_evidence=True, evidence_hi=2000)
    assert v.evidence is not None
    assert v.evidence["failing_primes"] == []
    v = decide([2, 3, 12], 3, attach_evidence=True, evidence_hi=2000)
    assert 7 in v.evidence["failing_primes"]


def test_large_prime_supports_fail_at_all_ones():
    from locus.primes import sieve_upto
    from locus.verify import verify_document

    primes = sieve_upto(200)
    for count in (20, 40):
        elems = [str(p) for p in primes[:count]]
        v = decide(elems, 3)
        assert v.status == FAILS
        assert v.certificate.point == (1,) * count
        assert verify_document(v.to_json(3, elems)) == []
