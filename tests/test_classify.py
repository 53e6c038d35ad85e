import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locus.classify
from locus.classify import (ExceptionalForm, decide, exponent_classes,
                            match_exceptional_pair)
from locus.errors import NotEven, WrongCardinality, ZeroInput
from locus.rationals import (FactoredRational, clear_denominators, factor,
                             is_perfect_power)
from locus.sieve import scan
from locus.verdicts import FAILS, HOLDS
from locus.verify import _columns

from galois_reference import density


def test_classify_singleton():
    # one class of even n: Wang's 16 = 2^4 * 1^8 holds for n = 8, as a
    # cover of every class t; 16 is no 2^8 * b^16, so it fails for n = 16
    v = decide([16], 8)
    assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover"
    assert v.certificate.coeffs == ((0, 4),)

    v = decide([2**24], 8)  # (2^3)^8
    assert v.status == HOLDS and v.certificate.kind == "perfect_power_member"

    v = decide([2], 3)
    assert v.status == FAILS
    assert v.certificate.counterexample_prime == 7

    v = decide([16], 16)
    assert v.status == FAILS and v.certificate.kind == "uncovered_point"
    assert v.certificate.counterexample_prime == 17


def test_wang_exception_scaled():
    # 2^(n/2) * b^n for n = 8, b = 3/2: cleared of its denominator it is
    # 2^28 * 3^8, the class of 16
    x = Fraction(2**4) * Fraction(3, 2) ** 8
    v = decide([x], 8)
    assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover"
    assert v.certificate.coeffs == ((0, 4),)


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


def test_decide_calls_the_public_helpers_once(monkeypatch):
    # bench/spans.py times clearing, the exclusions and the counterexample
    # search by wrapping these public names where decide finds them: a
    # failing decide searches once and a holding one never, and both clear
    # and take the exclusions once
    calls = []
    for name in ("clear_denominators", "default_exclusions", "find_counterexample"):
        fn = getattr(locus.classify, name)
        monkeypatch.setattr(locus.classify, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    v = decide(["2", "3", "12"], 3)
    assert v.fails() and v.certificate.counterexample_prime == 7
    assert sorted(calls) == ["clear_denominators", "default_exclusions", "find_counterexample"]
    calls.clear()
    assert decide(["2", "3", "6", "18"], 3).holds()
    assert sorted(calls) == ["clear_denominators", "default_exclusions"]


def test_decide_examples_from_overview():
    v = decide([2, 3, 6, 18], 3)
    assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover"

    v = decide([4, 8], 6)
    assert v.status == FAILS
    assert v.certificate.counterexample_prime == 13

    v = decide([4, 9, 36, 324], 6)  # {2, 3, 6, 18}^2: the cubic quad squared
    assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover"
    assert v.certificate.support == (-1, 2, 3)


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


def valuation_key(x: Fraction, n: int, primes=(2, 3, 5, 7)):
    """The class of x mod (Q^x)^n over primes, by repeated division: the
    sign for even n, and each p-adic valuation mod n."""
    def v(m, p):
        return 0 if m % p else 1 + v(m // p, p)
    powers = {p: (v(abs(x.numerator), p) - v(x.denominator, p)) % n for p in primes}
    return (int(x < 0) if n % 2 == 0 else 0, {p: e for p, e in powers.items() if e})


def test_exponent_classes_match_verifier_columns():
    # the engine's class key and the verifier's agree on signed fractional
    # sets: one support, the engine's columns the verifier's with repeats
    # dropped, and each representative the first element of its class in
    # input order; both match the classes read off the valuations
    rng = random.Random(7)
    for _ in range(400):
        n = rng.choice((2, 3, 4, 5, 6, 8, 9, 12))
        elements = [Fraction(rng.choice((1, -1)) * 2**rng.randrange(2 * n)
                             * 3**rng.randrange(n) * rng.choice((1, 5, 25)),
                             rng.choice((1, 1, 3, 7, 49)))
                    for _ in range(rng.randint(1, 7))]
        xs = [factor(x) for x in elements]
        for ys in (xs, clear_denominators(xs, n)):
            reps, support, columns = exponent_classes(ys, n)
            own, cols = _columns(ys, n)
            assert tuple(own) == support
            assert columns == tuple(dict.fromkeys(cols))
            assert reps == [ys[cols.index(c)] for c in columns]
            for y, col in zip(ys, cols):
                sign, powers = valuation_key(y.value(), n)
                assert set(powers) <= set(support)
                assert dict(zip(support, col)) == (
                    {-1: sign} | {p: powers.get(p, 0) for p in support[1:]} if n % 2 == 0
                    else {p: powers.get(p, 0) for p in support})


def test_class_key_examples():
    # 18 = 2 * 3^2 and -5 at n = 3, the sign dropped; 2^5 and -5 at n = 4
    for xs, n, support, cols in [
            ([18], 3, (2, 3), [(1, 2)]),
            ([-5], 3, (5,), [(1,)]),
            ([2**5], 4, (-1, 2), [(0, 1)]),
            ([-5], 4, (-1, 5), [(1, 1)]),
            ([Fraction(1, 2), 4, -2, 8], 3, (2,), [(2,), (2,), (1,), (0,)])]:
        xs = [factor(x) for x in xs]
        assert _columns(xs, n) == (list(support), cols)
        assert exponent_classes(xs, n)[1:] == (support, tuple(dict.fromkeys(cols)))


@given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
       .filter(bool), st.integers(min_value=2, max_value=12))
@settings(max_examples=200, deadline=None)
def test_class_keys_are_reduced(x, n):
    # exponents in [0, n), the sign dropped for odd n, and x over the class
    # the column spells a perfect n-th power, under either key
    fx = factor(x)
    for support, (col,) in (exponent_classes([fx], n)[1:], _columns([fx], n)):
        assert all(0 <= e < n for e in col)
        assert (-1 in support) == (n % 2 == 0)
        spelled = FactoredRational.from_prime_powers(
            -1 if dict(zip(support, col)).get(-1) else 1,
            {p: e for p, e in zip(support, col) if p != -1})
        assert is_perfect_power(fx / spelled, n)
        for key in (exponent_classes, _columns):  # the class keys itself
            again_support, again_cols = key([spelled], n)[-2:]
            assert tuple(again_support) == tuple(support) and tuple(again_cols) == (col,)
        if n % 2:
            assert _columns([factor(-x)], n) == _columns([fx], n)


# few primes and wide exponents, so that classes collide often
colliding_rationals = st.builds(
    lambda sign, e2, e3, e5: FactoredRational.from_prime_powers(
        sign, {2: e2, 3: e3, 5: e5}),
    st.sampled_from([1, -1]), st.integers(-9, 9), st.integers(-9, 9),
    st.integers(-2, 2))


@given(st.lists(colliding_rationals, min_size=1, max_size=8),
       st.sampled_from([2, 3, 4, 6, 8, 9]))
@settings(max_examples=300, deadline=None)
def test_class_keys_keep_first_of_each_class(xs, n):
    # the classes are those of a key read off the factors directly: the sign
    # for even n and the exponents mod n; exponent_classes keeps the first
    # element of each, in input order, and _columns gives equal columns
    # exactly to the elements of one class
    keys = [(x.sign if n % 2 == 0 else 1, tuple((p, e % n) for p, e in x.factors if e % n))
            for x in xs]
    first = [x for i, x in enumerate(xs) if keys[i] not in keys[:i]]
    assert exponent_classes(xs, n)[0] == first
    cols = _columns(xs, n)[1]
    assert all((cols[i] == cols[j]) == (keys[i] == keys[j])
               for i in range(len(xs)) for j in range(len(xs)))


def test_decide_singleton_routes():
    assert decide([16], 8).certificate.kind == "hyperplane_cover"
    assert decide([-8], 3).certificate.kind == "perfect_power_member"
    assert decide([2], 3).status == FAILS


def test_decide_two_power_routes():
    # [2, 3, 5] fails for n = 4 in the class t = 3: g = 2, the sign pinned
    # to 1 and 2 to the parity of (2/3) = -1; the density is 35/128
    v = decide([2, 3, 5], 4)
    assert v.status == FAILS and v.certificate.t == 3
    assert v.certificate.point == (1, 1, 1, 1)
    assert v.certificate.counterexample_prime == 17
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


def test_decide_composite_holds_through_every_class():
    # both components hold (4 is a square; the cube classes cover) and 5 has
    # no square root, yet every class t mod 12 is covered: no prime below
    # 2 * 10^5 fails
    v = decide([4, 9, 36, 324, 5], 6)
    assert v.status == HOLDS
    assert v.certificate.kind == "hyperplane_cover"
    assert density([4, 9, 36, 324, 5], 6) == 0
    assert scan([4, 9, 36, 324, 5], 6, 2, 2 * 10**5).failing_primes == ()


def test_decide_composite_failure_names_its_class():
    # the squares component fails; the point lives in the class t = 5 mod
    # 12, where g = gcd(4, 6) = 2 and 3 is pinned to the parity of (3/5) = -1
    v = decide([2, 3, 7, 11], 6)
    assert v.status == FAILS
    assert v.certificate.kind == "uncovered_point"
    assert (v.certificate.t, v.certificate.point) == (5, (0, 1, 1, 1, 1))
    assert v.certificate.counterexample_prime == 13


def test_excluded_primes_cover_n_and_supports():
    v = decide([Fraction(5, 4), 21], 6)
    assert {2, 3, 5, 7} <= set(v.excluded_primes)


def test_lift_of_square_triple():
    # {3, 5, 15}^3: the square triple lifted to n = 6 holds as a cover
    v = decide([27, 125, 3375], 6)
    assert v.status == HOLDS
    assert v.certificate.kind == "hyperplane_cover"
    assert v.certificate.coeffs == ((0, 3, 0), (0, 0, 3), (0, 3, 3))


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


@pytest.mark.parametrize("elements,n,status,dens", [
    ([2, 3, 5], 4, FAILS, Fraction(35, 128)),
    ([2, 3, 5], 8, FAILS, Fraction(355, 1024)),
    ([4, 9, 36, 324, 5], 6, HOLDS, 0),
    ([-4, 9, 3], 4, HOLDS, 0),
    ([16, 3, 12], 8, HOLDS, 0),
])
def test_even_inputs_once_without_a_criterion(elements, n, status, dens):
    # decided by the class criterion, each with the full group's density
    # and a sieve to 10^5 that agrees: no failing prime for a holds, and
    # about the predicted share of failing primes for a fails
    v = decide(elements, n)
    assert v.status == status
    assert density(elements, n) == dens
    report = scan(elements, n, 2, 10**5)
    if status == HOLDS:
        assert report.failing_primes == ()
    else:
        assert v.certificate.counterexample_prime == report.failing_primes[0]
        assert abs(report.failing_density - dens) < 0.02


def test_decide_agrees_with_the_full_galois_group():
    import random
    rng = random.Random(12)
    held = 0
    for _ in range(200):
        n = rng.choice((4, 6, 8, 12))
        # exponents on multiples of a divisor of n, where sets that hold
        # without a perfect member are common
        d = rng.choice([d for d in range(1, n) if n % d == 0])
        elements = set()
        for _ in range(rng.randint(1, 5)):
            x = rng.choice((1, -1)) * 2 ** (d * rng.randrange(3) % n) \
                * 3 ** (d * rng.randrange(3) % n)
            if x != 1:
                elements.add(x * rng.choice((1, 1, 5)))
        if not elements:
            continue
        elements = sorted(elements)
        want = density(elements, n) == 0
        assert decide(elements, n, want_counterexample=False).holds() == want, \
            (elements, n)
        held += want
    assert held >= 10, held


def test_one_ceiling_for_every_class(monkeypatch):
    # every class of [4, 9, 36, 324, 5] for n = 6 is searched in full; the
    # walk over the 6 odd t below 12 and the searches take 20 values
    # together (5 for t = 1 and 9 for t = 7), no search alone more than 9
    from locus import covering, verify
    from locus.errors import InstanceTooLarge
    elements = [4, 9, 36, 324, 5]
    columns = decide(elements, 6).certificate.coeffs
    monkeypatch.setattr(verify, "COVER_RECHECK_LIMIT", 20)
    assert decide(elements, 6).holds()
    monkeypatch.setattr(verify, "COVER_RECHECK_LIMIT", 19)
    with pytest.raises(InstanceTooLarge):
        decide(elements, 6)
    support = (-1, 2, 3, 5)
    classes = covering._classes(6, support, iter(range(6)))
    assert len(classes) > 1
    for t, g, pins in classes:
        moved, shift = covering._pinned(columns, pins)
        assert covering._search(moved, g, len(support), shift, iter(range(19))) is None


def test_large_even_n_ends_at_the_ceiling(monkeypatch):
    # the class walk of an even n draws on the cover budget: n = 10^8 has
    # 10^8 odd t below 2n, far more than the budget allows
    from locus import verify
    from locus.errors import InstanceTooLarge
    with pytest.raises(InstanceTooLarge):
        decide([2], 10**8)
    monkeypatch.setattr(verify, "COVER_RECHECK_LIMIT", 1000)
    with pytest.raises(InstanceTooLarge):
        decide([2], 10**8)


def test_shared_large_primes_decide_without_rho(monkeypatch):
    # each composite cofactor shares a prime with another element of its set,
    # so decide splits it by a gcd; the verifier splits by the excluded primes
    from locus import primes
    from locus.verify import verify_document

    def no_rho(*args):
        raise AssertionError("rho ran")
    monkeypatch.setattr(primes, "_brent_rho", no_rho)
    a, b = 999999937, 100000000003  # primes near 10^9 and 10^11
    sets = [([5 * a, b, 5 * a * b * 7**2], 2), ([a, b, a * b, a * b**2], 3),
            ([-3 * a, Fraction(b, a), -12 * a**2 * b], 2)]
    for elements, n in sets:
        v = decide(elements, n)
        assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover", elements
        assert {a, b} <= v.excluded_primes
        assert verify_document(v.to_json(n, [str(Fraction(x)) for x in elements])) == []


def test_three_huge_products_decide_by_gcd():
    # {pq, pr, qr}: each product is past the deterministic bound and its least
    # prime far past rho's cycle limit, so alone it cannot be factored; in the
    # set each is split by its gcd with another
    import time
    from locus.errors import FactorizationCapacityExceeded
    from locus.verify import verify_document

    p, q, r = 10**20 + 39, 10**22 + 9, 10**21 + 117
    elements = [str(p * q), str(p * r), str(q * r)]
    for n, status, kind in ((2, HOLDS, "hyperplane_cover"), (3, FAILS, "uncovered_point")):
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            v = decide(elements, n)
            seconds.append(time.perf_counter() - t0)
        assert (v.status, v.certificate.kind) == (status, kind)
        assert {2, p, q, r} <= v.excluded_primes
        assert verify_document(v.to_json(n, elements)) == []
        assert min(seconds) < 0.05, seconds  # rho gave up after about 0.15 s
    with pytest.raises(FactorizationCapacityExceeded):
        decide([str(p * q)], 2)
