from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import additive_order, elimination_cases, image, span

import locus.verify
from locus import covering
from locus.classify import decide
from locus.covering import covers, decide_q
from locus.errors import InstanceTooLarge
from locus.verdicts import FAILS, HOLDS
from locus.verify import _covers_mod, verify_document


def brute_uncovered(cols, q, s):
    for pt in product(range(q), repeat=s):
        if all(sum(c * x for c, x in zip(col, pt)) % q for col in cols):
            return pt
    return None


def assert_agrees_with_brute_force(cols, q, s):
    """covers(...) is None exactly when the plain loop finds no miss, and a
    returned point lies off every kernel."""
    got = covers(cols, q, s)
    assert (got is None) == (brute_uncovered(cols, q, s) is None)
    if got is not None:
        assert isinstance(got, tuple) and len(got) == s
        assert all(sum(c * x for c, x in zip(col, got)) % q for col in cols)
    return got


def rank_mod_p(cols, q):
    """Rank over F_q by plain Gaussian elimination."""
    rows, rank = [list(c) for c in cols], 0
    for j in range(len(cols[0])):
        piv = next((r for r in rows[rank:] if r[j] % q), None)
        if piv is None:
            continue
        rows.remove(piv)
        rows.insert(rank, piv)
        inv = pow(piv[j], -1, q)
        for r in rows[rank + 1:]:
            c = r[j] * inv
            r[:] = [(a - c * b) % q for a, b in zip(r, piv)]
        rank += 1
    return rank


def prime_recheck_bound(q, r):
    """Values the image search tries at most for a prime q and rank r: two
    at the first coordinate (0 and 1), then q at each later one below
    every surviving unit prefix."""
    return 2 + q * ((q - 1) ** (r - 1) - 1) // (q - 2)


def test_echelon_generates_the_image():
    """On seeded matrices over Z/n, full rank before the last column and
    zero or repeated columns among them: h_k = r_k . E mod n, m_k is the
    additive order of h_k, and the h_k span the image {x . E}."""
    full_rank_early = 0
    for n, s, cols in elimination_cases(11, 400):
        gens = covering._echelon(cols, n, s)
        assert len(gens) <= s
        for m, r, h in gens:
            assert len(r) == s and len(h) == len(cols)
            assert list(h) == [sum(a * b for a, b in zip(r, col)) % n for col in cols]
            assert m == additive_order(h, n)
        want = image(cols, n, s)
        assert span([(m, h) for m, _, h in gens], n, len(cols)) == want, (n, s, cols)
        # every row is taken within the first s columns: the loop stops early
        full_rank_early += len(cols) > s and len(covering._echelon(cols[:s], n, s)) == s
    assert full_rank_early >= 100


def test_decide_q_certificate_columns():
    cert = decide_q([2, 3, 6, 18], 3).certificate
    assert cert.support == (2, 3)
    assert cert.coeffs == ((1, 0), (0, 1), (1, 1), (1, 2))
    assert decide_q([2, 3, 12], 3).certificate.coeffs == ((1, 0), (0, 1), (2, 1))
    # a cube, and -1 (itself a cube), are members before any column is built
    for elements, member, root in (([8], "8", "2"), ([2, -1], "-1", "-1")):
        cert = decide_q(elements, 3).certificate
        assert cert.kind == "perfect_power_member"
        assert (cert.element, cert.root) == (member, root)


def test_decide_q_columns_ignore_sign():
    v = decide_q([-2, 3], 3)
    assert v.status == FAILS
    assert v.certificate.coeffs == ((1, 0), (0, 1))


def test_covers_examples():
    assert covers([(1, 0), (0, 1), (1, 1), (1, 2)], 3, 2) is None
    assert assert_agrees_with_brute_force([(1, 0), (0, 1), (2, 1)], 3, 2) is not None
    assert assert_agrees_with_brute_force([(1,)], 3, 1) is not None


def test_covers_small_sets_agree_with_brute_force():
    col_pool = [c for c in product(range(3), repeat=2) if any(c)]
    for r in range(1, 5):
        for cols in combinations(col_pool, r):
            assert_agrees_with_brute_force(cols, 3, 2)


def test_covers_duplicate_collapse():
    cols = [(1, 0)] * 3 + [(0, 1), (1, 1), (1, 2)]
    assert covers(cols, 3, 2) is None


def test_covers_ceiling(monkeypatch):
    # the four-line cover of F_3^2 tries 0 and 1 at its first coordinate,
    # then 0, 1 and 2 at its second
    cols = [(1, 0), (0, 1), (1, 1), (1, 2)]
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 4)
    with pytest.raises(InstanceTooLarge):
        covers(cols, 3, 2)
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 5)
    assert covers(cols, 3, 2) is None
    # the lines through the origin of two coordinates cover F_7^10; pruning
    # settles it in 9 values (0 and 1, then all of F_7 at the second
    # coordinate) where the plain loop over (F_7^*)^9 needs 6^9
    cols = [tuple(int(i == j) for j in range(10)) for i in range(10)]
    cols += [(1, a) + (0,) * 8 for a in range(1, 7)] + [(1,) * 10]
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 8)
    with pytest.raises(InstanceTooLarge):
        covers(cols, 7, 10)
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 9)
    assert covers(cols, 7, 10) is None


def test_divisor_walk_stays_within_the_ceiling(monkeypatch):
    # at a prime n near 10^12 the search tries 0, then the divisor 1 of n:
    # two values, where listing the divisors below n ran for hours at any
    # budget
    n = 1000000000039
    assert decide(["2", "3", "6", "12"], 3 * n).fails()
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 1)
    with pytest.raises(InstanceTooLarge):
        decide(["2"], n)
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 2)
    assert decide(["2"], n).certificate.point == (1,)


@st.composite
def form_sets(draw):
    q = draw(st.sampled_from([3, 5, 7]))
    s = draw(st.integers(1, 5 if q < 7 else 4))
    col = st.tuples(*[st.integers(0, q - 1)] * s).filter(any)
    return q, s, draw(st.lists(col, min_size=1, max_size=3 * q))


@given(form_sets())
@settings(max_examples=300, deadline=None)
def test_covers_agrees_with_brute_force(case):
    assert_agrees_with_brute_force(case[2], case[0], case[1])


@given(form_sets())
@settings(max_examples=300, deadline=None)
def test_verifier_cover_check_agrees_with_brute_force(case):
    q, s, cols = case
    assert _covers_mod(cols, q, [None] * s) == (brute_uncovered(cols, q, s) is None)


@given(form_sets())
@settings(max_examples=300, deadline=None)
def test_verifier_prime_recheck_stays_within_its_bound(case):
    # with the limit cut to the bound at the columns' rank, every prime set
    # still re-checks, cover or not
    q, s, cols = case
    limit = prime_recheck_bound(q, rank_mod_p(cols, q))
    with mock.patch.object(locus.verify, "COVER_RECHECK_LIMIT", limit):
        assert _covers_mod(cols, q, [None] * s) == (brute_uncovered(cols, q, s) is None)


@st.composite
def column_sets(draw):
    n = draw(st.sampled_from([9, 15, 21, 25, 27, 45]))
    s = draw(st.integers(1, 3))
    # entries are often multiples of a divisor of n, so that some sets cover
    entry = st.builds(lambda d, a: d * a % n,
                      st.sampled_from([d for d in range(1, n) if n % d == 0]),
                      st.integers(0, n - 1))
    col = st.tuples(*[entry] * s).filter(any)
    return n, s, draw(st.lists(col, min_size=1, max_size=6))


@given(column_sets())
@settings(max_examples=300, deadline=None)
def test_covers_mod_agrees_with_plain_loop(case):
    assert_agrees_with_brute_force(case[2], case[0], case[1])


@given(column_sets())
@settings(max_examples=300, deadline=None)
def test_verifier_cover_mod_check_agrees_with_plain_loop(case):
    n, s, cols = case
    assert _covers_mod(cols, n, [None] * s) == (brute_uncovered(cols, n, s) is None)


@given(st.one_of(form_sets(), column_sets()))
@settings(max_examples=300, deadline=None)
def test_engine_and_verifier_agree_on_covers(case):
    n, s, cols = case
    assert (covers(cols, n, s) is None) == _covers_mod(cols, n, [None] * s)


@given(column_sets(), st.sampled_from([2, 4, 6, 8, 12]), st.data())
@settings(max_examples=300, deadline=None)
def test_shifted_covers_agree_with_plain_loop(case, g, data):
    # affine forms <x, c> + c_0 over any modulus, even ones included, as
    # each class of an even n asks
    _, s, cols = case
    shift = data.draw(st.lists(st.integers(0, g - 1), min_size=len(cols),
                               max_size=len(cols)))
    cols = [tuple(c % g for c in col) for col in cols]
    misses = [x for x in product(range(g), repeat=s)
              if all((c0 + sum(c * v for c, v in zip(col, x))) % g
                     for col, c0 in zip(cols, shift))]
    got = covering._search(cols, g, s, shift, iter(range(locus.verify.COVER_RECHECK_LIMIT)))
    assert (got is None) == (not misses)
    assert got is None or got in misses


def test_covers_mod_examples(monkeypatch):
    # the optimal family lifted by 3 covers (Z/9)^2; unlifted it misses (3, 1)
    cols = [(3, 0), (0, 3), (3, 3), (3, 6)]
    assert covers(cols, 9, 2) is None
    assert assert_agrees_with_brute_force(
        [(1, 0), (0, 1), (1, 1), (1, 2)], 9, 2) is not None
    # sets whose every miss has a zero or a non-unit first coordinate in the
    # search, that take Euclid two rounds on a pivot, or whose fifth prime's
    # row lies outside the span of the four rows Euclid would otherwise take
    for cols, n in [([(0, 2, 0), (1, 0, 2), (2, 1, 0), (1, 1, 1)], 3),
                    ([(3, 0, 3, 3, 6), (0, 3, 3, 6, 6), (3, 3, 6, 0, 7),
                      (3, 6, 0, 6, 7)], 9),
                    ([(0, 2), (3, 6), (6, 6), (6, 0)], 9),
                    ([(3, 6), (4, 3), (6, 6), (5, 3), (0, 6)], 9),
                    ([(8, 0), (3, 6), (6, 6), (0, 3)], 9),
                    ([(6, 0), (6, 3), (0, 4), (6, 6)], 9)]:
        assert assert_agrees_with_brute_force(cols, n, len(cols[0])) is not None
        assert not _covers_mod(cols, n, [None] * len(cols[0]))
    # a form that vanishes mod n covers everything; one column never does
    assert covers([(15, 0), (1, 2)], 15, 2) is None
    assert covers([(5, 10, 3)], 15, 3) is not None
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 1)
    with pytest.raises(InstanceTooLarge):
        covers(cols, 9, 2)
    with pytest.raises(ValueError):
        covers([], 9, 2)


def test_decide_q_composite_examples():
    v = decide_q([8, 125, 1000, 125000], 9)
    assert v.status == HOLDS and v.certificate.q == 9
    assert v.certificate.coeffs == ((3, 0), (0, 3), (3, 3), (3, 6))
    v = decide_q([2, 5, 10, 50], 15)
    assert v.status == FAILS and v.certificate.q == 15
    assert v.certificate.counterexample_prime == 31
    v = decide_q([32, 3125, 100000, 312500000], 15)
    assert v.status == HOLDS


def test_decide_q_examples():
    v = decide_q([2, 3, 6, 18], 3)
    assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover"
    assert v.excluded_primes == {2, 3}

    v = decide_q([2, 3, 12], 3)
    assert v.status == FAILS
    assert v.certificate.point == (1, 2)
    assert v.certificate.counterexample_prime == 7

    v = decide_q([-8], 3)
    assert v.status == HOLDS and v.certificate.kind == "perfect_power_member"
    assert v.certificate.root == "-2"


def test_decide_q_reduces_first():
    # 16 = 2^4 reduces to 2 mod cubes; 1/4 reduces to 2^2
    v = decide_q([16, "1/4", 12], 3)
    assert v.status == FAILS
    v2 = decide_q([2, 4, 12], 3)
    assert v.certificate.point == v2.certificate.point


def test_decide_q_dedupes_classes():
    v1 = decide_q([2, 16, 3, 6, 18], 3)   # 16 is the class of 2
    v2 = decide_q([2, 3, 6, 18], 3)
    assert v1.status == v2.status == HOLDS
    assert v1.certificate.coeffs == v2.certificate.coeffs


def test_decide_q_rejects_even_q():
    with pytest.raises(ValueError):
        decide_q([3, 5], 2)


@st.composite
def odd_sets(draw):
    """An odd n and a few rationals over small primes, denominators included."""
    n = draw(st.sampled_from([3, 5, 7, 9, 15, 21, 25, 27]))
    rational = st.builds(
        lambda sign, exps: sign * Fraction(2) ** exps[0] * Fraction(3) ** exps[1]
        * Fraction(5) ** exps[2] * Fraction(7) ** exps[3],
        st.sampled_from([1, -1]), st.tuples(*[st.integers(-3, 2 * n)] * 4))
    integral = st.builds(lambda x: x.numerator, rational)
    return n, draw(st.lists(st.one_of(rational, integral), min_size=1, max_size=5))


@given(odd_sets())
@settings(max_examples=200, deadline=None)
def test_decide_q_is_decide_for_odd_n(case):
    n, xs = case
    texts = [str(x) for x in xs]
    doc = decide_q(texts, n).to_json(n, texts)
    assert doc == decide(texts, n).to_json(n, texts)
    assert doc["certificate"]["kind"] in {"perfect_power_member", "hyperplane_cover",
                                          "uncovered_point"}
    assert verify_document(doc) == []
