from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locus.covering import (Covered, Hyperplane, Uncovered, build_hyperplanes,
                            covers, covers_mod, decide_q)
from locus.errors import InstanceTooLarge, NotQFree, UnitElement
from locus.verdicts import FAILS, HOLDS
from locus.verify import _covers_mod, _forms_cover


def brute_uncovered(cols, q, s):
    for pt in product(range(q), repeat=s):
        if all(sum(c * x for c, x in zip(col, pt)) % q for col in cols):
            return pt
    return None


def test_build_hyperplanes_examples():
    matrix, planes, trivial = build_hyperplanes([2, 3, 6, 18], 3)
    assert matrix.support == (2, 3)
    assert matrix.columns == ((1, 0), (0, 1), (1, 1), (1, 2))
    assert not trivial

    matrix, planes, _ = build_hyperplanes([2, 3, 12], 3)
    assert matrix.columns == ((1, 0), (0, 1), (2, 1))

    with pytest.raises(NotQFree):
        build_hyperplanes([8], 3)
    with pytest.raises(UnitElement):
        build_hyperplanes([2, -1], 3)


def test_build_hyperplanes_ignores_sign_for_odd_q():
    matrix, _, _ = build_hyperplanes([-2, 3], 3)
    assert matrix.columns == ((1, 0), (0, 1))


def test_covers_examples():
    planes = [Hyperplane(c) for c in [(1, 0), (0, 1), (1, 1), (1, 2)]]
    assert isinstance(covers(planes, 3, 2), Covered)

    planes = [Hyperplane(c) for c in [(1, 0), (0, 1), (2, 1)]]
    out = covers(planes, 3, 2)
    assert out == Uncovered((1, 2))

    out = covers([Hyperplane((1,))], 3, 1)
    assert out == Uncovered((1,))


def test_covers_lexicographic_least_and_brute_agreement():
    col_pool = [c for c in product(range(3), repeat=2) if any(c)]
    for r in range(1, 5):
        from itertools import combinations
        for cols in combinations(col_pool, r):
            got = covers([Hyperplane(c) for c in cols], 3, 2)
            want = brute_uncovered(cols, 3, 2)
            if want is None:
                assert isinstance(got, Covered)
            else:
                assert got == Uncovered(want)


def test_covers_duplicate_collapse():
    planes = [Hyperplane((1, 0))] * 3 + [Hyperplane((0, 1)), Hyperplane((1, 1)),
                                         Hyperplane((1, 2))]
    assert isinstance(covers(planes, 3, 2), Covered)


def test_covers_ceiling():
    # the four-line cover of F_3^2 tries two values for its second coordinate
    planes = [Hyperplane(c) for c in [(1, 0), (0, 1), (1, 1), (1, 2)]]
    with pytest.raises(InstanceTooLarge):
        covers(planes, 3, 2, ceiling=1)
    assert isinstance(covers(planes, 3, 2, ceiling=2), Covered)
    # the lines through the origin of two coordinates cover F_7^10; pruning
    # settles it in 6 values where the plain loop over (F_7^*)^9 needs 10^7
    cols = [tuple(int(i == j) for j in range(10)) for i in range(10)]
    cols += [(1, a) + (0,) * 8 for a in range(1, 7)] + [(1,) * 10]
    assert isinstance(covers([Hyperplane(c) for c in cols], 7, 10, ceiling=6), Covered)
    # a single form is decided by counting alone, however wide its support
    assert covers([Hyperplane((1,) * 20)], 3, 20, ceiling=0) == \
        Uncovered((0,) * 19 + (1,))


@st.composite
def form_sets(draw):
    q = draw(st.sampled_from([3, 5, 7]))
    s = draw(st.integers(1, 5 if q < 7 else 4))
    col = st.tuples(*[st.integers(0, q - 1)] * s).filter(any)
    return q, s, draw(st.lists(col, min_size=1, max_size=3 * q))


@given(form_sets())
@settings(max_examples=300, deadline=None)
def test_covers_agrees_with_brute_force(case):
    q, s, cols = case
    got = covers([Hyperplane(c) for c in cols], q, s)
    want = brute_uncovered(cols, q, s)
    assert got == (Covered() if want is None else Uncovered(want))


@given(form_sets())
@settings(max_examples=300, deadline=None)
def test_verifier_cover_check_agrees_with_brute_force(case):
    q, s, cols = case
    assert _forms_cover(cols, q) == (brute_uncovered(cols, q, s) is None)


@st.composite
def column_sets(draw):
    n = draw(st.sampled_from([9, 15, 21, 25, 27, 45]))
    s = draw(st.integers(1, 3))
    # entries are often multiples of a divisor of n, so that some sets cover
    entry = st.builds(lambda d, a: d * a % n,
                      st.sampled_from([d for d in range(1, n) if n % d == 0]),
                      st.integers(0, n - 1))
    col = st.tuples(*[entry] * s)
    return n, s, draw(st.lists(col, min_size=1, max_size=6))


@given(column_sets())
@settings(max_examples=300, deadline=None)
def test_covers_mod_agrees_with_plain_loop(case):
    n, s, cols = case
    got = covers_mod(cols, n)
    want = brute_uncovered(cols, n, s)
    assert isinstance(got, Covered) == (want is None)
    if isinstance(got, Uncovered):
        assert len(got.point) == s
        assert all(sum(c * x for c, x in zip(col, got.point)) % n for col in cols)


@given(column_sets())
@settings(max_examples=300, deadline=None)
def test_verifier_cover_mod_check_agrees_with_plain_loop(case):
    n, s, cols = case
    cols = [c for c in cols if any(c)]  # a zero column counts for nothing there
    assert _covers_mod(cols, n) == (brute_uncovered(cols, n, s) is None)


def test_covers_mod_examples():
    # the optimal family lifted by 3 covers (Z/9)^2; unlifted it misses (3, 1)
    cols = [(3, 0), (0, 3), (3, 3), (3, 6)]
    assert covers_mod(cols, 9) == Covered()
    out = covers_mod([(1, 0), (0, 1), (1, 1), (1, 2)], 9)
    assert isinstance(out, Uncovered)
    assert all(sum(c * x for c, x in zip(col, out.point)) % 9
               for col in [(1, 0), (0, 1), (1, 1), (1, 2)])
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
        out = covers_mod(cols, n)
        want = brute_uncovered(cols, n, len(cols[0]))
        assert want and isinstance(out, Uncovered)
        assert all(sum(c * x for c, x in zip(col, out.point)) % n for col in cols)
        assert not _covers_mod(cols, n)
    # a zero column covers everything; one column never does
    assert covers_mod([(0, 0), (1, 2)], 15) == Covered()
    assert isinstance(covers_mod([(5, 10, 3)], 15), Uncovered)
    with pytest.raises(InstanceTooLarge):
        covers_mod(cols, 9, ceiling=1)
    with pytest.raises(ValueError):
        covers_mod([], 9)


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
