from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locus.covering import (Covered, Hyperplane, Uncovered, build_hyperplanes,
                            covers, decide_q)
from locus.errors import InstanceTooLarge, NotQFree, UnitElement
from locus.verdicts import FAILS, HOLDS
from locus.verify import _forms_cover


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
