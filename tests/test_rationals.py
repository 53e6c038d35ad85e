from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locus.errors import ParseError, UnitInput, ZeroInput
from locus.rationals import (FactoredRational, clear_denominators, dedupe,
                             factor, is_perfect_power, parse_rational,
                             reduce_class, strip_power_layers)
from locus.verify import _class_key

nonzero_rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6),
    max_denominator=10**4).filter(lambda f: f != 0)


def test_factor_examples():
    assert factor(1) == FactoredRational(1, ())
    assert factor(-27) == FactoredRational(-1, ((3, 3),))
    assert factor(Fraction(12, 5)) == FactoredRational(1, ((2, 2), (3, 1), (5, -1)))


def test_factor_zero_rejected():
    with pytest.raises(ZeroInput):
        factor(0)
    with pytest.raises(ZeroInput):
        factor("0")


def test_parse_rational_syntax():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+7") == 7
    for bad in ["1.5", "3/-4", "0x10", "", "2e3", "1/0//"]:
        with pytest.raises((ParseError, ZeroInput, ZeroDivisionError)):
            parse_rational(bad)


@given(nonzero_rationals)
@settings(max_examples=300, deadline=None)
def test_factor_roundtrip(x):
    assert factor(x).value() == x


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=200, deadline=None)
def test_multiplication_matches_fractions(x, y):
    assert (factor(x) * factor(y)).value() == x * y
    assert (factor(x) / factor(y)).value() == x / y


def brute_is_perfect_power(x: Fraction, k: int) -> bool:
    """Independent check by integer root search on numerator and denominator."""
    if x < 0 and k % 2 == 0:
        return False

    def has_root(v: int) -> bool:
        if v == 1:
            return True
        r = round(v ** (1.0 / k))
        return any(c >= 1 and c**k == v for c in (r - 1, r, r + 1, r + 2))

    return has_root(abs(x.numerator)) and has_root(x.denominator)


def test_is_perfect_power_examples():
    assert is_perfect_power(225, 2)
    assert not is_perfect_power(16, 8)
    assert is_perfect_power(-8, 3)
    assert is_perfect_power(1, 17)
    assert is_perfect_power(-1, 3)
    assert not is_perfect_power(-1, 2)
    assert is_perfect_power(Fraction(8, 27), 3)
    assert is_perfect_power(5, 1)


def test_is_perfect_power_against_bruteforce():
    for n in range(2, 2000):
        for k in range(1, 13):
            for s in (1, -1):
                assert is_perfect_power(s * n, k) == \
                    brute_is_perfect_power(Fraction(s * n), k), (s * n, k)


@given(nonzero_rationals, st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_is_perfect_power_property(x, k):
    assert is_perfect_power(x, k) == brute_is_perfect_power(x, k)


def test_clear_denominators():
    out = clear_denominators([Fraction(1, 2), 3], 2)
    assert [x.value() for x in out] == [2, 12]
    out = clear_denominators([5], 3)
    assert [x.value() for x in out] == [5]
    # same class mod n-th powers, and integral
    elems = [Fraction(3, 4), Fraction(-5, 6), 7]
    for n in (2, 3, 6):
        out = clear_denominators(elems, n)
        for before, after in zip(elems, out):
            assert after.is_integral()
            ratio = after.value() / before
            assert brute_is_perfect_power(ratio, n)


def test_reduce_class_examples():
    assert reduce_class(18, 3).rep == factor(18)
    assert reduce_class(-5, 3).rep == factor(5)
    assert reduce_class(2**5, 4).rep == factor(2)
    assert reduce_class(-5, 4).rep == factor(-5)


@given(nonzero_rationals, st.integers(min_value=2, max_value=12))
@settings(max_examples=200, deadline=None)
def test_reduce_class_invariants(x, k):
    cls = reduce_class(x, k)
    rep = cls.rep
    assert all(0 <= e < k for _, e in rep.factors)
    if k % 2:
        assert rep.sign == 1
    # x / rep is a perfect k-th power
    assert is_perfect_power(factor(x) / rep, k)
    # idempotent
    assert reduce_class(rep, k).rep == rep


@given(nonzero_rationals, nonzero_rationals, st.integers(min_value=2, max_value=8))
@settings(max_examples=150, deadline=None)
def test_class_soundness_under_kth_power_shift(x, w, k):
    shifted = factor(x) * factor(w) ** k
    assert reduce_class(shifted, k) == reduce_class(x, k)


# few primes and wide exponents, so that classes collide often
colliding_rationals = st.builds(
    lambda sign, e2, e3, e5: FactoredRational.from_prime_powers(
        sign, {2: e2, 3: e3, 5: e5}),
    st.sampled_from([1, -1]), st.integers(-9, 9), st.integers(-9, 9),
    st.integers(-2, 2))


@given(st.lists(colliding_rationals, max_size=8), st.sampled_from([2, 3, 4, 6, 8, 9]))
@settings(max_examples=300, deadline=None)
def test_dedupe_keeps_first_of_each_class(xs, k):
    # the engine's class key and the verifier's independent one must agree
    keys = [_class_key(x, k) for x in xs]
    first = [x for i, x in enumerate(xs) if keys[i] not in keys[:i]]
    assert dedupe(xs, k) == first
    assert dedupe([str(x) for x in xs], k) == first


def test_strip_power_layers_examples():
    assert strip_power_layers(512, 3) == (factor(2), 2)
    assert strip_power_layers(4, 3) == (factor(4), 0)
    assert strip_power_layers(-512, 3) == (factor(-2), 2)
    assert strip_power_layers(2**8, 2) == (factor(2), 3)
    with pytest.raises(UnitInput):
        strip_power_layers(1, 3)
    with pytest.raises(UnitInput):
        strip_power_layers(-1, 5)


@given(nonzero_rationals.filter(lambda f: f not in (1, -1)),
       st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=200, deadline=None)
def test_strip_power_layers_property(x, q):
    base, mu = strip_power_layers(x, q)
    assert base ** (q**mu) == factor(x)
    assert not is_perfect_power(base, q)


def test_string_form():
    assert str(factor(Fraction(-3, 4))) == "-3/4"
    assert str(factor(42)) == "42"
    assert str(factor(1)) == "1"
