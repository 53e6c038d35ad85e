import copy
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locus.rationals
from locus.classify import exponent_classes
from locus.errors import FactorizationCapacityExceeded, ParseError, ZeroInput
from locus.primes import is_prime
from locus.rationals import (FactoredRational, clear_denominators, factor,
                             factor_set, is_perfect_power, parse_rational)
from locus.verify import _columns

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
    for bad in ["1.5", "3/-4", "0x10", "", "2e3", "1/0//", "1/0", "-3/0", "0/0"]:
        with pytest.raises((ParseError, ZeroInput)):
            parse_rational(bad)


def outcome(f):
    """f()'s value, or the type and message of what it raised."""
    try:
        return f()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def literal_as_fraction(text):
    """A reference reader: parse_rational's syntax, the value built by
    Fraction from the literal's own ints."""
    s = text.strip()
    if not re.match(r"^[+-]?\d+(/\d+)?$", s):
        raise ParseError(f"not a rational literal: {text!r}")
    num, _, den = s.partition("/")
    if not int(den or 1):
        raise ParseError(f"zero denominator: {text!r}")
    value = Fraction(int(num), int(den or 1))
    if not value:
        raise ZeroInput("zero is not a valid element")
    return value


def literal_corpus():
    rng = random.Random(7)
    small = [2, 3, 5, 7, 11, 13, 65537, 10**6 + 3]
    fixed = ["+7", "007", " 12/2 ", "-0/5", "1/0", "0/0", "3/-4", "1.5", "", " ",
             "-3/4", "+12/-5", "1/2/3", "0x10", "2e3", "--3", "+-3", "1_000", "\u0663",
             "-0", "0", "00/7", "4/06", "\t-18/12\n", "6/4 ", "- 3", "3 /4"]
    randoms = []
    for _ in range(300):
        num = math.prod(rng.choices(small, k=rng.randint(0, 12))) * rng.choice([1, 1, 0])
        den = math.prod(rng.choices(small, k=rng.randint(0, 6))) * rng.choice([1] * 9 + [0])
        text = rng.choice(["", "+", "-"]) + "0" * rng.randint(0, 2) + str(num)
        if rng.random() < 0.7:
            text += "/" + "0" * rng.randint(0, 1) + str(den)
        randoms.append(" " * rng.randint(0, 1) + text + " " * rng.randint(0, 1))
    return fixed + randoms


def test_the_text_path_equals_the_fraction_path():
    # factor reads a literal straight to ints; through a Fraction it must
    # give the same factors, or raise the same error with the same message
    corpus = literal_corpus()
    long_numerators = [str(2**200 * 3**50 * 65537), f"-{10**60}/{2**70 * 3}",
                       str(2**200 * 3**50 * 10**6 + 3)]  # the last past capacity
    assert any(len(s.strip()) > 40 for s in corpus)
    for text in corpus + long_numerators:
        expected = outcome(lambda: factor(parse_rational(text)))
        assert outcome(lambda: factor(text)) == expected, text
        assert outcome(lambda: parse_rational(text)) == outcome(
            lambda: literal_as_fraction(text)), text
    assert {type(outcome(lambda: factor(s))) for s in corpus} == {FactoredRational, tuple}


def test_the_text_path_builds_no_fraction(monkeypatch):
    class NoFraction:
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")
    monkeypatch.setattr(locus.rationals, "Fraction", NoFraction)
    assert factor_set(["12/2", "-3", "7/9"]) == [
        FactoredRational(1, ((2, 1), (3, 1))), FactoredRational(-1, ((3, 1),)),
        FactoredRational(1, ((3, -2), (7, 1)))]
    assert factor("45/6") == FactoredRational(1, ((2, -1), (3, 1), (5, 1)))


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


@given(nonzero_rationals, nonzero_rationals, st.integers(min_value=2, max_value=8))
@settings(max_examples=150, deadline=None)
def test_class_soundness_under_kth_power_shift(x, w, k):
    # both class keys, the engine's and the verifier's, put x and x * w^k
    # in one class
    fx = factor(x)
    shifted = fx * factor(w) ** k
    reps, _, columns = exponent_classes([fx, shifted], k)
    assert reps == [fx] and len(columns) == 1
    cols = _columns([fx, shifted], k)[1]
    assert cols[0] == cols[1]


def test_string_form():
    assert str(factor(Fraction(-3, 4))) == "-3/4"
    assert str(factor(42)) == "42"
    assert str(factor(1)) == "1"


def test_factor_set_equals_factor_on_sets_sharing_large_primes():
    # each element has at most one factor past 10^9, so the per-element path
    # stays cheap; the set's elements share primes in (10^6, 10^12) and near
    # 10^20, and carry signs, denominators, perfect powers and repeats
    rng = random.Random(19)

    def prime_in(lo, hi):
        while True:
            p = rng.randrange(lo, hi) | 1
            if is_prime(p):
                return p
    for _ in range(250):
        mid = [prime_in(10**6, 2 * 10**6) for _ in range(3)]
        far = [prime_in(10**9, 10**12), prime_in(10**20, 10**20 + 10**6)]
        xs = []
        for _ in range(rng.randint(1, 5)):
            num = rng.choice([1, 2, 12, 45]) * math.prod(rng.sample(mid, rng.randint(0, 2)))
            if rng.random() < 0.6:
                num *= rng.choice(far)
            den = rng.choice([1, 1, 1, 7, rng.choice(mid)])
            x = Fraction(rng.choice([1, -1]) * num, den) ** rng.choice([1, 1, 2, 3])
            xs.append(factor(x) if rng.random() < 0.1 else rng.choice([x, str(x)]))
        if rng.random() < 0.3:
            xs.append(rng.choice(xs))
        assert factor_set(xs) == [factor(x) for x in xs], xs


def test_factor_set_parses_every_element_before_factoring(monkeypatch):
    # p * q is past factorization capacity alone; the malformed or zero
    # element after it is reported first
    p, q = 10**20 + 39, 10**22 + 9
    with pytest.raises(FactorizationCapacityExceeded):
        factor_set([str(p * q)])
    with pytest.raises(ParseError):
        factor_set([str(p * q), "2", "x"])
    calls = []
    monkeypatch.setattr(locus.rationals, "factorize", lambda *a, **k: calls.append(a))
    for bad in ("x", "3/0", "1.5"):
        with pytest.raises(ParseError):
            factor_set([str(p * q), "12/5", bad])
    assert not calls
    monkeypatch.undo()
    with pytest.raises(ZeroInput):
        factor_set([p * q, 0])
    assert factor_set([]) == []


def test_factored_rational_is_an_immutable_value():
    x, y, other = factor("-12/5"), factor(Fraction(-12, 5)), factor("12/5")
    for name in ("sign", "factors", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x.sign
    assert (x.sign, x.factors) == (-1, ((2, 2), (3, 1), (5, -1)))
    # equal and hashed by value, so a usable dict key
    assert x == y and x is not y and hash(x) == hash(y)
    assert x != other and x != (x.sign, x.factors) and x != Fraction(-12, 5)
    assert {x: "a", other: "b"}[y] == "a" and len({x, y, other}) == 2
    # not a tuple: no arithmetic with ints, no concatenation, length or order
    for op in (lambda: 2 * x, lambda: x + x, lambda: len(x), lambda: x < other):
        with pytest.raises(TypeError):
            op()
    copies = [pickle.loads(pickle.dumps(x, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for z in copies + [copy.deepcopy(x), copy.copy(x)]:
        assert type(z) is FactoredRational and z == x and str(z) == "-12/5"
    assert repr(x) == "FactoredRational(sign=-1, factors=((2, 2), (3, 1), (5, -1)))"
    assert copy.deepcopy({x: [x]}) == {y: [y]}
