import copy
import json
import math
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import criterion1_instances

import locus.rationals
from locus.classify import decide, exponent_classes
from locus.errors import FactorizationCapacityExceeded, ParseError, ZeroInput
from locus.primes import MR_DETERMINISTIC_BOUND, is_prime
from locus.rationals import (MEMO_CAP, FactoredRational, clear_denominators, factor,
                             factor_set, is_perfect_power, parse_rational)
from locus.verify import _columns, verify_document

nonzero_rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6),
    max_denominator=10**4).filter(lambda f: f != 0)


def test_factor_examples():
    assert factor(1) == FactoredRational(1, ())
    assert factor(-27) == FactoredRational(-1, ((3, 3),))
    assert factor(Fraction(12, 5)) == FactoredRational(1, ((2, 2), (3, 1), (5, -1)))


@pytest.mark.parametrize("value", [0.5, Decimal("0.1"), True], ids=["float", "Decimal", "bool"])
def test_only_exact_rationals_are_read(value):
    # none prints as a literal: a document would write 0.5 as "0.5" and True
    # as "True", which no verifier reads back, so each is refused up front
    match = f"not a rational: {type(value).__name__}"
    for call in (factor, lambda x: factor_set([x, 3]), lambda x: decide([x, 3], 3)):
        with pytest.raises(ParseError, match=match):
            call(value)


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
    for bad, error in (("x", ParseError), ("3/0", ParseError), ("1.5", ParseError),
                       ("0", ZeroInput), ("-0/7", ZeroInput), (0, ZeroInput),
                       (Fraction(0), ZeroInput)):
        with pytest.raises(error):
            factor_set([str(p * q), "12/5", bad])
    assert not calls
    monkeypatch.undo()
    with pytest.raises(ZeroInput):
        factor_set([p * q, 0])
    assert factor_set([]) == []


def test_factor_set_reads_each_literal_once(monkeypatch):
    texts = ["12/5", "-3", "12/5", "1000033/2"]
    expected = [factor(t) for t in texts]
    reads = []
    read = locus.rationals._read
    monkeypatch.setattr(locus.rationals, "_read", lambda text: reads.append(text) or read(text))
    assert factor_set(texts) == expected
    assert reads == texts


def test_factored_entries_pass_through_and_give_no_hints(monkeypatch):
    big = factor(1000003 * 7)
    expected = [big, factor("1000033"), factor("6/1000037")]
    hints = []
    locus.rationals._FACTORED.clear()  # so that every literal is factored
    factorize = locus.rationals.factorize
    def factorize_noting_hints(m, known=()):
        hints.append(list(known))
        return factorize(m, known=known)
    monkeypatch.setattr(locus.rationals, "factorize", factorize_noting_hints)
    out = factor_set([big, "1000033", "6/1000037"])
    assert out == expected and out[0] is big
    # 1000003 is no hint: only the read literals give them
    assert len(hints) == 3 and all(h == [1000033, 1000037] for h in hints)
    hints.clear()
    assert factor_set([big]) == [big] and not hints


def test_factored_rational_is_an_immutable_value():
    x = factor("-12/5")
    locus.rationals._FACTORED.clear()  # else y is x, from the memo
    y, other = factor(Fraction(-12, 5)), factor("12/5")
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


def memo_literals():
    """Seeded signed literals, some not in lowest terms or with a leading
    zero or plus, the elements of the n = 5 corpus with signs and
    denominators, and three past the Miller-Rabin bound, last."""
    rng = random.Random(29)
    pool = (2, 3, 5, 7, 11, 13, 97, 65537, 10**6 + 3, 10**9 + 7)
    texts = []
    for _ in range(400):
        num = math.prod(rng.choices(pool, k=rng.randint(0, 6)))
        den = math.prod(rng.choices(pool, k=rng.randint(1, 3))) if rng.random() < 0.5 else 1
        texts.append(rng.choice(["", "+", "-"]) + "0" * rng.randint(0, 1) + str(num)
                     + (f"/{den}" if den > 1 or rng.random() < 0.2 else ""))
    for _, _, elements in criterion1_instances(5, max_size=1):
        for x in elements:
            texts += [str(x), f"-{x}", str(x.inverse()), f"-{x}/{x.numerator * 7}"]
    return texts + [str(2**90 * 3), f"-{2**85 * 5}/7", f"{3**60}/{2**80}"]


def test_the_memo_changes_no_factorization():
    # each literal factored with the memo cleared first, then from a memo
    # that factor_set filled with the hints of its batch: equal values, with
    # equal strings; every literal below the bound is then a hit
    memo = locus.rationals._FACTORED
    texts = memo_literals()
    assert len(texts) >= 500
    cold = []
    for text in texts:
        memo.clear()
        cold.append(factor(text))
    assert [x.value() for x in cold] == [parse_rational(t) for t in texts]
    memo.clear()
    for i in range(0, len(texts), 5):
        batch, expected = texts[i:i + 5], cold[i:i + 5]
        assert factor_set(batch) == expected
        warm = [factor(t) for t in batch]
        assert warm == expected and [str(x) for x in warm] == [str(x) for x in expected]
    past = [t for t in texts
            if max(abs(parse_rational(t).numerator), parse_rational(t).denominator)
            >= MR_DETERMINISTIC_BOUND]
    assert past[-3:] == texts[-3:] and len(past) < len(texts) // 10
    assert [t for t in texts if factor(t) is not factor(t)] == past


def test_decide_and_verify_documents_do_not_depend_on_the_memo():
    # seeded sets over n in 2..27, decided and verified with the memo
    # cleared before each call, then twice with it warm: the same bytes
    memo = locus.rationals._FACTORED
    rng = random.Random(2029)
    cases = []
    for _ in range(80):
        n = rng.randint(2, 27)
        primes = rng.sample((2, 3, 5, 7, 11, 13), rng.randint(1, 3))
        elements = []
        for _ in range(rng.randint(1, 5)):
            num = rng.choice((1, -1)) * math.prod(p ** rng.choice((0, 1, 2, 3, n - 1, n))
                                                  for p in primes)
            den = rng.choice(primes) ** rng.randint(1, n) if rng.random() < 0.4 else 1
            elements.append(str(Fraction(num, den)))
        cases.append((n, elements))

    def run(cold):
        out = []
        for n, elements in cases:
            if cold:
                memo.clear()
            doc = decide(elements, n).to_json(n, elements)
            if cold:
                memo.clear()
            out.append((json.dumps(doc), verify_document(doc)))
        return out
    first = run(cold=True)
    assert run(cold=False) == first == run(cold=False)
    assert len({n for n, _ in cases}) > 15
    assert all(answer == [] for _, answer in first)


def test_a_split_that_only_hints_made_is_not_remembered():
    # p * q alone is past capacity; jointly, each product splits by a gcd
    # with another, and that must not let a later p * q succeed
    p, q, r = 10**20 + 39, 10**22 + 9, 10**24 + 7
    assert factor_set([str(p * q), str(p * r), str(q * r)]) == [
        FactoredRational(1, ((p, 1), (q, 1))), FactoredRational(1, ((p, 1), (r, 1))),
        FactoredRational(1, ((q, 1), (r, 1)))]
    with pytest.raises(FactorizationCapacityExceeded):
        factor(str(p * q))


def test_the_memo_is_bounded_and_holds_no_factored_input():
    memo = locus.rationals._FACTORED
    memo.clear()
    x = FactoredRational(-1, ((2, 3), (5, -1)))
    assert factor(x) is x and factor_set([x, x]) == [x, x] and not memo
    sizes = []
    for m in range(2, 2 * MEMO_CAP + 50):
        factor(f"-{m}/{2 * m + 1}")
        sizes.append(len(memo))
    assert max(sizes) == MEMO_CAP and 0 < len(memo) <= MEMO_CAP


def test_the_public_constructor_checks_its_parts():
    non_primes = [(1, ((4, 1),)), (1, ((1, 1),)), (-1, ((0, 2),)), (1, ((2, 1), (91, -1)))]
    signs = [(0, ()), (2, ((2, 1),)), (-2, ())]
    order = [(1, ((3, 1), (3, 2))), (1, ((5, 1), (3, 1))), (-1, ((2, 1), (7, 1), (5, -1)))]
    zeros = [(1, ((2, 0),)), (-1, ((2, 1), (3, 0), (5, 1)))]
    for sign, factors in non_primes + signs + order + zeros:
        with pytest.raises(ValueError):
            FactoredRational(sign, factors)
    # a dict has no order and from_prime_powers drops its zero exponents
    for sign, factors in non_primes + signs:
        with pytest.raises(ValueError):
            FactoredRational.from_prime_powers(sign, dict(factors))
    assert FactoredRational.from_prime_powers(-1, {7: 1, 2: -3, 5: 0}) == FactoredRational(
        -1, ((2, -3), (7, 1)))


@given(nonzero_rationals, nonzero_rationals, st.integers(min_value=-6, max_value=6),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=200, deadline=None)
def test_derived_values_pass_the_public_checks(x, y, k, n):
    # products, quotients, powers, inverses, roots and cleared sets are built
    # without the constructor's checks; each would pass them, so a merge
    # that left its factors unsorted or kept a zero exponent shows here
    fx, fy = factor(x), factor(y)
    derived = [fx * fy, fx / fy, fx * fx.inverse(), fx ** k, fx.inverse(),
               (fx ** n).nth_root(n), *clear_denominators([x, y, fx ** k], n)]
    for z in derived:
        assert FactoredRational(z.sign, z.factors) == z
    assert [z.value() for z in derived[:5]] == [x * y, x / y, 1, x ** k, 1 / x]


def test_factored_lists_pass_through_in_one_type_test(monkeypatch):
    xs = factor_set(["12/5", "-3", "7", "1000033/2"])
    cleared = clear_denominators(xs, 3)
    plain = clear_denominators([factor("2"), factor("7")], 3)  # no denominator
    calls = []
    for name in ("_parts", "_read", "_factor_parts"):
        monkeypatch.setattr(locus.rationals, name, lambda *args, name=name: calls.append(name))
    for out in (xs, cleared, plain):
        assert factor_set(out) is out
    assert clear_denominators(cleared, 3) is cleared and clear_denominators(plain, 5) is plain
    assert not calls
    # a read-only list: no caller changes it, so no string rides through
    for change in (lambda: xs.append("3"), lambda: xs.__setitem__(0, "3"),
                   lambda: xs.extend(["3"]), lambda: xs.insert(0, "3"),
                   lambda: xs.__iadd__(["3"]), lambda: xs.sort(key=str), lambda: xs.pop()):
        with pytest.raises(TypeError):
            change()
    assert all(type(x) is FactoredRational for x in xs) and len(xs) == 4
    # a copy can change, and is read again entry by entry
    monkeypatch.undo()
    for copied in (list(xs), xs[:], xs + [], copy.copy(xs), pickle.loads(pickle.dumps(xs))):
        assert type(copied) is list and copied == xs
        copied[0] = "3"
        assert factor_set(copied) == [factor(3), *xs[1:]]
    changed = list(xs)
    changed.append("x")
    with pytest.raises(ParseError):
        factor_set(changed)
