import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locus.prime_power
from locus.classify import decide
from locus.cli import main
from locus.errors import NonUnitExponent, OracleLimitExceeded
from locus.prime_power import (decide_prime_power, exponentiate_classes,
                               skalba_oracle)
from locus.rationals import FactoredRational
from locus.verdicts import FAILS, HOLDS
from locus.verify import verify_document


def brute_skalba(elems, q, m):
    """Independent exhaustive Skalba check over Fractions.

    Returns None when every tuple admits a pair, else the first witness.
    """
    xs = [Fraction(e) for e in elems]
    l = len(xs)
    qm = q**m
    pairs = []
    for assign in product((0, 1, 2), repeat=l):
        B = [j for j in range(l) if assign[j] == 1]
        C = [j for j in range(l) if assign[j] == 2]
        if (len(B) - len(C)) % q != 0:
            pairs.append((B, C))

    def perfect(x: Fraction, k: int) -> bool:
        if x < 0 and k % 2 == 0:
            return False

        def ok(v):
            if v == 1:
                return True
            r = round(v ** (1.0 / k))
            return any(c >= 1 and c**k == v for c in (r - 1, r, r + 1, r + 2))

        return ok(abs(x.numerator)) and ok(x.denominator)

    for c in product(range(qm), repeat=l):
        hit = False
        for B, C in pairs:
            ratio = Fraction(1)
            for j in B:
                ratio *= xs[j] ** c[j]
            for j in C:
                ratio /= xs[j] ** c[j]
            if perfect(ratio, qm):
                hit = True
                break
        if not hit:
            return c
    return None


def brute_vectors(vecs, q, m):
    """Plain loop on exponent vectors: (first witness or None, tuples tried)."""
    qm = q**m
    pairs = [s for s in product((0, 1, -1), repeat=len(vecs))
             if (s.count(1) - s.count(-1)) % q]
    tried = 0
    for c in product(range(qm), repeat=len(vecs)):
        tried += 1
        if not any(all(sum(sj * cj * v[i] for sj, cj, v in zip(s, c, vecs)) % qm == 0
                       for i in range(len(vecs[0]))) for s in pairs):
            return c, tried
    return None, tried


def test_oracle_examples():
    assert skalba_oracle([2, 3, 6, 18], 3, 1).status == HOLDS
    v = skalba_oracle([2, 3, 18], 3, 1)
    assert v.status == FAILS
    assert v.certificate.c == (1, 2, 2)  # frozen from independent exhaustion
    assert skalba_oracle([1], 3, 1).status == HOLDS
    assert skalba_oracle([-1], 3, 1).status == HOLDS


def test_oracle_limits():
    with pytest.raises(OracleLimitExceeded):
        skalba_oracle([2] * 9, 3, 1)
    with pytest.raises(OracleLimitExceeded):
        skalba_oracle([2], 3, 4)


@pytest.mark.parametrize("elems,q,m", [
    ([2, 3, 6, 18], 3, 1),
    ([2, 3, 18], 3, 1),
    ([2, 3, 12], 3, 1),
    ([2, 5, 10, 50], 3, 1),
    ([8, 5, 10, 50], 3, 2),
    ([2, 4, 8], 3, 2),
    ([-2, 6], 3, 1),
    ([Fraction(1, 2), 3, 12], 3, 1),
    ([8, 125, 1000, 125000], 3, 2),
    ([2, 3], 5, 1),
])
def test_oracle_matches_bruteforce(elems, q, m):
    got = skalba_oracle(elems, q, m)
    want = brute_skalba(elems, q, m)
    assert got.fails() == (want is not None)
    if want is None:
        assert got.certificate.tuples_checked == (q**m) ** len(elems)
    else:
        assert got.certificate.c == want


@st.composite
def oracle_cases(draw):
    q = draw(st.sampled_from([3, 5]))
    m = draw(st.integers(1, 2))
    width = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-2 * q**m, 2 * q**m), min_size=width, max_size=width)
    # the plain loop takes seconds on 25^4 tuples
    vecs = draw(st.lists(vec, min_size=1, max_size=3 if q**m == 25 else 4))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(vecs),
                          max_size=len(vecs)))
    return q, m, vecs, signs


@given(oracle_cases())
@settings(max_examples=150, deadline=None)
def test_oracle_matches_plain_loop(case):
    q, m, vecs, signs = case
    xs = [FactoredRational.from_prime_powers(sign, dict(zip((2, 3, 7), v)))
          for sign, v in zip(signs, vecs)]
    got = skalba_oracle(xs, q, m)
    want, tried = brute_vectors(vecs, q, m)
    if want is None:
        assert got.holds()
        assert got.certificate.tuples_checked == tried == (q**m) ** len(vecs)
    else:
        assert got.fails() and got.certificate.c == want


def test_oracle_work_budget(monkeypatch, capsys):
    # the oracle settles {8, 5, 10, 50}, n = 9, after touching 53 reach
    # entries; neither decide_prime_power nor `locus oracle`, which answers
    # through decide, runs it
    monkeypatch.setattr(locus.prime_power, "ORACLE_WORK_BUDGET", 1000)
    assert skalba_oracle([8, 5, 10, 50], 3, 2).fails()
    monkeypatch.setattr(locus.prime_power, "ORACLE_WORK_BUDGET", 10)
    with pytest.raises(OracleLimitExceeded, match="reach entries touched"):
        skalba_oracle([8, 5, 10, 50], 3, 2)
    assert decide_prime_power([8, 5, 10, 50], 3, 2).fails()
    argv = ["oracle", "--n", "9"] + [a for e in (8, 5, 10, 50) for a in ("--elem", str(e))]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["certificate"]["kind"] == "uncovered_point" and not err


@pytest.mark.parametrize("elements,n", [
    (["2", "3", "6", "12", "5", "10"], 27),
    (["2", "7", "14", "98", "686", "4802"], 25),
])
def test_six_element_oracle_inputs_decide(elements, n):
    # 27^6 and 25^6 oracle tuples; the cover test needs a handful of values
    v = decide(elements, n)
    assert v.status == FAILS and v.certificate.kind == "uncovered_point"
    assert verify_document(v.to_json(n, elements)) == []


def test_decide_never_reaches_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decide reached the oracle")

    monkeypatch.setattr(locus.prime_power, "skalba_oracle", refuse)
    monkeypatch.setattr(locus.prime_power, "_first_witness", refuse)
    cases = [([8, 5, 10, 50], 9), ([2, 3, 6, 18], 9), ([8, 125, 1000, 125000], 9),
             ([512, 19683, 10077696, 198359290368], 27), ([2, 4, 8], 9),
             ([2, 3, 5, 7], 15), ([32, 3125, 100000, 312500000], 15),
             ([2, 3, 6, 12, 5, 10, 7, 14], 25), ([2, 3, 6, 18], 45)]
    for elements, n in cases:
        assert decide(elements, n).status in (HOLDS, FAILS), (elements, n)
    assert decide_prime_power([8, 5, 10, 50], 3, 2).fails()
    assert decide_prime_power([512, 19683, 10077696, 198359290368], 3, 3).holds()


# The oracle exhausts no holding set of more than four elements mod 25 or 27
# within its work budget: mod 25 the optimal family stays one layer deep,
# and mod 27 it comes alone.
@pytest.mark.parametrize("q,m,layers", [(5, 2, (1,)), (3, 3, (1, 3, 9))])
def test_decide_agrees_with_oracle_mod_25_and_27(q, m, layers):
    # random column sets over two primes, every other one replaced by the
    # optimal family at a random layer with, mod 25, one random column more
    import random
    rng = random.Random(q**m)
    qm = q**m
    holds = 0
    for i in range(40):
        vecs = [[rng.choice((1, q, q, q * q % qm)) * rng.randrange(qm) % qm
                 for _ in range(2)] for _ in range(rng.randrange(1, 4))]
        if i % 2:
            layer = rng.choice(layers)
            vecs = vecs[:q // 5] + [[layer, 0], [0, layer]] + \
                [[layer, j * layer] for j in range(1, q)]
        elements = [2**a * 7**b for a, b in vecs if a or b] or [2]
        got = decide(elements, qm, want_counterexample=False)
        want = skalba_oracle(elements, q, m)
        assert got.status == want.status, (elements, qm)
        holds += got.holds()
    assert holds == 0 if layers == (1,) else 0 < holds < 40


def test_decide_prime_power_perfect_member():
    v = decide_prime_power([512, 5], 3, 2)
    assert v.status == HOLDS and v.certificate.kind == "perfect_power_member"
    assert v.certificate.element == "512"


def test_decide_prime_power_reduction_fails():
    v = decide_prime_power([2, 4, 8], 3, 2)
    assert v.status == FAILS
    assert v.certificate.counterexample_prime == 19
    # the columns are the exponents mod 9 themselves
    assert (v.certificate.q, v.certificate.coeffs) == (9, ((1,), (2,), (3,)))


def test_decide_prime_power_uniform_lift_holds():
    v = decide_prime_power([8, 125, 1000, 125000], 3, 2)
    assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover"


def test_decide_prime_power_mixed_layers_fail_mod_q_m():
    # the classes of 2, 5, 10 and 50 cover mod 3, but 8 = 2^3 is only one
    # layer deep, and mod 9 a point escapes every kernel
    v = decide_prime_power([8, 5, 10, 50], 3, 2)
    assert v.status == FAILS
    assert v.certificate.kind == "uncovered_point" and v.certificate.q == 9
    assert brute_skalba([8, 5, 10, 50], 3, 2) is not None


def test_decide_prime_power_agrees_with_oracle_on_mixed_corpus():
    base = [2, 5, 10, 50]
    for mus in product((0, 1), repeat=4):
        elems = [b ** (3**mu) for b, mu in zip(base, mus)]
        got = decide_prime_power(elems, 3, 2, want_counterexample=False)
        want = skalba_oracle(elems, 3, 2)
        assert got.status == want.status, (mus, got.status, want.status)


def test_exponentiate_classes():
    out = exponentiate_classes([2, 3], (2, 1), 3)
    assert [x.value() for x in out] == [4, 3]
    out = exponentiate_classes([2, 3], (-1, 2), 3)
    assert [x.value() for x in out] == [Fraction(1, 2), 9]
    with pytest.raises(NonUnitExponent):
        exponentiate_classes([2, 3], (3, 1), 3)


def test_exponentiation_invariance_examples():
    a = [2, 3, 12]
    b = exponentiate_classes(a, (2, 2, 2), 3)
    va = decide_prime_power(a, 3, 1, want_counterexample=False)
    vb = decide_prime_power(b, 3, 1, want_counterexample=False)
    assert va.status == vb.status == FAILS
