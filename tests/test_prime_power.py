from fractions import Fraction
from itertools import product

import pytest

from locus.errors import NonUnitExponent, OracleLimitExceeded
from locus.prime_power import (decide_prime_power, exponentiate_classes,
                               skalba_oracle)

from locus.verdicts import FAILS, HOLDS


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


def test_decide_prime_power_perfect_member():
    v = decide_prime_power([512, 5], 3, 2)
    assert v.status == HOLDS and v.certificate.kind == "perfect_power_member"
    assert v.certificate.element == "512"


def test_decide_prime_power_reduction_fails():
    v = decide_prime_power([2, 4, 8], 3, 2)
    assert v.status == FAILS
    assert v.certificate.counterexample_prime == 19
    # the reduction map records the stripped bases
    assert ("8", "2") in v.certificate.reduction


def test_decide_prime_power_uniform_lift_holds():
    v = decide_prime_power([8, 125, 1000, 125000], 3, 2)
    assert v.status == HOLDS and v.certificate.kind == "hyperplane_cover"


def test_decide_prime_power_mixed_layers_uses_oracle():
    # stripped set covers, but the covering witness is only one layer deep;
    # the oracle settles it as a failure
    v = decide_prime_power([8, 5, 10, 50], 3, 2)
    assert v.status == FAILS
    assert v.certificate.kind == "skalba_witness"
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
