"""Deciding q^m-th powers for odd q: layer stripping plus the covering
test, with a brute-force subset-product oracle as the exact fallback.

The oracle enumerates every exponent tuple c in (Z/q^m)^l and looks for
disjoint index sets B, C with |B| != |C| mod q whose weighted product ratio
is a perfect q^m-th power.  It exists to be dumb and trustworthy; the only
liberties taken are that tuples are enumerated mod q^m (a^(q^m) is itself a
perfect q^m-th power) and that B, C may be assumed disjoint (shared indices
cancel from the ratio and shift |B|, |C| equally).
"""

from __future__ import annotations

from itertools import product

from .covering import decide_q
from .errors import NonUnitExponent, OracleLimitExceeded
from .primes import is_prime
from .rationals import (FactoredRational, factor, is_perfect_power,
                        reduce_class, strip_power_layers)
from .sieve import default_exclusions, find_counterexample
from .verdicts import (FAILS, HOLDS, INCONCLUSIVE, Evidence, OracleExhaustion,
                       PerfectPowerMember, SkalbaWitness, UncoveredPoint,
                       Verdict)

ORACLE_ELEMENT_LIMIT = 8
ORACLE_MODULUS_LIMIT = 27


def _strip_map(elements, q: int):
    pairs = []
    for a in elements:
        x = factor(a)
        base, mu = strip_power_layers(x, q)
        pairs.append((x, reduce_class(base, q).rep, mu))
    return pairs


def _oracle_assignments(l: int, q: int):
    """(signs, |B|-|C|) for every disjoint B, C with |B| != |C| mod q,
    cheapest first."""
    out = []
    for signs in product((0, 1, -1), repeat=l):
        nb = sum(1 for s in signs if s == 1)
        nc = sum(1 for s in signs if s == -1)
        if (nb - nc) % q != 0:
            out.append(signs)
    out.sort(key=lambda signs: sum(1 for s in signs if s))
    return out


def _ratio(elements, c, signs) -> FactoredRational:
    acc = FactoredRational.one()
    for x, cj, s in zip(elements, c, signs):
        if s == 1:
            acc = acc * x**cj
        elif s == -1:
            acc = acc / x**cj
    return acc


def skalba_oracle(elements, q: int, m: int, *,
                  element_limit: int = ORACLE_ELEMENT_LIMIT,
                  modulus_limit: int = ORACLE_MODULUS_LIMIT) -> Verdict:
    """Exact q^m-th power decision by exhaustive subset-product search."""
    if q == 2 or not is_prime(q):
        raise ValueError("the subset-product criterion needs an odd prime q")
    xs = [factor(a) for a in elements]
    l = len(xs)
    qm = q**m
    if l > element_limit:
        raise OracleLimitExceeded(f"{l} elements exceeds oracle limit {element_limit}")
    if qm > modulus_limit:
        raise OracleLimitExceeded(f"q^m = {qm} exceeds oracle limit {modulus_limit}")
    if l == 0:
        raise ValueError("empty set has no verdict")

    excluded = default_exclusions(xs, qm)
    assignments = _oracle_assignments(l, q)

    # hot loop works on integer exponent vectors; this is the same factored
    # arithmetic (multiplication adds exponents), just without object churn
    support = sorted({p for x in xs for p in x.support()})
    vecs = [tuple(x.exponent(p) for p in support) for x in xs]
    width = len(support)

    witness = None
    checked = 0
    for c in product(range(qm), repeat=l):
        checked += 1
        satisfied = False
        for signs in assignments:
            for i in range(width):
                total = 0
                for vj, cj, s in zip(vecs, c, signs):
                    if s:
                        total += s * cj * vj[i]
                if total % qm:
                    break
            else:
                satisfied = True
                break
        if not satisfied:
            witness = c
            break

    if witness is None:
        return Verdict(HOLDS, OracleExhaustion(q, m, checked), excluded)

    # re-verify through the public factored-rational route before emitting
    for signs in assignments:
        assert not is_perfect_power(_ratio(xs, witness, signs), qm), \
            "skalba witness admits a perfect-power pair; oracle bug"
    return Verdict(FAILS, SkalbaWitness(tuple(witness), q, m), excluded)


def decide_prime_power(elements, q: int, m: int, *,
                       want_counterexample: bool = True,
                       counterexample_bound: int = 10**4,
                       ceiling: int = 1 << 24,
                       monte_carlo: bool = False) -> Verdict:
    """Does the set contain a q^m-th power in Z_p for almost every p (odd q)?

    A Fails from the stripped covering test transfers to the original set
    unconditionally.  A Holds transfers when m = 1 or when the elements that
    were stripped m-1 full layers already cover by themselves; outside that,
    stripping loses information and the subset-product oracle settles the
    instance exactly (or the verdict is Inconclusive beyond oracle limits).
    """
    if q == 2 or not is_prime(q):
        raise ValueError("decide_prime_power needs an odd prime q")
    xs = [factor(a) for a in elements]
    if not xs:
        raise ValueError("empty set has no verdict")
    qm = q**m
    excluded = default_exclusions(xs, qm)

    for x in xs:
        if is_perfect_power(x, qm):
            root = x.nth_root(qm)
            return Verdict(HOLDS, PerfectPowerMember(str(x), str(root), qm), excluded)

    stripped = _strip_map(xs, q)
    for x, _, mu in stripped:
        if mu >= m:
            raise AssertionError("perfect power survived the short-circuit")
    reduction = tuple((str(x), str(rep)) for x, rep, _ in stripped)
    reps = [rep for _, rep, _ in stripped]

    base = decide_q(reps, q, want_counterexample=False, ceiling=ceiling,
                    monte_carlo=monte_carlo, reduction=reduction)

    if base.fails():
        cert = base.certificate
        prime = None
        if want_counterexample:
            prime = find_counterexample(xs, qm, counterexample_bound)
        if isinstance(cert, UncoveredPoint):
            cert = UncoveredPoint(cert.q, cert.support, cert.coeffs, cert.point,
                                  reduction=reduction, counterexample_prime=prime)
        return Verdict(FAILS, cert, excluded | base.excluded_primes)

    if base.status == INCONCLUSIVE:
        return Verdict(INCONCLUSIVE, base.certificate, excluded | base.excluded_primes)

    if m == 1:
        return Verdict(HOLDS, base.certificate, excluded | base.excluded_primes)

    # m >= 2: a cover by the full stripped set only lifts back when witnessed
    # by elements stripped exactly m-1 layers (x = b^(q^(m-1)) with b locally
    # a q-th power makes x locally a q^m-th power)
    deep = [(x, rep) for x, rep, mu in stripped if mu == m - 1]
    if deep:
        deep_reduction = tuple((str(x), str(rep)) for x, rep in deep)
        sub = decide_q([rep for _, rep in deep], q, want_counterexample=False,
                       ceiling=ceiling, reduction=deep_reduction)
        if sub.holds():
            return Verdict(HOLDS, sub.certificate, excluded | sub.excluded_primes)

    try:
        oracle = skalba_oracle(xs, q, m)
    except OracleLimitExceeded:
        return Verdict(INCONCLUSIVE,
                       Evidence(reason="qm_reduction_not_conclusive"),
                       excluded)
    if oracle.fails() and want_counterexample:
        cert = oracle.certificate
        prime = find_counterexample(xs, qm, counterexample_bound)
        cert = SkalbaWitness(cert.c, cert.q, cert.m, counterexample_prime=prime)
        return Verdict(FAILS, cert, excluded | oracle.excluded_primes)
    return oracle.with_excluded(excluded)


def exponentiate_classes(elements, c, q: int) -> list[FactoredRational]:
    """{a_j^(c_j)} for unit exponents mod q; negative entries allowed."""
    xs = [factor(a) for a in elements]
    if len(c) != len(xs):
        raise ValueError("exponent vector length mismatch")
    for cj in c:
        if cj % q == 0:
            raise NonUnitExponent(f"{cj} is divisible by {q}")
    return [x**cj for x, cj in zip(xs, c)]
