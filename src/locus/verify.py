"""Independent re-verification of serialized verdicts.

Given a verdict document (as produced by the CLI), re-check the certificate
against the element set without trusting the engine's decision path.  Every
check here recomputes from first principles: roots are re-raised, uncovered
points re-evaluated, covers, witnesses and exhaustions re-searched, claimed
failing primes tested for primality and re-tested, all of a document's in
one batch.  A cover or an uncovered point is over Z/n for the document's odd
n, on the exponent vectors mod n of the cleared set: a point is checked in
O(l*s), and a cover re-checked, for prime and composite n alike, by a search
over the image of the columns on the verifier's own reduced echelon form.  A
counterexample prime must be prime; an evidence certificate without one
backs a failure only through the Grunwald-Wang singleton theorem, whose
hypotheses are re-checked here.  A Skalba witness is re-checked by testing
every sign vector on the exponent vectors, at most ORACLE_RECHECK_LIMIT
(2^20) of them, and an oracle exhaustion as the cover of (Z/q^m)^s by the
kernels of the exponent vectors mod q^m, which every tuple admitting a pair
amounts to.  Certificate kinds are checked against the status they may
support, and the cover re-check tries at most COVER_RECHECK_LIMIT candidate
values.  Of the engine's decision code only the exceptional templates
(classify.ExceptionalForm) are imported.
Every element string is factored with primes.factorize, whose rho gives up
on a composite above the Miller-Rabin bound once its cycle length passes
primes.RHO_CYCLE_LIMIT, so a crafted element costs under a second per split
attempt there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .classify import ExceptionalForm
from .primes import first_nonprime, is_prime
from .rationals import clear_denominators, factor, is_perfect_power, reduce_class
from .sieve import first_non_failing, verify_failing_prime
from .verdicts import FAILS, HOLDS, INCONCLUSIVE


# the certificate kinds that can support each status
ALLOWED_KINDS = {
    HOLDS: {"perfect_power_member", "wang_exception", "exceptional_form",
            "hyperplane_cover", "odd_subset_witness", "oracle_exhaustion",
            "lifted_family"},
    FAILS: {"uncovered_point", "parity_obstruction", "skalba_witness",
            "component_failure", "evidence"},
}

# candidate values the cover re-check may try before it gives up; a cover of
# prime modulus q and rank r needs at most 2 + q((q-1)^(r-1) - 1)/(q-2) of
# them, at most 436,907 (q = 5, r = 10) wherever q^r <= 2^24
COVER_RECHECK_LIMIT = 1 << 19

# sign vectors an oracle witness re-check may test before it gives up
ORACLE_RECHECK_LIMIT = 1 << 20


class VerificationFailure(Exception):
    pass


def _need(cond: bool, message: str):
    if not cond:
        raise VerificationFailure(message)


def _class_key(x, n: int):
    fx = factor(x)
    sign = fx.sign if n % 2 == 0 else 1
    return (sign, tuple((p, e % n) for p, e in fx.factors if e % n))


def _dedupe(xs, n: int) -> list:
    """The first element of each class mod (Q^x)^n, in input order."""
    seen = set()
    out = []
    for x in xs:
        key = _class_key(x, n)
        if key not in seen:
            seen.add(key)
            out.append(x)
    return out


def verify_document(doc: dict) -> list[str]:
    """Re-check a verdict document; returns a list of problems (empty = valid)."""
    try:
        _verify(doc)
        return []
    except VerificationFailure as exc:
        return [str(exc)]
    except Exception as exc:  # malformed documents
        return [f"malformed document: {exc!r}"]


def _verify(doc: dict):
    n = doc["n"]
    elements = [factor(e) for e in doc["elements"]]
    status = doc["status"]
    cert = doc["certificate"]
    if status == INCONCLUSIVE:
        return
    _need(status in (HOLDS, FAILS), f"unknown status {status}")
    _verify_certificate(cert, elements, n, status)
    for p in doc.get("excluded_primes", []):
        _need(is_prime(p), f"excluded entry {p} is not prime")
    evidence = doc.get("evidence")
    if evidence is not None:
        params, primes = evidence["params"], evidence["failing_primes"]
        _need(params["k"] == n, "evidence exponent differs from the verdict")
        _need(all(a < b for a, b in zip(primes, primes[1:])),
              "claimed failing primes are not strictly ascending")
        _need(not primes or params["lo"] <= primes[0] and primes[-1] <= params["hi"],
              "claimed failing primes lie outside the scanned range")
        p = first_nonprime(primes)
        _need(p is None, f"claimed failing prime {p} is not prime")
        p = first_non_failing(elements, n, primes)
        _need(p is None, f"claimed failing prime {p} does not fail")
        if status == HOLDS:
            _need(not primes, "holds verdict carries sieve failures; inconsistency")


def _verify_certificate(cert: dict, elements, n: int, status: str):
    kind = cert["kind"]
    _need(kind in ALLOWED_KINDS[status],
          f"certificate kind {kind} cannot support status {status}")
    cleared = clear_denominators(elements, n)
    keys = {_class_key(x, n) for x in cleared}

    if kind == "perfect_power_member":
        k = cert["exponent"]
        _need(k == n, f"member certificate is for exponent {k}, expected {n}")
        member = factor(cert["element"])
        root = factor(cert["root"])
        _need(root**k == member, f"{cert['root']}^{k} != {cert['element']}")
        pool = {_class_key(x, k) for x in list(elements) + cleared}
        _need(_class_key(member, k) in pool,
              f"{member} is not one of the decided elements")
        return

    if kind == "wang_exception":
        _need(cert["n"] == n, "wang certificate exponent differs from the verdict")
        _need(cert["n"] % 8 == 0, "wang exception needs 8 | n")
        member = factor(cert["element"])
        b = factor(cert["b"])
        target = factor(2) ** (cert["n"] // 2) * b ** cert["n"]
        _need(target == member, "member is not 2^(n/2) * b^n")
        pool = {_class_key(x, n) for x in list(elements) + cleared}
        _need(_class_key(member, n) in pool, "member not in the decided set")
        return

    if kind == "exceptional_form":
        _need(cert["n"] == n, "template exponent differs from the verdict")
        form = ExceptionalForm(cert["case_tag"], cert["pj"],
                               Fraction(cert["alpha1"]), Fraction(cert["alpha2"]))
        pair = form.instantiate(cert["n"])
        _need(len(keys) == 2, "exceptional form needs exactly 2 classes")
        _need({_class_key(x, n) for x in pair} == keys,
              "substituted template does not reproduce the set as classes")
        return

    if kind in ("hyperplane_cover", "uncovered_point"):
        q = cert["q"]
        _need(q == n and n % 2 == 1 and n > 1,
              f"cover modulus {q} is not the odd exponent {n}")
        support = list(cert["support"])
        coeffs = [tuple(c) for c in cert["coeffs"]]
        _verify_columns_from_set(cert, elements, n, support, coeffs)
        if kind == "hyperplane_cover":
            _need(_covers_mod(coeffs, n), "claimed cover has a hole")
            return
        point = tuple(cert["point"])
        _need(all(sum(c * x for c, x in zip(col, point)) % n != 0
                  for col in coeffs if any(col)),
              "claimed uncovered point is covered")
        _need_counterexample(cert, elements, n)
        return

    if kind == "odd_subset_witness":
        idx = cert["indices"]
        _need(len(idx) % 2 == 1, "witness subset has even cardinality")
        uniq = _dedupe(cleared, 2)
        _need(all(1 <= i <= len(uniq) for i in idx), "witness index out of range")
        prod = factor(1)
        for i in idx:
            prod = prod * uniq[i - 1]
        root = factor(cert["root"])
        _need(root**2 == prod, "witness product is not the square of the root")
        return

    if kind == "parity_obstruction":
        uniq = _dedupe(cleared, 2)
        support = sorted({p for x in uniq for p in x.support()})
        rows = {"sign": [1 if x.sign == -1 else 0 for x in uniq]}
        for p in support:
            rows[str(p)] = [x.exponent(p) % 2 for x in uniq]
        acc = [0] * len(uniq)
        for label in cert["rows"]:
            _need(label in rows, f"unknown row label {label}")
            acc = [a ^ b for a, b in zip(acc, rows[label])]
        _need(all(acc), "row combination does not witness the obstruction")
        _need_counterexample(cert, elements, n)
        return

    if kind == "skalba_witness":
        q, m = cert["q"], cert["m"]
        _need_oracle_modulus(q, m, n)
        c = tuple(cert["c"])
        # the witness indexes either the raw list (direct oracle runs) or the
        # class-deduplicated list (the decision pipeline)
        deduped = _dedupe(cleared, n)
        if len(c) == len(cleared):
            xs = cleared
        elif len(c) == len(deduped):
            xs = deduped
        else:
            raise VerificationFailure("witness length matches neither the raw "
                                      "nor the deduplicated element list")
        _need(3 ** len(xs) <= ORACLE_RECHECK_LIMIT,
              "skalba witness too large to re-check")
        # a pair B, C (signs 1 and -1) with |B| != |C| mod q whose ratio
        # prod_B a_j^(c_j) / prod_C a_j^(c_j) is a q^m-th power refutes it
        terms = [[cj * e for e in col] for cj, col in zip(c, _columns(xs, n))]
        for signs in product((0, 1, -1), repeat=len(xs)):
            if (signs.count(1) - signs.count(-1)) % q:
                _need(any(sum(sj * t[i] for sj, t in zip(signs, terms)) % n
                          for i in range(len(terms[0]))),
                      "witness tuple admits a perfect-power subset pair")
        _need_counterexample(cert, elements, n)
        return

    if kind == "oracle_exhaustion":
        q, m = cert["q"], cert["m"]
        _need_oracle_modulus(q, m, n)
        # as for a witness, the raw or the class-deduplicated list
        xs = next((xs for xs in (cleared, _dedupe(cleared, n))
                   if n ** len(xs) == cert["tuples_checked"]), None)
        _need(xs is not None, "tuples checked are not (q^m)^l for the raw "
                              "or the deduplicated element list")
        # every tuple admits a pair exactly when the kernels of the exponent
        # vectors mod q^m cover (Z/q^m)^s, trivially so at a zero vector
        cols = _columns(xs, n)
        _need(not all(map(any, cols)) or _covers_mod(cols, n),
              "some exponent tuple admits no perfect-power subset pair")
        return

    if kind == "component_failure":
        q, m = cert["q"], cert["m"]
        _need(n % q**m == 0, "component does not divide n")
        _verify_certificate(cert["inner"], elements, q**m, status)
        return

    if kind == "lifted_family":
        e = cert["exponent"]
        base = [factor(b) for b in cert["base_elements"]]
        _need(n % e == 0, "lift exponent does not divide n")
        lifted_keys = {_class_key(b**e, n) for b in base}
        _need(lifted_keys <= keys, "lift roots do not reproduce the set")
        _verify_certificate(cert["base_certificate"], base, n // e, status)
        return

    if kind == "evidence":
        if "counterexample_prime" not in cert:
            _need_theorem(cert["reason"], cleared, n)
        _need_counterexample(cert, elements, n)
        return

    raise VerificationFailure(f"unknown certificate kind {kind}")


def _need_counterexample(cert: dict, elements, n: int):
    """A recorded counterexample prime must be a prime where the set fails."""
    if "counterexample_prime" in cert:
        p = cert["counterexample_prime"]
        _need(is_prime(p), f"counterexample prime {p} is not prime")
        _need(verify_failing_prime(elements, n, p),
              "counterexample prime does not fail")


def _need_theorem(reason: str, cleared, n: int):
    """Evidence without a counterexample prime backs a failure only through
    the Grunwald-Wang theorem: one class that is neither an n-th power nor,
    when 8 | n, 2^(n/2) b^n."""
    _need(reason == "grunwald_wang_singleton",
          f"evidence {reason} needs a counterexample prime")
    classes = _dedupe(cleared, n)
    _need(not any(is_perfect_power(x, n) for x in classes),
          "the set contains a perfect power")
    _need(len(classes) == 1, "singleton evidence for more than one class")
    _need(n % 8 or not is_perfect_power(classes[0] / factor(2) ** (n // 2), n),
          "the member is 2^(n/2) b^n")


def _need_oracle_modulus(q, m, n: int):
    _need(q > 2 and is_prime(q), f"oracle modulus {q} is not an odd prime")
    _need(1 <= m <= n.bit_length() and q**m == n,
          "oracle modulus differs from the verdict exponent")


def _columns(xs, n: int) -> list:
    """The exponent vectors mod n of the elements over their joint support."""
    support = sorted({p for x in xs for p in x.support()})
    return [tuple(x.exponent(p) % n for p in support) for x in xs]


def _image_generators(cols, n: int):
    """(h, m) pairs, h of additive order m, that generate the image
    {x . E : x in (Z/n)^s} of the matrix E with these columns.

    Integer row operations keep the group the rows of E generate.  For each
    column in turn, Euclid on the rows not yet taken leaves one of them
    nonzero there, and that row, scaled by a unit to gcd(entry, n), becomes
    a generator; it reduces the earlier generators' entries in its column
    below its own, so for prime n no other generator touches that column.
    """
    rows = [[c % n for c in row] for row in zip(*cols)]
    gens = []
    for j in range(len(cols)):
        while True:
            live = sorted((r for r in rows if r[j]), key=lambda r: r[j])
            if len(live) < 2:
                break
            for r in live[1:]:
                c = r[j] // live[0][j]
                r[:] = [(a - c * b) % n for a, b in zip(r, live[0])]
        if live:
            rows.remove(live[0])
            d = math.gcd(live[0][j], n)
            u = pow(live[0][j] // d, -1, n // d)
            while math.gcd(u, n) > 1:
                u += n // d
            pivot = [u * a % n for a in live[0]]
            for h in gens:
                c = h[j] // d
                if c:
                    h[:] = [(a - c * b) % n for a, b in zip(h, pivot)]
            gens.append(pivot)
    return [(h, n // math.gcd(n, *h)) for h in gens]


def _covers_mod(coeffs, n: int) -> bool:
    """Do the kernels of x -> <x, c> mod n cover (Z/n)^s?

    A point misses every kernel exactly when every entry of its image
    x . E is nonzero, so the search runs over the image: sum t_k h_k for t
    in prod Z/m_k (_image_generators), generators touching the most columns
    first, each column tested once every generator touching it is set.  A
    unit multiple of a miss is a miss, so while t is zero so far its next
    entry is 0 or a divisor of m_k below m_k.  Past COVER_RECHECK_LIMIT
    values tried the cover counts as too large to re-check.
    """
    cols = [col for col in coeffs if any(c % n for c in col)]
    gens = sorted(_image_generators(cols, n), key=lambda g: -sum(map(bool, g[0])))
    last = [max(k for k, (h, _) in enumerate(gens) if h[j]) for j in range(len(cols))]
    checks = [[j for j, k_j in enumerate(last) if k_j == k] for k in range(len(gens))]
    tried = 0

    def miss(k, y, zero):
        nonlocal tried
        if k == len(gens):
            return True
        h, m = gens[k]
        for v in ([0] + [d for d in range(1, m) if m % d == 0]) if zero else range(m):
            tried += 1
            _need(tried <= COVER_RECHECK_LIMIT, "cover too large to re-check")
            z = [(a + v * b) % n for a, b in zip(y, h)]
            if all(z[j] for j in checks[k]) and miss(k + 1, z, zero and not v):
                return True
        return False

    return not miss(0, [0] * len(cols), True)


def _verify_columns_from_set(cert, elements, n, support, coeffs):
    """Check the recorded columns really come from the decided set: the
    exponent vectors mod n of its cleared elements.  A cover may use a
    subset of them; a refutation must use all of them, and none may be
    zero.
    """
    refutes = cert["kind"] == "uncovered_point"
    want = set()
    index = {p: i for i, p in enumerate(support)}
    for x in clear_denominators(elements, n):
        col = [0] * len(support)
        for p, e in reduce_class(x, n).factors:
            _need(p in index, f"element {x} uses a prime outside the recorded support")
            col[index[p]] = e % n
        if any(col):
            want.add(tuple(col))
        else:
            _need(not refutes, f"element {x} is an n-th power for n = {n}")
    got = {tuple(c) for c in coeffs if any(c)}
    if refutes:
        _need(got == want, "recorded columns differ from those the set induces")
    else:
        _need(got <= want, "recorded columns contain vectors not induced by the set")
