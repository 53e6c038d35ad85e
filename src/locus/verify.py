"""Independent re-verification of serialized verdicts.

Given a verdict document (as produced by the CLI), re-check the certificate
against the element set without trusting the engine's decision path.  Every
check here recomputes from first principles: roots are re-raised, covers
re-enumerated, witnesses and exhaustions re-searched, claimed failing primes
re-tested, all of a document's in one batch.  A counterexample prime must be
prime; an evidence certificate without one backs a failure only through the
Grunwald-Wang singleton theorem or the odd small-set theorem, whose
hypotheses are re-checked here.  Certificate kinds are checked against the
status they may support, the cover re-check tries at most
COVER_RECHECK_LIMIT candidate points, and the re-checks of an oracle witness
or exhaustion make at most ORACLE_RECHECK_LIMIT (2^20) sign-vector tests.
Every element string is factored with primes.factorize, whose rho gives up
on a composite above the Miller-Rabin bound once its cycle length passes
primes.RHO_CYCLE_LIMIT, so a crafted element costs under a second per split
attempt there.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .classify import ExceptionalForm
from .prime_power import _oracle_assignments, _ratio
from .primes import factorize, is_prime
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

# candidate points the cover re-check may try before it gives up; every cover
# the engine could enumerate point by point (q^s <= 2^24) needs at most
# (q-1)^(s-1) <= 6^7 of them
COVER_RECHECK_LIMIT = 1 << 19

# sign-vector tests an oracle witness or exhaustion re-check may make before
# it gives up: about 3 s for an exhaustion
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

    if kind == "hyperplane_cover":
        q = cert["q"]
        _need(q > 2 and is_prime(q), f"cover modulus {q} is not an odd prime")
        support = list(cert["support"])
        coeffs = [tuple(c) for c in cert["coeffs"]]
        _need(_forms_cover(coeffs, q), "claimed cover has a hole")
        _verify_columns_from_set(cert, elements, n, q, support, coeffs)
        return

    if kind == "uncovered_point":
        q = cert["q"]
        _need(q > 2 and is_prime(q), f"cover modulus {q} is not an odd prime")
        support = list(cert["support"])
        coeffs = [tuple(c) for c in cert["coeffs"]]
        point = tuple(cert["point"])
        _need(all(sum(c * x for c, x in zip(col, point)) % q != 0
                  for col in coeffs if any(col)),
              "claimed uncovered point is covered")
        _verify_columns_from_set(cert, elements, n, q, support, coeffs)
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
        for signs in _oracle_assignments(len(xs), q):
            _need(not is_perfect_power(_ratio(xs, c, signs), q**m),
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
        _need(n ** len(xs) <= ORACLE_RECHECK_LIMIT,
              "oracle exhaustion too large to re-check")
        _need(_exhausted(xs, q, n),
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
    a theorem whose hypotheses hold: Grunwald-Wang for one class that is
    neither an n-th power nor, when 8 | n, 2^(n/2) b^n; or, for odd n, at
    most q classes (q the least prime dividing n) and no n-th power."""
    _need(reason in ("grunwald_wang_singleton", "odd_small_set"),
          f"evidence {reason} needs a counterexample prime")
    classes = _dedupe(cleared, n)
    _need(not any(is_perfect_power(x, n) for x in classes),
          "the set contains a perfect power")
    if reason == "grunwald_wang_singleton":
        _need(len(classes) == 1, "singleton evidence for more than one class")
        _need(n % 8 or not is_perfect_power(classes[0] / factor(2) ** (n // 2), n),
              "the member is 2^(n/2) b^n")
    else:
        _need(n % 2 == 1 and len(classes) <= min(factorize(n)),
              "odd small-set evidence needs odd n and at most q classes")


def _need_oracle_modulus(q, m, n: int):
    _need(q > 2 and is_prime(q), f"oracle modulus {q} is not an odd prime")
    _need(1 <= m <= n.bit_length() and q**m == n,
          "oracle modulus differs from the verdict exponent")


def _exhausted(xs, q: int, qm: int) -> bool:
    """Does every tuple c in (Z/q^m)^l admit disjoint B, C with |B| != |C|
    mod q and prod_B a_j^(c_j) / prod_C a_j^(c_j) a perfect q^m-th power?

    A plain loop over the tuples and the sign vectors of the pairs, on the
    exponent vectors of the elements; past ORACLE_RECHECK_LIMIT sign-vector
    tests the exhaustion counts as too large to re-check.
    """
    support = sorted({p for x in xs for p in x.support()})
    vecs = [[x.exponent(p) for p in support] for x in xs]
    assignments = _oracle_assignments(len(xs), q)
    tests = 0
    for c in product(range(qm), repeat=len(xs)):
        for signs in assignments:
            tests += 1
            _need(tests <= ORACLE_RECHECK_LIMIT,
                  "oracle exhaustion too large to re-check")
            if all(sum(s * cj * v[i] for v, cj, s in zip(vecs, c, signs)) % qm == 0
                   for i in range(len(support))):
                break
        else:
            return False
    return True


def _forms_cover(coeffs, q: int) -> bool:
    """Do the kernels of the forms cover F_q^s?

    Elimination picks independent forms as coordinates y of the image and
    writes every other form as a combination lam . y.  The kernels miss a
    point exactly when some y in {1} x (F_q^*)^(r-1) gives every lam a
    nonzero value: points scale by F_q^*, and a coordinate no lam uses is
    free.  Past COVER_RECHECK_LIMIT candidates y the cover counts as too
    large to re-check.
    """
    pivots, deps = [], []
    for col in coeffs:
        row, lam = [c % q for c in col], [0] * len(coeffs)
        if not any(row):
            continue
        for p, prow, pcombo in pivots:
            c = row[p]
            if c:
                row = [(a - c * b) % q for a, b in zip(row, prow)]
                lam = [(a + c * b) % q for a, b in zip(lam, pcombo)]
        p = next((i for i, a in enumerate(row) if a), None)
        if p is None:
            deps.append(lam)
            continue
        inv = pow(row[p], -1, q)
        pcombo = [-inv * a % q for a in lam]
        pcombo[len(pivots)] = inv
        pivots.append((p, [a * inv % q for a in row], pcombo))
    used = sorted({k for lam in deps for k, a in enumerate(lam) if a})
    if not used:
        return False  # y = (1, ..., 1) misses every form
    y = [1] * len(coeffs)
    for tried, tail in enumerate(product(range(1, q), repeat=len(used) - 1)):
        _need(tried < COVER_RECHECK_LIMIT, "cover too large to re-check")
        for k, v in zip(used[1:], tail):
            y[k] = v
        if all(sum(a * b for a, b in zip(lam, y)) % q for lam in deps):
            return False
    return True


def _verify_columns_from_set(cert, elements, n, q, support, coeffs):
    """Check the recorded columns really come from the decided set.

    With a recorded reduction the columns must match the stripped bases;
    otherwise they must match the elements' own classes mod q.  A cover may
    use a subset of the set's columns; a refutation must use all of them, and
    none may be zero.
    """
    refutes = cert["kind"] == "uncovered_point"
    m = 0
    qm = 1
    while qm < n:
        qm *= q
        m += 1
    _need(qm == n, f"cover certificate target {n} is not a power of {q}")

    if "reduction" in cert:
        pairs = [(factor(a), factor(b)) for a, b in cert["reduction"]]
        pool = {_class_key(x, n) for x in elements} | \
               {_class_key(x, n) for x in clear_denominators(elements, n)}
        for orig, base in pairs:
            _need(_class_key(orig, n) in pool,
                  f"reduction source {orig} not among the elements")
            stripped = orig
            mu = 0
            while is_perfect_power(stripped, q):
                stripped = stripped.nth_root(q)
                mu += 1
            _need(reduce_class(stripped, q).rep == reduce_class(base, q).rep,
                  f"recorded base {base} does not match stripping {orig}")
            if cert["kind"] == "hyperplane_cover":
                # a cover lifts from the q case to q^m only through elements
                # stripped exactly m-1 layers
                _need(mu == m - 1,
                      f"{orig} was stripped {mu} layers; cover needs {m - 1}")
        if refutes:
            named = {_class_key(orig, n) for orig, _ in pairs}
            _need(pool <= named, "the recorded reduction leaves out an element")
        sources = [b for _, b in pairs]
    else:
        _need(m == 1, "cover for a higher power needs a recorded reduction")
        sources = [reduce_class(x, q).rep for x in clear_denominators(elements, q)]
    want = set()
    index = {p: i for i, p in enumerate(support)}
    for x in sources:
        col = [0] * len(support)
        ok = True
        for p, e in reduce_class(x, q).rep.factors:
            if p not in index:
                ok = False
                break
            col[index[p]] = e % q
        _need(ok, f"element {x} uses a prime outside the recorded support")
        if any(col):
            want.add(tuple(col))
        else:
            _need(not refutes, f"element {x} is a {q}-th power class")
    got = {tuple(c) for c in coeffs if any(c)}
    if refutes:
        _need(got == want, "recorded columns differ from those the set induces")
    else:
        _need(got <= want, "recorded columns contain vectors not induced by the set")
