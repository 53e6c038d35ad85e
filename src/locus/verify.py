"""Independent re-verification of serialized verdicts.

Given a verdict document (as produced by the CLI), re-check the certificate
against the element set without trusting the engine's decision path.  Every
check here recomputes from first principles: roots are re-raised, covers
re-enumerated, witnesses re-searched, claimed failing primes re-tested.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .classify import ExceptionalForm
from .prime_power import _oracle_assignments, _ratio
from .primes import is_prime
from .rationals import clear_denominators, factor, is_perfect_power, reduce_class
from .sieve import verify_failing_prime
from .verdicts import FAILS, HOLDS, INCONCLUSIVE


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
        k = evidence["params"]["k"]
        for p in evidence["failing_primes"]:
            _need(verify_failing_prime(elements, k, p),
                  f"claimed failing prime {p} does not fail")
        if status == HOLDS:
            _need(not evidence["failing_primes"],
                  "holds verdict carries sieve failures; inconsistency")


def _verify_certificate(cert: dict, elements, n: int, status: str):
    kind = cert["kind"]
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
        support = list(cert["support"])
        coeffs = [tuple(c) for c in cert["coeffs"]]
        _need(_forms_cover(coeffs, q, len(support)), "claimed cover has a hole")
        _verify_columns_from_set(cert, elements, n, q, support, coeffs)
        return

    if kind == "uncovered_point":
        q = cert["q"]
        support = list(cert["support"])
        coeffs = [tuple(c) for c in cert["coeffs"]]
        point = tuple(cert["point"])
        _need(all(sum(c * x for c, x in zip(col, point)) % q != 0
                  for col in coeffs if any(col)),
              "claimed uncovered point is covered")
        _verify_columns_from_set(cert, elements, n, q, support, coeffs)
        if "counterexample_prime" in cert:
            _need(verify_failing_prime(elements, n,
                                       cert["counterexample_prime"]),
                  "counterexample prime does not fail")
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
        if "counterexample_prime" in cert:
            _need(verify_failing_prime(elements, n,
                                       cert["counterexample_prime"]),
                  "counterexample prime does not fail")
        return

    if kind == "skalba_witness":
        q, m = cert["q"], cert["m"]
        _need(q**m == n, "witness modulus differs from the verdict exponent")
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
        for signs in _oracle_assignments(len(xs), q):
            _need(not is_perfect_power(_ratio(xs, c, signs), q**m),
                  "witness tuple admits a perfect-power subset pair")
        if "counterexample_prime" in cert:
            _need(verify_failing_prime(elements, n,
                                       cert["counterexample_prime"]),
                  "counterexample prime does not fail")
        return

    if kind == "oracle_exhaustion":
        return  # holds by exhaustion; nothing compact to re-check

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
        if "counterexample_prime" in cert:
            _need(verify_failing_prime(elements, n,
                                       cert["counterexample_prime"]),
                  "counterexample prime does not fail")
        return

    raise VerificationFailure(f"unknown certificate kind {kind}")


def _forms_cover(coeffs, q: int, s: int) -> bool:
    forms = [c for c in coeffs if any(c)]
    if not forms:
        return False
    for point in product(range(q), repeat=s):
        if all(sum(c * x for c, x in zip(col, point)) % q != 0 for col in forms):
            return False
    return True


def _verify_columns_from_set(cert, elements, n, q, support, coeffs):
    """Check the recorded columns really come from the decided set.

    With a recorded reduction the columns must match the stripped bases;
    otherwise they must match the elements' own classes mod q.
    """
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
    got = {tuple(c) for c in coeffs if any(c)}
    _need(got <= want, "recorded columns contain vectors not induced by the set")
