"""Independent checks of locus outputs, and the operations that fail today.

Each check returns a list of problems; an empty list means the output
agrees with the benchmark's own arithmetic (reference.py).  No check calls
locus.
"""

from __future__ import annotations

import json
import random
from itertools import compress

import reference as ref
from corpus import FAILS, HOLDS, Instance, Scan

# bounds of the residue checks
HOLD_BOUND = 5000          # a holds has no failing non-excluded prime up to here
FAIL_SEARCH = 10**6        # a fails must show a failing prime up to here
PASS_SAMPLE = 40           # passed primes of a scan re-tested per report

# inconclusive reasons accepted as regimes with no known criterion
NO_CRITERION = {
    "no_composite_criterion": "composite n with more than p1 classes, components "
                              "holding and no power-lift structure",
    "no_two_power_criterion_beyond_pairs": "n = 2^a, a >= 2, with three or more classes",
    "qm_reduction_not_conclusive": "q^m beyond the subset-product oracle's limits",
}


class Primes:
    """The benchmark's own prime table up to FAIL_SEARCH."""

    def __init__(self, hi: int = FAIL_SEARCH):
        self.hi = hi
        self.flags = ref.prime_flags(hi)
        self.list = [i for i in range(3, hi + 1, 2) if self.flags[i]]

    def between(self, lo: int, hi: int) -> list[int]:
        lo = max(lo, 2)
        if hi <= self.hi:
            return list(compress(range(lo, hi + 1), self.flags[lo : hi + 1]))
        return ref.primes_between(lo, hi)


def _counterexamples(cert: dict, n: int):
    """(prime, exponent) pairs; a component's prime refutes its own q^m."""
    if "counterexample_prime" in cert:
        yield cert["counterexample_prime"], n
    if cert["kind"] == "component_failure":
        yield from _counterexamples(cert["inner"], cert["q"] ** cert["m"])


def check_verdict(inst: Instance, doc: dict, primes: Primes, rng: random.Random) -> list[str]:
    out = []
    xs, n = inst.elements, inst.n
    status = doc["status"]
    if inst.expect is not None and status != inst.expect:
        out.append(f"{inst.family} n={n} {inst.texts}: status {status}, expected {inst.expect}")
    if status not in (HOLDS, FAILS):
        reason = doc["certificate"].get("reason")
        if reason not in NO_CRITERION:
            out.append(f"{inst.family}: inconclusive for an unlisted reason {reason!r}")
        return out

    excluded = set(doc["excluded_primes"])
    mine = ref.excluded_primes(xs, n)
    if not mine <= excluded:
        out.append(f"{inst.family}: excluded primes miss {sorted(mine - excluded)[:5]}")
    for p in excluded:
        if not ref.is_prime(p):
            out.append(f"{inst.family}: excluded entry {p} is not prime")
    for x in xs:
        if not ref.fully_factored(x.value, excluded):
            out.append(f"{inst.family}: {x.text()} is not a product of the excluded primes")

    claimed = list(_counterexamples(doc["certificate"], n))
    for p, k in claimed:
        if p in ref.excluded_primes(xs, k) or not ref.is_prime(p) \
                or not ref.prime_fails(xs, k, p):
            out.append(f"{inst.family}: counterexample prime {p} does not fail for {k}")
    if status == HOLDS:
        bad = ref.first_failing_prime(xs, n, primes.between(3, HOLD_BOUND), mine)
        if bad is not None:
            out.append(f"{inst.family} n={n} {inst.texts}: holds but {bad} fails")
    elif not claimed:
        if ref.first_failing_prime(xs, n, primes.list, mine) is None:
            out.append(f"{inst.family} n={n} {inst.texts}: fails but no prime "
                       f"up to {FAIL_SEARCH} fails")

    support = sorted({p for x in xs for p in x.powers})
    if n in (3, 5, 7) and len(support) <= 6 and ref.forms_cover(xs, n) != (status == HOLDS):
        out.append(f"{inst.family}: brute force over F_{n}^{len(support)} disagrees")
    if n == 2 and ref.odd_square_subset(xs) != (status == HOLDS):
        out.append(f"{inst.family}: brute force over odd subsets disagrees")

    if "evidence" in doc:
        ev = doc["evidence"]
        out += check_report(Scan(xs, n, ev["params"]["lo"], ev["params"]["hi"]), ev,
                            primes, rng, base_excluded=mine)
        if status == HOLDS and ev["failing_primes"]:
            out.append(f"{inst.family}: holds with failing primes in its evidence")
    return out


def check_report(scan: Scan, report: dict, primes: Primes, rng: random.Random,
                 base_excluded=None) -> list[str]:
    """A sieve report: its failures fail, a sample of its passes pass, and
    it tested every non-excluded prime of the range."""
    out = []
    xs, k = scan.elements, scan.k
    excluded = base_excluded if base_excluded is not None else ref.excluded_primes(xs, k)
    if not excluded <= set(report["params"]["excluded"]):
        out.append("sieve report excludes fewer primes than the support")
    failing = report["failing_primes"]
    failing_set = set(failing)
    for p in failing:
        if p in excluded or not ref.prime_fails(xs, k, p):
            out.append(f"scan k={k}: reported failing prime {p} does not fail")
            break
    candidates = [p for p in primes.between(scan.lo, scan.hi) if p not in excluded]
    if report["tested_count"] != len(candidates):
        out.append(f"scan k={k} [{scan.lo}, {scan.hi}]: tested {report['tested_count']}, "
                   f"expected {len(candidates)}")
    passed = [p for p in candidates if p not in failing_set]
    for p in rng.sample(passed, min(PASS_SAMPLE, len(passed))):
        if ref.prime_fails(xs, k, p):
            out.append(f"scan k={k}: prime {p} fails but was not reported")
            break
    return out


def check_command(cmd, code: int, stdout: str, primes: Primes,
                  rng: random.Random) -> list[str]:
    """Exit code, parsed output and answer of one locus.cli command."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"{cmd.kind}: stdout is not JSON (exit {code})"]
    if cmd.kind == "generate":
        a, b = cmd.subject
        want = {str(v) for v in (a, b, a * b, a * b * b)}
        return [] if set(doc) == want and len(doc) == 4 else [f"generate {a} {b}: {doc}"]
    if cmd.kind == "verify":
        return [] if code == 0 and doc.get("valid") is True else \
            [f"verify-certificate rejected a genuine document: {doc}"]
    if cmd.kind == "sieve":
        return ([f"sieve exit {code}"] if code else []) + \
            check_report(cmd.subject, doc, primes, rng)
    want_code = {HOLDS: 0, FAILS: 1}.get(doc.get("status"), 2)
    out = [] if code == want_code else [f"{cmd.kind}: exit {code} for status {doc.get('status')}"]
    return out + check_verdict(cmd.subject, doc, primes, rng)


# -- operations that fail on this program, on fixed inputs ------------------

# verify_document should reject each of these (ROADMAP item 1, a-d)
FORGED = [
    {"n": 3, "elements": ["2"], "status": "holds",
     "certificate": {"kind": "oracle_exhaustion", "q": 3, "m": 1, "tuples_checked": 1},
     "excluded_primes": [2, 3]},
    {"n": 3, "elements": ["2", "5"], "status": "holds",
     "certificate": {"kind": "evidence", "reason": "sieve_found_nothing"},
     "excluded_primes": [2, 3, 5]},
    {"n": 3, "elements": ["8", "5"], "status": "fails",
     "certificate": {"kind": "perfect_power_member", "element": "8", "root": "2",
                     "exponent": 3},
     "excluded_primes": [2, 3, 5]},
    {"n": 3, "elements": ["2", "3", "6", "12"], "status": "fails",
     "certificate": {"kind": "uncovered_point", "q": 3, "support": [2, 3],
                     "coeffs": [[1, 0]], "point": [1, 0]},
     "excluded_primes": [2, 3]},
]

# one genuine holds or fails document per certificate kind; each twin with
# the status flipped states a false claim
TWIN_SOURCES = [
    (["8", "5"], 3), (["16"], 8), (["-27", "4"], 6), (["2", "3", "6", "12"], 3),
    (["3", "5", "15"], 2), (["4", "9", "36"], 4), (["32", "3125", "100000", "312500000"], 15),
    (["2", "3"], 3), (["2", "3"], 2), (["2", "3", "6", "12"], 9),
    (["2", "3", "5", "7"], 15), (["2"], 3), (["2", "3"], 6), (["2", "3"], 15),
]

_P16 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
# support 16 with n = 3: q^s = 3^16 is past the enumeration ceiling today
LARGE_SUPPORT = [
    ([str(p) for p in _P16], 3, FAILS),                      # (1, ..., 1) uncovered
    (["2", "3", "6", "12"] + [str(p) for p in _P16[2:]], 3, HOLDS),  # cubic quad inside
]


def flipped(doc: dict) -> dict:
    twin = json.loads(json.dumps(doc))
    twin["status"] = FAILS if doc["status"] == HOLDS else HOLDS
    return twin
