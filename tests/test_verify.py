import json
from fractions import Fraction

import pytest

from corpus import additive_order, elimination_cases, image, span

from locus.classify import decide
from locus.errors import InstanceTooLarge, ZeroInput
from locus.rationals import factor
from locus.verify import _image_generators, verify_document


def doc_for(elements, n, **kwargs):
    v = decide(elements, n, **kwargs)
    return v.to_json(n, [str(factor(e)) for e in elements])


def test_accepts_engine_output():
    cases = [
        ([2, 3, 6, 18], 3),
        ([2, 3, 12], 3),
        ([16], 8),
        ([2], 3),
        ([-27, 4], 6),
        ([-4, 9], 4),
        ([4, 8], 6),
        ([4, 9, 36, 324], 6),
        ([2, 4, 8], 9),
        ([512, 5], 9),
        ([3, 5, 15], 2),
        ([2, 3], 2),
        ([32, 8], 15),
        ([2, 3, 5], 15),
        ([2, 3, 5], 4),
        ([27, 125, 3375], 6),
        (["8", "5", "10", "50"], 9),
        (["1/2", 3, 12], 3),
        # cubic quads lifted one and two layers, one with a fifth class,
        # and one with the duplicate class 48 = 6 * 2^3
        ([8, 125, 1000, 125000], 9),
        ([512, 19683, 10077696, 198359290368], 27),
        ([8, 27, 216, 5832, 5], 9),
        ([2, 3, 6, 18, 48, 5], 3),
    ]
    for elements, n in cases:
        problems = verify_document(doc_for(elements, n))
        assert problems == [], (elements, n, problems)


def test_counterexample_prime_avoids_dropped_duplicates():
    # each set has a duplicate class whose support prime is the least prime
    # failing for the kept class alone
    cases = [
        (["2", "686"], 3),
        (["3", "75"], 2),
        (["178802", "338", "-3887", "-121", "-361"], 2),
    ]
    for elements, n in cases:
        doc = doc_for(elements, n)
        assert "counterexample_prime" in json.dumps(doc)
        assert verify_document(doc) == [], (elements, n)


def test_rejects_wrong_root():
    doc = doc_for([512, 5], 9)
    doc["certificate"]["root"] = "3"
    assert verify_document(doc)


def test_rejects_foreign_member():
    doc = doc_for([512, 5], 9)
    doc["certificate"]["element"] = "729"
    doc["certificate"]["root"] = "3"  # 3^9 != 729, and 729 not in the set
    assert verify_document(doc)


def test_rejects_covered_point_claim():
    doc = doc_for([2, 3, 12], 3)
    doc["certificate"]["point"] = [0, 0]  # the origin is always covered
    assert verify_document(doc)


def test_rejects_holey_cover():
    doc = doc_for([2, 3, 6, 18], 3)
    doc["certificate"]["coeffs"] = [[1, 0], [0, 1], [1, 1]]
    assert verify_document(doc)


def test_rejects_alien_columns():
    doc = doc_for([2, 3, 6, 18], 3)
    doc["certificate"]["coeffs"] = [[1, 0], [0, 1], [1, 1], [2, 1]]
    assert verify_document(doc)  # (2,1) is not induced by any element


def test_rejects_bad_counterexample_prime():
    doc = doc_for([2, 3, 12], 3)
    doc["certificate"]["counterexample_prime"] = 13  # 12 is a cube mod 13
    assert verify_document(doc)


def test_rejects_even_witness_subset():
    # {3, 5} has no odd subset with a square product: without the column of
    # 15 the cover of the squares criterion has a hole
    doc = doc_for([3, 5, 15], 2)
    assert verify_document(doc) == []
    doc["certificate"]["coeffs"] = doc["certificate"]["coeffs"][:2]
    assert verify_document(doc) == ["claimed cover has a hole"]


def test_rejects_tampered_skalba_witness():
    # skalba_witness is a retired kind: a tampered witness is refused by its
    # kind, before any field is read.  The zero tuple is always satisfied,
    # and the witness (1, 1, 1, 2) of the four elements indexes no list of
    # five.
    for elements, c in [(["8", "5", "10", "50"], [0, 0, 0, 0]),
                        (["8", "5", "10", "50", "4096"], [1, 1, 1, 2])]:
        doc = {"n": 9, "elements": elements, "status": "fails",
               "certificate": {"kind": "skalba_witness", "c": c, "q": 3, "m": 2},
               "excluded_primes": [2, 3, 5]}
        assert verify_document(doc) == ["certificate kind skalba_witness cannot "
                                        "support status fails"]


def test_rejects_fake_lift():
    # lifted_family is no kind the engine emits: the claim is true, but a
    # lift proves nothing to the verifier
    doc = {"n": 6, "elements": ["4", "9", "36", "324"], "status": "holds",
           "certificate": {"kind": "lifted_family", "exponent": 2,
                           "base_elements": ["2", "3", "6", "5"],
                           "base_certificate": {"kind": "hyperplane_cover", "q": 3,
                                                "support": [2, 3, 5],
                                                "coeffs": [[1, 0, 0], [0, 1, 0]]}}}
    assert verify_document(doc) == ["certificate kind lifted_family cannot "
                                    "support status holds"]
    assert verify_document(doc_for([4, 9, 36, 324], 6)) == []


def test_rejects_wang_without_eight():
    # 16 covers every class for n = 8, but not for n = 12, where 8 does not
    # divide n: the same columns leave a hole
    doc = doc_for([16], 8)
    assert verify_document(doc) == []
    doc["n"] = doc["certificate"]["q"] = 12
    assert verify_document(doc) == ["claimed cover has a hole"]


def test_parity_rows_are_those_of_the_classes():
    # 12 and 5 are the classes 3 and 5 mod squares; 2 divides no class, so
    # the support is the sign, 3 and 5, and the rows of 3 and 5 XOR to
    # all-ones; the row of 3 alone does not
    doc = doc_for([12, 5], 2)
    cert = doc["certificate"]
    assert cert["support"] == [-1, 3, 5] and cert["point"] == [0, 1, 1]
    assert verify_document(doc) == []
    cert["point"] = [0, 1, 0]
    assert verify_document(doc) == ["claimed uncovered point is covered"]


def test_rejects_inconclusive_status():
    # no route answers inconclusive; such a document is an unknown status
    doc = {"n": 4, "elements": ["2", "3", "5"], "status": "inconclusive",
           "certificate": {"kind": "evidence", "reason": "no_criterion"}}
    assert verify_document(doc) == ["unknown status inconclusive"]


def test_evidence_failing_primes_rechecked():
    doc = doc_for([2, 3, 12], 3, attach_evidence=True, evidence_hi=100)
    assert verify_document(doc) == []
    doc["evidence"]["failing_primes"] = [11]  # 2 is a cube mod 11
    assert verify_document(doc)


def test_round_trip_through_json():
    doc = doc_for([-27, 4], 6)
    assert verify_document(json.loads(json.dumps(doc))) == []


def test_status_must_allow_the_certificate_kind():
    # one genuine document per certificate kind, each with its status flipped
    sources = [([8, 5], 3), ([16], 8), ([-27, 4], 6), ([2, 3, 6, 12], 3),
               ([3, 5, 15], 2), ([4, 9, 36], 4), ([2, 3], 3), ([2, 3], 2),
               ([2, 3, 6, 12], 9), ([2, 3, 5, 7], 15), ([2], 3)]
    for elements, n in sources:
        doc = doc_for(elements, n)
        assert verify_document(doc) == []
        doc["status"] = "fails" if doc["status"] == "holds" else "holds"
        assert verify_document(doc), (elements, n)
    holds_on_evidence = {"n": 3, "elements": ["2", "5"], "status": "holds",
                         "certificate": {"kind": "evidence", "reason": "none"}}
    assert verify_document(holds_on_evidence)


def test_square_kinds_and_members_are_bound_to_their_exponent():
    # each claim is false: decide has no n below 2; the member of a true
    # claim at n = 2 verifies, and at n = 3 it is no cube
    forged = [
        {"n": 1, "elements": ["2"], "status": "holds",
         "certificate": {"kind": "perfect_power_member", "element": "2",
                         "root": "2", "exponent": 1}},
        {"n": -2, "elements": ["4"], "status": "holds",
         "certificate": {"kind": "perfect_power_member", "element": "4",
                         "root": "1/2", "exponent": -2}},
        {"n": 2.0, "elements": ["4"], "status": "holds",
         "certificate": {"kind": "perfect_power_member", "element": "4",
                         "root": "2", "exponent": 2}},
    ]
    for doc in forged:
        assert verify_document(doc), doc
    doc = dict(forged[-1], n=2, excluded_primes=[2])
    assert verify_document(doc) == []
    assert verify_document(dict(doc, n=3)) == [
        "member certificate is for exponent 2, expected 3"]


def test_retired_square_kinds_are_refused_at_every_n():
    # n = 2 is decided by the cover criterion; the odd-subset witness and
    # the parity obstruction prove nothing, at n = 2 as anywhere, though
    # each claim below is true for squares
    retired = [
        ("holds", ["4"], {"kind": "odd_subset_witness", "indices": [1], "root": "2"}),
        ("holds", ["3", "5", "15"], {"kind": "odd_subset_witness",
                                     "indices": [1, 2, 3], "root": "15"}),
        ("fails", ["8"], {"kind": "parity_obstruction", "rows": ["2"]}),
    ]
    for n in (2, 3, 4, 6):
        for status, elements, cert in retired:
            doc = {"n": n, "elements": elements, "status": status, "certificate": cert}
            assert verify_document(doc) == [
                f"certificate kind {cert['kind']} cannot support status {status}"], doc


def test_certificate_kinds_match_the_verifier():
    # every certificate class the engine can emit has a kind the verifier
    # accepts for some status, and the verifier accepts no other kind
    from locus import verdicts, verify
    emitted = {cls.kind for cls in vars(verdicts).values()
               if isinstance(cls, type) and hasattr(cls, "kind")}
    assert emitted == set().union(*verify.ALLOWED_KINDS.values())
    assert emitted == {"perfect_power_member", "hyperplane_cover", "uncovered_point"}


def test_refutation_needs_every_column():
    # {2, 3, 6, 12} holds for n = 3; a point off the first form alone is no refutation
    doc = {"n": 3, "elements": ["2", "3", "6", "12"], "status": "fails",
           "certificate": {"kind": "uncovered_point", "q": 3, "support": [2, 3],
                           "coeffs": [[1, 0]], "point": [1, 0]}}
    assert verify_document(doc)
    # the same mod 9, where the columns of 27, 216 and 1728 are left out
    doc = {"n": 9, "elements": ["8", "27", "216", "1728"], "status": "fails",
           "certificate": {"kind": "uncovered_point", "q": 9, "support": [2, 3],
                           "coeffs": [[3, 0]], "point": [1, 0]}}
    assert verify_document(doc) == ["recorded columns differ from those the set induces"]


def test_cover_recheck_has_a_work_bound(monkeypatch):
    import locus.verify
    doc = doc_for([2, 3, 6, 18], 3)
    # the image is generated by (1, 0, 1, 1) and (0, 1, 1, 2): 0 and 1 for
    # the first, then 0, 1 and 2 for the second
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 4)
    assert verify_document(doc) == ["cover too large to re-check"]
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 5)
    assert verify_document(doc) == []


def test_cover_recheck_limit_spans_the_old_enumeration_range():
    # every cover of prime modulus the engine once enumerated point by point
    # (q^r <= 2^24) still re-checks: at most 2 + q((q-1)^(r-1) - 1)/(q-2)
    # values, worst at q = 5, r = 10
    from locus.primes import sieve_upto
    from locus.verify import COVER_RECHECK_LIMIT
    need = {(q, r): 2 + q * ((q - 1) ** (r - 1) - 1) // (q - 2)
            for q in sieve_upto(1 << 12)[1:] for r in range(1, 25)
            if q**r <= 1 << 24}
    assert max(need.values()) == need[5, 10] == 436907 <= COVER_RECHECK_LIMIT


def budget_set(q, r):
    # the first r primes and p_1...p_(r-1) p_r^(-c mod q) for c in Z/q: a
    # cover of (Z/q)^r whose search cost grows quickly with q and r
    import math

    from locus.primes import sieve_upto
    ps = sieve_upto(30)[:r]
    return ps + [math.prod(ps[:-1]) * ps[-1] ** (-c % q) for c in range(q)]


# (elements, n, the values its cover takes): an odd n, an even n, whose
# walk draws its n values first (5 for t = 1 and 9 for t = 7 after the 6),
# and n = 2 (2 for t = 1, 3, then 4 per class)
COVER_VALUES = {"odd-n": (budget_set(5, 8), 5, 23212),
                "even-n": ([4, 9, 36, 324, 5], 6, 20),
                "n2": (["3", "5", "15"], 2, 10)}


@pytest.mark.parametrize("elements, n, k", COVER_VALUES.values(), ids=COVER_VALUES)
def test_engine_and_verifier_count_the_same_cover_values(monkeypatch, elements, n, k):
    # one patched constant limits both sides: at k the cover is emitted and
    # re-checks, at k - 1 decide refuses it and the verifier refuses its
    # document alike
    import locus.verify
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", k)
    doc = doc_for(elements, n)
    assert doc["status"] == "holds" and doc["certificate"]["kind"] == "hyperplane_cover"
    assert verify_document(doc) == []
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", k - 1)
    with pytest.raises(InstanceTooLarge):
        decide(elements, n)
    assert verify_document(doc) == ["cover too large to re-check"]


def test_one_cover_budget_for_decide_and_verify():
    # 345,256 values on each side, within the shared 2^19; the next prime
    # puts the cover past it, and decide refuses it rather than emit a
    # document that the verifier could not re-check
    from locus import verify
    assert verify.COVER_RECHECK_LIMIT == 1 << 19
    doc = doc_for(budget_set(7, 8), 7)
    assert doc["status"] == "holds" and verify_document(doc) == []
    with pytest.raises(InstanceTooLarge):
        decide(budget_set(7, 9), 7)


def test_accepts_wide_prime_modulus_cover(monkeypatch):
    # the ten primes to 29, 2 * 3^a for a = 1..6 and their product cover
    # F_7^10; the re-check settles it in 9 values, where a loop over
    # (F_7^*)^9 would pass the limit
    import math

    import locus.verify
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    elements = primes + [2 * 3**a for a in range(1, 7)] + [math.prod(primes)]
    doc = doc_for(elements, 7)
    assert doc["status"] == "holds"
    assert doc["certificate"]["kind"] == "hyperplane_cover"
    assert len(doc["certificate"]["support"]) == 10
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 9)
    assert verify_document(doc) == []
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 8)
    assert verify_document(doc) == ["cover too large to re-check"]


def test_forged_cover_recheck_at_a_huge_prime_modulus(monkeypatch):
    # the re-check tries 0, then the divisor 1 of n, and finds the hole
    import locus.verify
    n = 1000000000039
    doc = {"status": "holds", "n": n, "elements": ["2"], "excluded_primes": [2],
           "certificate": {"kind": "hyperplane_cover", "q": n, "support": [2],
                           "coeffs": [[1]]}}
    assert verify_document(doc) == ["claimed cover has a hole"]
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 1)
    assert verify_document(doc) == ["cover too large to re-check"]


def test_rejects_cover_modulo_a_prime_power():
    # a "cover" mod 9 whose one-coordinate scaling misses the hole (3, 1);
    # the elements do induce these columns mod 9, and the refutation at the
    # hole is a true claim
    cols = [[1, 0], [0, 1]] + [[1, a] for a in (1, 2, 4, 5, 7, 8)] + [[3, 8], [3, 4]]
    doc = {"n": 9, "status": "holds",
           "elements": [str(2**a * 3**b) for a, b in cols],
           "certificate": {"kind": "hyperplane_cover", "q": 9, "support": [2, 3],
                           "coeffs": cols},
           "excluded_primes": [2, 3]}
    assert verify_document(doc) == ["claimed cover has a hole"]
    doc["status"] = "fails"
    doc["certificate"].update(kind="uncovered_point", point=[3, 1])
    assert verify_document(doc) == []
    doc["certificate"]["point"] = [1, 3]  # 3 * 1 + 8 * 3 = 0 mod 9 at [3, 8]
    assert verify_document(doc) == ["claimed uncovered point is covered"]


def test_rejects_modulus_other_than_n():
    # a cover mod 3 of the classes stripped of their cube layers; {8, 5, 10,
    # 50} fails for n = 9
    doc = {"n": 9, "elements": ["8", "5", "10", "50"], "status": "holds",
           "certificate": {"kind": "hyperplane_cover", "q": 3, "support": [2, 5],
                           "coeffs": [[1, 0], [0, 1], [1, 1], [1, 2]]}}
    assert verify_document(doc) == ["cover modulus 3 is not the exponent 9"]
    doc["certificate"]["q"] = 9
    assert verify_document(doc) == ["recorded columns contain vectors not "
                                    "induced by the set"]
    for q in (27, 1, -9):
        genuine = doc_for(["8", "5", "10", "50"], 9)
        genuine["certificate"]["q"] = q
        assert verify_document(genuine) == [f"cover modulus {q} is not the exponent 9"]
    # for even n a refutation names its class: t = 5 mod 12 pins 3 to odd
    # parity, (3/5) = -1, and g = 2; a set with no negative class needs no
    # sign entry
    even = {"n": 6, "elements": ["2", "3"], "status": "fails",
            "certificate": {"kind": "uncovered_point", "q": 6, "support": [2, 3],
                            "coeffs": [[1, 0], [0, 1]], "point": [1, 1]},
            "excluded_primes": [2, 3]}
    assert verify_document(even) == ["a refutation names its class t exactly "
                                     "when n is even"]
    even["certificate"]["t"] = 5
    assert verify_document(even) == []


def test_rejects_columns_not_reduced_from_the_set():
    genuine = doc_for(["8", "5", "10", "50"], 9)
    assert genuine["certificate"]["coeffs"] == [[3, 0], [0, 1], [1, 1], [1, 2]]
    assert verify_document(genuine) == []
    for coeffs in ([[1, 0], [0, 1], [1, 1], [1, 2]],   # the stripped bases
                   [[0, 1], [1, 1], [1, 2]],           # 8 left out
                   [[12, 0], [0, 1], [1, 1], [1, 2]]):  # 3 + 9, not reduced
        doc = json.loads(json.dumps(genuine))
        doc["certificate"]["coeffs"] = coeffs
        assert verify_document(doc) == ["recorded columns differ from those "
                                        "the set induces"], coeffs
    doc = json.loads(json.dumps(genuine))
    doc["certificate"]["support"] = [2, 3]
    assert verify_document(doc) == ["element 5 uses a prime outside the "
                                    "recorded support"]


def test_rejects_composite_modulus_cover_with_a_hole():
    # {2, 5, 10, 50} covers mod 3 but not mod 15: (5, 3) is off every kernel
    doc = {"n": 15, "elements": ["2", "5", "10", "50"], "status": "holds",
           "certificate": {"kind": "hyperplane_cover", "q": 15, "support": [2, 5],
                           "coeffs": [[1, 0], [0, 1], [1, 1], [1, 2]]},
           "excluded_primes": [2, 3, 5]}
    assert verify_document(doc) == ["claimed cover has a hole"]
    doc["status"] = "fails"
    doc["certificate"].update(kind="uncovered_point", point=[5, 3])
    assert verify_document(doc) == []
    # the genuine cover of the same shape lifted by 5
    doc = doc_for(["32", "3125", "100000", "312500000"], 15)
    assert doc["certificate"]["coeffs"] == [[5, 0], [0, 5], [5, 5], [5, 10]]
    assert verify_document(doc) == []
    doc["certificate"]["coeffs"].pop()
    assert verify_document(doc) == ["claimed cover has a hole"]
    doc["certificate"]["coeffs"].append([0, 0])  # induced by no element
    assert verify_document(doc) == ["claimed cover has a hole"]


def test_composite_cover_recheck_has_a_work_bound(monkeypatch):
    import locus.verify
    doc = doc_for(["32", "3125", "100000", "312500000"], 15)
    # the image is generated by 5 (1, 0, 1, 1) and 5 (0, 1, 1, 2), of order
    # 3 each: 0 and 1 for the first, then 0, 1 and 2 for the second
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 4)
    assert verify_document(doc) == ["cover too large to re-check"]
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 5)
    assert verify_document(doc) == []


def test_accepts_wide_composite_modulus_covers():
    # lifted optimal families beside primes of their own: the re-check runs
    # over the image of the columns, not over the n^s points of (Z/n)^s
    family = [2, 7, 14, 98]
    for elements, n, s in [([3, 5, 11, 13, 17, 19, 23] + [a**3 for a in family], 9, 9),
                           ([a**5 for a in family + [3, 5, 11, 13]], 15, 6),
                           ([a**5 for a in family] + [11, 13, 17, 19], 15, 6)]:
        doc = doc_for(elements, n)
        assert doc["status"] == "holds", elements
        assert doc["certificate"]["kind"] == "hyperplane_cover"
        assert len(doc["certificate"]["support"]) == s
        assert verify_document(doc) == []


def test_rejects_wide_cover_of_unit_forms():
    from locus.primes import sieve_upto
    primes = sieve_upto(200)[:40]
    doc = {"n": 3, "elements": [str(p) for p in primes], "status": "holds",
           "certificate": {"kind": "hyperplane_cover", "q": 3, "support": primes,
                           "coeffs": [[int(i == j) for j in range(40)]
                                      for i in range(40)]}}
    assert verify_document(doc) == ["claimed cover has a hole"]


def test_accepts_cofactors_above_the_deterministic_bound():
    # 16 * 1000003^8 and the cleared 440177981 * 4455611 * 59982049^5 pass
    # the Miller-Rabin bound but are proven composite
    doc = doc_for(["16", str(16 * 1000003**8)], 8)
    assert doc["status"] == "holds"
    assert verify_document(doc) == []
    doc = doc_for(["1961261854101391", "5/59982049"], 5)
    assert doc["certificate"]["kind"] == "uncovered_point"
    assert verify_document(doc) == []


def test_rejects_forged_oracle_exhaustion():
    # {2} fails for n = 3 (2 is not a cube mod 7); oracle_exhaustion is a
    # retired kind, so each forgery is refused by its kind
    doc = {"n": 3, "elements": ["2"], "status": "holds",
           "certificate": {"kind": "oracle_exhaustion", "q": 3, "m": 1,
                           "tuples_checked": 1},
           "excluded_primes": [2, 3]}
    for forged in ({}, {"tuples_checked": 3}, {"q": 9, "tuples_checked": 9},
                   {"q": 3, "m": 2, "tuples_checked": 9}):
        doc["certificate"].update(forged)
        assert verify_document(doc) == ["certificate kind oracle_exhaustion cannot "
                                        "support status holds"]


def test_cover_recheck_agrees_with_the_oracle():
    # the cover re-check accepts the sets' own exponent columns as a cover
    # exactly when the oracle's search over the tuples finds no witness.  A
    # set with a perfect n-th power member takes a member certificate and is
    # left out; of the 251 random sets left only one holds, so 100 more are
    # drawn from the q + 1 lines of (Z/q)^2, each at a random unit and, mod
    # 9, layer, of which 21 hold
    import random
    from locus.prime_power import skalba_oracle
    cases = []
    rng = random.Random(5)
    for _ in range(300):
        q, m = rng.choice([(3, 1), (5, 1), (3, 2)])
        exponents = [(rng.choice([1, -1]), rng.randrange(q**m), rng.randrange(q**m))
                     for _ in range(rng.randint(1, 5))]
        cases.append((q, m, exponents))
    rng = random.Random(6)
    for _ in range(100):
        q, m = rng.choice([(3, 1), (5, 1), (3, 2)])
        n = q**m
        lines = [(1, 0)] + [(j, 1) for j in range(q)]
        exponents = []
        for a, b in rng.sample(lines, rng.randint(2, q + 1)):
            u = rng.choice([u for u in range(1, n) if u % q]) * rng.choice((1, q)[:m])
            exponents.append((1, a * u % n, b * u % n))
        cases.append((q, m, exponents))
    holds = 0
    for q, m, exponents in cases:
        if (0, 0) in {(a, b) for _, a, b in exponents}:
            continue
        elements = [sign * 2**a * 3**b for sign, a, b in exponents]
        doc = {"n": q**m, "elements": [str(e) for e in elements], "status": "holds",
               "certificate": {"kind": "hyperplane_cover", "q": q**m, "support": [2, 3],
                               "coeffs": [[a, b] for _, a, b in exponents]},
               "excluded_primes": sorted({2, 3, q})}
        accepted = verify_document(doc) == []
        assert accepted == skalba_oracle(elements, q, m).holds(), (elements, q, m)
        holds += accepted
    assert holds == 22


def test_counterexample_prime_must_be_prime():
    for source in ([2, 3, 12], 3), ([2, 3], 2), ([8, 5, 10, 50], 9), ([2, 3], 6):
        doc = doc_for(*source)
        assert verify_document(doc) == []
        doc["certificate"]["counterexample_prime"] = 7 * 13
        assert verify_document(doc) == ["counterexample prime 91 is not prime"]


def test_evidence_without_prime_needs_a_theorem():
    # no theorem backs a bare evidence certificate any more: every set the
    # engine decides carries a cover or a point, so evidence supports
    # neither status, whatever its reason
    for elements, n, reason in [(["8"], 3, "x"), (["2"], 8, "grunwald_wang_singleton"),
                                (["2", "3"], 4, "no_exceptional_template")]:
        doc = {"n": n, "elements": elements, "status": "fails",
               "certificate": {"kind": "evidence", "reason": reason}}
        assert verify_document(doc) == ["certificate kind evidence cannot "
                                        "support status fails"]
    # the singleton of even n once backed by the theorem: a point of class
    # t = 3 mod 16, g = 2, the sign pinned to 1 and 2 to the parity of
    # (2/3) = -1
    doc = doc_for(["2"], 8, want_counterexample=False)
    assert doc["certificate"] == {"kind": "uncovered_point", "q": 8, "support": [-1, 2],
                                  "coeffs": [[0, 1]], "point": [1, 1], "t": 3}
    assert verify_document(doc) == []
    # odd singletons and odd small sets carry a point too: 2 has no
    # failing prime below 10^4 for n = 10007, and -3, 24 are one class mod
    # cubes
    doc = doc_for([2], 10007)
    assert doc["certificate"] == {"kind": "uncovered_point", "q": 10007, "support": [2],
                                  "coeffs": [[1]], "point": [1]}
    assert verify_document(doc) == []
    for elements, n in [(["-3", "24"], 3), (["32", "8", "-1/2"], 15)]:
        doc = doc_for(elements, n, want_counterexample=False)
        assert doc["certificate"]["kind"] == "uncovered_point"
        assert verify_document(doc) == [], (elements, n)


def test_rejects_retired_kinds():
    # the kinds that decide does not emit, each on a true claim; the last two
    # are the documents `locus oracle` once wrote for
    # `--n 9 --elem 2 --elem 4 --elem 8` and `--n 3` on {2, 3, 6, 18}
    retired = [
        (["16"], 8, "holds", {"kind": "wang_exception", "element": "16", "b": "1", "n": 8}),
        (["-27", "4"], 6, "holds", {"kind": "exceptional_form", "case_tag": "A0eq1",
                                    "pj": 3, "alpha1": "1", "alpha2": "2", "n": 6}),
        (["2"], 15, "fails", {"kind": "component_failure", "q": 3, "m": 1,
                              "inner": {"kind": "evidence",
                                        "reason": "grunwald_wang_singleton"}}),
        (["2"], 8, "fails", {"kind": "evidence", "reason": "grunwald_wang_singleton"}),
        (["2", "4", "8"], 9, "fails", {"kind": "skalba_witness", "c": [1, 1, 2],
                                       "q": 3, "m": 2}),
        (["2", "3", "6", "18"], 3, "holds", {"kind": "oracle_exhaustion", "q": 3, "m": 1,
                                             "tuples_checked": 81}),
    ]
    for elements, n, status, cert in retired:
        doc = {"n": n, "elements": elements, "status": status, "certificate": cert}
        assert verify_document(doc) == [f"certificate kind {cert['kind']} cannot "
                                        f"support status {status}"]


def test_evidence_parameters_must_match_the_document():
    doc = doc_for([2, 3, 12], 3, attach_evidence=True, evidence_hi=100)
    assert doc["evidence"]["failing_primes"] == [7, 37]
    assert verify_document(doc) == []
    bad = json.loads(json.dumps(doc))
    bad["evidence"]["params"]["k"] = 6
    assert verify_document(bad) == ["evidence exponent differs from the verdict"]
    bad = json.loads(json.dumps(doc))
    bad["evidence"]["failing_primes"] = [37, 7]
    assert verify_document(bad) == ["claimed failing primes are not strictly ascending"]
    bad["evidence"]["failing_primes"] = [7, 7, 37]
    assert verify_document(bad) == ["claimed failing primes are not strictly ascending"]
    for lo, hi in ((8, 100), (2, 36)):
        bad = json.loads(json.dumps(doc))
        bad["evidence"]["params"].update(lo=lo, hi=hi)
        assert verify_document(bad) == ["claimed failing primes lie outside the scanned range"]


def test_rejects_composite_failing_primes():
    doc = doc_for([2, 3, 12], 3, attach_evidence=True, evidence_hi=100)
    assert doc["evidence"]["failing_primes"] == [7, 37]
    doc["evidence"]["failing_primes"] = [7, 25, 37]  # the set "fails" mod 25
    assert verify_document(doc) == ["claimed failing prime 25 is not prime"]
    # above the prime table each listed number is tested on its own: 2^22 + 3 =
    # 13 * 19 * 16981, and no element is a cube residue modulo it
    doc["evidence"]["params"]["hi"] = 4194307
    doc["evidence"]["failing_primes"] = [7, 37, 4194307]
    assert verify_document(doc) == ["claimed failing prime 4194307 is not prime"]


def test_the_first_faulty_claim_is_named():
    # one claim check: 11 does not fail (2 is a cube mod 11) and comes before
    # the composite 25, so it is the claim named, whatever its fault
    doc = doc_for([2, 3, 12], 3, attach_evidence=True, evidence_hi=100)
    doc["evidence"]["failing_primes"] = [7, 11, 25, 37]
    assert verify_document(doc) == ["claimed failing prime 11 does not fail"]


def test_even_refutation_is_checked_in_its_class():
    # [2, 3, 7, 11] fails for n = 6 at t = 5 mod 12: g = 2, the sign pinned
    # to h = 2 = 0 mod 2, and 3 to the parity of (3/5) = -1
    doc = doc_for([2, 3, 7, 11], 6)
    cert = doc["certificate"]
    assert (cert["support"], cert["t"], cert["point"]) == ([-1, 2, 3, 7, 11], 5,
                                                           [0, 1, 1, 1, 1])
    assert verify_document(doc) == []
    pinned = "point is not pinned to the sign and parities of class {}"
    for change, problem in [
            ({"t": 4}, "class 4 is not an odd unit below 2n"),   # even
            ({"t": 9}, "class 9 is not an odd unit below 2n"),   # shares 3 with 6
            ({"t": 13}, "class 13 is not an odd unit below 2n"),  # past 2n
            ({"t": 1}, pinned.format(1)),    # (3/1) = 1 wants 3 even
            ({"t": 7}, pinned.format(7)),    # the sign wants h = 3 mod 6
            ({"t": 11}, pinned.format(11)),  # the sign wants h = 5 = 1 mod 2
            ({"point": [0, 1, 0, 1, 1]}, pinned.format(5)),  # wrong parity at 3
            ({"point": [1, 1, 1, 1, 1]}, pinned.format(5))]:  # sign not h mod 2
        mutant = json.loads(json.dumps(doc))
        mutant["certificate"].update(change)
        assert verify_document(mutant) == [problem], change


def test_even_cover_needs_every_column():
    # {-27, 4} holds for n = 6 with both columns; either alone leaves a hole
    doc = doc_for([-27, 4], 6)
    assert doc["certificate"]["coeffs"] == [[1, 0, 3], [0, 2, 0]]
    assert verify_document(doc) == []
    for i in range(2):
        dropped = json.loads(json.dumps(doc))
        del dropped["certificate"]["coeffs"][i]
        assert verify_document(dropped) == ["claimed cover has a hole"]


def test_even_cover_recheck_shares_one_budget(monkeypatch):
    # the walk over the 6 odd t below 12 takes 6 values and the classes
    # t = 1 and t = 7 of [4, 9, 36, 324, 5] for n = 6 take 5 and 9, t = 5
    # and t = 11 none: 20 together, each search alone under 19
    import locus.verify
    doc = doc_for([4, 9, 36, 324, 5], 6)
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 19)
    assert verify_document(doc) == ["cover too large to re-check"]
    monkeypatch.setattr(locus.verify, "COVER_RECHECK_LIMIT", 20)
    assert verify_document(doc) == []
    cert = doc["certificate"]
    for t in (1, 5, 7, 11):
        g, pins = locus.verify._class(6, cert["support"], t)
        moved = [[b * c for (_, b), c in zip(pins, col)] for col in cert["coeffs"]]
        shift = [sum(a * c for (a, _), c in zip(pins, col)) for col in cert["coeffs"]]
        assert not locus.verify._misses(moved, g, shift, iter(range(19)))


def test_forged_cover_of_a_large_even_n_is_refused_at_once():
    # the walk over the 10^9 odd t below 2n would pass the re-check limit
    doc = {"elements": ["2"], "n": 2 * 10**9, "status": "holds",
           "certificate": {"kind": "hyperplane_cover", "q": 2 * 10**9,
                           "support": [-1, 2], "coeffs": [[0, 1]]}}
    assert verify_document(doc) == ["cover too large to re-check"]



# the large-factors benchmark's shapes: p in (10^6, 10^7) times q in
# (10^7, 10^9), and a 22-digit semiprime
SEMIPRIMES = [4123477 * 496399531, 1251671 * 48281881, 10000019 * 130000000000063]


def test_large_supports_verify_without_rho(monkeypatch):
    # the excluded primes name every large support prime, so the verifier
    # factors each element without splitting a composite cofactor
    from locus import primes
    a, b, c = SEMIPRIMES
    sets = [([str(a), "2", "3"], 3), ([str(c), "7"], 3), ([str(a), str(b), str(a * b * 9)], 2),
            ([str(c), "5", "-3"], 6), ([str(b**3), "2"], 3), ([str(a), str(c), "11"], 5)]
    docs = [doc_for(elements, n) for elements, n in sets]
    assert {d["status"] for d in docs} == {"holds", "fails"}

    def no_rho(*args):
        raise AssertionError("rho ran")
    monkeypatch.setattr(primes, "_brent_rho", no_rho)
    for doc in docs:
        assert verify_document(doc) == [], doc


def test_hints_accept_supports_beyond_the_factoring_bounds():
    # p * q is above the deterministic bound and rho gives up on it, so
    # without hints this true refutation was refused as malformed; 13 is
    # a prime where p * q = 4 is no cube
    p, q = 10**20 + 39, 10**22 + 9
    doc = {"n": 3, "elements": [str(p * q)], "status": "fails",
           "certificate": {"kind": "uncovered_point", "q": 3, "support": [p, q],
                           "coeffs": [[1, 1]], "point": [1, 0], "counterexample_prime": 13},
           "excluded_primes": [2, 3, p, q]}
    assert verify_document(doc) == []
    doc["certificate"]["counterexample_prime"] = 7  # 4 = 4^3 mod 7
    assert verify_document(doc) == ["counterexample prime does not fail"]
    doc["certificate"]["counterexample_prime"] = 13
    doc["excluded_primes"] = [2, 3, p * q]  # a composite entry is no hint
    assert verify_document(doc) == [f"too large to re-check: rho splitter gave up on {p * q}"]


def test_missing_and_composite_hints():
    a = SEMIPRIMES[0]
    doc = doc_for([str(a), "2", "3"], 3)
    p, q = 4123477, 496399531
    assert {p, q} <= set(doc["excluded_primes"])
    # without an entry the element is factored the long way, and the list
    # is refused as incomplete
    short = json.loads(json.dumps(doc))
    short["excluded_primes"].remove(q)
    assert verify_document(short) == [f"excluded primes omit [{q}]"]
    # a composite entry dividing an element is not used, and is refused
    for entries in ([2, 3, a], [2, 3, p, q, a]):
        bad = json.loads(json.dumps(doc))
        bad["excluded_primes"] = entries
        assert verify_document(bad) == [f"excluded entry {a} is not prime"]
    # a field that is no list gives no hints, and fails as before
    bad = json.loads(json.dumps(doc))
    bad["excluded_primes"] = 7
    assert verify_document(bad)[0].startswith("malformed document: TypeError")


def test_support_primes_are_certified_by_the_factorization(monkeypatch):
    # the verifier's own factorization proves each support prime prime, so
    # the excluded-prime check runs Miller-Rabin only on the other entries,
    # here the extra entry 5
    import locus.verify
    from locus.primes import is_prime
    doc = doc_for([str(SEMIPRIMES[0]), "2", "3"], 3)
    doc["excluded_primes"] = sorted(doc["excluded_primes"] + [5])
    asked = []
    monkeypatch.setattr(locus.verify, "is_prime", lambda p: asked.append(p) or is_prime(p))
    assert verify_document(doc) == [] and 5 in asked
    assert not {4123477, 496399531, 2, 3} & set(asked), asked


def test_evidence_arithmetic_must_match_the_document():
    doc = doc_for(["2", "3"], 3, attach_evidence=True, evidence_hi=2000)
    ev = doc["evidence"]
    assert len(ev["failing_primes"]) == 67 and ev["tested_count"] == 301
    assert ev["failing_density"] == "67/301"
    assert verify_document(doc) == []
    forgeries = [
        ({"failing_density": "1/2"}, "failing density is not failing primes over primes tested"),
        ({"failing_density": "134/602"},
         "failing density is not failing primes over primes tested"),
        ({"tested_count": 5}, "more failing primes claimed than primes tested"),
        ({"params": dict(ev["params"], elements=["5", "7"])},
         "evidence elements are not the cleared element set"),
        ({"params": dict(ev["params"], excluded=[])},
         "evidence exclusions differ from the excluded primes"),
        ({"params": dict(ev["params"], lo=2001), "failing_primes": []},
         "scanned range has lo above hi"),
        # a count inflated with its density: pi(2000) = 303 < 330, the bound
        ({"tested_count": 1000, "failing_density": "67/1000"},
         "more primes tested than the scanned range holds"),
        ({"tested_count": 331, "failing_density": "67/331"},
         "more primes tested than the scanned range holds"),
        # [1990, 2000] has 5 odd numbers: at most 7 primes tested
        ({"params": dict(ev["params"], lo=1990), "failing_primes": [1993],
          "tested_count": 8, "failing_density": "1/8"},
         "more primes tested than the scanned range holds"),
        ({"params": dict(ev["params"], lo=1, hi=1), "failing_primes": [],
          "tested_count": 1, "failing_density": "0/1"},
         "more primes tested than the scanned range holds"),
    ]
    for change, message in forgeries:
        bad = json.loads(json.dumps(doc))
        bad["evidence"].update(change)
        assert verify_document(bad) == [message], change
    # the bounds themselves are accepted
    for change in ({"tested_count": 330, "failing_density": "67/330"},
                   {"params": dict(ev["params"], lo=1990), "failing_primes": [1993],
                    "tested_count": 7, "failing_density": "1/7"}):
        ok = json.loads(json.dumps(doc))
        ok["evidence"].update(change)
        assert verify_document(ok) == [], change
    # a scan with nothing tested has density 0/1, and denominators are cleared
    doc = doc_for(["2", "3"], 3, attach_evidence=True, evidence_hi=2)
    assert doc["evidence"]["failing_density"] == "0/1"
    assert verify_document(doc) == []
    doc = doc_for(["1/2", "3", "12"], 3, attach_evidence=True, evidence_hi=300)
    assert doc["evidence"]["params"]["elements"] == ["4", "24", "96"]  # times 2^3
    assert verify_document(doc) == []


def test_excluded_primes_must_be_complete():
    # 2, the primes of n and every support prime; a superset is accepted
    doc = doc_for(["2", "3", "6", "18"], 3)
    assert doc["status"] == "holds" and doc["excluded_primes"] == [2, 3]
    assert verify_document(doc) == []
    for entries, missing in (([2], [3]), ([], [2, 3]), ([3, 5], [2])):
        bad = dict(doc, excluded_primes=entries)
        assert verify_document(bad) == [f"excluded primes omit {missing}"], entries
    del doc["excluded_primes"]
    assert verify_document(doc) == ["excluded primes omit [2, 3]"]
    assert verify_document(dict(doc, excluded_primes=[2, 3, 7])) == []
    # the primes of n count though no element has them, and so do the
    # primes of a denominator
    doc = doc_for(["2", "7/5"], 15)
    assert doc["excluded_primes"] == [2, 3, 5, 7]
    assert verify_document(doc) == []
    assert verify_document(dict(doc, excluded_primes=[2, 5, 7])) == [
        "excluded primes omit [3]"]
    assert verify_document(dict(doc, excluded_primes=[2, 3, 7])) == [
        "excluded primes omit [5]"]


def int_paths(node, path=()):
    """The path of every int in a JSON document."""
    if type(node) is int:
        yield path
    elif isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from int_paths(value, path + (key,))


def test_integer_fields_must_be_ints():
    # a float or a bool equal to an integer field, or to any entry of one,
    # is refused in documents of every kind, with evidence too
    docs = [doc_for([2, 3, 6, 18], 3, attach_evidence=True, evidence_hi=100),
            doc_for([2, 3, 12], 3, attach_evidence=True, evidence_hi=100),
            doc_for([2, 3, 5], 4), doc_for([512, 5], 9)]
    kinds = {doc["certificate"]["kind"] for doc in docs}
    assert kinds == {"hyperplane_cover", "uncovered_point", "perfect_power_member"}
    for doc in docs:
        assert verify_document(doc) == []
        paths = list(int_paths(doc))
        for path in paths:
            for retype in (float, bool):
                bad = json.loads(json.dumps(doc))
                node = bad
                for key in path[:-1]:
                    node = node[key]
                if retype is bool and node[path[-1]] not in (0, 1):
                    continue
                node[path[-1]] = retype(node[path[-1]])
                problems = verify_document(bad)
                assert len(problems) == 1 and "not an integer" in problems[0], (path, problems)
    # among them the fields where a float once passed
    assert {("certificate", "q"), ("certificate", "exponent"),
            ("certificate", "t"), ("certificate", "point", 0),
            ("certificate", "support", 0), ("excluded_primes", 0),
            ("evidence", "params", "k"), ("evidence", "params", "lo"),
            ("evidence", "params", "hi")} <= {p for doc in docs for p in int_paths(doc)}


def test_refutation_of_a_set_with_an_nth_power_is_refused():
    # 8 is a cube: its column is zero, and no uncovered point refutes {2, 8}
    doc = {"n": 3, "elements": ["2", "8"], "status": "fails",
           "certificate": {"kind": "uncovered_point", "q": 3, "support": [2],
                           "coeffs": [[1]], "point": [1]},
           "excluded_primes": [2, 3]}
    assert verify_document(doc) == ["element 8 is an n-th power for n = 3"]
    doc["elements"] = ["-1/27", "2"]
    assert verify_document(doc) == ["element -729 is an n-th power for n = 3"]


def test_rational_fields_must_be_strings():
    # elements, a member's element and its root are strings; factor would
    # read an int or a float as well, a float as its binary value
    docs = [doc_for([2, 3, 6, 18], 3), doc_for(["1/2", 3, 6], 3), doc_for([512, 5], 9)]
    assert docs[-1]["certificate"]["kind"] == "perfect_power_member"
    paths = [(doc, ("elements", i)) for doc in docs for i in range(len(doc["elements"]))]
    paths += [(docs[-1], ("certificate", "element")), (docs[-1], ("certificate", "root"))]
    for doc, (key, sub) in paths:
        assert verify_document(doc) == []
        value = Fraction(doc[key][sub])
        retyped = [float(value), True] + ([int(value)] if value.denominator == 1 else [])
        for bad_value in retyped:
            bad = json.loads(json.dumps(doc))
            bad[key][sub] = bad_value
            problems = verify_document(bad)
            assert len(problems) == 1 and problems[0].endswith(
                f"{bad_value!r} is not a string"), (key, sub, problems)
    # the string need not be canonical: "02" is a true claim about 2
    doc = json.loads(json.dumps(docs[0]))
    doc["elements"][0] = "02"
    assert verify_document(doc) == []


def test_elements_must_be_a_list():
    # a bare string would be read character by character: "23" as 2 and 3
    doc = doc_for(["2", "3"], 3)
    assert doc["status"] == "fails" and verify_document(doc) == []
    for bad_value in ("23", ("2", "3"), {"2": 1, "3": 1}):
        bad = json.loads(json.dumps(doc))
        bad["elements"] = bad_value
        assert verify_document(bad) == [f"elements {bad_value!r} is not a list"]


def test_an_empty_element_list_is_refused():
    # decide has no verdict on the empty set, so no document of it is true;
    # these refutations were accepted, their columns vacuously uncovered
    with pytest.raises(ZeroInput):
        decide([], 3)
    docs = [{"n": 3, "elements": [], "status": "fails", "excluded_primes": [2, 3],
             "certificate": {"kind": "uncovered_point", "q": 3, "support": [],
                             "coeffs": [], "point": []}},
            {"n": 4, "elements": [], "status": "fails", "excluded_primes": [2],
             "certificate": {"kind": "uncovered_point", "q": 4, "support": [-1],
                             "coeffs": [], "point": [0], "t": 1}}]
    for doc in docs:
        assert verify_document(doc) == ["elements is empty: an empty set has no verdict"]


def test_zero_denominator_elements_are_refused():
    doc = doc_for(["2", "3"], 3)
    for bad_value in ("1/0", "-3/0", "0/0"):
        bad = json.loads(json.dumps(doc))
        bad["elements"] = [bad_value, "3"]
        assert verify_document(bad) == [
            f"malformed document: ParseError(\"zero denominator: '{bad_value}'\")"]


def test_oversized_literals_are_refused_by_the_cap():
    # a literal past rationals.DIGIT_CAP was refused by the interpreter's own
    # limit on int conversions, as a ValueError that did not name it
    doc = doc_for(["2", "3"], 3)
    for bad_value in ("7" * 5000, f"-1/{'3' * 4001}"):
        bad = json.loads(json.dumps(doc))
        bad["elements"] = [bad_value, "3"]
        problems = verify_document(bad)
        assert len(problems) == 1 and "DIGIT_CAP = 4000" in problems[0], problems
        assert problems[0].startswith("too large to re-check: "), problems
    # the member a document would need for 1/2^12000 at 3, 2^24000
    member = {"n": 3, "elements": [f"1/{2**12000}"], "status": "holds",
              "certificate": {"kind": "perfect_power_member", "element": "1" + "0" * 7224,
                              "root": str(2**8000), "exponent": 3},
              "excluded_primes": [2, 3]}
    problems = verify_document(member)
    assert len(problems) == 1 and "DIGIT_CAP = 4000" in problems[0], problems
    assert problems[0].startswith("too large to re-check: "), problems


def test_verdict_writes_elements_as_strings():
    v = decide([2, 3, 6, 18], 3)
    doc = v.to_json(3, [2, 3, 6, 18])
    assert doc["elements"] == ["2", "3", "6", "18"]
    assert doc == v.to_json(3, ["2", "3", "6", "18"]) and verify_document(doc) == []


def test_image_generators_span_the_image():
    """The verifier's own elimination, on seeded matrices over Z/n with
    full rank before the last column and zero or repeated columns among
    them: each h has additive order m, and the h span the image {x . E}."""
    for n, s, cols in elimination_cases(13, 400):
        gens = _image_generators(cols, n)
        assert len(gens) <= s
        assert all(m == additive_order(h, n) for h, m in gens)
        assert span([(m, h) for h, m in gens], n, len(cols)) == image(cols, n, s), (n, s, cols)
