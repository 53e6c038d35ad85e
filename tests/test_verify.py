import json

from locus.classify import decide
from locus.rationals import factor
from locus.verify import verify_document


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
    doc = doc_for([3, 5, 15], 2)
    doc["certificate"]["indices"] = [1, 2]
    assert verify_document(doc)


def test_rejects_tampered_skalba_witness():
    # mixed stripping depths force the oracle path and a skalba certificate
    doc = doc_for([8, 5, 10, 50], 9)
    assert doc["certificate"]["kind"] == "skalba_witness"
    doc["certificate"]["c"] = [0, 0, 0, 0]  # the zero tuple is always satisfied
    assert verify_document(doc)


def test_rejects_fake_lift():
    doc = doc_for([4, 9, 36, 324], 6)
    doc["certificate"]["base_elements"] = ["2", "3", "6", "5"]
    assert verify_document(doc)


def test_rejects_wang_without_eight():
    doc = doc_for([16], 8)
    doc["n"] = 4
    doc["certificate"]["n"] = 4
    assert verify_document(doc)


def test_inconclusive_always_passes():
    doc = doc_for([2, 3, 5], 4)
    assert verify_document(doc) == []


def test_evidence_failing_primes_rechecked():
    doc = doc_for([2, 3, 12], 3, attach_evidence=True, evidence_hi=100)
    assert verify_document(doc) == []
    doc["evidence"]["failing_primes"] = [11]  # 2 is a cube mod 11
    assert verify_document(doc)


def test_round_trip_through_json():
    doc = doc_for([-27, 4], 6)
    assert verify_document(json.loads(json.dumps(doc))) == []
