import pytest

from locus.classify import decide
from locus.verdicts import (FAILS, HOLDS, HyperplaneCover, PerfectPowerMember,
                            UncoveredPoint, Verdict)

CERTIFICATES = [
    PerfectPowerMember("8", "2", 3),
    HyperplaneCover(3, (2, 3), ((1, 0), (0, 1), (1, 1), (1, 2))),
    UncoveredPoint(3, (2, 3), ((1, 0), (0, 1)), (1, 1)),
]


def test_verdicts_and_certificates_are_immutable():
    records = [*CERTIFICATES, *(Verdict(HOLDS, c) for c in CERTIFICATES),
               decide([2, 3, 6, 18], 3), decide([2, 3], 3)]
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1
    # the kind is a class attribute, not a field
    for cert in CERTIFICATES:
        assert "kind" not in cert._fields and cert.to_json()["kind"] == cert.kind
    assert Verdict(FAILS, CERTIFICATES[2]).excluded_primes == frozenset()


def test_optional_fields_are_written_once_set():
    point = CERTIFICATES[2]
    assert point.to_json() == {"kind": "uncovered_point", "q": 3, "support": [2, 3],
                               "coeffs": [[1, 0], [0, 1]], "point": [1, 1]}
    assert "t" not in point._replace(counterexample_prime=7).to_json()
    full = point._replace(t=5, counterexample_prime=7).to_json()
    assert list(full) == ["kind", "q", "support", "coeffs", "point", "t",
                          "counterexample_prime"]
    assert (full["t"], full["counterexample_prime"]) == (5, 7)
    assert "counterexample_prime" not in point._replace(t=5).to_json()
    assert point._replace(counterexample_prime=7).to_json()["counterexample_prime"] == 7
    # a field without a default is written even when it is None
    assert PerfectPowerMember("8", None, 3).to_json()["root"] is None
    # a failing decision sets the prime, and leaves t out for odd n
    cert = decide([2, 3], 3).certificate
    assert cert.counterexample_prime is not None and "t" not in cert.to_json()
