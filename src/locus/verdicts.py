"""Verdicts and machine-checkable certificates.

A Verdict is Holds or Fails plus a certificate object and the finite set of
primes the claim excludes.  Every certificate carries enough data to be
re-verified without trusting the engine (see locus.verify).  All are
typing.NamedTuple records; a certificate's kind is a class attribute.  The
three records here are the kinds classify.decide emits and the only kinds
verify.ALLOWED_KINDS accepts.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

HOLDS = "holds"
FAILS = "fails"


def _certificate_json(self) -> dict:
    """The certificates' to_json: the kind, then each field in order, tuples
    as lists; a field whose default is None is left out while it is None."""
    doc = {"kind": self.kind}
    for name, value in zip(self._fields, self):
        if value is not None or self._field_defaults.get(name, ...) is not None:
            doc[name] = _plain(value)
    return doc


def _plain(value):
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


class PerfectPowerMember(NamedTuple):
    """Some element is r^n outright."""

    kind = "perfect_power_member"
    to_json = _certificate_json
    element: str
    root: str
    exponent: int


class HyperplaneCover(NamedTuple):
    """The exponent vectors mod q = n of the classes, over the support (for
    even n led by the sign entry -1), cover every class of Frobenius
    elements: see covering.cover_verdict."""

    kind = "hyperplane_cover"
    to_json = _certificate_json
    q: int
    support: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]


class UncoveredPoint(NamedTuple):
    """A Frobenius element that fixes no root: a point mod g = gcd(t - 1, n)
    off every form, q = n; t, the class mod 2n, is set for even n only."""

    kind = "uncovered_point"
    to_json = _certificate_json
    q: int
    support: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]
    point: tuple[int, ...]
    t: Optional[int] = None
    counterexample_prime: Optional[int] = None


class Verdict(NamedTuple):
    status: str
    certificate: PerfectPowerMember | HyperplaneCover | UncoveredPoint
    excluded_primes: frozenset[int] = frozenset()
    evidence: Optional[dict] = None  # optional attached sieve report

    def holds(self) -> bool:
        return self.status == HOLDS

    def fails(self) -> bool:
        return self.status == FAILS

    def to_json(self, n: int, elements) -> dict:
        doc = {
            "n": n,
            "elements": [str(e) for e in elements],
            "status": self.status,
            "certificate": self.certificate.to_json(),
            "excluded_primes": sorted(self.excluded_primes),
        }
        if self.evidence is not None:
            doc["evidence"] = self.evidence
        return doc
