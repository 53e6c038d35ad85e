"""Verdicts and machine-checkable certificates.

A Verdict is Holds or Fails plus a certificate object and the finite set of
primes the claim excludes.  Every certificate carries enough data to be
re-verified without trusting the engine (see locus.verify).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Union

HOLDS = "holds"
FAILS = "fails"


class _Certificate:
    """Serialization shared by the certificates: the kind, then each field
    in order, tuples as lists; an optional field is left out while unset."""

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                doc[f.name] = _plain(value)
        return doc


def _plain(value):
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class PerfectPowerMember(_Certificate):
    """Some element is r^n outright."""

    kind = "perfect_power_member"
    element: str
    root: str
    exponent: int


@dataclass(frozen=True)
class HyperplaneCover(_Certificate):
    """The exponent vectors mod q = n of the classes, over the support (for
    even n led by the sign entry -1), cover every class of Frobenius
    elements: see covering.cover_verdict."""

    kind = "hyperplane_cover"
    q: int
    support: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class UncoveredPoint(_Certificate):
    """A Frobenius element that fixes no root: a point mod g = gcd(t - 1, n)
    off every form, q = n; t, the class mod 2n, is set for even n only."""

    kind = "uncovered_point"
    q: int
    support: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]
    point: tuple[int, ...]
    t: Optional[int] = None
    counterexample_prime: Optional[int] = None


@dataclass(frozen=True)
class SkalbaWitness(_Certificate):
    """Exponent tuple admitting no subset pair with perfect-power ratio."""

    kind = "skalba_witness"
    c: tuple[int, ...]
    q: int
    m: int
    counterexample_prime: Optional[int] = None


@dataclass(frozen=True)
class OracleExhaustion(_Certificate):
    """Every exponent tuple admitted a satisfying subset pair."""

    kind = "oracle_exhaustion"
    q: int
    m: int
    tuples_checked: int


Certificate = Union[
    PerfectPowerMember, HyperplaneCover, UncoveredPoint, SkalbaWitness,
    OracleExhaustion,
]


@dataclass(frozen=True)
class Verdict:
    status: str
    certificate: Certificate
    excluded_primes: frozenset[int] = field(default_factory=frozenset)
    evidence: Optional[dict] = None  # optional attached sieve report

    def holds(self) -> bool:
        return self.status == HOLDS

    def fails(self) -> bool:
        return self.status == FAILS

    def to_json(self, n: int, elements: list[str]) -> dict:
        doc = {
            "n": n,
            "elements": list(elements),
            "status": self.status,
            "certificate": self.certificate.to_json(),
            "excluded_primes": sorted(self.excluded_primes),
        }
        if self.evidence is not None:
            doc["evidence"] = self.evidence
        return doc
