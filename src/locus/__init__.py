"""locus: decide whether a finite set of nonzero rationals contains an
n-th power in Q_p for almost every prime p, with machine-checkable
certificates and an independent residue sieve."""

from .classify import ExceptionalForm, decide, match_exceptional_pair
from .covering import covers, decide_q
from .errors import LocusError
from .families import (cubic_quad, even_optimal, exceptional_pair, lifted,
                       odd_optimal, square_triple)
from .prime_power import decide_prime_power, exponentiate_classes, skalba_oracle
from .rationals import (FactoredRational, clear_denominators, factor,
                        is_perfect_power, parse_rational)
from .sieve import SieveReport, find_counterexample, scan
from .squares import decide_square
from .verdicts import FAILS, HOLDS, Verdict
from .verify import verify_document

__all__ = [
    "FAILS", "HOLDS",
    "ExceptionalForm", "FactoredRational", "LocusError", "SieveReport",
    "Verdict", "clear_denominators", "covers", "cubic_quad", "decide",
    "decide_prime_power", "decide_q", "decide_square", "even_optimal",
    "exceptional_pair", "exponentiate_classes", "factor", "find_counterexample",
    "is_perfect_power", "lifted", "match_exceptional_pair",
    "odd_optimal", "parse_rational", "scan", "skalba_oracle", "square_triple",
    "verify_document",
]
