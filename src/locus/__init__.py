"""locus: decide whether a finite set of nonzero rationals contains an
n-th power in Q_p for almost every prime p, with machine-checkable
certificates and an independent residue sieve."""

from .classify import (ExceptionalForm, classify_singleton, decide,
                       match_exceptional_pair)
from .covering import (ExponentMatrixModQ, Hyperplane, Covered, Uncovered,
                       build_hyperplanes, covers, decide_q)
from .errors import LocusError
from .families import (cubic_quad, even_optimal, exceptional_pair, lifted,
                       odd_optimal, square_triple)
from .prime_power import decide_prime_power, exponentiate_classes, skalba_oracle
from .rationals import (FactoredRational, PowerClass, clear_denominators,
                        dedupe, factor, is_perfect_power, parse_rational,
                        reduce_class, strip_power_layers)
from .sieve import (SieveReport, find_counterexample, is_kth_power_mod_p,
                    scan, set_has_kth_power_mod_p)
from .squares import decide_square, decide_two_power
from .verdicts import FAILS, HOLDS, INCONCLUSIVE, Verdict
from .verify import verify_document

__all__ = [
    "FAILS", "HOLDS", "INCONCLUSIVE",
    "Covered", "ExceptionalForm", "ExponentMatrixModQ", "FactoredRational",
    "Hyperplane", "LocusError", "PowerClass", "SieveReport", "Uncovered",
    "Verdict", "build_hyperplanes", "classify_singleton", "clear_denominators",
    "covers", "cubic_quad", "decide", "decide_prime_power", "decide_q",
    "decide_square", "decide_two_power", "dedupe", "even_optimal",
    "exceptional_pair", "exponentiate_classes", "factor", "find_counterexample",
    "is_kth_power_mod_p", "is_perfect_power", "lifted", "match_exceptional_pair",
    "odd_optimal", "parse_rational", "reduce_class", "scan",
    "set_has_kth_power_mod_p", "skalba_oracle", "square_triple",
    "strip_power_layers", "verify_document",
]
