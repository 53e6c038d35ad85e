"""Command-line front end.

Subcommands: decide, sieve, oracle, generate, verify-certificate.  Output is
deterministic JSON (fixed field order, normalized rationals) so runs can be
diffed and scripted.  oracle is decide, byte for byte, on an odd prime
power n, and a parse error on any other; it is kept for the benchmark's
command mix.  Exit codes: 0 holds / 1 fails for decisions, 2 usage error
(argparse's SystemExit: a missing --n, or --n x), 3 parse error, 4
capacity error, 5 internal inconsistency.  The parser is built by the first
main call and reused by every later one in the process; argparse keeps no
state between calls on it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from fractions import Fraction

from . import families
from .classify import decide
from .errors import (DegenerateParameters, FactorizationCapacityExceeded,
                     InstanceTooLarge, InternalInconsistency, LocusError,
                     ParseError, RangeTooLarge, ZeroInput)
from .primes import prime_power_split
from .rationals import factor_set, parse_rational
from .sieve import scan
from .verdicts import FAILS, HOLDS
from .verify import TOO_LARGE, verify_document

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_PARSE = 3
EXIT_CAPACITY = 4
EXIT_INCONSISTENT = 5

_STATUS_EXIT = {HOLDS: EXIT_HOLDS, FAILS: EXIT_FAILS}

_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")

# generate's integer-argument families: constructor and its int --flags, in order
_FAMILIES = {
    "cubic-quad": (families.cubic_quad, ("a", "b")),
    "square-triple": (families.square_triple, ("p1", "p2")),
    "odd-optimal": (families.odd_optimal, ("q1", "q2", "n")),
    "even-optimal": (families.even_optimal, ("q1", "q2", "n")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locus",
        description="Decide whether a finite set of rationals contains an "
                    "n-th power in Q_p for almost every prime p.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_elements(p):
        p.add_argument("--elem", action="append", default=[],
                       help="element (integer or num/den); repeatable")
        p.add_argument("--file", help="file with one element per line")
        # argparse reads an argument as a value, not an option, when this
        # matches it: a minus then a digit, so -3/4 is a value and a
        # malformed one such as -3/-4 is a parse error, as after --elem=
        p._negative_number_matcher = _NEGATIVE_NUMBER

    p_decide = sub.add_parser("decide", help="full decision with certificate")
    p_decide.add_argument("--n", type=int, required=True)
    add_elements(p_decide)
    p_decide.add_argument("--evidence", action="store_true",
                          help="attach a sieve report to the verdict")
    p_decide.add_argument("--json", dest="json_path",
                          help="also write the JSON document to this path")

    p_sieve = sub.add_parser("sieve", help="scan a prime range for failures")
    p_sieve.add_argument("--n", type=int, required=True)
    add_elements(p_sieve)
    p_sieve.add_argument("--lo", type=int, default=2)
    p_sieve.add_argument("--hi", type=int, required=True)
    p_sieve.add_argument("--json", dest="json_path")

    p_oracle = sub.add_parser("oracle", help="decide for an odd prime power n, "
                                             "kept for the benchmark's command mix")
    p_oracle.add_argument("--n", type=int, required=True)
    add_elements(p_oracle)
    p_oracle.add_argument("--json", dest="json_path")
    p_oracle.set_defaults(evidence=False)

    p_gen = sub.add_parser("generate", help="emit a witness family as JSON")
    p_gen.add_argument("--family", required=True,
                       choices=["cubic-quad", "square-triple", "lifted",
                                "odd-optimal", "even-optimal", "exceptional-pair"])
    # --n, shared with exceptional-pair, leads; lifted's --e closes
    for flag in dict.fromkeys(["n", *(f for _, fs in _FAMILIES.values() for f in fs), "e"]):
        p_gen.add_argument(f"--{flag}", type=int)
    add_elements(p_gen)
    p_gen.add_argument("--case", dest="case_tag")
    p_gen.add_argument("--j", type=int)
    p_gen.add_argument("--alpha1")
    p_gen.add_argument("--alpha2")
    p_gen.add_argument("--json", dest="json_path")

    p_verify = sub.add_parser("verify-certificate",
                              help="re-check a serialized verdict document")
    p_verify.add_argument("path", help="verdict JSON file, or - for stdin")

    return parser


def _load_elements(args) -> list[Fraction]:
    out = list(args.elem)
    if args.file:
        with open(args.file) as fh:
            out.extend(line.strip() for line in fh if line.strip())
    if not out:
        raise ParseError("no elements given (use --elem or --file)")
    return [parse_rational(e) for e in out]  # every literal read once, up front


def _emit(doc: dict, json_path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    sys.stdout.write(text)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text)


def _run_decide(args) -> int:
    elements = _load_elements(args)
    if args.n < 2:
        raise ParseError("--n must be >= 2")
    xs = factor_set(elements)
    verdict = decide(xs, args.n, attach_evidence=args.evidence)
    _emit(verdict.to_json(args.n, xs), args.json_path)
    return _STATUS_EXIT[verdict.status]


def _run_sieve(args) -> int:
    elements = _load_elements(args)
    if args.n < 1:
        raise ParseError("--n must be >= 1")
    if args.lo > args.hi:
        raise ParseError(f"--lo {args.lo} exceeds --hi {args.hi}")
    report = scan(elements, args.n, args.lo, args.hi)
    _emit(report.to_json(), args.json_path)
    return 0


def _run_oracle(args) -> int:
    if args.n < 2 or args.n % 2 == 0 or len(prime_power_split(args.n)) != 1:
        raise ParseError("oracle exponent must be an odd prime power")
    return _run_decide(args)


def _run_generate(args) -> int:
    kind = args.family
    if kind in _FAMILIES:
        make, flags = _FAMILIES[kind]
        values = [getattr(args, flag) for flag in flags]
        if None in values:
            *head, last = (f"--{flag}" for flag in flags)
            raise ParseError(f"{kind} needs {', '.join(head)} and {last}")
        fam = make(*values)
    elif kind == "lifted":
        if args.e is None:
            raise ParseError("lifted needs --e and elements")
        fam = families.lifted(_load_elements(args), args.e)
    else:
        if None in (args.n, args.case_tag, args.alpha1, args.alpha2):
            raise ParseError("exceptional-pair needs --n, --case, --alpha1, --alpha2")
        try:  # the one literal grammar; a zero alpha keeps families' message
            alphas = parse_rational(args.alpha1), parse_rational(args.alpha2)
        except ZeroInput:
            raise DegenerateParameters("alpha parameters must be nonzero") from None
        fam = families.exceptional_pair(args.n, args.case_tag, args.j, *alphas)
    _emit([str(x) for x in fam], args.json_path)
    return 0


def _run_verify(args) -> int:
    try:
        with contextlib.nullcontext(sys.stdin) if args.path == "-" else open(args.path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeError):
        raise
    except ValueError as exc:  # json's int() past the interpreter's digit limit
        raise FactorizationCapacityExceeded(f"a JSON integer too long: {exc}") from None
    problems = verify_document(doc)
    _emit({"valid": not problems, "problems": problems}, None)
    too_large = problems and problems[0].startswith(TOO_LARGE)
    return EXIT_CAPACITY if too_large else EXIT_FAILS if problems else EXIT_HOLDS


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = {"decide": _run_decide, "sieve": _run_sieve, "oracle": _run_oracle,
               "generate": _run_generate, "verify-certificate": _run_verify}
        return run[args.command](args)
    except (FactorizationCapacityExceeded, RangeTooLarge, InstanceTooLarge) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InternalInconsistency as exc:
        print(f"INTERNAL INCONSISTENCY (bug): {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (LocusError, json.JSONDecodeError, UnicodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
