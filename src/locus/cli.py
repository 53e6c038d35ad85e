"""Command-line front end.

Subcommands: decide, sieve, oracle, generate, verify-certificate.  Output is
deterministic JSON (fixed field order, normalized rationals) so runs can be
diffed and scripted.  Exit codes: 0 holds / 1 fails for decisions, 2 usage
error (argparse's SystemExit: a missing --n, or --n x), 3 parse error, 4
capacity error, 5 internal inconsistency.  The parser is built by the first
main call and reused by every later one in the process; argparse keeps no
state between calls on it.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import families
from .classify import decide
from .covering import ENUMERATION_CEILING
from .errors import (FactorizationCapacityExceeded, InstanceTooLarge,
                     InternalInconsistency, LocusError, OracleLimitExceeded,
                     ParseError, RangeTooLarge, ZeroInput)
from .prime_power import skalba_oracle
from .primes import prime_power_split
from .rationals import factor_set, parse_rational
from .sieve import scan
from .verdicts import FAILS, HOLDS
from .verify import verify_document

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_PARSE = 3
EXIT_CAPACITY = 4
EXIT_INCONSISTENT = 5

_STATUS_EXIT = {HOLDS: EXIT_HOLDS, FAILS: EXIT_FAILS}

_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


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
        # matches it; its own pattern knows -3 and -1.5 but not -3/4
        p._negative_number_matcher = _NEGATIVE_NUMBER

    p_decide = sub.add_parser("decide", help="full decision with certificate")
    p_decide.add_argument("--n", type=int, required=True)
    add_elements(p_decide)
    p_decide.add_argument("--ceiling", type=int, default=ENUMERATION_CEILING,
                          help="bound on the candidates the cover search tries")
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

    p_oracle = sub.add_parser("oracle", help="exhaustive subset-product oracle "
                                             "(n must be an odd prime power)")
    p_oracle.add_argument("--n", type=int, required=True)
    add_elements(p_oracle)
    p_oracle.add_argument("--json", dest="json_path")

    p_gen = sub.add_parser("generate", help="emit a witness family as JSON")
    p_gen.add_argument("--family", required=True,
                       choices=["cubic-quad", "square-triple", "lifted",
                                "odd-optimal", "even-optimal", "exceptional-pair"])
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--a", type=int)
    p_gen.add_argument("--b", type=int)
    p_gen.add_argument("--p1", type=int)
    p_gen.add_argument("--p2", type=int)
    p_gen.add_argument("--q1", type=int)
    p_gen.add_argument("--q2", type=int)
    p_gen.add_argument("--e", type=int)
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


def _load_elements(args) -> list[str]:
    out = list(args.elem)
    if args.file:
        with open(args.file) as fh:
            out.extend(line.strip() for line in fh if line.strip())
    if not out:
        raise ParseError("no elements given (use --elem or --file)")
    for e in out:
        parse_rational(e)
    return out


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
    verdict = decide(xs, args.n, ceiling=args.ceiling, attach_evidence=args.evidence)
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
    elements = _load_elements(args)
    if args.n < 2:
        raise ParseError("--n must be >= 2")
    split = prime_power_split(args.n)
    if len(split) != 1 or split[0][0] == 2:
        raise ParseError("oracle exponent must be an odd prime power")
    q, m = split[0]
    xs = factor_set(elements)
    verdict = skalba_oracle(xs, q, m)
    _emit(verdict.to_json(args.n, xs), args.json_path)
    return _STATUS_EXIT[verdict.status]


def _run_generate(args) -> int:
    kind = args.family
    if kind == "cubic-quad":
        if args.a is None or args.b is None:
            raise ParseError("cubic-quad needs --a and --b")
        fam = families.cubic_quad(args.a, args.b)
    elif kind == "square-triple":
        if args.p1 is None or args.p2 is None:
            raise ParseError("square-triple needs --p1 and --p2")
        fam = families.square_triple(args.p1, args.p2)
    elif kind == "lifted":
        if args.e is None:
            raise ParseError("lifted needs --e and elements")
        fam = families.lifted(_load_elements(args), args.e)
    elif kind == "odd-optimal":
        if args.q1 is None or args.q2 is None or args.n is None:
            raise ParseError("odd-optimal needs --q1, --q2 and --n")
        fam = families.odd_optimal(args.q1, args.q2, args.n)
    elif kind == "even-optimal":
        if args.q1 is None or args.q2 is None or args.n is None:
            raise ParseError("even-optimal needs --q1, --q2 and --n")
        fam = families.even_optimal(args.q1, args.q2, args.n)
    else:
        if args.n is None or args.case_tag is None or args.alpha1 is None \
                or args.alpha2 is None:
            raise ParseError("exceptional-pair needs --n, --case, --alpha1, --alpha2")
        fam = families.exceptional_pair(args.n, args.case_tag, args.j,
                                        args.alpha1, args.alpha2)
    _emit([str(x) for x in fam], args.json_path)
    return 0


def _run_verify(args) -> int:
    if args.path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.path) as fh:
            doc = json.load(fh)
    problems = verify_document(doc)
    _emit({"valid": not problems, "problems": problems}, None)
    return 1 if problems else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = {"decide": _run_decide, "sieve": _run_sieve, "oracle": _run_oracle,
               "generate": _run_generate, "verify-certificate": _run_verify}
        return run[args.command](args)
    except (ParseError, ZeroInput, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (FactorizationCapacityExceeded, RangeTooLarge, InstanceTooLarge,
            OracleLimitExceeded) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InternalInconsistency as exc:
        print(f"INTERNAL INCONSISTENCY (bug): {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except LocusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
