import json

import pytest

import locus.cli
from locus.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_decide_holds_exit_zero(capsys):
    code, doc = run(capsys, "decide", "--n", "3", "--elem", "2", "--elem", "3",
                    "--elem", "6", "--elem", "18")
    assert code == 0
    assert doc["status"] == "holds"
    assert doc["certificate"]["kind"] == "hyperplane_cover"
    assert doc["excluded_primes"] == [2, 3]


def test_decide_wang_exception(capsys):
    code, doc = run(capsys, "decide", "--n", "8", "--elem", "16")
    assert code == 0
    assert doc["certificate"] == {"kind": "hyperplane_cover", "q": 8,
                                  "support": [-1, 2], "coeffs": [[0, 4]]}


def test_decide_fails_exit_one(capsys):
    code, doc = run(capsys, "decide", "--n", "3", "--elem", "2", "--elem", "3",
                    "--elem", "12")
    assert code == 1
    assert doc["certificate"]["point"] == [1, 2]
    assert doc["certificate"]["counterexample_prime"] == 7


def test_decide_even_triple_exit_one(capsys):
    # once inconclusive: [2, 3, 5] fails for n = 4 (density 35/128), first
    # at 17, in the class t = 3 mod 8
    code, doc = run(capsys, "decide", "--n", "4", "--elem", "2", "--elem", "3",
                    "--elem", "5")
    assert code == 1
    assert doc["certificate"] == {"kind": "uncovered_point", "q": 4,
                                  "support": [-1, 2, 3, 5],
                                  "coeffs": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                                  "point": [1, 1, 1, 1], "t": 3,
                                  "counterexample_prime": 17}


def test_sieve_report(capsys):
    code, doc = run(capsys, "sieve", "--n", "3", "--elem", "2", "--elem", "3",
                    "--elem", "12", "--hi", "100")
    assert code == 0
    assert 7 in doc["failing_primes"]
    assert doc["failing_primes"] == [7, 37]
    assert doc["params"]["k"] == 3
    num, den = doc["failing_density"].split("/")
    assert int(num) == 2 and int(den) == doc["tested_count"]


def test_oracle_requires_odd_prime_power(capsys):
    code, _ = run(capsys, "oracle", "--n", "6", "--elem", "2")
    assert code == 3
    code, doc = run(capsys, "oracle", "--n", "9", "--elem", "2", "--elem", "4",
                    "--elem", "8")
    assert code == 1
    assert doc["certificate"]["kind"] == "skalba_witness"


def test_generate_families(capsys):
    code, doc = run(capsys, "generate", "--family", "cubic-quad", "--a", "2",
                    "--b", "3")
    assert code == 0 and doc == ["2", "3", "6", "18"]

    code, doc = run(capsys, "generate", "--family", "exceptional-pair", "--n",
                    "6", "--case", "A0eq1", "--j", "3", "--alpha1", "1",
                    "--alpha2", "2")
    assert code == 0 and sorted(doc, key=lambda s: int(s)) == ["-27", "4"]

    code, doc = run(capsys, "generate", "--family", "lifted", "--e", "2",
                    "--elem", "2", "--elem", "3")
    assert code == 0 and doc == ["4", "9"]


def test_generate_every_family_needs_its_arguments(capsys):
    cases = [
        (["cubic-quad", "--a", "2", "--b", "3"], ["2", "3", "6", "18"]),
        (["square-triple", "--p1", "3", "--p2", "5"], ["3", "5", "15"]),
        (["lifted", "--e", "3", "--elem", "2", "--elem", "1/3"], ["8", "1/27"]),
        (["odd-optimal", "--q1", "2", "--q2", "5", "--n", "3"],
         ["2", "5", "10", "50"]),
        (["even-optimal", "--q1", "3", "--q2", "5", "--n", "4"],
         ["9", "25", "225"]),
        (["exceptional-pair", "--n", "6", "--case", "A0eq1", "--j", "3",
          "--alpha1", "1", "--alpha2", "2"], ["4", "-27"]),
    ]
    for args, family in cases:
        code, doc = run(capsys, "generate", "--family", *args)
        assert code == 0 and sorted(doc) == sorted(family), args
        # the family name alone: every family needs some argument
        assert main(["generate", "--family", args[0]]) == 3, args[0]
        assert "needs" in capsys.readouterr().err
    # arguments that collapse the family take the generic LocusError path
    assert main(["generate", "--family", "cubic-quad", "--a", "2", "--b", "2"]) == 3
    assert "distinct" in capsys.readouterr().err


def test_verify_certificate_reads_stdin(monkeypatch, capsys):
    import io
    code, doc = run(capsys, "decide", "--n", "3", "--elem", "2", "--elem", "3",
                    "--elem", "12")
    assert code == 1
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert run(capsys, "verify-certificate", "-") == (0, {"valid": True, "problems": []})
    doc["certificate"]["point"] = [0, 0]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert run(capsys, "verify-certificate", "-") == (
        1, {"valid": False, "problems": ["claimed uncovered point is covered"]})


def test_internal_inconsistency_exits_five(monkeypatch, capsys):
    from locus.errors import InternalInconsistency

    def broken(*args, **kwargs):
        raise InternalInconsistency("holds verdict with sieve failures")
    monkeypatch.setattr(locus.cli, "decide", broken)
    assert main(["decide", "--n", "3", "--elem", "2"]) == 5
    assert capsys.readouterr().err.startswith("INTERNAL INCONSISTENCY (bug): ")


def test_parse_errors_exit_three(capsys):
    assert main(["decide", "--n", "3", "--elem", "1.5"]) == 3
    assert main(["decide", "--n", "3"]) == 3
    assert main(["decide", "--n", "1", "--elem", "2"]) == 3
    assert main(["decide", "--n", "3", "--elem", "0"]) == 3
    assert main(["sieve", "--n", "0", "--elem", "2", "--hi", "100"]) == 3
    assert main(["sieve", "--n", "-3", "--elem", "2", "--hi", "100"]) == 3
    assert main(["sieve", "--n", "3", "--elem", "2", "--lo", "10", "--hi", "5"]) == 3
    assert main(["oracle", "--n", "0", "--elem", "2"]) == 3


def test_zero_denominators_exit_three(capsys):
    # a parse error, not a traceback with exit 1, the code for fails
    for argv in (["decide", "--n", "3", "--elem", "1/0"],
                 ["decide", "--n", "3", "--elem", "2", "--elem=-3/0"],
                 ["sieve", "--n", "3", "--elem", "0/0", "--hi", "100"],
                 ["oracle", "--n", "3", "--elem", "2", "--elem", "1/0"],
                 ["generate", "--family", "lifted", "--e", "2", "--elem", "1/0"]):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err.startswith("error: zero denominator: "), argv


def test_usage_errors_exit_two_and_the_next_call_still_decides(capsys):
    for argv in (["decide", "--elem", "2"], ["decide", "--n", "x", "--elem", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: locus decide" in capsys.readouterr().err
    code, doc = run(capsys, "decide", "--n", "3", "--elem", "2", "--elem", "3",
                    "--elem", "6", "--elem", "18")
    assert code == 0 and doc["status"] == "holds"


@pytest.mark.parametrize("argv", [["decide", "--n", "3"],
                                  ["sieve", "--n", "3", "--elem", "5", "--hi", "60"],
                                  ["oracle", "--n", "3", "--elem", "5"]])
def test_a_negative_fraction_after_elem_is_a_value(capsys, argv):
    # argparse takes -3 for a negative number but would take -3/4 for an option
    code = main([*argv, "--elem", "-3/4"])
    spaced = (code, *capsys.readouterr())
    assert main([*argv, "--elem=-3/4"]) == code
    assert (code, *capsys.readouterr()) == spaced
    assert '"-3/4"' in spaced[1] and not spaced[2]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--elem", "--n", "3"])
    assert exc.value.code == 2
    assert "argument --elem: expected one argument" in capsys.readouterr().err


def outputs(capsys, calls):
    got = []
    for argv in calls:
        code = main(argv)
        got.append((code, *capsys.readouterr()))
    return got


# pairs of calls in which the second leaves out or changes what the first set
SEQUENCES = {
    "elements": [["decide", "--n", "3", "--elem", "2", "--elem", "3", "--elem", "6",
                  "--elem", "18"],
                 ["decide", "--n", "3", "--elem", "2"]],
    "lo": [["sieve", "--n", "3", "--elem", "2", "--elem", "3", "--lo", "50", "--hi", "200"],
           ["sieve", "--n", "3", "--elem", "2", "--elem", "3", "--hi", "200"]],
    "ceiling": [["decide", "--n", "3", "--elem", "2", "--elem", "3", "--elem", "5",
                 "--elem", "30", "--ceiling", "5"],
                ["decide", "--n", "3", "--elem", "2", "--elem", "3", "--elem", "5",
                 "--elem", "30"]],
    "family": [["generate", "--family", "cubic-quad", "--a", "2", "--b", "3"],
               ["generate", "--family", "square-triple", "--p1", "3", "--p2", "5"]],
}


def assert_as_if_fresh(monkeypatch, capsys, calls):
    # main builds its parser once per process; each call must read as if
    # the parser were new
    for argv in calls:
        assert vars(_build_parser().parse_args(argv)) == \
            vars(_build_parser.__wrapped__().parse_args(argv))
    shared = outputs(capsys, calls)
    assert shared[-2] != shared[-1]
    monkeypatch.setattr(locus.cli, "_build_parser", _build_parser.__wrapped__)
    assert outputs(capsys, calls) == shared


@pytest.mark.parametrize("calls", SEQUENCES.values(), ids=SEQUENCES)
def test_the_shared_parser_leaks_no_state(monkeypatch, capsys, calls):
    assert_as_if_fresh(monkeypatch, capsys, calls)


def test_file_elements_do_not_reach_the_next_call(tmp_path, monkeypatch, capsys):
    # without --elem, args.elem is the parser's own default list
    path = tmp_path / "elements.txt"
    path.write_text("3\n6\n18\n")
    assert_as_if_fresh(monkeypatch, capsys,
                       [["decide", "--n", "3", "--elem", "2", "--file", str(path)],
                        ["decide", "--n", "3", "--file", str(path)],
                        ["decide", "--n", "3", "--elem", "2"]])


def help_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr()


@pytest.mark.parametrize("command", ["", "decide", "sieve", "oracle", "generate",
                                     "verify-certificate"])
def test_help_is_that_of_a_fresh_parser(monkeypatch, capsys, command):
    argv = command.split()
    shared = help_text(capsys, argv)
    assert shared.out.startswith(f"usage: locus {command}".rstrip()) and not shared.err
    assert help_text(capsys, argv) == shared
    monkeypatch.setattr(locus.cli, "_build_parser", _build_parser.__wrapped__)
    assert help_text(capsys, argv) == shared


def test_capacity_errors_exit_four(capsys):
    assert main(["sieve", "--n", "2", "--elem", "3", "--hi", str(10**9 + 7)]) == 4
    assert main(["oracle", "--n", "81", "--elem", "2", "--elem", "3"]) == 4


def test_file_input(tmp_path, capsys):
    path = tmp_path / "elements.txt"
    path.write_text("2\n3\n6\n18\n")
    code, doc = run(capsys, "decide", "--n", "3", "--file", str(path))
    assert code == 0 and doc["status"] == "holds"


def test_json_output_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        main(["decide", "--n", "6", "--elem", "-27", "--elem", "4",
              "--json", str(out)])
        capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_certificate_round_trip(tmp_path, capsys):
    doc_path = tmp_path / "verdict.json"
    for args in (
        ["decide", "--n", "3", "--elem", "2", "--elem", "3", "--elem", "6",
         "--elem", "18"],
        ["decide", "--n", "8", "--elem", "16"],
        ["decide", "--n", "9", "--elem", "2", "--elem", "4", "--elem", "8"],
        ["decide", "--n", "2", "--elem", "3", "--elem", "5", "--elem", "15"],
        ["decide", "--n", "6", "--elem", "4", "--elem", "9", "--elem", "36",
         "--elem", "324"],
        ["decide", "--n", "15", "--elem", "32", "--elem", "8"],
        ["decide", "--n", "6", "--elem", "-27", "--elem", "4"],
    ):
        main(args + ["--json", str(doc_path)])
        capsys.readouterr()
        assert main(["verify-certificate", str(doc_path)]) == 0
        capsys.readouterr()


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    doc_path = tmp_path / "verdict.json"
    main(["decide", "--n", "3", "--elem", "2", "--elem", "3", "--elem", "6",
          "--elem", "18", "--json", str(doc_path)])
    capsys.readouterr()
    doc = json.loads(doc_path.read_text())
    doc["certificate"]["coeffs"] = [[1, 0], [0, 1]]  # drop two hyperplanes
    doc_path.write_text(json.dumps(doc))
    assert main(["verify-certificate", str(doc_path)]) == 1


def test_evidence_flag_attaches_report(capsys):
    code, doc = run(capsys, "decide", "--n", "6", "--elem", "-27", "--elem",
                    "4", "--evidence")
    assert code == 0
    assert doc["evidence"]["failing_primes"] == []


# the stdout of `locus decide --n 3` on a set with the semiprime
# 1000003 * 10000019, whose factors lie above the trial-division table
LARGE_FACTOR_DECIDE = """\
{
  "n": 3,
  "elements": [
    "2",
    "3",
    "10000049000057"
  ],
  "status": "fails",
  "certificate": {
    "kind": "uncovered_point",
    "q": 3,
    "support": [
      2,
      3,
      1000003,
      10000019
    ],
    "coeffs": [
      [
        1,
        0,
        0,
        0
      ],
      [
        0,
        1,
        0,
        0
      ],
      [
        0,
        0,
        1,
        1
      ]
    ],
    "point": [
      1,
      1,
      1,
      0
    ],
    "counterexample_prime": 7
  },
  "excluded_primes": [
    2,
    3,
    1000003,
    10000019
  ]
}
"""


def test_decide_large_factor_golden_output(tmp_path, capsys):
    doc_path = tmp_path / "verdict.json"
    assert main(["decide", "--n", "3", "--elem", "2", "--elem", "3", "--elem",
                 str(1000003 * 10000019), "--json", str(doc_path)]) == 1
    assert capsys.readouterr().out == LARGE_FACTOR_DECIDE
    assert main(["verify-certificate", str(doc_path)]) == 0
