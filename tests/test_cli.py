import json

from locus.cli import main


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
    assert doc["certificate"]["kind"] == "wang_exception"


def test_decide_fails_exit_one(capsys):
    code, doc = run(capsys, "decide", "--n", "3", "--elem", "2", "--elem", "3",
                    "--elem", "12")
    assert code == 1
    assert doc["certificate"]["point"] == [1, 2]
    assert doc["certificate"]["counterexample_prime"] == 7


def test_decide_inconclusive_exit_two(capsys):
    code, doc = run(capsys, "decide", "--n", "4", "--elem", "2", "--elem", "3",
                    "--elem", "5")
    assert code == 2
    assert doc["status"] == "inconclusive"


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


def test_parse_errors_exit_three(capsys):
    assert main(["decide", "--n", "3", "--elem", "1.5"]) == 3
    assert main(["decide", "--n", "3"]) == 3
    assert main(["decide", "--n", "1", "--elem", "2"]) == 3
    assert main(["decide", "--n", "3", "--elem", "0"]) == 3


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
