import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import locus


def test_every_public_name_resolves():
    for name in locus.__all__:
        assert getattr(locus, name) is not None, name


def test_public_names_are_pinned():
    assert set(locus.__all__) == {
        "FAILS", "HOLDS",
        "ExceptionalForm", "FactoredRational", "LocusError", "SieveReport",
        "Verdict", "clear_denominators", "covers",
        "cubic_quad", "decide", "decide_prime_power", "decide_q", "decide_square",
        "even_optimal", "exceptional_pair",
        "exponentiate_classes", "factor", "find_counterexample",
        "is_perfect_power", "lifted", "match_exceptional_pair",
        "odd_optimal", "parse_rational", "scan", "skalba_oracle", "square_triple",
        "verify_document",
    }
    assert len(locus.__all__) == len(set(locus.__all__))


def test_classify_reexports_the_template_names():
    from locus import classify, families
    assert classify.match_exceptional_pair is families.match_exceptional_pair
    assert classify.ExceptionalForm is families.ExceptionalForm


def test_verifier_imports_no_decision_code():
    # the verifier's own loops stand in for the engine's: it imports only the
    # arithmetic layers and the status names, and no module it reaches,
    # transitively and through imports inside functions too, is decision code
    package = Path(locus.__file__).parent
    reached, todo = set(), ["verify"]
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                assert all(not a.name.startswith("locus") for a in node.names), name
            elif isinstance(node, ast.ImportFrom) and (node.level or
                                                       (node.module or "").startswith("locus")):
                module = (node.module or "").removeprefix("locus.")
                found = [module] if module else [a.name for a in node.names]
                if name == "verify":
                    assert set(found) <= {"primes", "rationals", "sieve", "verdicts"}, found
                todo += [m for m in found if m not in reached]
    assert {"primes", "rationals", "sieve", "verdicts"} <= reached
    assert not reached & {"classify", "covering", "prime_power", "squares",
                          "families", "cli"}, reached


def test_no_module_imports_another_modules_private_names():
    # each concept has one public entry: a module that needs another's
    # helper calls its public name, so no `from .other import _name`
    package = Path(locus.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or
                                                     (node.module or "").startswith("locus")):
                private += [(path.stem, a.name) for a in node.names if a.name.startswith("_")]
    assert not private, private


def test_every_error_class_is_raised():
    # an error class that no code raises is dead: each LocusError subclass
    # of errors.py but the base appears in some raise of the package
    from locus import errors
    classes = {name for name, c in vars(errors).items() if isinstance(c, type)
               and issubclass(c, errors.LocusError) and c is not errors.LocusError}
    assert "ParseError" in classes
    raised = {node.id for path in Path(locus.__file__).parent.glob("*.py")
              for stmt in ast.walk(ast.parse(path.read_text()))
              if isinstance(stmt, ast.Raise) and stmt.exc is not None
              for node in ast.walk(stmt.exc) if isinstance(node, ast.Name)}
    assert not classes - raised, sorted(classes - raised)


def test_benchmark_traced_names_resolve():
    # bench/spans.py wraps each (module, name) of its TRACED list by name, so
    # a public name deleted here would break a traced benchmark run; the
    # list is read with ast, without importing the benchmark
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "spans.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert traced
    for module, name in traced:
        assert hasattr(importlib.import_module(f"locus.{module}"), name), (module, name)


def test_benchmark_options_resolve():
    # bench/run.py calls classify.decide with each instance's kwargs and
    # cli.main with each command's argv, so an option removed here would
    # break a benchmark run; one seeded round of each workload is built by
    # bench/corpus.py in a fresh interpreter, where its module name is free
    from locus.classify import decide
    from locus.cli import _build_parser
    bench = str(Path(__file__).parents[1] / "bench")
    rounds = json.loads(fresh_stdout(
        f"import sys, json; sys.path.insert(0, {bench!r}); import corpus\n"
        "rounds = {w: corpus.make_round(w, 1, 0, set()) for w in corpus.ROUNDS}\n"
        "print(json.dumps({w: [[k for i in r.instances for k in i.kwargs],"
        " [c.argv('doc.json') for c in r.commands]] for w, r in rounds.items()}))"))
    assert set(rounds) == {"exact", "evidence", "large-factors", "cli"}
    assert any(keywords for keywords, _ in rounds.values())
    parameters = inspect.signature(decide).parameters
    for workload, (keywords, commands) in rounds.items():
        assert commands, workload
        assert set(keywords) <= set(parameters), (workload, keywords)
        for argv in commands:
            try:
                _build_parser().parse_args(argv)
            except SystemExit:
                raise AssertionError(f"{workload} command no longer parses: {argv}") from None


def test_decide_reads_each_literal_once_and_checks_no_derived_value(monkeypatch):
    # a count, not a time, guards the exact workload's glue: on one seeded
    # round of bench/corpus.py (built in a fresh interpreter, as above),
    # decide reads each literal once, and every FactoredRational it builds
    # comes from parts already checked, so the public constructor, which
    # re-checks sign, order and primality, never runs
    import locus.rationals
    from locus.classify import decide
    from locus.rationals import FactoredRational
    bench = str(Path(__file__).parents[1] / "bench")
    instances = json.loads(fresh_stdout(
        f"import sys, json; sys.path.insert(0, {bench!r}); import corpus\n"
        "rnd = corpus.make_round('exact', 1, 0, set())\n"
        "print(json.dumps([[i.texts, i.n, i.kwargs] for i in rnd.instances]))"))
    assert len(instances) >= 20
    reads, checks = [], []
    read, init = locus.rationals._read, FactoredRational.__init__
    monkeypatch.setattr(locus.rationals, "_read", lambda text: reads.append(text) or read(text))
    monkeypatch.setattr(FactoredRational, "__init__",
                        lambda self, *args: checks.append(args) or init(self, *args))
    for texts, n, kwargs in instances:
        locus.rationals._FACTORED.clear()  # so that every literal is factored
        reads.clear()
        decide(texts, n, **kwargs)
        assert reads == texts and not checks, (texts, n, checks)
    assert FactoredRational(1, ((2, 1),)) and checks == [(1, ((2, 1),))]


def fresh_stdout(code: str) -> str:
    # -S keeps site's imports out
    src = str(Path(locus.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_loads_every_module_and_no_dataclasses():
    # bench/run.py and bench/spans.py read the modules below from sys.modules
    # right after `import locus.cli`, so each must load eagerly; start-up
    # needs no dataclasses or inspect
    loaded = set(fresh_stdout("import sys, locus.cli; print(' '.join(sys.modules))").split())
    modules = ("classify", "covering", "errors", "families", "prime_power", "primes",
               "rationals", "sieve", "squares", "verdicts", "verify", "cli")
    assert {f"locus.{m}" for m in modules} <= loaded
    assert not loaded & {"dataclasses", "inspect"}, loaded & {"dataclasses", "inspect"}


def test_import_builds_a_small_prime_table():
    # the table grows on demand from 2^12 numbers: neither import pays for
    # a larger sieve
    for module in ("locus", "locus.cli"):
        out = fresh_stdout(f"import {module}, locus.primes as p; print(p._TABLE[0])")
        assert 0 <= int(out) <= 1 << 12, (module, out)


def test_cli_import_builds_no_parser():
    # the parser is built by the first main call, so neither `import locus`
    # nor `import locus.cli` pays for it
    out = fresh_stdout(
        "import locus.cli as c; print(c._build_parser.cache_info().currsize, end=' ');"
        " c.main(['generate', '--family', 'cubic-quad', '--a', '2', '--b', '3']);"
        " print(c._build_parser.cache_info().currsize)")
    assert out.split()[0] == "0" and out.split()[-1] == "1", out
