"""The locus benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports locus from its src/.  Load is
a closed loop on one thread: each call waits for its answer before the next
is sent.  A run repeats whole rounds of seeded inputs (corpus.py) until
--seconds have passed, checks every answer against reference.py outside the
timed regions, and prints {"correct", "attempted", "failed", "metrics"} as
its last stdout line.  With --trace 1 it instead runs a fixed number of
rounds, tracing every other one, writes the spans under bench/out/ and
reports the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_PROBES = 7
INTERPRETER_PROBES = 7
MIN_COMMANDS = 100              # at least ten samples beyond cli_ms_p90
PROBE_REF_S = 0.004             # machine_probe()'s usual median on the reference machine
SPEED_PROBES = 5
TRACE_ROUNDS = {"exact": 8, "evidence": 3, "large-factors": 10, "cli": 10}

SETUP_PROBE = """\
import json, time
t0 = time.perf_counter()
import locus
t1 = time.perf_counter()
locus.primes.factorize(2)
t2 = time.perf_counter()
locus.decide(["2", "3", "6", "12"], 3)
t3 = time.perf_counter()
print(json.dumps({"setup_s": t3 - t0, "table_ms": 1000 * (t2 - t1)}))
"""

IMPORT_PROBE = """\
import time
t0 = time.perf_counter()
import locus.cli
print(time.perf_counter() - t0)
"""

clock = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def python(code_or_args, capture=True) -> subprocess.CompletedProcess:
    args = ["-c", code_or_args] if isinstance(code_or_args, str) else code_or_args
    return subprocess.run([sys.executable, *args], capture_output=capture, text=True,
                          env=child_env(), cwd=ROOT, timeout=150, check=False)


def probe_json(code: str):
    proc = python(code)
    if proc.returncode:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


def pin_to_one_cpu():
    """Keep the run (and its children) on one CPU, which steadies the rates."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def machine_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python integer, dict and
    string work that never touches locus."""
    t0 = clock()
    acc, table = 0, {}
    for i in range(1, 2500):
        x = pow(i, 65537, 1_000_003)
        acc = (acc * 31 + x) % 998_244_353
        table[x % 211] = table.get(x % 211, 0) + 1
    sorted(table.items())
    tuple(str(v) for v in table.values())
    return clock() - t0


def speed_scale() -> float:
    """Factor that turns seconds measured now into reference seconds.

    The shared machine runs whole stretches of a minute or so up to 40 %
    faster; the probe, timed right before the work it scales, moves with it.
    """
    return PROBE_REF_S / statistics.median(machine_probe() for _ in range(SPEED_PROBES))


def p90(values):
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


class Tally:
    """Operation counts, timed samples and the problems the checks found.

    Every round has the same slots (corpus.py), and each timed call is filed
    under its kind and slot.  A rate is the work of one round made of each
    slot's median sample over its median time, so the few calls that a
    noisy machine stretches many times over move it little, while the slot
    mix keeps each kind of input's weight.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.commands = 0
        self.scale = 1.0          # reference seconds per measured second
        self.unexpected: list[str] = []
        self.samples: dict[str, dict[int, list[tuple[float, int]]]] = {}

    def op(self, problems, known_fault=False):
        self.attempted += 1
        if problems:
            self.failed += 1
            if not known_fault:
                self.unexpected.extend(problems)

    def add(self, kind, slot, seconds, work=1):
        self.samples.setdefault(kind, {}).setdefault(slot, []).append(
            (seconds * self.scale, work))

    def rate(self, *kinds):
        time_, work = 0.0, 0.0
        for kind in kinds:
            for samples in self.samples.get(kind, {}).values():
                time_ += statistics.median(t for t, _ in samples)
                work += statistics.median(w for _, w in samples)
        return work / time_ if time_ else 0.0

    def times(self, *kinds):
        return [t for kind in kinds for samples in self.samples.get(kind, {}).values()
                for t, _ in samples]


class Library:
    """Runs rounds in-process through the modules' public functions.

    Calls look the functions up on the module at call time, so a Tracer
    installed between rounds sees them.
    """

    def __init__(self, workload, seed, tracer=None):
        import locus.cli  # noqa: F401  (with locus, loads every traced module)
        self.m = {name: sys.modules[f"locus.{name}"]
                  for name in ("classify", "verify", "sieve", "cli", "errors")}
        self.workload, self.seed = workload, seed
        self.primes = checks.Primes()
        self.seen: set = set()
        self.doc_path = str(OUT / f"doc-{os.getpid()}.json")
        self.tracer = tracer
        self.op_id = 0
        if workload == "exact":
            classify = self.m["classify"]
            self.twins = []
            for texts, n in checks.TWIN_SOURCES:
                doc = classify.decide(texts, n).to_json(n, texts)
                self.twins.append(checks.flipped(doc))

    def _next_op(self):
        self.op_id += 1
        if self.tracer is not None:
            self.tracer.instance = self.op_id

    def round(self, index, tally: Tally):
        rnd = corpus.make_round(self.workload, self.seed, index, self.seen)
        classify, verify, sieve = self.m["classify"], self.m["verify"], self.m["sieve"]
        rng = random.Random(f"check:{self.workload}:{self.seed}:{index}")
        tally.scale = speed_scale()
        checked = []   # (problems-producing check, number of operations)
        for slot, inst in enumerate(rnd.instances):
            self._next_op()
            texts = inst.texts
            try:
                t0 = clock()
                verdict = classify.decide(texts, inst.n, **inst.kwargs)
                t1 = clock()
                doc = verdict.to_json(inst.n, texts)
                t2 = clock()
                problems = verify.verify_document(doc)
                t3 = clock()
            except Exception as exc:  # a crash fails the decision and its verification
                failure = [f"{inst.family} {texts}: {traceback.format_exc(limit=-3)}"]
                checked += [failure, failure]
                continue
            tally.add("decide", slot, t1 - t0)
            tally.add("verify", slot, t3 - t2)
            checked.append(lambda inst=inst, doc=doc: checks.check_verdict(
                inst, doc, self.primes, rng))
            checked.append([f"verify_document rejected a genuine document: {problems}"]
                           if problems else [])
        for slot, sc in enumerate(rnd.scans):
            self._next_op()
            texts = sc.texts
            try:
                t0 = clock()
                report = sieve.scan(texts, sc.k, sc.lo, sc.hi)
                t1 = clock()
            except Exception:
                checked.append([f"scan {texts}: {traceback.format_exc(limit=-3)}"])
                continue
            tally.add("scan", slot, t1 - t0, report.tested_count)
            checked.append(lambda sc=sc, report=report.to_json(): checks.check_report(
                sc, report, self.primes, rng))
        for slot, cmd in enumerate(rnd.commands):
            self._next_op()
            argv, out = cmd.argv(self.doc_path), io.StringIO()
            try:
                t0 = clock()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.m["cli"].main(argv)
                t1 = clock()
            except Exception:
                checked.append([f"{argv}: {traceback.format_exc(limit=-3)}"])
                continue
            tally.add("command", slot, t1 - t0)
            tally.commands += 1
            checked.append(lambda cmd=cmd, code=code, text=out.getvalue():
                           checks.check_command(cmd, code, text, self.primes, rng))

        if self.tracer is not None:
            self.tracer.instance = -1
        for check in checked:
            tally.op(check() if callable(check) else check)
        if self.workload == "exact":
            self.known_faults(tally)

    def known_faults(self, tally: Tally):
        """Operations that fail on this program: forged and flipped documents
        the verifier accepts, and supports past the enumeration ceiling."""
        verify, classify = self.m["verify"], self.m["classify"]
        for doc in checks.FORGED + self.twins:
            accepted = not verify.verify_document(doc)
            tally.op(["verifier accepted a false claim"] if accepted else [], known_fault=True)
        for texts, n, expect in checks.LARGE_SUPPORT:
            try:
                status = classify.decide(texts, n).status
            except self.m["errors"].LocusError as exc:
                status = type(exc).__name__
            tally.op([] if status == expect else [f"large support: {status}"], known_fault=True)

    def metrics(self, tally: Tally) -> dict:
        cmd = tally.times("command")
        return {
            "decide_per_s": tally.rate("decide"),
            "verify_per_s": tally.rate("verify"),
            "scan_primes_per_s": tally.rate("scan"),
            "cli_ms_p50": 1000 * statistics.median(cmd),
            "cli_ms_p90": 1000 * p90(cmd),
        }


class FreshCli:
    """Runs each command of a round as a fresh `python -m locus.cli`."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.primes = checks.Primes()
        self.seen: set = set()
        self.doc_path = str(OUT / f"doc-{os.getpid()}.json")

    def round(self, index, tally: Tally):
        rnd = corpus.make_round(self.workload, self.seed, index, self.seen)
        tally.scale = speed_scale()
        outputs = []
        for slot, cmd in enumerate(rnd.commands):
            args = ["-m", "locus.cli", *cmd.argv(self.doc_path)]
            t0 = clock()
            proc = python(args)
            t1 = clock()
            work = 1
            if cmd.kind == "sieve":
                with contextlib.suppress(ValueError, KeyError):
                    work = json.loads(proc.stdout)["tested_count"]
            tally.add(cmd.kind, slot, t1 - t0, work)
            tally.commands += 1
            outputs.append((cmd, proc.returncode, proc.stdout))
        rng = random.Random(f"check:{self.workload}:{self.seed}:{index}")
        for cmd, code, stdout in outputs:
            tally.op(checks.check_command(cmd, code, stdout, self.primes, rng))

    def metrics(self, tally: Tally) -> dict:
        every = tally.times(*tally.samples)
        return {
            "decide_per_s": tally.rate("decide", "decide-evidence"),
            "verify_per_s": tally.rate("verify"),
            "scan_primes_per_s": tally.rate("sieve"),
            "cli_ms_p50": 1000 * statistics.median(every),
            "cli_ms_p90": 1000 * p90(every),
        }


def timed_run(workload, seed, seconds) -> tuple[Tally, dict]:
    runner = FreshCli(workload, seed) if workload == "cli" else Library(workload, seed)
    tally = Tally()
    start = clock()
    index = 0
    while True:
        runner.round(index, tally)
        index += 1
        gc.collect()
        if clock() - start >= seconds and tally.commands >= MIN_COMMANDS:
            break
    metrics = runner.metrics(tally)
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    return tally, metrics


def traced_run(workload, seed) -> tuple[Tally, dict]:
    """2 * TRACE_ROUNDS rounds, every other one traced, so both halves see
    the same stretches of machine noise."""
    tracer = Tracer()
    runner = Library(workload, seed, tracer)
    plain, traced = Tally(), Tally()
    for index in range(2 * TRACE_ROUNDS[workload]):
        if index % 2:
            tracer.install()
        try:
            runner.round(index, traced if index % 2 else plain)
        finally:
            tracer.uninstall()
        gc.collect()
    tracer.write(OUT / f"trace-{workload}-{seed}.json")
    kind = "command" if workload == "cli" else "decide"
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = 1 - traced.rate(kind) / plain.rate(kind)
    interpreter = []
    for _ in range(INTERPRETER_PROBES):
        t0 = clock()
        python("pass")
        interpreter.append(1000 * (clock() - t0))
    metrics["cli.interpreter_ms"] = statistics.median(interpreter)
    imports = [1000 * probe_json(IMPORT_PROBE) for _ in range(INTERPRETER_PROBES)]
    metrics["cli.import_ms"] = statistics.median(imports)
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.unexpected += traced.unexpected
    return plain, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "locus" / "__init__.py").is_file():
        print(f"error: no locus package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    pin_to_one_cpu()

    setup_scale = speed_scale()
    setups = [probe_json(SETUP_PROBE) for _ in range(SETUP_PROBES)]
    try:
        if args.trace:
            tally, metrics = traced_run(args.workload, args.seed)
            metrics["primes.trial_table_ms"] = statistics.median(s["table_ms"] for s in setups)
        else:
            tally, metrics = timed_run(args.workload, args.seed, args.seconds)
            metrics["setup_s"] = setup_scale * statistics.median(s["setup_s"] for s in setups)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(OUT / f"doc-{os.getpid()}.json")

    for problem in tally.unexpected[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in SPEC["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
