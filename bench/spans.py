"""Span tracing from outside locus, and the per-layer metrics built on it.

Tracer.install() replaces each traced public function with a timing wrapper
in every loaded locus module namespace that has bound it, so calls between
layers (module-level imports, the deferred imports inside classify.decide,
recursive decide calls) are caught without touching src/.  Spans live in
flat lists until write() puts them in a JSON file.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from fractions import Fraction

TRACED = [
    ("primes", "factorize"), ("primes", "prime_range"),
    ("rationals", "factor"),
    ("sieve", "scan"), ("sieve", "find_counterexample"),
    ("sieve", "verify_failing_prime"),
    ("covering", "covers"), ("covering", "decide_q"),
    ("prime_power", "decide_prime_power"), ("prime_power", "skalba_oracle"),
    ("squares", "decide_square"), ("squares", "decide_two_power"),
    ("classify", "decide"), ("classify", "match_exceptional_pair"),
    ("verify", "verify_document"),
    ("cli", "main"),
]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _work(name, args, kwargs, result):
    """Work count of one call, defined from its inputs and output."""
    if name == "covering.covers":
        return _arg(args, kwargs, 1, "q") ** _arg(args, kwargs, 2, "s")
    if name == "prime_power.skalba_oracle":
        q, m = _arg(args, kwargs, 1, "q"), _arg(args, kwargs, 2, "m")
        return (q**m) ** len(list(_arg(args, kwargs, 0, "elements")))
    if name == "primes.prime_range":
        return len(result)
    if name == "sieve.scan":
        return result.tested_count
    if name == "sieve.find_counterexample":
        return int(result is not None)
    return 0


def _passthrough(name, args):
    """factor() of an already factored value is a no-op; it gets no span."""
    return name == "rationals.factor" and not isinstance(args[0], (int, str, Fraction))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.instances: list[int] = []
        self.work: list[int] = []
        self.instance = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        instances, work, stack, clock = self.instances, self.work, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if _passthrough(name, args):
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            instances.append(self.instance)
            work.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            work[i] = _work(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if (k == "locus" or k.startswith("locus.")) and m is not None]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"locus.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path):
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        spans = [[index[n], round(s, 7), round(e, 7), p, inst, w]
                 for n, s, e, p, inst, w in zip(self.names, self.starts, self.ends,
                                                self.parents, self.instances, self.work)]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "instance", "work"],
                       "names": table, "spans": spans}, fh, separators=(",", ":"))

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: value}, in ms, counts and rates."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        by: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            by.setdefault(name, []).append(i)

        def spans(name):
            return by.get(name, [])

        def self_ms(name):
            return 1000 * sum(dur[i] - child[i] for i in spans(name))

        def rate(name):
            t = sum(dur[i] for i in spans(name))
            return sum(self.work[i] for i in spans(name)) / t if t else 0.0

        under_verify = 0
        for i in spans("primes.factorize"):
            p = self.parents[i]
            while p >= 0 and self.names[p] != "verify.verify_document":
                p = self.parents[p]
            under_verify += p >= 0
        searches = spans("sieve.find_counterexample")
        factorize = [1000 * dur[i] for i in spans("primes.factorize")]
        out = {
            "primes.factorize.calls": len(factorize),
            "primes.factorize.self_ms": self_ms("primes.factorize"),
            "primes.factorize.ms_p50": statistics.median(factorize) if factorize else 0.0,
            "primes.prime_range.self_ms": self_ms("primes.prime_range"),
            "primes.prime_range.primes_per_s": rate("primes.prime_range"),
            "rationals.factor.parsed_calls": len(spans("rationals.factor")),
            "sieve.scan.self_ms": self_ms("sieve.scan"),
            "sieve.scan.primes_per_s": rate("sieve.scan"),
            "sieve.find_counterexample.self_ms": self_ms("sieve.find_counterexample"),
            "sieve.find_counterexample.found_frac":
                sum(self.work[i] for i in searches) / len(searches) if searches else 0.0,
            "sieve.verify_failing_prime.self_ms": self_ms("sieve.verify_failing_prime"),
            "covering.covers.calls": len(spans("covering.covers")),
            "covering.covers.self_ms": self_ms("covering.covers"),
            "covering.covers.points_per_s": rate("covering.covers"),
            "covering.decide_q.self_ms": self_ms("covering.decide_q"),
            "prime_power.decide_prime_power.self_ms": self_ms("prime_power.decide_prime_power"),
            "prime_power.skalba_oracle.calls": len(spans("prime_power.skalba_oracle")),
            "prime_power.skalba_oracle.self_ms": self_ms("prime_power.skalba_oracle"),
            "prime_power.skalba_oracle.tuples_per_s": rate("prime_power.skalba_oracle"),
            "squares.decide_square.self_ms": self_ms("squares.decide_square"),
            "squares.decide_two_power.self_ms": self_ms("squares.decide_two_power"),
            "classify.decide.self_ms": self_ms("classify.decide"),
            "classify.match_exceptional_pair.self_ms": self_ms("classify.match_exceptional_pair"),
            "verify.verify_document.self_ms": self_ms("verify.verify_document"),
            "verify.factorize_calls": under_verify,
        }
        mains = [1000 * dur[i] for i in spans("cli.main")]
        out["cli.main_ms_p50"] = statistics.median(mains) if mains else 0.0
        return out
