"""A frozen record of decide's output on seeded random sets.

Every document decide writes, and every InstanceTooLarge it raises at a
small cover budget (verify.COVER_RECHECK_LIMIT patched for the case), is
joined in order and hashed.  A change to the engine that
is meant to leave its output alone must leave these hashes alone; a change
that means to alter an output says so and records the new hash.  The first
record covers signed integers; the second signed fractions, whose
denominators decide clears, at n = 2 as well, some with sieve evidence.
"""

import hashlib
import json
import random
from fractions import Fraction
from unittest import mock

from locus import verify
from locus.classify import decide
from locus.errors import InstanceTooLarge

EXPONENTS = (3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 24, 27)
PRIMES = (2, 3, 5, 7, 11, 13)
CEILINGS = (10, 40, 200)

GOLDEN_SHA256 = "a4f4e7f096572185a109cfb0ef5b04ce9598c435f131df2bd5d868851cf27c89"

FRACTION_EXPONENTS = (2, 3, 4, 6, 8, 9, 12)
FRACTIONS_SHA256 = "f43d78ac78e5f91087a5f3a0db21eb5da0e9d29b2ab99c83e417ed69cd665d28"


def _element(rng: random.Random, n: int, primes) -> int:
    x = rng.choice((1, -1))
    for p in primes:
        d = rng.choice([d for d in range(1, n) if n % d == 0])
        x *= p ** (d * rng.randrange(n // d) + n * rng.randrange(2))
    return x


def _cases(count: int):
    rng = random.Random(20240806)
    for _ in range(count):
        n = rng.choice(EXPONENTS)
        primes = rng.sample(PRIMES, rng.randint(1, 3))
        elements = [_element(rng, n, primes) for _ in range(rng.randint(1, 8))]
        ceiling = rng.choice(CEILINGS) if rng.random() < 0.2 else None
        yield n, elements, ceiling


def _fraction_cases(count: int):
    rng = random.Random(20261019)
    for _ in range(count):
        n = rng.choice(FRACTION_EXPONENTS)
        primes = rng.sample(PRIMES, rng.randint(1, 4))
        elements = []
        for _ in range(rng.randint(1, 6)):
            num = _element(rng, n, primes)
            den = abs(_element(rng, n, primes)) if rng.random() < 0.5 else 1
            elements.append(str(Fraction(num, den)))
        ceiling = rng.choice(CEILINGS) if rng.random() < 0.2 else None
        yield n, elements, ceiling, rng.random() < 0.1


def _record(n, elements, ceiling, evidence=False) -> str:
    kwargs = {"attach_evidence": True, "evidence_hi": 300} if evidence else {}
    limit = verify.COVER_RECHECK_LIMIT if ceiling is None else ceiling
    try:
        with mock.patch.object(verify, "COVER_RECHECK_LIMIT", limit):
            doc = decide(elements, n, **kwargs).to_json(n, [str(x) for x in elements])
    except InstanceTooLarge as exc:
        return f"InstanceTooLarge {n} {elements} {ceiling}: {exc}"
    return json.dumps(doc)


def test_decide_output_is_frozen():
    lines = [_record(*case) for case in _cases(2000)]
    assert any(line.startswith("InstanceTooLarge") for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


def test_decide_output_on_fractions_is_frozen():
    lines = [_record(*case) for case in _fraction_cases(2000)]
    assert any(line.startswith("InstanceTooLarge") for line in lines)
    assert any("/" in line and '"n": 2,' in line for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FRACTIONS_SHA256
