"""The criterion against graph colouring: A_G holds at n exactly when
chi(G) > n (graph_sets.py), on complete graphs, cycles, the Petersen graph,
the Mycielski graphs M4 and M5 and seeded random graphs, with every
document re-checked by the verifier.  Each case decides in at most about
15 ms.  M5 at n = 4 is left out: it holds (chi = 5), but its even-n search
over Z/4 passes the cover budget after about 3 s."""

import json
import random

import pytest

from graph_sets import (chromatic_number, complete, cycle, graph_set, mycielski,
                        petersen, random_graph)

from locus.classify import decide
from locus.rationals import factor_set
from locus.verdicts import FAILS, HOLDS
from locus.verify import verify_document

GROETZSCH = mycielski(cycle(5))
M5 = mycielski(GROETZSCH)

# (name, graph, chi from the construction, n)
CASES = [(f"K{m}", complete(m), m, n) for n in range(2, 8) for m in (n + 1, n)] + [
    ("C5", cycle(5), 3, 2), ("C7", cycle(7), 3, 2), ("C6", cycle(6), 2, 2),
    ("C5", cycle(5), 3, 3), ("M4", GROETZSCH, 4, 3), ("M4", GROETZSCH, 4, 4),
    ("Petersen", petersen(), 3, 2), ("Petersen", petersen(), 3, 3),
    ("M5", M5, 5, 3), ("M5", M5, 5, 5)]


def _decided_and_verified(graph, n):
    """The status of A_G at n, once its document verifies."""
    elements = graph_set(graph, n)
    assert elements and len(set(elements)) == len(graph[1])
    verdict = decide(elements, n)
    doc = json.loads(json.dumps(verdict.to_json(n, factor_set(elements))))
    assert verify_document(doc) == [], (graph, n)
    return verdict.status


@pytest.mark.parametrize("name, graph, chi, n", CASES,
                         ids=[f"{name}-n{n}" for name, _, _, n in CASES])
def test_a_graph_set_holds_exactly_when_chi_exceeds_n(name, graph, chi, n):
    assert chromatic_number(graph) == chi, name
    assert _decided_and_verified(graph, n) == (HOLDS if chi > n else FAILS), (name, n)


def test_seeded_random_graphs_agree_with_brute_force_chi():
    # G(m, 0.45) on 6-10 vertices, chi by backtracking; about a third hold
    rng = random.Random(35)
    statuses = []
    for _ in range(24):
        graph = random_graph(rng.randint(6, 10), 0.45, rng)
        chi = chromatic_number(graph)
        for n in range(2, 6):
            statuses.append(_decided_and_verified(graph, n))
            assert statuses[-1] == (HOLDS if chi > n else FAILS), (graph, n)
    assert {HOLDS, FAILS} <= set(statuses)
