"""The criterion against graph colouring: A_G holds at n exactly when
chi(G) > n (graph_sets.py), on complete graphs, cycles and the Groetzsch
graph, with every document re-checked by the verifier.  Each case decides
in a few milliseconds."""

import json

import pytest

from graph_sets import chromatic_number, complete, cycle, graph_set, mycielski

from locus.classify import decide
from locus.rationals import factor_set
from locus.verdicts import FAILS, HOLDS
from locus.verify import verify_document

GROETZSCH = mycielski(cycle(5))

# (name, graph, chi from the construction, n)
CASES = [(f"K{m}", complete(m), m, n) for n in range(2, 8) for m in (n + 1, n)] + [
    ("C5", cycle(5), 3, 2), ("C7", cycle(7), 3, 2), ("C6", cycle(6), 2, 2),
    ("C5", cycle(5), 3, 3), ("M4", GROETZSCH, 4, 3), ("M4", GROETZSCH, 4, 4)]


@pytest.mark.parametrize("name, graph, chi, n", CASES,
                         ids=[f"{name}-n{n}" for name, _, _, n in CASES])
def test_a_graph_set_holds_exactly_when_chi_exceeds_n(name, graph, chi, n):
    assert chromatic_number(graph) == chi, name
    elements = graph_set(graph, n)
    assert len(set(elements)) == len(graph[1])
    verdict = decide(elements, n)
    assert verdict.status == (HOLDS if chi > n else FAILS), (name, n)
    doc = json.loads(json.dumps(verdict.to_json(n, factor_set(elements))))
    assert verify_document(doc) == [], (name, n)

