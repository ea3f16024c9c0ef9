"""The plumb commands read det, signature and definiteness off one pivot pass per graph."""

import json

import pytest

from steincalc import exactmat
from steincalc.cli import main
from steincalc.exactmat import determinant, is_negative_definite, signature
from steincalc.plumbing import (
    PlumbingGraph,
    intersection_matrix,
    positive_star_reduction,
    star_graph_left,
    star_graph_right,
)

GRAPHS = {
    "definite": star_graph_right(2, (2, 3)),
    "indefinite": star_graph_left(1, (3,)),
    "singular": PlumbingGraph([(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(0, 1), (1, 2)]),  # det 0, zero diagonal
}


@pytest.fixture
def pivot_passes(monkeypatch):
    """Matrices passed to exactmat._pivots."""
    calls = []
    original = exactmat._pivots

    def counted(M):
        calls.append(M)
        return original(M)

    monkeypatch.setattr(exactmat, "_pivots", counted)
    return calls


def expected_invariants(G):
    M = intersection_matrix(G)
    return {"determinant": determinant(M), "signature": signature(M), "negative_definite": is_negative_definite(M)}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_plumb_invariants_runs_one_pass(pivot_passes, capsys, tmp_path, name):
    G = GRAPHS[name]
    expected = expected_invariants(G)
    pivot_passes.clear()
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(G.to_dict()))
    assert main(["plumb", "invariants", str(graph)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(pivot_passes) == 1
    assert {key: data[key] for key in expected} == expected


def test_plumb_moves_runs_one_pass_per_graph(pivot_passes, capsys, tmp_path):
    G = star_graph_left(1, (3,))
    script = positive_star_reduction(1, (3,))
    expected = [expected_invariants(G), expected_invariants(script.replay(G))]
    pivot_passes.clear()
    graph, moves = tmp_path / "g.json", tmp_path / "s.json"
    graph.write_text(json.dumps(G.to_dict()))
    moves.write_text(script.to_json())
    assert main(["plumb", "moves", str(graph), str(moves)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(pivot_passes) == 2
    assert [{key: data[side][key] for key in expected[0]} for side in ("before", "after")] == expected
