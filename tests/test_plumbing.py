import random

import pytest
from oracles import cofactor_det, dense_intersection_matrix, random_tree, resolution_tree, reverse_orientation

from steincalc.exactmat import IntMatrix, determinant, signature
from steincalc.plumbing import (
    Move,
    MoveError,
    MoveScript,
    PlumbingGraph,
    blow_down,
    blow_up_at_vertex,
    blow_up_on_edge,
    boundary_homology,
    grauert_check,
    intersection_matrix,
    positive_star_reduction,
    star_graph_left,
    star_graph_right,
)
from steincalc.seifert import star_to_seifert


class TestConstruction:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            PlumbingGraph([(0, -1, 0), (1, -1, 0), (2, -1, 0)], [(0, 1), (1, 2), (2, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            PlumbingGraph([(0, -1, 0), (1, -1, 0)], [])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            PlumbingGraph([(0, -1, 0)], [(0, 0)])

    def test_multi_edge_rejected(self):
        with pytest.raises(ValueError):
            PlumbingGraph([(0, -1, 0), (1, -1, 0)], [(0, 1), (1, 0)])

    @pytest.mark.parametrize("bad", [-1.7, 2.0, True, None, "3"])
    @pytest.mark.parametrize("slot", ["id", "weight", "genus"])
    def test_non_integer_field_rejected(self, slot, bad):
        vertex = {"id": 0, "weight": -2, "genus": 0, slot: bad}
        with pytest.raises(ValueError, match="not an integer"):
            PlumbingGraph.from_dict({"vertices": [vertex], "edges": []})

    def test_non_integer_edge_endpoint_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            PlumbingGraph([(0, -2, 0), (1, -2, 0)], [(0, 1.0)])

    @pytest.mark.parametrize(
        "data",
        [[], {"vertices": [[0, -2, 0]], "edges": []}, {"vertices": 3, "edges": []}, {"vertices": [], "edges": [5]}],
    )
    def test_wrong_shape_rejected(self, data):
        with pytest.raises(ValueError, match="a graph is"):
            PlumbingGraph.from_dict(data)

    def test_json_roundtrip(self):
        G = star_graph_right(2, (2, 3))
        assert PlumbingGraph.from_dict(G.to_dict()) == G


class TestStarGraphs:
    def test_left_single_leg(self):
        G = star_graph_left(2, (2,))
        assert G.vertices() == ((0, 0, 2), (1, 2, 0))
        assert G.edges == ((0, 1),)

    def test_left_two_unit_legs(self):
        G = star_graph_left(0, (1, 1))
        assert [G.weight(v) for v in G.vertex_ids] == [0, 1, 1]

    def test_left_mixed(self):
        G = star_graph_left(1, (2, 3))
        assert [G.weight(v) for v in G.vertex_ids] == [0, 2, 3]
        assert G.genus(0) == 1

    def test_left_errors(self):
        with pytest.raises(ValueError):
            star_graph_left(1, ())
        with pytest.raises(ValueError):
            star_graph_left(1, (0,))

    @pytest.mark.parametrize("build", [star_graph_left, star_graph_right, positive_star_reduction])
    @pytest.mark.parametrize("bad", [2.9, 3.0, True, None, "3"])
    def test_non_integer_multiplicity_rejected(self, build, bad):
        with pytest.raises(ValueError, match="not an integer"):
            build(1, (bad, 3))

    def test_right_single_leg(self):
        G = star_graph_right(3, (2,))
        assert [G.weight(v) for v in G.vertex_ids] == [-1, -2]
        assert G.genus(0) == 3

    def test_right_two_legs(self):
        G = star_graph_right(0, (2, 2))
        assert [G.weight(v) for v in G.vertex_ids] == [-2, -2, -2]
        assert G.degree(0) == 2

    def test_right_chain(self):
        G = star_graph_right(0, (4,))
        assert [G.weight(v) for v in G.vertex_ids] == [-1, -2, -2, -2]

    def test_right_unit_leg_warns(self):
        with pytest.warns(UserWarning):
            G = star_graph_right(0, (1, 2))
        assert [G.weight(v) for v in G.vertex_ids] == [-2, -2]


class TestIntersectionMatrix:
    def test_z_graph(self):
        for p in (2, 3, 5):
            Z = reverse_orientation(star_graph_left(1, (p,)))
            assert intersection_matrix(Z).to_lists() == [[0, 1], [1, -p]]

    def test_right_two_legs(self):
        M = intersection_matrix(star_graph_right(0, (2, 2)))
        assert M.to_lists() == [[-2, 1, 1], [1, -2, 0], [1, 0, -2]]

    def test_single_vertex(self):
        G = PlumbingGraph([(0, 7, 0)], [])
        assert intersection_matrix(G).to_lists() == [[7]]

    def test_sparse_build_against_dense_oracle(self):
        # rows must iterate in ascending column order, as the dense scan
        # inserted them: the kernels' pivot tie-breaks read that order
        rng = random.Random(1111)
        graphs = [resolution_tree(rng, n) for n in (1, 2, 5, 20, 100)]
        graphs += [random_tree(rng, n, weight_bound=b) for n in (1, 3, 12, 60) for b in (0, 2, 4)]
        graphs.append(PlumbingGraph([(7, -2, 0), (3, 0, 1), (5, -1, 0), (1, 4, 0)], [(5, 1), (7, 3), (1, 7)]))
        for G in graphs:
            M = intersection_matrix(G)
            assert M == IntMatrix(dense_intersection_matrix(G))
            assert all(list(r) == sorted(r) for r in M._nonzeros)


class TestReverseOrientation:
    def test_z_to_y(self):
        Y = star_graph_left(2, (2, 3))
        Z = reverse_orientation(Y)
        assert [Z.weight(v) for v in Z.vertex_ids] == [0, -2, -3]
        assert Z.genus(0) == 2

    def test_involution(self):
        rng = random.Random(8)
        for _ in range(20):
            G = random_tree(rng, rng.randint(1, 7))
            assert reverse_orientation(reverse_orientation(G)) == G

    def test_zero_fixed(self):
        G = PlumbingGraph([(0, 0, 0)], [])
        assert reverse_orientation(G) == G


def edge_scan(G, v):
    """(degree, neighbours) of v by a scan of the edge list."""
    nbrs = tuple(b if a == v else a for a, b in G.edges if v in (a, b))
    return len(nbrs), nbrs


class TestAdjacency:
    def test_degree_and_neighbors_against_edge_scan(self):
        rng = random.Random(2468)
        for _ in range(40):
            G = random_tree(rng, rng.randint(1, 15))
            for _ in range(8):
                for v in G.vertex_ids:
                    assert (G.degree(v), G.neighbors(v)) == edge_scan(G, v)
                G, _ = random_valid_move(rng, G)

    def test_unknown_vertex_has_no_neighbors(self):
        G = star_graph_right(0, (2, 3))
        assert (G.degree(99), G.neighbors(99)) == (0, ())


class TestMoves:
    def test_blow_down_leaf(self):
        G = PlumbingGraph([(0, -3, 0), (1, -1, 0)], [(0, 1)])
        H = blow_down(G, 1)
        assert H.vertices() == ((0, -2, 0),)

    def test_blow_up_then_down_restores(self):
        rng = random.Random(31)
        for _ in range(30):
            G = random_tree(rng, rng.randint(1, 6))
            v = rng.choice(G.vertex_ids)
            H = blow_up_at_vertex(G, v)
            new = max(H.vertex_ids)
            assert blow_down(H, new) == G
            if G.edges:
                a, b = rng.choice(G.edges)
                H = blow_up_on_edge(G, a, b)
                assert blow_down(H, max(H.vertex_ids)) == G

    def test_det_flips_sign_under_blow_up(self):
        rng = random.Random(77)
        for _ in range(40):
            G = random_tree(rng, rng.randint(1, 6))
            d0 = cofactor_det(intersection_matrix(G).to_lists())
            H = blow_up_at_vertex(G, rng.choice(G.vertex_ids))
            assert cofactor_det(intersection_matrix(H).to_lists()) == -d0
            if G.edges:
                a, b = rng.choice(G.edges)
                H = blow_up_on_edge(G, a, b)
                assert cofactor_det(intersection_matrix(H).to_lists()) == -d0

    def test_dispatcher(self):
        G = star_graph_left(0, (1, 2))  # leaf 1 has weight +1
        assert Move(op="blow_up_at_vertex", vertex=0).apply(G) == blow_up_at_vertex(G, 0)
        assert Move(op="blow_up_on_edge", edge=(0, 1)).apply(G) == blow_up_on_edge(G, 0, 1)
        assert Move(op="blow_down", vertex=1).apply(G) == blow_down(G, 1)

    def test_blow_down_rejects_wrong_weight(self):
        G = PlumbingGraph([(0, -3, 0), (1, -2, 0)], [(0, 1)])
        with pytest.raises(MoveError):
            blow_down(G, 1)

    def test_blow_down_rejects_positive_genus(self):
        G = PlumbingGraph([(0, -3, 0), (1, -1, 1)], [(0, 1)])
        with pytest.raises(MoveError):
            blow_down(G, 1)

    def test_blow_down_rejects_high_degree(self):
        G = PlumbingGraph(
            [(0, -1, 0), (1, -2, 0), (2, -2, 0), (3, -2, 0)],
            [(0, 1), (0, 2), (0, 3)],
        )
        with pytest.raises(MoveError):
            blow_down(G, 0)

    def test_blow_down_last_vertex_rejected(self):
        with pytest.raises(MoveError):
            blow_down(PlumbingGraph([(0, -1, 0)], []), 0)


class TestMoveScript:
    def test_reduction_replays_to_right_star_data(self):
        for h in (0, 1, 2):
            for ps in [(2,), (3, 2), (2, 2, 4)]:
                left = star_graph_left(h, ps)
                script = positive_star_reduction(h, ps)
                reduced = script.replay(left)
                want = star_to_seifert(star_graph_right(h, ps), center=0)
                got = star_to_seifert(reduced, center=0)
                assert got == want
                assert boundary_homology(reduced) == boundary_homology(left)

    def test_json_roundtrip(self):
        script = positive_star_reduction(1, (3, 2))
        again = MoveScript.from_json(script.to_json())
        assert list(again.moves) == list(script.moves)

    def test_replay_reports_failing_position(self):
        G = star_graph_left(0, (2,))
        script = MoveScript([Move(op="blow_down", vertex=1)])
        with pytest.raises(MoveError, match="move 0"):
            script.replay(G)


def random_valid_move(rng, G):
    """Pick among sign=-1 blow-ups anywhere and blow-downs of (-1)-vertices."""
    downs = [
        v
        for v in G.vertex_ids
        if G.weight(v) == -1 and G.genus(v) == 0 and G.degree(v) <= 2 and len(G.vertex_ids) > 1
    ]
    choices = ["up_vertex"]
    if G.edges:
        choices.append("up_edge")
    if downs:
        choices += ["down", "down"]
    kind = rng.choice(choices)
    if kind == "up_vertex":
        return blow_up_at_vertex(G, rng.choice(G.vertex_ids)), -1
    if kind == "up_edge":
        a, b = rng.choice(G.edges)
        return blow_up_on_edge(G, a, b), -1
    return blow_down(G, rng.choice(downs)), +1


class TestMoveInvariance:
    def test_homology_det_signature_under_random_moves(self):
        rng = random.Random(424242)
        G = random_tree(rng, rng.randint(2, 8))
        applied = 0
        while applied < 300:
            if len(G.vertex_ids) > 10:
                G = random_tree(rng, rng.randint(2, 8))
                continue
            hom = boundary_homology(G)
            M = intersection_matrix(G)
            det0, sig0 = determinant(M), signature(M)
            G, shift = random_valid_move(rng, G)
            M1 = intersection_matrix(G)
            assert boundary_homology(G) == hom
            assert determinant(M1) == -det0
            assert signature(M1) == sig0 + shift
            applied += 1

    def test_positive_blow_up_preserves_homology(self):
        rng = random.Random(11)
        for _ in range(40):
            G = random_tree(rng, rng.randint(1, 6))
            hom = boundary_homology(G)
            H = blow_up_at_vertex(G, rng.choice(G.vertex_ids), sign=1)
            assert boundary_homology(H) == hom
            assert signature(intersection_matrix(H)) == signature(intersection_matrix(G)) + 1
            new = max(H.vertex_ids)
            assert blow_down(H, new) == G


class TestBoundaryHomology:
    def test_left_star_rank(self):
        for h in (0, 1, 3):
            assert boundary_homology(star_graph_left(h, (2,))) == (2 * h, ())

    def test_right_star_matches_left(self):
        for h in (0, 1, 3):
            assert boundary_homology(star_graph_right(h, (2,))) == (2 * h, ())

    def test_zero_vertex(self):
        G = PlumbingGraph([(0, 0, 0)], [])
        assert boundary_homology(G) == (1, ())

    def test_torsion(self):
        assert boundary_homology(star_graph_right(0, (2, 2))) == (0, (4,))


class TestGrauert:
    def test_right_star_passes(self):
        assert grauert_check(star_graph_right(2, (2, 2)))

    def test_left_star_fails(self):
        assert not grauert_check(star_graph_left(2, (2, 2)))

    def test_single_leg_minors(self):
        # minors of [[-1,1],[1,-2]]: -1, 1
        assert grauert_check(star_graph_right(0, (2,)))
