import random

import pytest
from oracles import (
    cofactor_det,
    dense_intersection_matrix,
    random_tree,
    rebuild_replay,
    resolution_tree,
    reverse_orientation,
)

from steincalc.exactmat import IntMatrix, determinant, signature
from steincalc.plumbing import (
    BLOW_DOWN,
    BLOW_UP_AT_VERTEX,
    BLOW_UP_ON_EDGE,
    Move,
    MoveError,
    MoveScript,
    PlumbingGraph,
    boundary_homology,
    grauert_check,
    intersection_matrix,
    positive_star_reduction,
    star_graph_left,
    star_graph_right,
)
from steincalc.seifert import star_to_seifert


def move(G, op, **fields):
    return MoveScript([Move(op, **fields)]).replay(G)


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
        [
            [],
            {"vertices": [[0, -2, 0]], "edges": []},
            {"vertices": 3, "edges": []},
            {"vertices": [], "edges": [5]},
            {"vertices": [{"id": 0, "weight": -2, "wieght": 7}], "edges": []},
            {"vertices": [{"id": 0, "weight": -2}], "edges": [], "edgez": []},
        ],
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

    def test_right_unit_leg_is_empty(self):
        G = star_graph_right(0, (1, 2))
        assert [G.weight(v) for v in G.vertex_ids] == [-2, -2]
        assert G.edges == ((0, 1),)


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
        H = move(G, BLOW_DOWN, vertex=1)
        assert H.vertices() == ((0, -2, 0),)

    def test_blow_up_then_down_restores(self):
        rng = random.Random(31)
        for _ in range(30):
            G = random_tree(rng, rng.randint(1, 6))
            v = rng.choice(G.vertex_ids)
            H = move(G, BLOW_UP_AT_VERTEX, vertex=v)
            new = max(H.vertex_ids)
            assert move(H, BLOW_DOWN, vertex=new) == G
            if G.edges:
                H = move(G, BLOW_UP_ON_EDGE, edge=rng.choice(G.edges))
                assert move(H, BLOW_DOWN, vertex=max(H.vertex_ids)) == G

    def test_det_flips_sign_under_blow_up(self):
        rng = random.Random(77)
        for _ in range(40):
            G = random_tree(rng, rng.randint(1, 6))
            d0 = cofactor_det(intersection_matrix(G).to_lists())
            H = move(G, BLOW_UP_AT_VERTEX, vertex=rng.choice(G.vertex_ids))
            assert cofactor_det(intersection_matrix(H).to_lists()) == -d0
            if G.edges:
                H = move(G, BLOW_UP_ON_EDGE, edge=rng.choice(G.edges))
                assert cofactor_det(intersection_matrix(H).to_lists()) == -d0

    def test_blow_down_rejects_wrong_weight(self):
        G = PlumbingGraph([(0, -3, 0), (1, -2, 0)], [(0, 1)])
        with pytest.raises(MoveError):
            move(G, BLOW_DOWN, vertex=1)

    def test_blow_down_rejects_positive_genus(self):
        G = PlumbingGraph([(0, -3, 0), (1, -1, 1)], [(0, 1)])
        with pytest.raises(MoveError):
            move(G, BLOW_DOWN, vertex=1)

    def test_blow_down_rejects_high_degree(self):
        G = PlumbingGraph(
            [(0, -1, 0), (1, -2, 0), (2, -2, 0), (3, -2, 0)],
            [(0, 1), (0, 2), (0, 3)],
        )
        with pytest.raises(MoveError):
            move(G, BLOW_DOWN, vertex=0)

    def test_blow_down_last_vertex_rejected(self):
        with pytest.raises(MoveError):
            move(PlumbingGraph([(0, -1, 0)], []), BLOW_DOWN, vertex=0)


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

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(op=BLOW_DOWN, vertex=1.0), "move vertex 1.0 is not an integer"),
            (dict(op=BLOW_DOWN, vertex=True), "move vertex True is not an integer"),
            (dict(op=BLOW_UP_AT_VERTEX, vertex=1.0), "move vertex 1.0 is not an integer"),
            (dict(op=BLOW_UP_AT_VERTEX, vertex=0, sign=True), "move sign True is not an integer"),
            (dict(op=BLOW_UP_ON_EDGE), "a move is"),
            (dict(op=BLOW_UP_ON_EDGE, edge=(0, 1, 2)), "a move is"),
            (dict(op=BLOW_UP_ON_EDGE, edge=(0, 1.0)), "move edge endpoint 1.0 is not an integer"),
            (dict(op=BLOW_DOWN), "a move is"),
            (dict(op=BLOW_DOWN, vertex=1, sign=5), "a move is"),
            (dict(op=BLOW_DOWN, vertex=1, sign=-1), "a move is"),
            (dict(op=BLOW_DOWN, vertex=1, edge=(0, 1)), "a move is"),
            (dict(op=BLOW_UP_AT_VERTEX), "a move is"),
            (dict(op=BLOW_UP_AT_VERTEX, vertex=1, edge=(0, 1)), "a move is"),
            (dict(op=BLOW_UP_ON_EDGE, edge=(0, 1), vertex=1), "a move is"),
        ],
    )
    def test_move_checks_its_fields(self, fields, message):
        # each of these once built a Move that replay ran, or failed with a TypeError
        with pytest.raises(ValueError, match=message):
            Move(**fields)

    @pytest.mark.parametrize(
        "data", [{"op": BLOW_DOWN, "vertex": 1, "edge_": [0, 1]}, {"op": BLOW_UP_AT_VERTEX, "vertex": 1, "sgn": 1}]
    )
    def test_unknown_file_key_rejected(self, data):
        # a file's misspelt field was once dropped, and an optional one took its default
        with pytest.raises(ValueError, match="a move is"):
            Move.from_dict(data)

    def test_replay_against_rebuild_oracle(self):
        rng = random.Random(4)
        for _ in range(400):
            G = random_tree(rng, rng.randint(1, 12), weight_bound=1, max_genus=1)
            H, moves = G, []
            for _ in range(rng.randint(1, 20)):  # grow the script along the oracle, up to its first invalid move
                ids = H.vertex_ids + (max(H.vertex_ids) + 1,)
                downs = [v for v in H.vertex_ids if H.weight(v) in (-1, 1) and H.genus(v) == 0 and H.degree(v) <= 2]
                op = rng.choice([BLOW_UP_AT_VERTEX, BLOW_UP_ON_EDGE, BLOW_DOWN]) if rng.random() < 0.98 else "twist"
                sign = rng.choice([-1, 1]) if rng.random() < 0.98 else rng.choice([0, 2])
                if op == BLOW_UP_ON_EDGE:
                    a, b = rng.choice(H.edges) if H.edges and rng.random() < 0.95 else rng.choices(ids, k=2)
                    moves.append(Move(op, edge=rng.choice([(a, b), (b, a)]), sign=sign))
                else:
                    pool = downs if op == BLOW_DOWN and downs and rng.random() < 0.95 else ids
                    signed = {} if op == BLOW_DOWN else {"sign": sign}  # a blow-down takes no sign
                    moves.append(Move(op, vertex=rng.choice(pool), **signed))
                try:
                    H = rebuild_replay(H, moves[-1:])
                except MoveError:
                    break
            script = MoveScript(moves)
            try:
                want = rebuild_replay(G, moves)
            except MoveError as exc:
                with pytest.raises(MoveError) as got:
                    script.replay(G)
                assert str(got.value) == str(exc)
                continue
            got = script.replay(G)
            assert got.vertices() == want.vertices() and got.edges == want.edges
            assert all(got.neighbors(v) == want.neighbors(v) for v in want.vertex_ids)

    def test_replay_edits_one_copy(self, monkeypatch):
        # a whole graph build and tree check per move once made figure1 quadratic in the fibers
        ps = tuple(2 + i * 5 % 8 for i in range(200))
        left, script = star_graph_left(1, ps), positive_star_reduction(1, ps)
        before = (left.vertices(), left.edges, [left.neighbors(v) for v in left.vertex_ids])
        checks = []
        monkeypatch.setattr(PlumbingGraph, "_check_tree", lambda self: checks.append(1))
        reduced = script.replay(left)
        assert len(script) == 1100 and checks == []
        assert (left.vertices(), left.edges, [left.neighbors(v) for v in left.vertex_ids]) == before
        assert len(reduced.vertex_ids) == 1 + sum(p - 1 for p in ps)

    def test_fresh_ids_after_blow_downs(self):
        # replay keeps the greatest id; only a blow-down of that vertex looks it up again
        G = star_graph_left(0, (2, 2))
        moves = [
            Move(BLOW_UP_AT_VERTEX, vertex=1),  # 3
            Move(BLOW_UP_AT_VERTEX, vertex=2),  # 4
            Move(BLOW_DOWN, vertex=3),  # not the greatest: the next id is still 5
            Move(BLOW_UP_AT_VERTEX, vertex=0, sign=1),  # 5
            Move(BLOW_DOWN, vertex=5),  # the greatest: 5 is free again
            Move(BLOW_UP_ON_EDGE, edge=(2, 4)),  # 5
        ]
        got, want = MoveScript(moves).replay(G), rebuild_replay(G, moves)
        assert got.vertex_ids == (0, 1, 2, 4, 5)
        assert got.vertices() == want.vertices() and got.edges == want.edges


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
        return move(G, BLOW_UP_AT_VERTEX, vertex=rng.choice(G.vertex_ids)), -1
    if kind == "up_edge":
        return move(G, BLOW_UP_ON_EDGE, edge=rng.choice(G.edges)), -1
    return move(G, BLOW_DOWN, vertex=rng.choice(downs)), +1


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
            H = move(G, BLOW_UP_AT_VERTEX, vertex=rng.choice(G.vertex_ids), sign=1)
            assert boundary_homology(H) == hom
            assert signature(intersection_matrix(H)) == signature(intersection_matrix(G)) + 1
            new = max(H.vertex_ids)
            assert move(H, BLOW_DOWN, vertex=new) == G


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
