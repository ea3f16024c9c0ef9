import hashlib
import io
import json
import random
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import resolution_tree, tree_det

from steincalc.cli import main
from steincalc.knots import TREFOIL, demo_family
from steincalc.mcg import MAX_WORD_LETTERS
from steincalc.plumbing import positive_star_reduction, star_graph_left, star_graph_right


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPlumbCommands:
    def test_invariants(self, capsys, tmp_path):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(star_graph_right(2, (2, 3)).to_dict()))
        code, out, _ = run(capsys, ["plumb", "invariants", str(graph)])
        assert code == 0
        data = json.loads(out)
        assert data["negative_definite"] is True
        assert data["boundary_homology"] == {"rank": 4, "torsion": [5]}
        assert data["determinant"] == 5

    def test_invariants_output_keys(self, capsys, tmp_path):
        # the graph fixes the intersection form, so no dense matrix is printed
        graph = tmp_path / "g.json"
        script = tmp_path / "s.json"
        graph.write_text(json.dumps(star_graph_left(1, (3,)).to_dict()))
        script.write_text(positive_star_reduction(1, (3,)).to_json())
        keys = {"graph", "determinant", "signature", "negative_definite", "boundary_homology"}
        code, out, _ = run(capsys, ["plumb", "invariants", str(graph)])
        assert code == 0
        assert set(json.loads(out)) == keys
        code, out, _ = run(capsys, ["plumb", "moves", str(graph), str(script)])
        assert code == 0
        data = json.loads(out)
        assert set(data["before"]) == set(data["after"]) == keys

    def test_three_hundred_vertex_tree_in_under_a_second(self, capsys, tmp_path):
        # a dense O(n^3) determinant once took ~4 s here
        G = resolution_tree(random.Random(300), 300)
        graph = tmp_path / "tree.json"
        graph.write_text(json.dumps(G.to_dict()))
        start = time.perf_counter()
        code, out, _ = run(capsys, ["plumb", "invariants", str(graph)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        data = json.loads(out)
        assert data["determinant"] == tree_det(G)
        assert data["negative_definite"] is True

    def test_moves(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        script = tmp_path / "s.json"
        graph.write_text(json.dumps(star_graph_left(1, (3,)).to_dict()))
        script.write_text(positive_star_reduction(1, (3,)).to_json())
        code, out, _ = run(capsys, ["plumb", "moves", str(graph), str(script)])
        assert code == 0
        data = json.loads(out)
        assert data["moves_applied"] == 3
        assert data["before"]["boundary_homology"] == data["after"]["boundary_homology"]

    def test_invalid_move_script_errors(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        script = tmp_path / "s.json"
        graph.write_text(json.dumps(star_graph_left(1, (3,)).to_dict()))
        script.write_text(json.dumps([{"op": "blow_down", "vertex": 1}]))
        code, _, err = run(capsys, ["plumb", "moves", str(graph), str(script)])
        assert code == 2
        assert "move 0" in err

    @pytest.mark.parametrize(
        "payload",
        [
            [5],
            {},
            [{"op": "blow_down", "vertex": 1.0}],
            [{"op": "blow_down", "vertex": 1, "sign": 5}],
            [{"op": "blow_down", "vertex": 1, "edge": [0, 1]}],
            [{"op": "blow_down", "vertex": 1, "sign": 5, "edge": [0, 1]}],
            [{"op": "blow_down"}],
            [{"op": "blow_up_at_vertex", "vertex": 1, "edge": [0, 1]}],
            [{"op": "blow_up_on_edge", "edge": [0, 1], "vertex": 1}],
            [{"op": "blow_down", "vertex": 1, "edge_": [0, 1], "sgn": 5}],
            [{"op": "blow_up_at_vertex", "vertex": 1, "sgn": 1}],
        ],
    )
    def test_malformed_move_script_is_an_error(self, capsys, tmp_path, payload):
        # vertex 1 is a +1 leaf, so the float blow-down, each move with a field its op
        # does not take and each with an unknown key once ran and exited 0; a blow-down
        # with no vertex failed on replay
        graph = tmp_path / "g.json"
        script = tmp_path / "s.json"
        graph.write_text(json.dumps(star_graph_left(1, (1, 3)).to_dict()))
        script.write_text(json.dumps(payload))
        code, out, err = run(capsys, ["plumb", "moves", str(graph), str(script)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


# JSON fields for the fuzz: small ints, which are often valid, or anything else JSON holds
JUNK = st.recursive(st.none() | st.booleans() | st.floats() | st.text(max_size=2), st.lists, max_leaves=3)
FIELD = st.integers(-1, 4) | st.integers() | JUNK
PAIR = st.lists(FIELD, min_size=2, max_size=2)
VERTEX = st.fixed_dictionaries({"id": FIELD, "weight": FIELD}, optional={"genus": FIELD})
GRAPHS = st.sampled_from([star_graph_left(0, (1, 2, 1)).to_dict(), star_graph_right(0, (2, 2)).to_dict()]) | st.fixed_dictionaries(
    {"vertices": st.lists(VERTEX, max_size=3), "edges": st.lists(PAIR, max_size=2)}
) | JUNK
OPS = st.sampled_from(["blow_up_at_vertex", "blow_up_on_edge", "blow_down"])
MOVES = st.fixed_dictionaries({"op": OPS}, optional={"vertex": FIELD, "edge": PAIR, "sign": FIELD}) | JUNK | st.dictionaries(
    st.sampled_from(["op", "vertex", "edge", "sign"]), JUNK
)
SCRIPTS = st.lists(MOVES, max_size=3) | JUNK


@settings(max_examples=80, deadline=None)
@given(graph=GRAPHS, script=SCRIPTS)
def test_fuzzed_plumb_moves_exit_cleanly(graph, script):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, "g.json"), Path(tmp, "s.json")]
        for path, data in zip(paths, (graph, script)):
            path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["plumb", "moves", *map(str, paths)])
    if code == 0:
        assert json.loads(out.getvalue())["moves_applied"] == len(script) and err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["plumb", "invariants", "{json}"],
        ["knots", "alexander", "{json}"],
        ["report", "thm44", "--g", "2", "--k", "2", "--r", "1", "--family", "{json}"],
        ["mcg", "action", "--word", "{word}", "--surface", "1,0"],
    ],
    ids=["plumb-invariants", "knots-alexander", "report-family", "mcg-word"],
)
def test_deep_nesting_is_an_error(capsys, tmp_path, argv):
    # a deep JSON file or word once ended in a RecursionError traceback with exit 1
    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 100_000 + "]" * 100_000)
    deep_word = tmp_path / "deep.txt"
    deep_word.write_text("(" * 50_000 + "c1" + ")" * 50_000)
    argv = [a.format(json=deep_json, word=deep_word) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: input nested too deeply\n"


class TestSeifertCommands:
    def test_from_star(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(star_graph_right(1, (2, 3)).to_dict()))
        code, out, _ = run(capsys, ["seifert", "from-star", str(graph)])
        assert code == 0
        data = json.loads(out)
        assert data["euler_number"] == "-5/6"
        assert data["singularity_link"] is True

    def test_from_star_with_center(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(star_graph_right(0, (2, 2)).to_dict()))
        code, _, err = run(capsys, ["seifert", "from-star", str(graph)])
        assert code == 2  # ambiguous all-(-2) path
        code, out, _ = run(capsys, ["seifert", "from-star", str(graph), "--center", "0"])
        assert code == 0
        assert json.loads(out)["euler_number"] == "-1"

    def test_open_book(self, capsys):
        code, out, _ = run(capsys, ["seifert", "open-book", "--genus", "2", "--powers", "2,3"])
        assert code == 0
        data = json.loads(out)
        assert data["euler_number"] == "-5/6"
        assert data["homology"] == {"rank": 4, "torsion": [5]}


class TestMcgCommands:
    def test_action_full_relator(self, capsys, tmp_path):
        word = tmp_path / "w.txt"
        word.write_text("(c1 c2 c3^2 c2 c1)^2")
        code, out, _ = run(capsys, ["mcg", "action", "--word", str(word), "--surface", "1,0"])
        assert code == 0
        data = json.loads(out)
        assert data["letter_count"] == 12
        assert data["is_identity"] is True

    def test_action_with_curve_file(self, capsys, tmp_path):
        word = tmp_path / "w.txt"
        word.write_text("x")
        curves = tmp_path / "c.json"
        curves.write_text(json.dumps({"x": [1, 0]}))
        code, out, _ = run(
            capsys,
            ["mcg", "action", "--word", str(word), "--surface", "1,0", "--curves", str(curves)],
        )
        assert code == 0
        assert json.loads(out)["action"] == [[1, 1], [0, 1]]

    @pytest.mark.parametrize(
        "payload", [{"c1": [1.9, 0], "c2": [0, 1]}, {"c1": 5}, [1, 2]], ids=["float", "scalar", "list"]
    )
    def test_malformed_curve_file_is_an_error(self, capsys, tmp_path, payload):
        # the float class once printed the action of (1, 0) and exited 0
        word = tmp_path / "w.txt"
        word.write_text("c1 c2")
        curves = tmp_path / "c.json"
        curves.write_text(json.dumps(payload))
        code, out, err = run(
            capsys,
            ["mcg", "action", "--word", str(word), "--surface", "1,0", "--curves", str(curves)],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("surface", ["1", "1,0,1"])
    def test_malformed_surface_names_the_shape(self, capsys, tmp_path, surface):
        # these once printed Python's "not enough / too many values to unpack"
        word = tmp_path / "w.txt"
        word.write_text("c1 c2")
        code, out, err = run(capsys, ["mcg", "action", "--word", str(word), "--surface", surface])
        assert code == 2
        assert out == ""
        assert err == f"error: --surface is genus,boundary_count, not {surface!r}\n"

    @pytest.mark.parametrize(
        "text",
        [
            "(c1 c2)^99999999999999999999",
            f"(c1 c2)^{MAX_WORD_LETTERS // 2 + 1}",
            f"(c1 c2)^-{MAX_WORD_LETTERS // 2 + 1}",
            f"c1 (c1 c2)^{MAX_WORD_LETTERS // 2}",
        ],
        ids=["power-1e20", "just-past", "inverse-just-past", "running-total"],
    )
    def test_oversized_group_power_is_an_error(self, capsys, tmp_path, text):
        word = tmp_path / "w.txt"
        word.write_text(text)
        code, out, err = run(capsys, ["mcg", "action", "--word", str(word), "--surface", "1,0"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(MAX_WORD_LETTERS) in err


class TestLfCommands:
    def test_chi_hyperelliptic(self, capsys):
        code, out, _ = run(capsys, ["lf", "chi", "--catalog", "hyperelliptic", "--param", "3"])
        assert code == 0
        data = json.loads(out)
        assert data["singular_fibers"] == 28
        assert data["chi_from_fibration"] == data["chi_from_blowups"] == 20

    def test_chi_hyperelliptic_genus_300_in_under_a_second(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, ["lf", "chi", "--catalog", "hyperelliptic", "--param", "300"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(out)["singular_fibers"] == 8 * 300 + 4
        assert elapsed < 1.0, f"lf chi at genus 300 took {elapsed:.2f}s"

    def test_chi_hyperelliptic_genus_1000_in_a_quarter_second(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, ["lf", "chi", "--catalog", "hyperelliptic", "--param", "1000"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(out)["singular_fibers"] == 8 * 1000 + 4
        assert elapsed < 0.25, f"lf chi at genus 1000 took {elapsed:.2f}s"

    def test_chi_korkmaz(self, capsys):
        code, out, _ = run(capsys, ["lf", "chi", "--catalog", "korkmaz", "--param", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["fiber_genus"] == 5
        assert data["chi_from_fibration"] == data["chi_from_blowups"] == 4


    def test_float_weight_is_an_error(self, capsys, tmp_path):
        # -1.7 once truncated to -1 and printed determinant 1
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"vertices": [{"id": 0, "weight": -1.7}, {"id": 1, "weight": -2}], "edges": [[0, 1]]}))
        code, out, err = run(capsys, ["plumb", "invariants", str(graph)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "-1.7" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"vertices": [{"id": 0}], "edges": []},
            {"edges": []},
            {"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}], "edges": [[0, 1, 2]]},
            {"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}], "edges": [[0]]},
            {"vertices": [{"id": 0, "weight": -2, "wieght": 7}, {"id": 1, "weight": -2}], "edges": [[0, 1]]},
            {"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}], "edges": [[0, 1]], "edgez": []},
        ],
        ids=["no-weight", "no-vertices", "edge-triple", "edge-single", "vertex-key", "graph-key"],
    )
    @pytest.mark.parametrize("command", [["plumb", "invariants"], ["seifert", "from-star"]])
    def test_malformed_graph_file_names_the_shape(self, capsys, tmp_path, payload, command):
        # these once printed "error: 'weight'" or an unpacking message, or dropped an unknown key
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(payload))
        code, out, err = run(capsys, command + [str(graph)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: a graph is {'vertices'") and len(err.splitlines()) == 1

    def test_list_vertices_are_an_error(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"vertices": [[0, -2, 0], [1, -2, 0]], "edges": [[0, 1]]}))
        code, out, err = run(capsys, ["plumb", "invariants", str(graph)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestKnotsCommands:
    def test_alexander(self, capsys, tmp_path):
        matrix = tmp_path / "V.json"
        matrix.write_text(json.dumps(TREFOIL.to_dict()))
        code, out, _ = run(capsys, ["knots", "alexander", str(matrix)])
        assert code == 0
        data = json.loads(out)
        assert data["alexander"] == "t - 1 + t^-1"
        assert data["fibered_certificate"]["passes"] is True

    def test_float_entry_is_an_error(self, capsys, tmp_path):
        # -1.7 once truncated to -1 and printed the trefoil's polynomial
        matrix = tmp_path / "V.json"
        matrix.write_text(json.dumps({"name": "bad", "matrix": [[-1.7, 1], [0, -1]]}))
        code, out, err = run(capsys, ["knots", "alexander", str(matrix)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "-1.7" in err
        assert len(err.splitlines()) == 1


    def test_matrix_object_without_matrix_names_the_shape(self, capsys, tmp_path):
        # this once printed "error: 'matrix'"
        matrix = tmp_path / "V.json"
        matrix.write_text(json.dumps({"name": "x"}))
        code, out, err = run(capsys, ["knots", "alexander", str(matrix)])
        assert code == 2
        assert out == ""
        assert err == "error: a Seifert matrix is {'name': str, 'matrix': [[int, ...], ...]}\n"

    def test_scalar_matrix_is_an_error(self, capsys, tmp_path):
        matrix = tmp_path / "V.json"
        matrix.write_text(json.dumps({"name": "x", "matrix": 5}))
        code, out, err = run(capsys, ["knots", "alexander", str(matrix)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


JSON_COMMANDS = {
    "plumb-invariants": ["plumb", "invariants", "{star}"],
    "plumb-moves": ["plumb", "moves", "{left}", "{script}"],
    "seifert-from-star": ["seifert", "from-star", "{star}"],
    "seifert-open-book": ["seifert", "open-book", "--genus", "2", "--powers", "2,3"],
    "mcg-action": ["mcg", "action", "--word", "{word}", "--surface", "1,0"],
    "lf-chi": ["lf", "chi", "--catalog", "korkmaz", "--param", "2"],
    "knots-alexander": ["knots", "alexander", "{matrix}"],
    "report-figure1": ["report", "figure1", "--genus", "1", "--powers", "2,3"],
    "report-thm44": ["report", "thm44", "--g", "2", "--k", "2", "--r", "1"],
    "report-thm53": ["report", "thm53", "--m", "1", "--n", "3", "--k", "2"],
    "report-cor55": ["report", "cor55", "--h", "9"],
    "report-cor55-even": ["report", "cor55", "--h", "8", "--n", "2"],
    "report-family": ["report", "thm44", "--g", "2", "--k", "2", "--r", "1", "--family", "{family}"],
}


@pytest.mark.parametrize("command", list(JSON_COMMANDS))
def test_json_output_equals_stdlib_reserialization(capsys, tmp_path, command):
    members = [V.to_dict() for V in demo_family(2)]
    members[0]["name"] = 'tr\u00e8fle "\u00e0 gauche"\t#2'  # non-ASCII, quote and control characters to escape
    texts = {
        "star": json.dumps(star_graph_right(1, (2, 3)).to_dict()),
        "left": json.dumps(star_graph_left(1, (3,)).to_dict()),
        "script": positive_star_reduction(1, (3,)).to_json(),
        "word": "(c1 c2 c3^2 c2 c1)^2",
        "matrix": json.dumps(TREFOIL.to_dict()),
        "family": json.dumps(members),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    code, out, _ = run(capsys, [a.format(**{name: tmp_path / name for name in texts}) for a in JSON_COMMANDS[command]])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestReportCommands:
    def test_figure1_json(self, capsys):
        code, out, _ = run(capsys, ["report", "figure1", "--genus", "2", "--powers", "2,2"])
        assert code == 0
        assert json.loads(out)["overall"] == "pass"

    def test_thm44_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code, _, _ = run(
            capsys,
            ["report", "thm44", "--g", "2", "--k", "2", "--r", "1", "--out", str(out_path)],
        )
        assert code == 0
        assert json.loads(out_path.read_text())["overall"] == "pass"

    def test_thm53_markdown(self, capsys):
        code, out, _ = run(
            capsys,
            ["report", "thm53", "--m", "1", "--n", "3", "--k", "2", "--format", "md"],
        )
        assert code == 0
        assert "Overall: PASS" in out

    def test_cor55(self, capsys):
        code, out, _ = run(capsys, ["report", "cor55", "--h", "7"])
        assert code == 0
        assert json.loads(out)["overall"] == "pass"

    def test_family_file(self, capsys, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps([V.to_dict() for V in demo_family(2)]))
        code, _, _ = run(
            capsys,
            ["report", "thm44", "--g", "2", "--k", "2", "--r", "1", "--family", str(fam)],
        )
        assert code == 0

    @pytest.mark.parametrize("payload", [5, [{"matrix": [[-1, 1], [0, -1]]}], [[[-1, 1], [0, -1]]], [{"name": "x"}]])
    def test_malformed_family_file_is_an_error(self, capsys, tmp_path, payload):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(payload))
        code, out, err = run(
            capsys,
            ["report", "thm44", "--g", "2", "--k", "2", "--r", "1", "--family", str(fam)],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_failing_verdict_exits_nonzero(self, capsys, tmp_path):
        fam = tmp_path / "family.json"
        member = demo_family(2)[0].to_dict()
        duplicate = dict(member, name="again")
        fam.write_text(json.dumps([member, duplicate]))
        code, out, _ = run(
            capsys,
            ["report", "thm44", "--g", "2", "--k", "2", "--r", "1", "--family", str(fam)],
        )
        assert code == 1
        assert json.loads(out)["overall"] == "FAIL"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_cor55_n_below_one_exits_two(self, capsys, n):
        # at even h, n = 0 once passed with inputs.n = 0
        code, out, err = run(capsys, ["report", "cor55", "--h", "8", "--n", n])
        assert code == 2
        assert out == ""
        assert err == "error: n must be a positive integer\n"

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(
            capsys,
            ["report", "thm44", "--g", "2", "--k", "2", "--r", "1", "--family", "/nope.json"],
        )
        assert code == 2
        assert "error" in err


def run_exit(capsys, argv):
    """run(), reading argparse's SystemExit as the exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# int() takes the first two as 10; every one of them is an error
BAD_INTEGERS = ["1_0", "١٠", "3.0", "", "0x3"]


@pytest.mark.parametrize("bad", BAD_INTEGERS, ids=["underscore", "arabic-indic", "float", "empty", "hex"])
@pytest.mark.parametrize(
    "argv, named",
    [
        (["seifert", "from-star", "g.json", "--center", "{bad}"], "--center"),
        (["seifert", "open-book", "--genus", "{bad}", "--powers", "2,3"], "--genus"),
        (["lf", "chi", "--catalog", "hyperelliptic", "--param", "{bad}"], "--param"),
        (["lf", "chi", "--catalog", "korkmaz", "--param", "{bad}"], "--param"),
        (["report", "figure1", "--genus", "{bad}", "--powers", "2,3"], "--genus"),
        (["report", "thm44", "--g", "{bad}", "--k", "2", "--r", "1"], "--g"),
        (["report", "thm44", "--g", "2", "--k", "{bad}", "--r", "1"], "--k"),
        (["report", "thm44", "--g", "2", "--k", "2", "--r", "{bad}"], "--r"),
        (["report", "thm53", "--m", "{bad}", "--n", "3", "--k", "2"], "--m"),
        (["report", "thm53", "--m", "1", "--n", "{bad}", "--k", "2"], "--n"),
        (["report", "thm53", "--m", "1", "--n", "3", "--k", "{bad}"], "--k"),
        (["report", "cor55", "--h", "{bad}"], "--h"),
        (["report", "cor55", "--h", "7", "--n", "{bad}"], "--n"),
        (["seifert", "open-book", "--genus", "1", "--powers", "2,{bad}"], "power"),
        (["report", "figure1", "--genus", "1", "--powers", "{bad},3"], "power"),
        (["mcg", "action", "--word", "{word}", "--surface", "{bad},0"], "genus"),
        (["mcg", "action", "--word", "{word}", "--surface", "1,{bad}"], "boundary count"),
    ],
)
def test_integer_with_underscore_or_non_ascii_digits_is_an_error(capsys, tmp_path, argv, named, bad):
    # '1_0' once ran as 10 everywhere here: lf chi reported 84 singular fibers
    word = tmp_path / "w.txt"
    word.write_text("c1 c2")
    code, out, err = run_exit(capsys, [a.format(bad=bad, word=word) for a in argv])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    if named.startswith("--"):
        assert err.splitlines()[-1].endswith(f"error: argument {named}: invalid int value: {bad!r}")
    else:
        assert err == f"error: {named} {bad!r} is not an integer\n"


@pytest.mark.parametrize("bad", BAD_INTEGERS, ids=["underscore", "arabic-indic", "float", "empty", "hex"])
def test_word_exponent_with_underscore_or_non_ascii_digits_is_an_error(capsys, tmp_path, bad):
    # (c1 c2)^1_0 once gave letter_count 20
    word = tmp_path / "w.txt"
    word.write_text(f"(c1 c2)^{bad}")
    code, out, err = run(capsys, ["mcg", "action", "--word", str(word), "--surface", "1,0"])
    assert code == 2
    assert out == ""
    # an empty exponent is no token: the '^' dangles
    assert err == (f"error: exponent {bad!r} is not an integer\n" if bad else "error: dangling '^'\n")


def test_signed_and_padded_integers_still_parse(capsys, tmp_path):
    code, out, _ = run(capsys, ["lf", "chi", "--catalog", "hyperelliptic", "--param", " +3 "])
    assert code == 0
    assert json.loads(out)["singular_fibers"] == 28
    word = tmp_path / "w.txt"
    word.write_text("(c1 c2)^-3 (c2)^+2")
    code, out, _ = run(capsys, ["mcg", "action", "--word", str(word), "--surface", " 1 , 0 "])
    assert code == 0
    assert json.loads(out)["letter_count"] == 8


# Inputs, exit codes and stdout digests of one run of every subcommand.  A change
# that means to alter an output records its digest again; any other difference
# is a regression.
PINNED_INPUTS = {
    "star.json": '{"vertices": [{"id": 0, "weight": -2, "genus": 1}, {"id": 1, "weight": -2}, {"id": 2, "weight": -2},'
    ' {"id": 3, "weight": -2}], "edges": [[0, 1], [0, 2], [2, 3]]}',
    "left.json": '{"vertices": [{"id": 0, "weight": 0, "genus": 1}, {"id": 1, "weight": 3}], "edges": [[0, 1]]}',
    "script.json": '[{"op": "blow_up_on_edge", "edge": [0, 1], "sign": -1}, {"op": "blow_up_on_edge", "edge": [2, 1]},'
    ' {"op": "blow_down", "vertex": 1}, {"op": "blow_up_at_vertex", "vertex": 0, "sign": 1}]',
    "word.txt": "(c1 c2 c3^2 c2 c1)^2",
    "V.json": '{"name": "torus(2,5)", "matrix": [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]}',
}
PINNED_COMMANDS = {
    "report-figure1": ["report", "figure1", "--genus", "1", "--powers", "2,3"],
    "report-figure1-md": ["report", "figure1", "--genus", "1", "--powers", "2,3", "--format", "md"],
    "report-thm44": ["report", "thm44", "--g", "2", "--k", "2", "--r", "1"],
    "report-thm44-md": ["report", "thm44", "--g", "2", "--k", "2", "--r", "1", "--format", "md"],
    "report-thm44-r0": ["report", "thm44", "--g", "2", "--k", "2", "--r", "0"],
    "report-thm53": ["report", "thm53", "--m", "1", "--n", "3", "--k", "2"],
    "report-thm53-md": ["report", "thm53", "--m", "1", "--n", "3", "--k", "2", "--format", "md"],
    "report-cor55": ["report", "cor55", "--h", "9", "--n", "2"],
    "report-cor55-md": ["report", "cor55", "--h", "9", "--n", "2", "--format", "md"],
    "plumb-invariants": ["plumb", "invariants", "{tmp}/star.json"],
    "plumb-moves": ["plumb", "moves", "{tmp}/left.json", "{tmp}/script.json"],
    "seifert-from-star": ["seifert", "from-star", "{tmp}/star.json"],
    "seifert-open-book": ["seifert", "open-book", "--genus", "2", "--powers", "2,3"],
    "mcg-action": ["mcg", "action", "--word", "{tmp}/word.txt", "--surface", "1,0"],
    "lf-chi-hyperelliptic": ["lf", "chi", "--catalog", "hyperelliptic", "--param", "3"],
    "lf-chi-korkmaz": ["lf", "chi", "--catalog", "korkmaz", "--param", "2"],
    "knots-alexander": ["knots", "alexander", "{tmp}/V.json"],
}
PINNED_DIGESTS = {
    "report-figure1": (0, "a1810e04b189743f9e1c442be5cbd112c1f401e3c92da547253232daf6dbf023"),
    "report-figure1-md": (0, "b052d84a2b1704bdc489b2e9c1c83235c260999ddab0ad3ea17b2a83c9ba8297"),
    "report-thm44": (0, "b059fe2c08a6c9b392e51edda4b610001d04a873d674592fff5dacc70a4e475a"),
    "report-thm44-md": (0, "e3820c7cc8abcfa3d808afd4e73bdf4515193d495f7d2903a18dc109724a0a86"),
    "report-thm44-r0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "report-thm53": (0, "d817d2c2c2651028fde97c9d6c5e46dfacd488cace430f01804de5aa3e4210b9"),
    "report-thm53-md": (0, "af6968cc8bdd06ecdfd058b3ddfb5f0f1fbc178520c6b8ef12621cf3cea1e9ad"),
    "report-cor55": (0, "541338962d41443c54efb479ecee75e87170722845ce0a75054a7e0bb02c7690"),
    "report-cor55-md": (0, "36cb56b6412461fe737524c728a3001d9a30669b375d82c637597a0b035ba438"),
    "plumb-invariants": (0, "fdda50e4f8b764ba5f7514dd916ed0cf6a7e2459c972261441d2ef40e5a83bd8"),
    "plumb-moves": (0, "accb9cc6719e6819f9fc9d335b79dc9d34daa0f19be90628290b0a3e1fceffbb"),
    "seifert-from-star": (0, "3984d9241353970951557e0212bb869805f4e1b3ea3369668c1f57ac133b0110"),
    "seifert-open-book": (0, "da9dedd1c67fa7b9db3bc3da9254634f6ba55eb3236dd3bc2ea5456c60895610"),
    "mcg-action": (0, "6a74ab2177b7b0a12b999a5bcf8248d4c56b92d801bd05184daeeed28bc2e59c"),
    "lf-chi-hyperelliptic": (0, "be580b902cae17ef46078e15475d95cca5e1a84cb1870dd7392e45aaebf86bda"),
    "lf-chi-korkmaz": (0, "cb67090c8ca56b8547393df4484d6495e6303ddb93099805bf19c4a6609162f6"),
    "knots-alexander": (0, "823f6bf669f66b371e58f7bbcaae2768bbfb4edfd8ad32509b7afbc5236aa653"),
}


def test_cli_stdout_bytes_are_pinned(tmp_path):
    for name, text in PINNED_INPUTS.items():
        (tmp_path / name).write_text(text)
    got = {}
    for key, argv in PINNED_COMMANDS.items():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([a.format(tmp=tmp_path) for a in argv])
        got[key] = (code, hashlib.sha256(out.getvalue().encode()).hexdigest())
    assert got == PINNED_DIGESTS
