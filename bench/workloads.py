"""The three workloads: seeded rounds of ops, each op with its output check.

A round is a fixed mix of op kinds with seeded parameters, so every round
of every seed has the same shape and only the inputs change.  An op's
``call`` is the timed call into the program; ``check`` runs untimed on its
result, raises ``CheckFailed`` on a wrong output and otherwise returns the
op's mathematical content (numbers, polynomials, the invariants table and
the verdict), which the runner digests.

Ops look the program's functions up on their modules at call time, so the
traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen
from steincalc import cli, exactmat, knots, plumbing, reports


class CheckFailed(Exception):
    """The program returned a wrong output."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], object]
    props: dict = field(default_factory=dict)


# -- shared checks ------------------------------------------------------------------


def check_invariants(n, genus, det, sig, negdef, rank, torsion, definite):
    """Consistency of det, signature, definiteness and H1 = Z^(2g) + coker."""
    zeros = rank - 2 * genus
    require(zeros >= 0, f"H1 rank {rank} below 2*genus {2 * genus}")
    if det == 0:
        require(zeros >= 1, "det = 0 but no zero SNF entry")
    else:
        require(zeros == 0, f"det = {det} but {zeros} zero SNF entries")
        require(abs(det) == math.prod(torsion), f"|det| {abs(det)} != torsion product {torsion}")
    require(negdef == (sig == -n), f"negative_definite {negdef} but signature {sig} at n = {n}")
    if definite:
        require(negdef, "diagonally dominant tree not negative definite")
        require(det == (-1) ** n * abs(det), "definite form with det of the wrong sign")


def report_content(d: dict) -> dict:
    return {
        "invariants": d["invariants"],
        "overall": d["overall"],
        "subreports": [report_content(s) for s in d["subreports"]],
    }


def check_distinguishers(d: dict, expected: list):
    """The report's distinguisher line lists Delta(t^2) of each member, in order."""
    line = d["invariants"]["distinguishers"]
    got = []
    for entry in line.split("; "):
        _, _, poly = entry.rpartition(": ")
        got.append(gen.parse_laurent(poly))
    want = [gen.poly_t_squared(gen.golden_delta(ms)) for ms in expected]
    require(got == want, f"distinguishers {line!r} differ from the block goldens")


def check_report(d: dict, expected_members=None) -> dict:
    require(d["overall"] == "pass", f"report verdict {d['overall']}")
    if expected_members is not None:
        thm44 = d if "distinguishers" in d["invariants"] else d["subreports"][0]
        check_distinguishers(thm44, expected_members)
    return report_content(d)


# -- trees ----------------------------------------------------------------------------

# Vertex counts per round.  At this commit smith_diagonal's coefficient
# growth stalls (past 40 s) on about 1 in 5000 indefinite trees of 22
# vertices and exceeds 0.3 s on about 1 in 4000 definite trees of 24, so the
# sizes stop where no seed hits the stall guard.
DEFINITE_SIZES = (20, 21, 22) * 5
INDEFINITE_SIZES = (12, 13, 14, 15, 16)


def tree_op(tree) -> Op:
    verts, edges = tree["vertices"], tree["edges"]
    props = gen.tree_props(tree)

    def call():
        G = plumbing.PlumbingGraph(verts, edges)
        M = plumbing.intersection_matrix(G)
        return (
            exactmat.determinant(M),
            exactmat.signature(M),
            exactmat.is_negative_definite(M),
            plumbing.boundary_homology(G),
        )

    def check(out):
        det, sig, negdef, (rank, torsion) = out
        check_invariants(props["vertices"], props["genus"], det, sig, negdef, rank, torsion, tree["definite"])
        return [det, sig, negdef, rank, list(torsion)]

    return Op("tree", call, check, props)


def trees_round(rng, workdir) -> list:
    ops = [tree_op(gen.resolution_tree(rng, n)) for n in DEFINITE_SIZES]
    ops += [tree_op(gen.indefinite_tree(rng, n)) for n in INDEFINITE_SIZES]
    rng.shuffle(ops)
    return ops


# -- families -------------------------------------------------------------------------

# (genus k, report kind, ops per round).  Sorted by cost, the strata are
# thm53/k2 < thm44/k2 < cor55/k2 < thm53/k3 < thm44/k3 < thm44/k4 < thm44/k5;
# the counts put the median in the middle of the cor55 ops and p90 in the
# middle of the genus-4 ops, away from a stratum boundary.
FAMILY_MIX = (
    (2, "thm53", 5), (2, "thm44", 5), (2, "cor55", 5),
    (3, "thm53", 3), (3, "thm44", 2),
    (4, "thm44", 4),
    (5, "thm44", 1),
)


def family_op(rng, kind, k) -> Op:
    fam = gen.seifert_family(rng, k)
    text = json.dumps([{"name": m["name"], "matrix": m["matrix"]} for m in fam["members"]])
    blocks = [m["blocks"] for m in fam["members"]]
    if kind == "thm44":
        # r legs on the filling's boundary star: the report's exactmat work
        # grows with r (a genus-2 report takes 10 ms at r = 2 and 60 ms at
        # r = 19), so r stays small and the family's Alexander polynomials
        # set the cost, and thm44/k2 stays below cor55/k2.
        g = rng.randint(2, 4)
        args = (g, k, rng.randint(1, 4))
        expected = blocks
    elif kind == "thm53":
        args = (rng.randint(1, 3), rng.randint(1, 5), k)
        expected = None
    else:
        # odd h, so every corollary op builds both filling families
        args = (rng.choice((7, 9, 11)), rng.randint(1, 4))
        expected = blocks
    run = {"thm44": "report_thm44", "thm53": "report_thm53", "cor55": "report_corollary55"}[kind]

    def call():
        family = knots.load_family(text)
        if kind == "cor55":
            rpt = getattr(reports, run)(args[0], n=args[1], family=family)
        else:
            rpt = getattr(reports, run)(*args, family=family)
        return rpt.to_json()

    props = dict(fam["props"], report=kind, args=list(args))
    return Op(f"{kind}/k{k}", call, lambda out: check_report(json.loads(out), expected), props)


def families_round(rng, workdir) -> list:
    specs = [(kind, k) for k, kind, count in FAMILY_MIX for _ in range(count)]
    ops = [family_op(rng, kind, k) for kind, k in specs]
    rng.shuffle(ops)
    return ops


# -- desk -----------------------------------------------------------------------------


def _cli_call(argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return call


def _desk_op(kind, argv, check, props=None) -> Op:
    """A CLI op; ``check`` validates the printed JSON and returns its math content."""

    def checked(out):
        code, text = out
        require(code == 0, f"exit code {code}")
        return check(json.loads(text))

    return Op(kind, _cli_call(argv), checked, props or {})


def _graph_content(d, genus, definite=False) -> list:
    """Checks a graph payload's invariants and returns them."""
    h = d["boundary_homology"]
    det, sig, negdef = d["determinant"], d["signature"], d["negative_definite"]
    check_invariants(len(d["graph"]["vertices"]), genus, det, sig, negdef, h["rank"], h["torsion"], definite)
    return [det, sig, negdef, h["rank"], h["torsion"]]


def _seifert_content(d) -> list:
    return [d["euler_number"], d["seifert_data"], d["singularity_link"], d["milnor_fillable"],
            d["unique_transverse_invariant_class"]]


def _demo_blocks(k):
    return [("T",) * k, ("E",) + ("T",) * (k - 1), ("E",) * k, ("C1",) + ("T",) * (k - 2), ("C2",) + ("E",) * (k - 2)]


class DeskInputs:
    """Writes each op's input files under the run's work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, suffix, data) -> str:
        self.count += 1
        path = self.workdir / f"in{self.count}{suffix}"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        return str(path)


def desk_figure1(rng, files):
    h, ps = gen.figure1_powers(rng)
    argv = ["report", "figure1", "--genus", str(h), "--powers", ",".join(map(str, ps))]
    return _desk_op("report figure1", argv, check_report, {"genus": h, "powers": list(ps)})


def desk_thm44(rng, files):
    g, k = rng.randint(2, 3), rng.randint(2, 3)
    argv = ["report", "thm44", "--g", str(g), "--k", str(k), "--r", str(rng.randint(1, 4 * g + 3))]
    return _desk_op("report thm44", argv, lambda d: check_report(d, _demo_blocks(k)), {"genus": k})


def desk_thm53(rng, files):
    k = rng.randint(2, 3)
    argv = ["report", "thm53", "--m", str(rng.randint(1, 2)), "--n", str(rng.randint(1, 5)), "--k", str(k)]
    return _desk_op("report thm53", argv, check_report, {"genus": k})


def desk_cor55(rng, files):
    argv = ["report", "cor55", "--h", str(rng.randint(7, 9)), "--n", str(rng.randint(1, 3))]
    return _desk_op("report cor55", argv, lambda d: check_report(d, _demo_blocks(2)), {"genus": 2})


def desk_plumb_invariants(rng, files):
    n = rng.randint(2, 12)
    tree = gen.resolution_tree(rng, n) if rng.random() < 0.5 else gen.indefinite_tree(rng, n)
    props = gen.tree_props(tree)
    path = files.write(".json", gen.graph_dict(tree))

    def check(d):
        return _graph_content(d, props["genus"], tree["definite"])

    return _desk_op("plumb invariants", ["plumb", "invariants", path], check, props)


def desk_plumb_moves(rng, files):
    if rng.random() < 0.5:
        h, ps = gen.figure1_powers(rng)
        tree, script = gen.positive_star(h, ps), gen.reduction_script(ps)
        round_trip = False
    else:
        tree = gen.indefinite_tree(rng, rng.randint(2, 10))
        script = gen.round_trip_script(rng, tree, rng.randint(1, 6))
        round_trip = True
    props = dict(gen.tree_props(tree), moves=len(script))
    graph = files.write(".json", gen.graph_dict(tree))
    moves = files.write(".json", script)

    def check(d):
        require(d["moves_applied"] == len(script), "moves_applied")
        before, after = d["before"], d["after"]
        require(before["boundary_homology"] == after["boundary_homology"], "moves changed H1")
        if round_trip:
            same = {k: v for k, v in before.items() if k != "graph"} == {k: v for k, v in after.items() if k != "graph"}
            edges = [{frozenset(e) for e in x["graph"]["edges"]} for x in (before, after)]
            require(same and edges[0] == edges[1], "round-trip script did not restore the graph")
        else:
            require(after["negative_definite"], "reduced star not negative definite")
        return [d["moves_applied"], _graph_content(before, props["genus"]), _graph_content(after, props["genus"])]

    return _desk_op("plumb moves", ["plumb", "moves", graph, moves], check, props)


def desk_seifert_star(rng, files):
    h = rng.randint(0, 3)
    star = gen.reduced_star(rng, h, rng.randint(1, 4))
    path = files.write(".json", gen.graph_dict(star))

    def check(d):
        require(d["euler_number"] == str(star["euler"]), f"euler {d['euler_number']} != {star['euler']}")
        require(d["singularity_link"] == (star["euler"] < 0), "singularity_link")
        return _seifert_content(d)

    argv = ["seifert", "from-star", path, "--center", "0"]
    return _desk_op("seifert from-star", argv, check, {"genus": h, "vertices": len(star["vertices"])})


def desk_open_book(rng, files):
    h, ps = gen.figure1_powers(rng)
    euler = -sum(Fraction(1, p) for p in ps)

    def check(d):
        require(d["euler_number"] == str(euler), "open-book Euler number")
        require(d["singularity_link"] is True, "open-book singularity_link")
        require(d["homology"]["rank"] >= 2 * h, "open-book H1 rank")
        return _seifert_content(d) + [d["homology"]["rank"], d["homology"]["torsion"]]

    argv = ["seifert", "open-book", "--genus", str(h), "--powers", ",".join(map(str, ps))]
    return _desk_op("seifert open-book", argv, check, {"genus": h, "powers": list(ps)})


def desk_mcg_action(rng, files):
    g, full = rng.randint(1, 10), rng.random() < 0.5
    text = gen.half_word_text(g)
    path = files.write(".txt", f"({text})^2" if full else text)
    sign = 1 if full else -1
    want = [[sign * int(i == j) for j in range(2 * g)] for i in range(2 * g)]

    def check(d):
        require(d["action"] == want, "hyperelliptic word does not act by +-identity")
        require(d["is_identity"] is full, "is_identity")
        require(d["letter_count"] == (8 if full else 4) * g + (4 if full else 2), "letter_count")
        return [d["action"], d["is_identity"], d["letter_count"]]

    argv = ["mcg", "action", "--word", path, "--surface", f"{g},0"]
    return _desk_op("mcg action", argv, check, {"genus": g, "full": full})


def desk_lf_chi(rng, files):
    if rng.random() < 0.5:
        catalog, param = "hyperelliptic", rng.randint(1, 10)
        fibers = 8 * param + 4
    else:
        catalog, param = "korkmaz", rng.randint(1, 4)
        fibers = 2 * (2 * param + 1) + 10

    def check(d):
        require(d["match"] is True, "chi double count")
        require(d["singular_fibers"] == fibers, "singular fiber count")
        return [d["chi_from_blowups"], d["chi_from_fibration"], d["fiber_genus"], d["singular_fibers"], d["match"]]

    argv = ["lf", "chi", "--catalog", catalog, "--param", str(param)]
    return _desk_op("lf chi", argv, check, {"catalog": catalog, "param": param})


def desk_alexander(rng, files):
    k = rng.randint(1, 3)
    ms = rng.choice(gen.block_multisets(k))
    matrix = gen.congruent_seifert(rng, ms)
    path = files.write(".json", {"name": "V", "matrix": matrix})
    golden = gen.golden_delta(ms)
    want = {str(e): c for e, c in sorted(golden.items())}

    def check(d):
        cert = d["fibered_certificate"]
        require(d["alexander_coefficients"] == want, "Delta differs from the block goldens")
        require(d["delta_at_1"] == sum(golden.values()), "Delta(1) differs from the goldens")
        require(cert["passes"] is True, "fiberedness certificate")
        return [d["alexander_coefficients"], d["delta_at_1"], d["genus"], cert["monic"], cert["span_matches"], cert["passes"]]

    props = {"genus": k, "blocks": ms, "entry_bits": gen.entry_bits(matrix)}
    return _desk_op("knots alexander", ["knots", "alexander", path], check, props)


# One op per CLI command of the paper's desk instances, so no command's
# weight is a guess; the mcg op draws a half or a full word.
DESK_OPS = (
    desk_figure1, desk_thm44, desk_thm53, desk_cor55,
    desk_plumb_invariants, desk_plumb_moves,
    desk_seifert_star, desk_open_book,
    desk_mcg_action, desk_lf_chi, desk_alexander,
)


def desk_round(rng, workdir) -> list:
    files = DeskInputs(workdir)
    ops = [make(rng, files) for make in DESK_OPS]
    rng.shuffle(ops)
    return ops


WORKLOADS = {"desk": desk_round, "trees": trees_round, "families": families_round}


def rounds(workload: str, seed: int, workdir: Path, warmup: bool = False):
    """Endless rounds of ops; the same seed gives the same rounds."""
    phase = "warmup" if warmup else "timed"
    rng = random.Random(f"{workload}-{seed}-{phase}")
    workdir = workdir / phase
    workdir.mkdir(exist_ok=True)
    make = WORKLOADS[workload]
    while True:
        yield make(rng, workdir)
