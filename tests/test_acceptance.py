"""Acceptance suite: every criterion exact, each within its stated time budget.

One pass/fail line prints per criterion (run with -s to watch them live).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from oracles import intersection_form, matmul, random_seifert_matrix, random_tree

from steincalc.exactmat import IntMatrix, determinant, signature
from steincalc.knots import (
    FIGURE_EIGHT,
    TREFOIL,
    UNKNOT,
    LaurentPoly,
    alexander,
    connected_sum,
)
from steincalc.mcg import (
    Curve,
    SurfaceSpec,
    TwistWord,
    chain_curves,
    hyperelliptic_half_word,
    hyperelliptic_word,
    lf_euler_characteristic,
    word_action,
)
from steincalc.plumbing import (
    BLOW_DOWN,
    BLOW_UP_AT_VERTEX,
    BLOW_UP_ON_EDGE,
    Move,
    MoveScript,
    boundary_homology,
    grauert_check,
    intersection_matrix,
    star_graph_left,
    star_graph_right,
)
from steincalc.reports import report_thm44, report_thm53
from steincalc.seifert import (
    OpenBookDesc,
    openbook_homology,
    openbook_manifold,
    star_to_seifert,
)
from steincalc.smooth4 import fiber_sum, knot_surgery, make_X_g1


def move(G, op, **fields):
    return MoveScript([Move(op, **fields)]).replay(G)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s (budget {budget_seconds}s)"
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_euler_characteristic_double_counts():
    with criterion(1, "Euler-characteristic double counts", 1.0):
        for g in range(1, 6):
            assert lf_euler_characteristic(g, 8 * g + 4) == 4 * g + 8 == 2 + 1 + (4 * g + 5)
        for m in range(1, 5):
            g = 2 * m + 1
            assert lf_euler_characteristic(g, 2 * g + 10) == 12 - 4 * m == (4 - 4 * m) + 8


def test_criterion_2_homological_relation_certificates():
    with criterion(2, "homological relation certificates", 5.0):
        for g in range(1, 6):
            n = 2 * g
            identity = IntMatrix.identity(n)
            minus = IntMatrix([[-1 if i == j else 0 for j in range(n)] for i in range(n)])
            assert word_action(hyperelliptic_half_word(g, chain_curves(g))) == minus
            assert word_action(hyperelliptic_word(g, chain_curves(g))) == identity
        rng = random.Random(1009)
        for _ in range(200):
            g = rng.randint(1, 5)
            r = rng.choice((0, 0, 2, 3))
            S = SurfaceSpec(g, r)
            J = intersection_form(S)
            c = Curve("c", tuple(rng.randint(-3, 3) for _ in range(S.h1_rank)))
            T = word_action(TwistWord(S, (("c", 1),), {"c": c}))
            assert matmul(T.transpose(), J, T) == J


def test_criterion_4_star_equivalence_sweep():
    with criterion(4, "positive/reduced star equivalence sweep", 30.0):
        for h in range(0, 4):
            for r in range(1, 5):
                for ps in product(range(2, 7), repeat=r):
                    left = star_graph_left(h, ps)
                    right = star_graph_right(h, ps)
                    hom = boundary_homology(left)
                    assert hom == boundary_homology(right)
                    assert hom[0] == 2 * h + 0  # zero nullity: e < 0 forces nonsingular form
                    ob = OpenBookDesc(h, ps)
                    assert hom == openbook_homology(ob)
                    sd = star_to_seifert(right, center=0)
                    assert sd == openbook_manifold(ob)
                    e = sd.euler_number
                    assert e == -sum(Fraction(1, p) for p in ps)
                    assert e < 0
                    assert grauert_check(right)


def test_criterion_5_move_invariance_suite():
    with criterion(5, "move-invariance property suite", 30.0):
        rng = random.Random(271828)
        applied = 0
        G = random_tree(rng, rng.randint(2, 8))
        while applied < 1000:
            if len(G.vertex_ids) > 8:
                G = random_tree(rng, rng.randint(2, 8))
                continue
            hom = boundary_homology(G)
            M = intersection_matrix(G)
            det0, sig0 = determinant(M), signature(M)
            downs = [
                v
                for v in G.vertex_ids
                if G.weight(v) == -1
                and G.genus(v) == 0
                and G.degree(v) <= 2
                and len(G.vertex_ids) > 1
            ]
            options = ["up_vertex"]
            if G.edges:
                options.append("up_edge")
            if downs:
                options += ["down", "down"]
            kind = rng.choice(options)
            if kind == "up_vertex":
                G, shift = move(G, BLOW_UP_AT_VERTEX, vertex=rng.choice(G.vertex_ids)), -1
            elif kind == "up_edge":
                G, shift = move(G, BLOW_UP_ON_EDGE, edge=rng.choice(G.edges)), -1
            else:
                G, shift = move(G, BLOW_DOWN, vertex=rng.choice(downs)), +1
            M1 = intersection_matrix(G)
            assert boundary_homology(G) == hom
            assert abs(determinant(M1)) == abs(det0)
            assert determinant(M1) == -det0
            assert signature(M1) == sig0 + shift
            applied += 1


def test_criterion_6_simply_connected_filling_report():
    with criterion(6, "simply-connected filling family desk instance", 5.0):
        rpt = report_thm44(2, 2, 1)
        assert rpt.overall
        assert rpt.invariants["(chi, sigma) of every filling"] == "(45, -24)"
        assert "(genus 6; e0 = -1; legs [(2,1)]; e = -1/2)" == rpt.invariants["boundary"]
        by_name = {c.name: c for c in rpt.checks}
        assert by_name["all 10 distinguisher pairs distinct"].passed
        assert by_name["determinant of the intersection form"].passed
        assert by_name["boundary is a singularity link (e < 0)"].passed
        assert by_name["canonical contact structure flags"].passed
        assert by_name["simply connected flags"].passed


def test_criterion_7_torsion_pi1_filling_report():
    with criterion(7, "Z + Z/3 filling family desk instance", 5.0):
        rpt = report_thm53(1, 3, 2)
        assert rpt.overall
        assert "(24, -16)" in rpt.invariants["twisted double"]
        by_name = {c.name: c for c in rpt.checks}
        assert by_name["fibration genus g + 2k = 2(m+k)+1"].got == "{7}"
        assert "(genus 7; e0 = -1; legs [(2,1)]; e = -1/2)" == rpt.invariants["boundary"]
        assert by_name["pi1 tag of the twisted double"].got == "Z + Z/3"
        assert by_name["pi1 tag of the twisted double"].citation == "twisted-sum-pi1"
        assert by_name[f"all {len(rpt.inputs['family']) * (len(rpt.inputs['family']) - 1) // 2} distinguisher pairs distinct"].passed


def test_criterion_8_alexander_goldens_and_algebra():
    with criterion(8, "Alexander golden values and algebra", 10.0):
        assert alexander(TREFOIL) == LaurentPoly({1: 1, 0: -1, -1: 1})
        assert alexander(FIGURE_EIGHT) == LaurentPoly({1: 1, 0: -3, -1: 1})
        assert alexander(UNKNOT) == LaurentPoly.one()
        rng = random.Random(161803)
        for _ in range(500):
            V = random_seifert_matrix(rng, rng.randint(1, 3))
            delta = alexander(V)
            assert delta.is_symmetric
            assert delta.evaluate_at_one() in (1, -1)
        for _ in range(50):
            V1 = random_seifert_matrix(rng, rng.randint(1, 2))
            V2 = random_seifert_matrix(rng, rng.randint(1, 2))
            assert alexander(connected_sum(V1, V2)) == (alexander(V1) * alexander(V2)).normalized()


def test_criterion_9_knot_surgery_invariance():
    with criterion(9, "knot-surgery invariance and multiplicativity", 5.0):
        rng = random.Random(31415)
        X2 = fiber_sum(make_X_g1(2), make_X_g1(2))
        for _ in range(100):
            K1 = random_seifert_matrix(rng, rng.randint(1, 2))
            K2 = random_seifert_matrix(rng, rng.randint(1, 2))
            M = knot_surgery(knot_surgery(X2, K1, alexander(K1)), K2, alexander(K2))
            assert (M.euler_char, M.signature) == (X2.euler_char, X2.signature)
            want = (
                alexander(K1).substitute_power(2) * alexander(K2).substitute_power(2)
            ).normalized()
            assert M.sw_distinguisher == want
