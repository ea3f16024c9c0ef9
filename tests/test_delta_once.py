"""A report does each per-family step once.

The family gate computes Delta once per member; the fiberedness
certificate and the collision scan read it, and the gate hands it on to
knot surgery (``FamilyReport.deltas``).  The distinguisher line is read off
the fillings, not recomputed.  Corollary 5.5 gates its family once and
hands the Deltas to both branches.  Every member of a family report shares
the fiber genus h, r and the section power p, so the excised piece (star
signature, boundary open book and its homology) is computed once per
``excise_fillings`` call.
"""

import json
import sys

import pytest

from steincalc import knots, seifert
from steincalc.cli import main
from steincalc.knots import TREFOIL, LaurentPoly, alexander, demo_family, family_report
from steincalc.reports import report_corollary55, report_thm44, report_thm53
from steincalc.smooth4 import excise_fillings, fiber_sum, knot_surgery, make_X_g1

# Normalized Delta of the demo-family blocks, written out by hand.
TREFOIL_DELTA = LaurentPoly({1: 1, 0: -1, -1: 1})
FIG8_DELTA = LaurentPoly({1: 1, 0: -3, -1: 1})
TORUS_2_5_DELTA = LaurentPoly({2: 1, 1: -1, 0: 1, -1: -1, -2: 1})
CHAIN_2_DELTA = LaurentPoly({2: 1, 1: 2, 0: -5, -1: 2, -2: 1})


def count_calls(monkeypatch, original):
    """Arguments passed to the one-argument function original, through every steincalc.* binding of it."""
    calls = []

    def counted(arg):
        calls.append(arg)
        return original(arg)

    for name, module in list(sys.modules.items()):
        if name == "steincalc" or name.startswith("steincalc."):
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def alexander_calls(monkeypatch):
    return count_calls(monkeypatch, knots.alexander)


@pytest.fixture
def openbook_homology_calls(monkeypatch):
    return count_calls(monkeypatch, seifert.openbook_homology)


@pytest.mark.parametrize(
    "build, calls",
    [
        (lambda: report_thm44(2, 2, 1), 5),
        (lambda: report_thm53(1, 3, 2), 5),
        (lambda: report_corollary55(9), 5),
    ],
    ids=["thm44", "thm53", "cor55"],
)
def test_report_computes_delta_once_per_member(alexander_calls, build, calls):
    assert build().overall
    assert len(alexander_calls) == calls


@pytest.mark.parametrize(
    "build, calls",
    [
        (lambda: report_thm44(2, 2, 1), 1),
        (lambda: report_thm53(1, 3, 2), 1),
        (lambda: report_corollary55(9), 2),  # one excision per branch
    ],
    ids=["thm44", "thm53", "cor55"],
)
def test_report_computes_the_boundary_homology_once(openbook_homology_calls, build, calls):
    assert build().overall
    assert len(openbook_homology_calls) == calls


def test_records_of_different_fiber_genus_get_their_own_piece(openbook_homology_calls):
    def surgered(g):
        X2 = fiber_sum(make_X_g1(g), make_X_g1(g))
        return [knot_surgery(X2, V, alexander(V)) for V in demo_family(2)[:2]]

    records = surgered(2) + surgered(3) + [fiber_sum(make_X_g1(2), make_X_g1(2))]  # fiber genus 6, 6, 7, 7, 2
    fillings = excise_fillings(records, 1)
    assert len(openbook_homology_calls) == 3
    assert [f.boundary.base_genus for f in fillings] == [6, 6, 7, 7, 2]
    assert fillings == [excise_fillings([M], 1)[0] for M in records]


@pytest.mark.parametrize("k", [2, 3])
def test_gate_keeps_each_members_delta_in_order(k):
    fam = demo_family(k)
    assert family_report(fam, k).deltas == tuple(alexander(V) for V in fam)


def test_cli_alexander_computes_delta_once(alexander_calls, capsys, tmp_path):
    matrix = tmp_path / "V.json"
    matrix.write_text(json.dumps(TREFOIL.to_dict()))
    assert main(["knots", "alexander", str(matrix)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fibered_certificate"]["passes"] is True
    assert len(alexander_calls) == 1


def test_thm44_distinguisher_line_matches_block_goldens():
    members = [
        ("trefoil # trefoil", TREFOIL_DELTA * TREFOIL_DELTA),
        ("trefoil # figure-eight", TREFOIL_DELTA * FIG8_DELTA),
        ("figure-eight # figure-eight", FIG8_DELTA * FIG8_DELTA),
        ("torus(2,5)", TORUS_2_5_DELTA),
        ("chain(2)", CHAIN_2_DELTA),
    ]
    line = report_thm44(2, 2, 1).invariants["distinguishers"]
    assert line == "; ".join(f"{name}: {delta.substitute_power(2)}" for name, delta in members)
    assert line.startswith("trefoil # trefoil: t^4 - 2*t^2 + 3 - 2*t^-2 + t^-4; ")
