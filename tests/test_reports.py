import ast
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steincalc
from steincalc.bibliography import CITATIONS, DERIVED
from steincalc.knots import TREFOIL, connected_sum, demo_family
from steincalc.reports import (
    Report,
    json_text,
    report_corollary55,
    report_figure1,
    report_thm44,
    report_thm53,
)


def walk_reports(rpt):
    yield rpt
    for sub in rpt.subreports:
        yield from walk_reports(sub)


class TestFigure1:
    def test_single_two(self):
        rpt = report_figure1(2, (2,))
        assert rpt.overall
        assert "e = -1/2" in rpt.invariants["Seifert data"]
        assert rpt.invariants["H1(boundary)"] == "Z^4"

    def test_two_twos(self):
        rpt = report_figure1(0, (2, 2))
        assert rpt.overall
        assert "e = -1" in rpt.invariants["Seifert data"]
        assert rpt.invariants["H1(boundary)"] == "Z^0 + Z/4"

    def test_two_three_five(self):
        rpt = report_figure1(1, (2, 3, 5))
        assert rpt.overall
        expected = -(Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 5))
        assert f"e = {expected}" in rpt.invariants["Seifert data"]

    def test_twenty_fibers_in_under_a_second(self):
        start = time.perf_counter()
        rpt = report_figure1(1, (9, 5, 4, 6, 2, 4, 7, 7, 4, 2, 5, 8, 9, 5, 8, 8, 6, 6, 3, 9))
        assert time.perf_counter() - start < 1.0
        assert rpt.overall

    @pytest.mark.parametrize("bad", [2.9, 3.0, True, None, "3"])
    def test_non_integer_multiplicity_rejected(self, bad):
        with pytest.raises(ValueError, match="not an integer"):
            report_figure1(1, (bad, 3))

    def test_rejects_unit_multiplicity(self):
        with pytest.raises(ValueError):
            report_figure1(1, (1, 2))


class TestThm44:
    def test_reference_configuration(self):
        rpt = report_thm44(2, 2, 1)
        assert rpt.overall
        assert rpt.invariants["(chi, sigma) of every filling"] == "(45, -24)"
        assert "e = -1/2" in rpt.invariants["boundary"]
        assert any("10 distinguisher pairs" in c.name and c.passed for c in rpt.checks)

    def test_r_at_upper_bound(self):
        assert report_thm44(2, 2, 11).overall

    def test_r_beyond_bound_rejected(self):
        with pytest.raises(ValueError):
            report_thm44(2, 2, 12)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="family required"):
            report_thm44(2, 2, 1, family=[])

    def test_wrong_genus_family_rejected(self):
        with pytest.raises(ValueError, match="genus"):
            report_thm44(2, 2, 1, family=[TREFOIL])

    def test_duplicate_family_fails_verdict(self):
        member = connected_sum(TREFOIL, TREFOIL)
        rpt = report_thm44(2, 2, 1, family=[member, member])
        assert not rpt.overall

    def test_small_parameters_rejected(self):
        with pytest.raises(ValueError):
            report_thm44(1, 2, 1)
        with pytest.raises(ValueError):
            report_thm44(2, 1, 1)


class TestThm53:
    def test_reference_configuration(self):
        rpt = report_thm53(1, 3, 2)
        assert rpt.overall
        assert "(24, -16)" in rpt.invariants["twisted double"]
        assert rpt.invariants["(chi, sigma) of every filling"]
        assert "genus 7" in rpt.invariants["boundary"]
        assert any(c.name == "pi1 tag of the twisted double" and c.got == "Z + Z/3" for c in rpt.checks)

    def test_boundary_at_m2(self):
        rpt = report_thm53(2, 1, 2)
        assert rpt.overall
        assert "genus 9" in rpt.invariants["boundary"]

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            report_thm53(1, 0, 2)


class TestCorollary55:
    def test_h7_has_both_branches(self):
        rpt = report_corollary55(7)
        assert rpt.overall
        assert len(rpt.subreports) == 2
        # odd branch instantiated at m = 1, k = 2
        assert "m=1" in rpt.subreports[1].title

    def test_h8_parity_obstruction(self):
        rpt = report_corollary55(8)
        assert rpt.overall
        assert len(rpt.subreports) == 1
        assert "parity" in rpt.invariants["pi1 = Z + Z/n branch"]

    def test_h6_rejected(self):
        with pytest.raises(ValueError):
            report_corollary55(6)

    @pytest.mark.parametrize("h", [8, 9])
    @pytest.mark.parametrize("n", [0, -4])
    def test_n_below_one_rejected_at_either_parity(self, h, n):
        # at even h, n once went unchecked and the report passed with inputs.n = 0
        with pytest.raises(ValueError, match="n must be a positive integer"):
            report_corollary55(h, n=n)

    def test_nontrivial_n(self):
        rpt = report_corollary55(9, n=4)
        assert rpt.overall
        assert any("Z + Z/4" in s.title for s in rpt.subreports)


NON_INTEGERS = [2.0, 2.5, True, None, "2"]


class TestIntegerParameters:
    @pytest.mark.parametrize("bad", NON_INTEGERS)
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: report_thm44(x, 2, 1),
            lambda x: report_thm44(2, x, 1),
            lambda x: report_thm44(2, 2, x),
            lambda x: report_thm53(x, 2, 2),
            lambda x: report_thm53(1, x, 2),
            lambda x: report_thm53(1, 2, x),
            lambda x: report_corollary55(x),
            lambda x: report_corollary55(9, n=x),
            lambda x: report_corollary55(8, n=x),
            lambda x: report_figure1(x, (2,)),
        ],
        ids=["thm44-g", "thm44-k", "thm44-r", "thm53-m", "thm53-n", "thm53-k", "cor55-h", "cor55-n", "cor55-n-even-h", "figure1-h"],
    )
    def test_non_integer_parameter_rejected(self, build, bad):
        with pytest.raises(ValueError, match="not an integer"):
            build(bad)


class TestReportMechanics:
    def test_json_deterministic(self):
        a = report_thm44(2, 2, 1).to_json()
        b = report_thm44(2, 2, 1).to_json()
        assert a == b
        json.loads(a)

    def test_all_citations_resolve(self):
        reports = [
            report_figure1(1, (2, 3)),
            report_thm44(2, 2, 1),
            report_thm53(1, 2, 2),
            report_corollary55(7),
        ]
        for top in reports:
            for rpt in walk_reports(top):
                for c in rpt.checks:
                    assert c.citation in CITATIONS
                for a in rpt.assumptions:
                    assert a.citation in CITATIONS

    def test_every_citation_key_is_reached(self):
        # a key no module names is a citation no pipeline can use
        pkg = Path(steincalc.__file__).parent
        literals = set()
        for path in pkg.glob("*.py"):
            if path.name != "bibliography.py":
                tree = ast.parse(path.read_text())
                literals |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        assert sorted(set(CITATIONS) - {DERIVED} - literals) == []

    def test_markdown_contains_verdicts(self):
        md = report_figure1(1, (2,)).to_markdown()
        assert "Overall: PASS" in md
        assert "| check | expected | got | verdict | citation |" in md

    def test_failed_check_flips_overall(self):
        rpt = Report(title="t", inputs={})
        rpt.check("bad", 1, 2)
        assert not rpt.overall
        assert "FAIL" in rpt.to_markdown()
        assert json.loads(rpt.to_json())["overall"] == "FAIL"

    def test_unknown_citation_rejected(self):
        rpt = Report(title="t", inputs={})
        with pytest.raises(KeyError):
            rpt.check("x", 1, 1, citation="no-such-key")

    def test_demo_family_used_when_none_given(self):
        rpt = report_thm44(2, 2, 1, family=None)
        assert len(rpt.inputs["family"]) == len(demo_family(2))


# Characters the writer must escape as json does: control, non-ASCII, astral and lone surrogates.
JSON_CHARS = st.one_of(st.characters(), st.sampled_from('\x00\x1f\x7f\n\t"\\/\u00e9\u2028\ud800\U0001f600'))
JSON_STRINGS = st.text(alphabet=JSON_CHARS, max_size=6)
JSON_SCALARS = st.one_of(
    JSON_STRINGS,
    st.integers(),
    st.integers(min_value=2**200, max_value=2**300),
    st.integers(min_value=-(2**300), max_value=-(2**200)),
    st.booleans(),
    st.none(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_STRINGS, inner, max_size=4),
    ),
    max_leaves=24,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    @example({})
    @example([[], {}, ((),), {"a": {"b": []}}])
    @example({"\u00e9\x00": [2**255, -(2**201), True, None, ""]})
    def test_equals_stdlib_indented_dump(self, data):
        assert json_text(data) == json.dumps(data, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "data",
        [{1: "a"}, {"a": {None: 1}}, [{(1, 2): 0}], {"a": 1, 2: 3}, {True: 0}],
        ids=["int", "nested-None", "tuple-in-list", "mixed", "bool"],
    )
    def test_non_str_key_raises(self, data):
        with pytest.raises(TypeError):
            json_text(data)
