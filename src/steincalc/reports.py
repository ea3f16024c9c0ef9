"""Machine-checked invariant reports for the headline constructions.

A Report separates three kinds of content: an invariant table (computed
values), checks (each with expected/got/verdict and a citation key, where
"derived-oracle" means the expectation was recomputed in-package), and
assumptions (facts cited from the literature that the toolkit does not
verify).  The overall verdict is the conjunction of all checks, including
those of nested subreports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import bibliography
from .bibliography import DERIVED
from .exactmat import _as_int, _Record
from .knots import demo_family, family_report
from .mcg import lf_euler_characteristic
from .plumbing import (
    boundary_homology,
    grauert_check,
    positive_star_reduction,
    star_graph_left,
    star_graph_right,
)
from .seifert import (
    OpenBookDesc,
    canonical_contact_flag,
    is_singularity_link,
    openbook_homology,
    openbook_manifold,
    star_to_seifert,
)
from .smooth4 import (
    PI1_Z_PLUS_ZN,
    distinguisher_distinct,
    excise_fillings,
    fiber_sum,
    knot_surgery,
    make_W,
    make_X_g1,
)


def json_text(data) -> str:
    """``json.dumps(data, indent=2, sort_keys=True)``, byte for byte, for str-keyed data.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder;
    this recursion writes the same text in about half the time.  A key
    that is not a ``str`` raises ``TypeError``.
    """
    out = []
    _write_json(data, "\n", out)
    return "".join(out)


def _write_json(x, nl: str, out: list) -> None:
    if type(x) is int:  # what json writes for an int, without a json.dumps call per entry
        out.append(int.__repr__(x))
    elif type(x) is str:
        out.append(encode_basestring_ascii(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(x):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(x[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in x:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(json.dumps(x))


class Check(_Record):
    __slots__ = ("name", "expected", "got", "passed", "citation")

    def __init__(self, name, expected, got, passed, citation=DERIVED):
        self.name, self.expected, self.got, self.passed, self.citation = name, expected, got, passed, citation

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "got": self.got,
            "verdict": "pass" if self.passed else "FAIL",
            "citation": self.citation,
        }


class Assumption(_Record):
    __slots__ = ("text", "citation")

    def __init__(self, text, citation):
        self.text, self.citation = text, citation

    def to_dict(self) -> dict:
        return {"text": self.text, "citation": self.citation}


class Report(_Record):
    __slots__ = ("title", "inputs", "invariants", "checks", "assumptions", "subreports")
    __hash__ = None  # mutable: checks, assumptions and subreports are appended after construction

    def __init__(self, title, inputs, invariants=None, checks=None, assumptions=None, subreports=None):
        self.title, self.inputs = title, inputs
        self.invariants = {} if invariants is None else invariants
        self.checks = [] if checks is None else checks
        self.assumptions = [] if assumptions is None else assumptions
        self.subreports = [] if subreports is None else subreports

    def check(self, name, expected, got, citation=DERIVED):
        bibliography.resolve(citation)
        self.checks.append(
            Check(name=name, expected=str(expected), got=str(got), passed=expected == got, citation=citation)
        )

    def check_true(self, name, got, citation=DERIVED):
        self.check(name, True, got, citation)

    def assume(self, text, citation):
        bibliography.resolve(citation)
        self.assumptions.append(Assumption(text=text, citation=citation))

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks) and all(s.overall for s in self.subreports)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "inputs": self.inputs,
            "invariants": self.invariants,
            "checks": [c.to_dict() for c in self.checks],
            "assumptions": [a.to_dict() for a in self.assumptions],
            "subreports": [s.to_dict() for s in self.subreports],
            "overall": "pass" if self.overall else "FAIL",
        }

    def to_json(self) -> str:
        return json_text(self.to_dict()) + "\n"

    def to_markdown(self, level: int = 1) -> str:
        lines = [f"{'#' * level} {self.title}", ""]
        if self.inputs:
            lines.append("Inputs: " + ", ".join(f"{k} = {v}" for k, v in self.inputs.items()))
            lines.append("")
        if self.invariants:
            lines += ["| invariant | value |", "| --- | --- |"]
            lines += [f"| {k} | {v} |" for k, v in self.invariants.items()]
            lines.append("")
        if self.checks:
            lines += [
                "| check | expected | got | verdict | citation |",
                "| --- | --- | --- | --- | --- |",
            ]
            for c in self.checks:
                verdict = "pass" if c.passed else "**FAIL**"
                lines.append(f"| {c.name} | {c.expected} | {c.got} | {verdict} | {c.citation} |")
            lines.append("")
        if self.assumptions:
            lines.append("Cited assumptions (not machine-verified):")
            lines += [f"- {a.text} [{a.citation}]" for a in self.assumptions]
            lines.append("")
        for sub in self.subreports:
            lines.append(sub.to_markdown(level + 1))
        lines.append(f"{'#' * level} Overall: {'PASS' if self.overall else 'FAIL'}")
        lines.append("")
        return "\n".join(lines)


def _fmt_homology(h) -> str:
    rank, torsion = h
    tors = " + " + " + ".join(f"Z/{t}" for t in torsion) if torsion else ""
    return f"Z^{rank}{tors}"


def _fmt_seifert(sd) -> str:
    legs = ", ".join(f"({a},{b})" for a, b in sd.legs)
    return f"(genus {sd.base_genus}; e0 = {sd.e0}; legs [{legs}]; e = {sd.euler_number})"


def report_figure1(h: int, ps) -> Report:
    """Equivalence of the positive star and its reduced negative form."""
    h, ps = _as_int(h, "h"), tuple(_as_int(p, "multiplicity") for p in ps)
    if not ps or any(p < 2 for p in ps):
        raise ValueError("multiplicities must all be >= 2")
    if h < 0:
        raise ValueError("genus must be >= 0")
    rpt = Report(
        title=f"Star presentations of the genus-{h} link with multiplicities {list(ps)}",
        inputs={"h": h, "p": list(ps)},
    )
    left = star_graph_left(h, ps)
    right = star_graph_right(h, ps)
    hl, hr = boundary_homology(left), boundary_homology(right)
    rpt.invariants["H1(boundary)"] = _fmt_homology(hl)
    rpt.check("boundary homology, positive vs reduced star", _fmt_homology(hl), _fmt_homology(hr))

    script = positive_star_reduction(h, ps)
    reduced = script.replay(left)
    sd_reduced = star_to_seifert(reduced, center=0)
    sd_right = star_to_seifert(right, center=0)
    rpt.invariants["Seifert data"] = _fmt_seifert(sd_right)
    rpt.check(
        f"move script ({len(script)} moves) reduces the positive star to the same Seifert data",
        _fmt_seifert(sd_right),
        _fmt_seifert(sd_reduced),
    )

    ob = OpenBookDesc(page_genus=h, powers=ps)
    rpt.check("open-book route gives the same Seifert data", _fmt_seifert(sd_right), _fmt_seifert(openbook_manifold(ob)))
    rpt.check(
        "open-book homology matches the plumbing cokernel",
        _fmt_homology(hr),
        _fmt_homology(openbook_homology(ob)),
    )

    expected_e = -sum(Fraction(1, p) for p in ps)
    rpt.check("Euler number equals -sum(1/p_i)", str(expected_e), str(sd_right.euler_number))
    rpt.check_true("Euler number negative: singularity link", is_singularity_link(sd_right), "neumann-euler-criterion")
    rpt.check_true("reduced star is negative definite", grauert_check(right), "grauert-criterion")
    flags = canonical_contact_flag(sd_right)
    rpt.check_true("Milnor fillable", flags.milnor_fillable, "milnor-fillable-unique")
    rpt.check_true(
        "unique invariant transverse contact class",
        flags.unique_transverse_invariant_class,
        "transverse-invariant-unique",
    )
    rpt.assume(
        "The boundary-twist open book supports the canonical contact structure.",
        "boundary-twist-open-book",
    )
    return rpt


def _load_or_demo_family(family, k):
    """(members, their Deltas) of a family that passes the genus-k gate and the certificate."""
    members = demo_family(k) if family is None else list(family)
    if not members:
        raise ValueError("family required")
    gate = family_report(members, k)
    if gate.genus_failures:
        raise ValueError(f"family members fail the genus-{k} gate: {list(gate.genus_failures)}")
    if gate.fibered_failures:
        names = [name for name, _ in gate.fibered_failures]
        raise ValueError(f"family members fail the fiberedness certificate: {names}")
    return members, gate.deltas


def report_thm44(g: int, k: int, r: int, family=None) -> Report:
    """Simply-connected filling family of the reduced star link, one member per knot."""
    g, k, r = _as_int(g, "g"), _as_int(k, "k"), _as_int(r, "r")
    if g < 2 or k < 2:
        raise ValueError("need g >= 2 and k >= 2")
    if not 1 <= r <= 4 * g + 3:
        raise ValueError(f"r must satisfy 1 <= r <= 4g+3 = {4 * g + 3}")
    return _thm44(g, k, r, *_load_or_demo_family(family, k))


def _thm44(g: int, k: int, r: int, members, deltas) -> Report:
    rpt = Report(
        title=f"Simply-connected exotic fillings: g={g}, k={k}, r={r}",
        inputs={"g": g, "k": k, "r": r, "family": [V.name for V in members]},
    )

    X2 = fiber_sum(make_X_g1(g), make_X_g1(g))
    rpt.check("chi of the double vs fibration count", lf_euler_characteristic(g, 2 * (8 * g + 4)), X2.euler_char)
    rpt.check("sections of the double", str(((-2, 4 * g + 4),)), str(X2.sections))

    surgered = []
    for V, delta in zip(members, deltas):
        M = knot_surgery(X2, V, delta, torus_null_homotopic=True)
        rpt.check(f"(chi, sigma) preserved by surgery on {V.name}", (X2.euler_char, X2.signature), (M.euler_char, M.signature), "fs-knot-surgery")
        surgered.append(M)
    fillings = excise_fillings(surgered, r)

    h_expected = g + 2 * k
    chi_expected = X2.euler_char - (2 - 2 * h_expected) - r
    chi_sigma = {(f.euler_char, f.signature) for f in fillings}
    rpt.invariants["(chi, sigma) of every filling"] = str(sorted(chi_sigma)[0]) if len(chi_sigma) == 1 else "NOT CONSTANT"
    rpt.check("(chi, sigma) constant across the family", 1, len(chi_sigma))
    rpt.check("chi matches the excision count", chi_expected, fillings[0].euler_char)

    boundary = fillings[0].boundary
    rpt.invariants["boundary"] = _fmt_seifert(boundary)
    rpt.check("every member has fibration genus g+2k", {h_expected}, {f.fiber_genus for f in fillings})
    sd_plumbing = star_to_seifert(star_graph_right(h_expected, (2,) * r), center=0)
    rpt.check("boundary equals the reduced-star Seifert data", _fmt_seifert(sd_plumbing), _fmt_seifert(boundary))
    rpt.check("boundary is constant across the family", 1, len({f.boundary for f in fillings}))
    rpt.check_true("boundary is a singularity link (e < 0)", is_singularity_link(boundary), "neumann-euler-criterion")
    flags = canonical_contact_flag(boundary)
    rpt.check_true("canonical contact structure flags", flags.milnor_fillable and flags.unique_transverse_invariant_class, "milnor-fillable-unique")

    rpt.check("Stein flags", {True}, {f.stein_flag for f in fillings}, "palf-stein-filling")
    rpt.check("simply connected flags", {True}, {f.simply_connected for f in fillings}, "simply-connected-fillings")
    rpt.check("determinant of the intersection form", {0}, {f.det_intersection_form for f in fillings}, "det-zero-from-boundary")

    distinct = distinguisher_distinct(fillings)
    rpt.invariants["distinguishers"] = "; ".join(
        f"{V.name}: {f.sw_distinguisher}" for V, f in zip(members, fillings)
    )
    rpt.check(
        f"all {distinct.pairs_total} distinguisher pairs distinct",
        True,
        distinct.all_distinct,
        "fs-distinguishes",
    )
    rpt.invariants["verdict"] = distinct.verdict

    rpt.assume("The base Seiberg-Witten invariant is assumed nonvanishing.", "sw-nonvanishing-assumption")
    rpt.assume("Fiberedness of the family members is cited, not decided.", "fibered-cited")
    rpt.assume("Boundary diffeomorphisms extend over the excised plumbing, so distinct multipliers force non-diffeomorphic fillings.", "diffeo-extends")
    rpt.assume("The family realizes finitely many homeomorphism types; this is cited, never computed.", "boyer-finiteness")
    rpt.assume("Signatures were propagated through the excision by additivity.", "novikov-additivity")
    return rpt


def _thm53_inputs(m, n, k) -> tuple:
    m, n, k = _as_int(m, "m"), _as_int(n, "n"), _as_int(k, "k")
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if k < 2:
        raise ValueError("k must be >= 2")
    return m, n, k


def report_thm53(m: int, n: int, k: int, family=None) -> Report:
    """Fillings with first homology tag Z + Z/n from the twisted double."""
    m, n, k = _thm53_inputs(m, n, k)
    return _thm53(m, n, k, *_load_or_demo_family(family, k))


def _thm53(m: int, n: int, k: int, members, deltas) -> Report:
    rpt = Report(
        title=f"Exotic fillings with pi1 = Z + Z/{n}: m={m}, n={n}, k={k}",
        inputs={"m": m, "n": n, "k": k, "family": [V.name for V in members]},
    )

    g = 2 * m + 1
    Wn = fiber_sum(make_W(m), make_W(m), twist=n)
    rpt.invariants["twisted double"] = f"{Wn.name}: (chi, sigma) = ({Wn.euler_char}, {Wn.signature})"
    rpt.check("(chi, sigma) of the twisted double", (24, -16), (Wn.euler_char, Wn.signature))
    rpt.check("chi of the double vs fibration count", lf_euler_characteristic(g, 2 * (2 * g + 10)), Wn.euler_char)
    rpt.check("pi1 tag of the twisted double", f"Z + Z/{n}", Wn.pi1.describe(), "twisted-sum-pi1")
    rpt.check("twisted double keeps two sewn sections", str(((-2, 2),)), str(Wn.sections))

    surgered = []
    for V, delta in zip(members, deltas):
        M = knot_surgery(Wn, V, delta, torus_null_homotopic=True)
        rpt.check(
            f"pi1 tag preserved by surgery on {V.name}",
            f"Z + Z/{n}",
            M.pi1.describe(),
            "surgery-pi1-preserved",
        )
        surgered.append(M)
    fillings = excise_fillings(surgered, 1)

    h_expected = 2 * (m + k) + 1
    rpt.check("fibration genus g + 2k = 2(m+k)+1", {h_expected}, {f.fiber_genus for f in fillings})
    chi_sigma = {(f.euler_char, f.signature) for f in fillings}
    rpt.check("(chi, sigma) constant across the family", 1, len(chi_sigma))
    rpt.invariants["(chi, sigma) of every filling"] = str(next(iter(chi_sigma)))

    boundary = fillings[0].boundary
    rpt.invariants["boundary"] = _fmt_seifert(boundary)
    sd_plumbing = star_to_seifert(star_graph_right(h_expected, (2,)), center=0)
    rpt.check("boundary equals the reduced-star Seifert data", _fmt_seifert(sd_plumbing), _fmt_seifert(boundary))
    rpt.check_true("boundary is a singularity link (e < 0)", is_singularity_link(boundary), "neumann-euler-criterion")
    flags = canonical_contact_flag(boundary)
    rpt.check_true("canonical contact structure flags", flags.milnor_fillable and flags.unique_transverse_invariant_class, "milnor-fillable-unique")
    rpt.check("Stein flags", {True}, {f.stein_flag for f in fillings}, "palf-stein-filling")
    rpt.check(
        "pi1 tag of every filling",
        {(PI1_Z_PLUS_ZN, n)},
        {(f.pi1.kind, f.pi1.param) for f in fillings},
        "twisted-sum-pi1",
    )
    rpt.check("determinant of the intersection form", {0}, {f.det_intersection_form for f in fillings}, "det-zero-from-boundary")

    distinct = distinguisher_distinct(fillings)
    rpt.check(
        f"all {distinct.pairs_total} distinguisher pairs distinct",
        True,
        distinct.all_distinct,
        "fs-distinguishes",
    )
    rpt.invariants["verdict"] = distinct.verdict

    rpt.assume("The surgered doubles share one homeomorphism type; cited, never computed.", "homeo-fixed-type")
    rpt.assume("The base Seiberg-Witten invariant is assumed nonvanishing.", "sw-nonvanishing-assumption")
    rpt.assume("Fiberedness of the family members is cited, not decided.", "fibered-cited")
    rpt.assume("Boundary diffeomorphisms extend over the excised plumbing, so distinct multipliers force non-diffeomorphic fillings.", "diffeo-extends")
    return rpt


def report_corollary55(h: int, n: int = 1, family=None) -> Report:
    """Both filling families for the single-leg link of multiplicity 2 at genus h.

    The family passes its gate once; both branches share its members and Deltas.
    """
    h, n = _as_int(h, "h"), _as_int(n, "n")
    if h < 7:
        raise ValueError("h must be >= 7")
    if n < 1:
        raise ValueError("n must be a positive integer")
    k = 2
    members, deltas = _load_or_demo_family(family, k)
    rpt = Report(
        title=f"Filling families of the genus-{h} single-multiplicity-2 link",
        inputs={"h": h, "n": n},
    )
    g = h - 2 * k
    rpt.check("simply-connected branch: g + 2k = h with g >= 2, k >= 2", h, g + 2 * k)
    rpt.subreports.append(_thm44(g, k, 1, members, deltas))

    if h % 2 == 1:
        m = (h - 1) // 2 - k
        rpt.check(f"pi1 = Z + Z/{n} branch: 2(m+k)+1 = h with m >= 1", h, 2 * (m + k) + 1)
        rpt.subreports.append(_thm53(*_thm53_inputs(m, n, k), members, deltas))
        rpt.assume(
            "The fillings with nontrivial first homology are not homeomorphic to any Milnor fiber of the singularity.",
            "milnor-fiber-betti",
        )
    else:
        rpt.invariants["pi1 = Z + Z/n branch"] = (
            f"unavailable at h = {h}: 2(m+k)+1 is odd, parity obstruction"
        )
    return rpt
