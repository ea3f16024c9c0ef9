"""Invariant records for the closed 4-manifolds and their fillings.

Records carry (Euler characteristic, signature, fiber genus, section
families, a fundamental-group tag, a Seiberg-Witten distinguisher) plus a
provenance log of the steps that built them, which the naming, pi1 and
surgery rules read.  Three honesty rules shape the module:

* pi1 is never computed.  The tag moves only by catalog rules, each with
  a citation; anything else becomes "unknown".
* The distinguisher is relative: it starts at 1 when a manifold is built
  or fiber-summed, and knot surgery multiplies it by Delta_K(t^2).  It
  certifies pairwise distinctness of the surgery multipliers, conditional
  on the cited Seiberg-Witten nonvanishing, never absolute invariants.
* Fillings keep only what boundary data justifies: the intersection-form
  determinant is flagged 0 exactly when the boundary has positive first
  Betti number.
"""

from __future__ import annotations

from . import bibliography
from .exactmat import _as_int, _Record
from .exactmat import signature as matrix_signature
from .knots import LaurentPoly, SeifertMatrixK, substitute_t_squared
from .plumbing import PlumbingGraph, intersection_matrix
from .seifert import OpenBookDesc, openbook_homology, openbook_manifold

PI1_TRIVIAL = "trivial"
PI1_Z_PLUS_ZN = "Z_plus_Zn"
PI1_PRODUCT_SURFACE = "product_surface"
PI1_UNKNOWN = "unknown"


class Pi1Tag(_Record):
    __slots__ = ("kind", "param", "citation")

    def __init__(self, kind, param=None, citation=None):
        if kind not in (PI1_TRIVIAL, PI1_Z_PLUS_ZN, PI1_PRODUCT_SURFACE, PI1_UNKNOWN):
            raise ValueError(f"unknown pi1 tag kind {kind!r}")
        if citation is not None:
            bibliography.resolve(citation)
        self.kind, self.citation = kind, citation
        self.param = param if param is None else _as_int(param, "pi1 parameter")

    def describe(self) -> str:
        if self.kind == PI1_Z_PLUS_ZN:
            return f"Z + Z/{self.param}"
        if self.kind == PI1_PRODUCT_SURFACE:
            return f"genus-{self.param} surface group"
        return self.kind


class ManifoldRecord(_Record):
    """A closed 4-manifold's invariants; ``sections`` is ((square, count), ...)."""

    __slots__ = ("name", "euler_char", "signature", "fiber_genus", "sections", "pi1", "sw_distinguisher", "provenance")

    def __init__(self, name, euler_char, signature, fiber_genus, sections, pi1, sw_distinguisher, provenance=()):
        self.name, self.euler_char, self.signature, self.fiber_genus = name, euler_char, signature, fiber_genus
        self.sections, self.pi1, self.sw_distinguisher, self.provenance = sections, pi1, sw_distinguisher, provenance


class FillingRecord(ManifoldRecord):
    __slots__ = ("boundary", "stein_flag", "simply_connected", "det_intersection_form")

    def __init__(self, name, euler_char, signature, fiber_genus, sections, pi1, sw_distinguisher, provenance=(),
                 boundary=None, stein_flag=False, simply_connected=None, det_intersection_form=None):
        super().__init__(name, euler_char, signature, fiber_genus, sections, pi1, sw_distinguisher, provenance)
        self.boundary, self.stein_flag = boundary, stein_flag
        self.simply_connected, self.det_intersection_form = simply_connected, det_intersection_form


def make_X_g1(g: int) -> ManifoldRecord:
    """The blown-up plane carrying the genus-g hyperelliptic fibration.

    One +1 class and 4g+5 exceptional classes: chi = 4g+8 and
    signature 1 - (4g+5) = -4g-4, with 4g+4 disjoint (-1)-sphere sections.
    """
    if _as_int(g, "g") < 1:
        raise ValueError("g must be >= 1")
    return ManifoldRecord(
        name=f"X({g},1)",
        euler_char=4 * g + 8,
        signature=-(4 * g + 4),
        fiber_genus=g,
        sections=((-1, 4 * g + 4),),
        pi1=Pi1Tag(PI1_TRIVIAL, citation="hyperelliptic-fibration"),
        sw_distinguisher=LaurentPoly.one(),
        provenance=({"op": "make_X_g1", "g": g},),
    )


def make_W(m: int) -> ManifoldRecord:
    """(genus-m surface) x S^2 blown up 8 times, fibered in genus 2m+1."""
    if _as_int(m, "m") < 1:
        raise ValueError("m must be >= 1")
    return ManifoldRecord(
        name=f"W({m})",
        euler_char=12 - 4 * m,
        signature=-8,
        fiber_genus=2 * m + 1,
        sections=((-1, 2),),
        pi1=Pi1Tag(PI1_PRODUCT_SURFACE, param=m, citation="matsumoto-korkmaz-fibration"),
        sw_distinguisher=LaurentPoly.one(),
        provenance=({"op": "make_W", "m": m},),
    )


def _is_single_step(provenance, op):
    return len(provenance) == 1 and provenance[0]["op"] == op


def _sum_name(M1, M2, twist):
    if twist is None and _is_single_step(M1.provenance, "make_X_g1") and _is_single_step(
        M2.provenance, "make_X_g1"
    ):
        if M1.provenance[0]["g"] == M2.provenance[0]["g"]:
            return f"X({M1.provenance[0]['g']},2)"
    if twist is not None and _is_single_step(M1.provenance, "make_W") and _is_single_step(
        M2.provenance, "make_W"
    ):
        if M1.provenance[0]["m"] == M2.provenance[0]["m"]:
            return f"W_{twist}({M1.provenance[0]['m']})"
    kind = "twisted-sum" if twist is not None else "fiber-sum"
    return f"{kind}({M1.name}, {M2.name})"


def fiber_sum(M1: ManifoldRecord, M2: ManifoldRecord, twist: int | None = None) -> ManifoldRecord:
    """Fiber sum along the common genus-g fiber; ``twist=n`` glues with an
    n-th twist power on a homologically nontrivial curve.

    chi = chi_1 + chi_2 - 2(2 - 2g), signatures add (Novikov), sections
    sew pairwise by equal square (squares add, counts keep the minimum).
    The distinguisher resets to 1; no product formula is attempted.
    """
    if M1.fiber_genus is None or M2.fiber_genus is None:
        raise ValueError("both summands need a fiber genus")
    if M1.fiber_genus != M2.fiber_genus:
        raise ValueError(f"fiber genus mismatch: {M1.fiber_genus} != {M2.fiber_genus}")
    if twist is not None and _as_int(twist, "twist power") < 1:
        raise ValueError("twist power must be a positive integer")
    g = M1.fiber_genus

    left = {}
    for sq, ct in M1.sections:
        left[sq] = left.get(sq, 0) + ct
    sections = []
    for sq, ct in M2.sections:
        if sq in left:
            sections.append((2 * sq, min(left[sq], ct)))
    sections = tuple(sorted(sections))

    pi1 = Pi1Tag(PI1_UNKNOWN)
    if (
        twist is not None
        and _is_single_step(M1.provenance, "make_W")
        and _is_single_step(M2.provenance, "make_W")
        and M1.provenance[0]["m"] == M2.provenance[0]["m"]
    ):
        pi1 = Pi1Tag(PI1_Z_PLUS_ZN, param=twist, citation="twisted-sum-pi1")

    step = {
        "op": "fiber_sum",
        "twist": twist,
        "left": [dict(p) for p in M1.provenance],
        "right": [dict(p) for p in M2.provenance],
    }
    return ManifoldRecord(
        name=_sum_name(M1, M2, twist),
        euler_char=M1.euler_char + M2.euler_char - 2 * (2 - 2 * g),
        signature=M1.signature + M2.signature,
        fiber_genus=g,
        sections=sections,
        pi1=pi1,
        sw_distinguisher=LaurentPoly.one(),
        provenance=(step,),
    )


def knot_surgery(
    M: ManifoldRecord, K: SeifertMatrixK, delta: LaurentPoly, torus_null_homotopic: bool = True
) -> ManifoldRecord:
    """Knot surgery on the square-zero torus produced by the fiber sum.

    ``delta`` is Delta_K, which the caller already holds (a report passes
    its family gate's).  chi and
    signature are untouched; the distinguisher gains the factor
    Delta_K(t^2); the fibration genus grows by twice the knot genus and
    the sections survive (they miss the torus).  The pi1 tag survives
    only when the torus' loops are null-homotopic.
    """
    if not any(step["op"] == "fiber_sum" for step in M.provenance):
        raise ValueError("knot surgery needs the fiber-sum torus: no fiber_sum in provenance")
    multiplier = substitute_t_squared(delta)
    pi1 = M.pi1 if torus_null_homotopic else Pi1Tag(PI1_UNKNOWN)
    step = {"op": "knot_surgery", "knot": K.name, "torus_null_homotopic": torus_null_homotopic}
    return ManifoldRecord(
        f"{M.name}_{K.name}", M.euler_char, M.signature, M.fiber_genus + 2 * K.genus, M.sections, pi1,
        (M.sw_distinguisher * multiplier).normalized(), M.provenance + (step,),
    )


def _excised_star(h: int, r: int, p: int) -> PlumbingGraph:
    """Star plumbing of the removed piece: central (0, genus h), r legs of weight -p."""
    verts = [(0, 0, h)] + [(i, -p, 0) for i in range(1, r + 1)]
    edges = [(0, i) for i in range(1, r + 1)]
    return PlumbingGraph(verts, edges)


def _is_untwisted_double_of_X(provenance) -> bool:
    if not provenance or provenance[0]["op"] != "fiber_sum":
        return False
    head = provenance[0]
    if head["twist"] is not None:
        return False
    sides_ok = all(
        len(side) == 1 and side[0]["op"] == "make_X_g1" for side in (head["left"], head["right"])
    )
    tail_ok = all(step["op"] == "knot_surgery" for step in provenance[1:])
    return sides_ok and tail_ok


def _section_power(M: ManifoldRecord, r: int) -> int:
    """Check that M admits the excision of a fiber and r sections; return the sections' -square."""
    if M.fiber_genus is None:
        raise ValueError("excision needs a fibration: fiber genus missing")
    if _as_int(r, "r") < 1:
        raise ValueError("r must be >= 1")
    squares = {sq for sq, _ in M.sections}
    if len(squares) > 1:
        raise ValueError(f"mixed section squares {sorted(squares)}; excision is ambiguous")
    if not M.sections:
        raise ValueError("no sections recorded")
    sq, count = M.sections[0]
    if sq >= 0:
        raise ValueError(f"sections of square {sq} do not bound the excision pattern")
    if count < r + 1:
        raise ValueError(f"need r+1 = {r + 1} sections (one retained), have {count}")
    return -sq


def _excised_piece(h: int, r: int, p: int) -> tuple:
    """(signature of the excised star, boundary SeifertData, boundary H1 rank).

    These depend on the fiber genus h, r and the section power p only, so a
    family that shares them computes them once.
    """
    sigma_star = matrix_signature(intersection_matrix(_excised_star(h, r, p)))
    ob = OpenBookDesc(page_genus=h, powers=(p,) * r)
    return sigma_star, openbook_manifold(ob), openbook_homology(ob)[0]


def _filling(M: ManifoldRecord, r: int, piece: tuple) -> FillingRecord:
    sigma_star, boundary, boundary_rank = piece
    h = M.fiber_genus
    simply_connected = None
    pi1 = M.pi1
    if _is_untwisted_double_of_X(M.provenance):
        simply_connected = True
        pi1 = Pi1Tag(PI1_TRIVIAL, citation="simply-connected-fillings")
    elif M.pi1.kind in (PI1_Z_PLUS_ZN, PI1_PRODUCT_SURFACE):
        simply_connected = False

    sq, count = M.sections[0]  # _section_power checked that count > r
    return FillingRecord(
        name=f"filling({M.name}; r={r})",
        euler_char=M.euler_char - (2 - 2 * h) - r,
        signature=M.signature - sigma_star,
        fiber_genus=h,
        sections=((sq, count - r),),
        pi1=pi1,
        sw_distinguisher=M.sw_distinguisher,
        provenance=M.provenance + ({"op": "excise_filling", "r": r},),
        boundary=boundary,
        stein_flag=True,
        simply_connected=simply_connected,
        det_intersection_form=0 if boundary_rank > 0 else None,  # finite H1 does not fix the determinant
    )


def excise_fillings(records, r: int) -> list:
    """Remove a regular fiber and r sections from each record; return the fillings' records.

    With fiber genus h and sections of square -p:
    chi(V) = chi(M) - (2 - 2h) - r  (fiber neighborhood plus r sphere
    sections, each meeting the fiber once), and sigma(V) = sigma(M) minus
    the signature of the excised star plumbing.  The boundary is the
    Seifert space of the boundary-twist open book with r powers p; at
    least one section is always retained.  Every record is checked; the
    excised piece is computed once for each distinct (h, p) among them.
    """
    records = list(records)
    powers = [_section_power(M, r) for M in records]
    pieces = {}
    for M, p in zip(records, powers):
        if (M.fiber_genus, p) not in pieces:
            pieces[M.fiber_genus, p] = _excised_piece(M.fiber_genus, r, p)
    return [_filling(M, r, pieces[M.fiber_genus, p]) for M, p in zip(records, powers)]


class DistinctnessReport(_Record):
    __slots__ = ("pairs_total", "collisions")

    def __init__(self, pairs_total, collisions):
        self.pairs_total, self.collisions = pairs_total, collisions

    @property
    def all_distinct(self) -> bool:
        return not self.collisions

    @property
    def verdict(self) -> str:
        if self.all_distinct:
            return "pairwise non-diffeomorphic (conditional on cited SW nonvanishing)"
        pairs = ", ".join(f"{a} ~ {b}" for a, b in self.collisions)
        return f"distinguishers collide: {pairs}"


def distinguisher_distinct(family) -> DistinctnessReport:
    """Pairwise comparison of normalized distinguisher polynomials."""
    family = list(family)
    if not family:
        raise ValueError("family required")
    polys = [(rec.name, rec.sw_distinguisher.normalized()) for rec in family]
    collisions = []
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if polys[i][1] == polys[j][1]:
                collisions.append((polys[i][0], polys[j][0]))
    return DistinctnessReport(
        pairs_total=len(polys) * (len(polys) - 1) // 2,
        collisions=tuple(collisions),
    )

