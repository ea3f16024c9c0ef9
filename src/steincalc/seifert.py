"""Seifert invariants of star-shaped plumbings and their open books.

Conventions (fixed here, enforced by the cross-checks against the
plumbing module):

* Seifert data is read off the reduced star presentation, i.e. a central
  vertex of any weight with legs that are chains of weights <= -2.
* A leg with outward weights -a_1, ..., -a_s contributes the pair
  (alpha, beta) with alpha/beta the negative continued fraction
  a_1 - 1/(a_2 - 1/(... - 1/a_s)), normalized to 0 < beta < alpha.
* The rational Euler number is e = e0 + sum(beta_i / alpha_i), and a
  Seifert space over an orientable base is a singularity link exactly
  when e < 0.

The open book with genus-h page, r binding components and monodromy the
product of p_i-th powers of boundary-parallel right twists supports the
same 3-manifold as the reduced star with legs p_i; its first homology is
computed here from the monodromy/binding presentation alone so the two
routes stay independent.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmat import IntMatrix, _as_int, _Record, smith_diagonal
from .plumbing import PlumbingGraph


class AmbiguousCenterError(ValueError):
    """The star center cannot be inferred; pass it explicitly."""


class SeifertData(_Record):
    """Base genus, integer weight e0, and normalized (alpha, beta) leg pairs."""

    __slots__ = ("base_genus", "e0", "legs")

    def __init__(self, base_genus, e0, legs):
        self.base_genus, self.e0 = _as_int(base_genus, "base genus"), _as_int(e0, "e0")
        if base_genus < 0:
            raise ValueError("base genus must be >= 0")
        # legs are an unordered multiset; store sorted so equality is presentation-free
        self.legs = tuple(sorted((_as_int(a, "leg alpha"), _as_int(b, "leg beta")) for a, b in legs))
        for alpha, beta in self.legs:
            if alpha < 2 or not 0 < beta < alpha:
                raise ValueError(f"leg ({alpha},{beta}) is not normalized: need 0 < beta < alpha")

    @property
    def euler_number(self) -> Fraction:
        return Fraction(self.e0) + sum((Fraction(b, a) for a, b in self.legs), Fraction(0))

    def to_dict(self) -> dict:
        e = self.euler_number
        return {
            "base_genus": self.base_genus,
            "e0": self.e0,
            "legs": [list(l) for l in self.legs],
            "euler_number": [e.numerator, e.denominator],
        }


class ContactFlags(_Record):
    __slots__ = ("milnor_fillable", "unique_transverse_invariant_class")

    def __init__(self, milnor_fillable, unique_transverse_invariant_class):
        self.milnor_fillable, self.unique_transverse_invariant_class = milnor_fillable, unique_transverse_invariant_class


class OpenBookDesc(_Record):
    """Page genus, and boundary twist powers p_1..p_r (one per binding component)."""

    __slots__ = ("page_genus", "powers")

    def __init__(self, page_genus, powers):
        self.page_genus = _as_int(page_genus, "page genus")
        self.powers = tuple(_as_int(p, "twist power") for p in powers)
        if self.page_genus < 0:
            raise ValueError("page genus must be >= 0")
        if len(self.powers) < 1:
            raise ValueError("at least one binding component is required")
        if any(p < 1 for p in self.powers):
            raise ValueError("twist powers must be positive")

    @property
    def boundary_count(self) -> int:
        return len(self.powers)

    def to_dict(self) -> dict:
        return {"page_genus": self.page_genus, "powers": list(self.powers)}


def negative_continued_fraction(values) -> Fraction:
    """[a_1, ..., a_s] -> a_1 - 1/(a_2 - 1/(... - 1/a_s)) as an exact rational."""
    values = list(values)
    if not values:
        raise ValueError("empty continued fraction")
    acc = Fraction(values[-1])
    for a in reversed(values[:-1]):
        if acc == 0:
            raise ValueError("continued fraction hit a zero tail")
        acc = a - 1 / acc
    return acc


def _infer_center(G: PlumbingGraph) -> int:
    ids = G.vertex_ids
    if len(ids) == 1:
        return ids[0]
    branch = [v for v in ids if G.degree(v) >= 3]
    if len(branch) > 1:
        raise ValueError("not star-shaped: two vertices of degree >= 3")
    if branch:
        return branch[0]
    # A path: the center is whatever vertex the legs cannot absorb.
    positive_genus = [v for v in ids if G.genus(v) > 0]
    if len(positive_genus) == 1:
        return positive_genus[0]
    if len(positive_genus) > 1:
        raise ValueError("not star-shaped: several positive-genus vertices on a path")
    heavy = [v for v in ids if G.weight(v) > -2]
    if len(heavy) == 1:
        return heavy[0]
    if len(heavy) > 1:
        raise ValueError("leg weights must be <= -2; found several vertices above -2")
    raise AmbiguousCenterError(
        "every vertex of this path could serve as the star center; pass center= explicitly"
    )


def star_to_seifert(G: PlumbingGraph, center: int | None = None) -> SeifertData:
    """Read Seifert data off a reduced star-shaped plumbing.

    Legs must be chains with all weights <= -2 (apply a reduction script
    first if they are not).  The center is inferred when unique; an
    all-(-2) genus-0 path needs an explicit ``center``.
    """
    if center is None:
        center = _infer_center(G)
    elif center not in G.vertex_ids:
        raise ValueError(f"no vertex {center}")
    legs = []
    for start in G.neighbors(center):
        chain = []
        prev, cur = center, start
        while True:
            if G.degree(cur) > 2 or G.genus(cur) > 0:
                raise ValueError(f"not star-shaped at vertex {cur}")
            w = G.weight(cur)
            if w > -2:
                raise ValueError(f"leg vertex {cur} has weight {w} > -2; reduce the graph first")
            chain.append(-w)
            rest = [u for u in G.neighbors(cur) if u != prev]
            if not rest:
                break
            prev, cur = cur, rest[0]
        frac = negative_continued_fraction(chain)
        legs.append((frac.numerator, frac.denominator))
    return SeifertData(base_genus=G.genus(center), e0=G.weight(center), legs=tuple(legs))


def is_singularity_link(S: SeifertData) -> bool:
    """Neumann's criterion for an orientable-base Seifert fibration: e < 0."""
    return S.euler_number < 0


def canonical_contact_flag(S: SeifertData) -> ContactFlags:
    """Cited-classification flags, both equivalent to e < 0.

    A negative Euler number makes the manifold Milnor fillable, and its
    canonical contact structure is the unique S^1-invariant transverse
    one; nothing contact-geometric is computed here.
    """
    neg = S.euler_number < 0
    return ContactFlags(milnor_fillable=neg, unique_transverse_invariant_class=neg)


def openbook_manifold(ob: OpenBookDesc) -> SeifertData:
    """Seifert data of the open book's total space.

    Matches star_to_seifert on the reduced star with the same powers:
    e0 = -r counting every binding component, and each p_i >= 2
    contributes the leg (p_i, p_i - 1); p_i = 1 components contribute no
    leg but still lower e0.
    """
    legs = tuple((p, p - 1) for p in ob.powers if p >= 2)
    return SeifertData(base_genus=ob.page_genus, e0=-ob.boundary_count, legs=legs)


def openbook_homology(ob: OpenBookDesc):
    """(rank, torsion) of H_1, from the monodromy/binding presentation.

    The page has H_1 of rank 2h + r - 1 with boundary classes d_1..d_{r-1}
    (d_r = -(d_1 + ... + d_{r-1})).  Boundary-parallel twists act trivially
    on closed-curve classes, so the monodromy relations vanish; what
    remains is one relation per binding component: filling the i-th
    binding identifies the page-suspension class t with -p_i d_i (the
    point-pushing defect of p_i boundary twists).  The genus classes stay
    untouched and contribute Z^{2h}.
    """
    r = ob.boundary_count
    *ps, p_r = ob.powers  # every power is a checked int >= 1, so every entry below is nonzero
    rows = [{i: p, r - 1: 1} for i, p in enumerate(ps)]  # columns d_1 .. d_{r-1}, t
    rows.append({**dict.fromkeys(range(r - 1), -p_r), r - 1: 1})
    diag = smith_diagonal(IntMatrix._from_nonzeros(rows, r))
    rank = 2 * ob.page_genus + sum(1 for d in diag if d == 0)
    torsion = tuple(d for d in diag if d > 1)
    return rank, torsion
