"""Citation table for facts this toolkit uses but does not prove.

Reports must separate machine-verified checks from cited facts; every
cited check or assumption carries one of these keys.  The special key
"derived-oracle" marks values recomputed here from first principles.
"""

DERIVED = "derived-oracle"

CITATIONS = {
    DERIVED: "Recomputed in-package by an independent exact-arithmetic oracle.",
    "grauert-criterion": (
        "Grauert: a plumbing tree with negative definite intersection form is a "
        "resolution graph, so its boundary is the link of a normal (hence isolated) "
        "complex surface singularity."
    ),
    "neumann-euler-criterion": (
        "Neumann: a closed oriented Seifert fibered 3-manifold is a singularity link "
        "iff it fibers over an orientable base with negative rational Euler number."
    ),
    "milnor-fillable-unique": (
        "Caubel-Nemethi-Popescu-Pampu: the Milnor fillable (canonical) contact "
        "structure on a singularity link is unique up to isomorphism."
    ),
    "transverse-invariant-unique": (
        "Massot (building on Lisca-Matic/Kamishima-Tsuboi): for negative Euler number "
        "there is exactly one isomorphism class of S^1-invariant transverse contact "
        "structures, and it is the canonical one."
    ),
    "boundary-twist-open-book": (
        "The open book with genus-h page and boundary-parallel monodromy t_1^{p_1} "
        "... t_r^{p_r} supports the transverse contact structure on the Seifert "
        "space with r multiplicity-p_i fibers over the genus-h base."
    ),
    "palf-stein-filling": (
        "Deleting a regular fiber and r disjoint sections of squares -p_1..-p_r from "
        "a Lefschetz fibration with homologically nontrivial vanishing cycles leaves "
        "a positive allowable Lefschetz fibration over the disk, hence a Stein "
        "filling inducing the boundary open book (cited)."
    ),
    "hyperelliptic-fibration": (
        "Classical (see Gompf-Stipsicz exercises): the squared genus-g chain word is "
        "the monodromy of a hyperelliptic Lefschetz fibration on the projective plane "
        "blown up 4g+5 times."
    ),
    "matsumoto-korkmaz-fibration": (
        "Matsumoto (g = 2), Korkmaz (odd g = 2m+1): the word (b0 b1 ... bg a^2 b^2)^2 "
        "is the monodromy of a genus-g Lefschetz fibration on (genus-m surface) x S^2 "
        "blown up 8 times, with 2g+10 singular fibers."
    ),
    "twisted-sum-pi1": (
        "Twisted fiber sum of two copies along the fiber, gluing by the n-th power of "
        "a right twist on a homologically nontrivial curve, has fundamental group "
        "Z + Z/n (cited construction)."
    ),
    "surgery-pi1-preserved": (
        "Seifert-Van Kampen: knot surgery on a torus whose loops are null-homotopic "
        "in the ambient manifold preserves the fundamental group."
    ),
    "fs-knot-surgery": (
        "Fintushel-Stern: knot surgery on a square-zero essential torus preserves the "
        "Euler characteristic and signature and multiplies the Seiberg-Witten "
        "invariant by Delta_K(t^2)."
    ),
    "fs-distinguishes": (
        "Fintushel-Stern: distinct Alexander polynomials give pairwise "
        "non-diffeomorphic surgered manifolds, provided the unsurgered "
        "Seiberg-Witten invariant does not vanish."
    ),
    "sw-nonvanishing-assumption": (
        "Nonvanishing of the relevant Seiberg-Witten invariant is assumed, not "
        "computed; all distinctness verdicts are conditional on it."
    ),
    "simply-connected-fillings": (
        "Seifert-Van Kampen, using spheres e_last - e_i and the retained section: "
        "the filling cut out of the sewn-chain pipeline is simply connected (cited "
        "argument, not recomputed)."
    ),
    "diffeo-extends": (
        "Bonahon (plus the central-piece extension): every orientation-preserving "
        "self-diffeomorphism of the boundary of the excised star plumbing extends "
        "over it, so non-diffeomorphic complements force non-diffeomorphic fillings."
    ),
    "novikov-additivity": "Novikov additivity: signatures add when gluing along boundary.",
    "boyer-finiteness": (
        "Boyer: a fixed intersection form with fixed boundary is realized by only "
        "finitely many homeomorphism types of simply connected compact oriented "
        "4-manifolds."
    ),
    "homeo-fixed-type": (
        "The twisted-double pipeline's surgered manifolds are all homeomorphic to the "
        "unsurgered one (cited cusp-neighborhood argument), and the homeomorphism "
        "descends to the fillings."
    ),
    "fibered-cited": (
        "Fiberedness of family members is cited, not decided; the certificate checks "
        "the necessary monic and full-span conditions only."
    ),
    "milnor-fiber-betti": (
        "Greuel-Steenbrink: Milnor fibers of normal surface singularities have "
        "vanishing first Betti number, so fillings with infinite or torsion "
        "fundamental group are not homeomorphic to Milnor fibers."
    ),
    "det-zero-from-boundary": (
        "A filling whose boundary has infinite first homology has intersection form "
        "of determinant zero (rank argument on the long exact sequence)."
    ),
}


def resolve(key: str) -> str:
    """Citation text for a key; raises KeyError for unknown keys."""
    return CITATIONS[key]
