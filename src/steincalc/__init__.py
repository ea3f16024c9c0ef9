"""Exact-arithmetic toolkit for plumbing calculus, Seifert invariants,
Lefschetz fibration bookkeeping, and Alexander-polynomial distinguishers."""

__version__ = "0.1.0"

from .exactmat import (
    IntMatrix,
    determinant,
    is_negative_definite,
    signature,
)
from .knots import (
    LaurentPoly,
    SeifertMatrixK,
    alexander,
    connected_sum,
    demo_family,
    family_report,
    fibered_certificate,
    substitute_t_squared,
)
from .mcg import (
    Curve,
    SurfaceSpec,
    TwistWord,
    hyperelliptic_word,
    korkmaz_word,
    lf_euler_characteristic,
    word_action,
)
from .plumbing import (
    MoveScript,
    PlumbingGraph,
    boundary_homology,
    grauert_check,
    intersection_matrix,
    star_graph_left,
    star_graph_right,
)
from .seifert import (
    OpenBookDesc,
    SeifertData,
    canonical_contact_flag,
    is_singularity_link,
    openbook_homology,
    openbook_manifold,
    star_to_seifert,
)
from .smooth4 import (
    FillingRecord,
    ManifoldRecord,
    Pi1Tag,
    distinguisher_distinct,
    excise_fillings,
    fiber_sum,
    knot_surgery,
    make_W,
    make_X_g1,
)
from .reports import (
    Report,
    report_corollary55,
    report_figure1,
    report_thm44,
    report_thm53,
)
