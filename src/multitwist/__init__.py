"""Flat surfaces from filling multicurve pairs.

The pipeline: a bipartite configuration graph plus a positive harmonic
vertex function feeds the rectangle-complex builder, whose surfaces carry
cylinder decompositions of modulus 1/lam in both directions.  On top of
that sit the multitwist matrix representation into PSL(2,R), straight-line
flow with separatrix tracing, and a generator that produces valid filling
pairs from tree normal forms of infinite-type surfaces.
"""

from .quadfield import QuadExt, quad_sqrt, root_plus
from .graphs import (
    BipartiteConfigGraph,
    HarmonicAssignment,
    LadderFamily,
    apply_adjacency,
    harmonic_closed_form,
    harmonic_truncated,
    lambda_zero,
    perron_pair,
    verify_harmonic,
)
from .surfaces import (
    CornerCycle,
    RectangleComplex,
    RibbonData,
    build_surface,
    cone_points,
    cylinders,
    euler_characteristic,
    is_translation,
    mark_faces,
    orientation_double_cover,
    square_torus,
    staircase_complex,
)
from .mobius import (
    ALL_DIRECTIONS,
    MobiusClass,
    ProjectiveDirection,
    TwistWord,
    brenner_check,
    classify,
    eigendirections,
    renormalizable,
    rho,
)
from .flow import (
    FlowStats,
    SurfacePoint,
    Trajectory,
    closure_length,
    compact_open_convergence_check,
    coverage_stats,
    detect_saddle_connection,
    flow,
    separatrices,
    twist_action,
)
from .recipe import (
    CurveRecipeOutput,
    EndTreeSpec,
    RecipeError,
    build_multicurves,
    induced_subtree,
    ladder_tree,
    loch_ness_tree,
    simplify_tree,
    surgery,
    verify_recipe,
)

__all__ = [
    "QuadExt", "quad_sqrt", "root_plus",
    "BipartiteConfigGraph", "HarmonicAssignment", "LadderFamily",
    "apply_adjacency", "harmonic_closed_form", "harmonic_truncated",
    "lambda_zero", "perron_pair", "verify_harmonic",
    "CornerCycle", "RectangleComplex", "RibbonData",
    "build_surface", "cone_points", "cylinders", "euler_characteristic",
    "is_translation", "mark_faces", "orientation_double_cover", "square_torus",
    "staircase_complex",
    "ALL_DIRECTIONS", "MobiusClass", "ProjectiveDirection", "TwistWord",
    "brenner_check", "classify", "eigendirections", "renormalizable", "rho",
    "FlowStats", "SurfacePoint", "Trajectory", "closure_length",
    "compact_open_convergence_check", "coverage_stats",
    "detect_saddle_connection", "flow", "separatrices", "twist_action",
    "CurveRecipeOutput", "EndTreeSpec", "RecipeError", "build_multicurves",
    "induced_subtree", "ladder_tree", "loch_ness_tree", "simplify_tree",
    "surgery", "verify_recipe",
]
