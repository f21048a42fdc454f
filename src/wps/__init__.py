"""Exact-arithmetic toolkit for weighted projective spaces: weight
well-forming, weighted-homogeneous polynomial algebra, Veronese truncation,
point/orbit geometry over Q and F_p, weighted plane-curve genus machinery,
Hilbert series, and brute-force finite-field verification oracles.
"""

from .errors import (
    AmbiguousLowDegree,
    BadCase,
    DegenerateEdge,
    FieldMismatch,
    InvalidDegreeWeight,
    Mismatch,
    NonIntegerGenus,
    NotAConePoint,
    NotHomogeneous,
    NotOnPatch,
    NotSufficientlyGeneral,
    NotWellFormed,
    NumeratorNotPolynomial,
    ParseError,
    PrimeUnsuitable,
    TooLarge,
    UnknownVariable,
    Unsupported,
    WPSError,
    ZeroPolynomial,
)
from .exactmath import (
    QQ,
    FpElem,
    PrimeField,
    RationalField,
    distinct_root_count,
    upoly_string,
)
from .weights import (
    Weight,
    WellFormStep,
    WellFormTrace,
    check_weight,
    is_well_formed,
    parse_weight,
    well_form,
)
from .wpoly import (
    WPolynomial,
    evaluate,
    is_weighted_homogeneous,
    partial,
    power_substitute,
    reduce_mod,
    restrict_to_edge,
    variable_names,
    weighted_degree,
)
from .parser import parse_point_coords, parse_polynomial, parse_upolynomial
from .truncation import (
    GradedPresentation,
    graded_piece_basis,
    regrade,
    regraded_degrees,
    straighten_chain,
    transform_principal_ideal,
    veronese_generators,
)
from .geometry import (
    WPoint,
    cover_project,
    eq_geometric,
    eq_rational,
    normalize,
    patch_equivalent,
    patch_representative,
)
from .curves import (
    PlaneCurve,
    branch_census,
    branching_index,
    edge_point_count,
    genus,
    integrality_sweep,
    normalised_cover,
    riemann_hurwitz_check,
    straight_cover,
    straight_genus,
    sufficiently_general,
    vertex_membership,
)
from .hilbert import (
    EllSequence,
    HilbertSeries,
    ci_relation_degrees,
    complete_intersection_series,
    embedding_report,
    expand,
    generator_discovery,
    numerator_from_sequence,
)
from .oracle import (
    run_manifest,
    scan_curve_points,
    verify_orbit_stabilizer,
    verify_point_equality,
    verify_veronese,
)

__version__ = "0.1.0"
