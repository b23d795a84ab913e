"""Exact rational combinatorics of instability stratifications.

The package models Harder-Narasimhan types and their Higgs-field refinements,
the torus weight lattice of the Grassmannian-product embedding, instability
vectors with their grading weights, exact minimum-norm points and closest-point
index sets, explicit matrix models of embedded points with membership and
retraction predicates, stabiliser-dimension refinements and stratification
reports.  All arithmetic is exact; every theorem-level claim used here is
checked at desk scale in the test suite against a brute-force route of
``higgsstrata.oracles``, which no answer module imports.
"""

from .errors import (
    AmbientMismatch,
    AmbiguousMembership,
    CapExceeded,
    DegeneratePoint,
    HiggsStrataError,
    InvariantViolation,
    NonPositiveBlockDimension,
    NotInY,
    UnclassifiedPoint,
)
from .hn_types import (
    CandidateSet,
    CurveContext,
    FlagShape,
    HNType,
    PhiBlock,
    PolygonOrder,
    Rank3Kind,
    Rank3Verdict,
    classify_rank3,
    compare_polygon,
    compute_phi_blocks,
    enumerate_hn_types,
    first_slope_bound,
    general_first_slope_bound,
    higgs_index_order,
    higgs_stratum_index,
    nsequation_bound,
    t_mu_candidates,
    u_tau_candidates,
)
from .minnorm import (
    PointCloud,
    index_set_B,
    kkt_certificate,
    min_norm_point,
    min_norm_point_of_sum,
)
from .oracles import (
    hull_contains_origin,
    min_norm_point_by_faces,
    nilpotent_commutant_dim_dense_oracle,
    unipotent_stabilizer_dim_dense_oracle,
)
from .point_model import (
    CoordinateTable,
    Factor,
    HiggsDatum,
    Membership,
    ModelPoint,
    Step1Report,
    Step2Report,
    coordinates,
    from_higgs_data,
    membership,
    nilpotent_commutant_dim,
    retract_p_beta,
    unipotent_stabilizer_dim,
    verify_step1,
    verify_step2,
)
from .strat_report import (
    ClosureReport,
    CompatReport,
    StratumRecord,
    assemble,
    closure_order_report,
    compat_cross_table,
    default_beta_candidates,
)
from .svg import emit_polygon_svg
from .weight_lattice import (
    BBWeights,
    BetaVector,
    CoordinateIndex,
    alpha_of_index,
    bb_weights,
    beta_of_type,
    coordinate_index_count,
    enumerate_coordinate_indices,
    grading_one_parameter_subgroup,
    norm_sq,
    pairing,
    step2_trace_identity,
)

__version__ = "0.1.0"
