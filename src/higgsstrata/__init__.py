"""Exact rational combinatorics of instability stratifications.

The package models Harder-Narasimhan types and their Higgs-field refinements,
the torus weight lattice of the Grassmannian-product embedding, instability
vectors with their grading weights, exact minimum-norm points and closest-point
index sets, explicit matrix models of embedded points with membership and
retraction predicates, stabiliser-dimension refinements and stratification
reports.  All arithmetic is exact; every theorem-level claim used here is
checked at desk scale in the test suite against a brute-force route of
``higgsstrata.oracles``, which no answer module imports.

Every name below is re-exported lazily (PEP 562): ``import higgsstrata``
loads no submodule, and the first read of a name, or of a submodule's own
name, imports the submodule that ``_SOURCES`` gives for it and keeps the
value here.  ``dir()`` and ``from higgsstrata import *`` list every name
whether or not it has been read, so ``oracles``, ``strat_report`` and ``svg``
load only for a caller that asks for them.
"""

__version__ = "0.1.0"

# Each submodule and the public names the package re-exports from it.
_SOURCES = {
    "errors": (
        "AmbientMismatch", "AmbiguousMembership", "CapExceeded", "DegeneratePoint", "HiggsStrataError",
        "InvariantViolation", "NonPositiveBlockDimension", "NotInY", "UnclassifiedPoint",
    ),
    "hn_types": (
        "CandidateSet", "CurveContext", "FlagShape", "HNType", "PhiBlock", "PolygonOrder", "Rank3Kind",
        "Rank3Verdict", "classify_rank3", "compare_polygon", "compute_phi_blocks", "enumerate_hn_types",
        "first_slope_bound", "general_first_slope_bound", "higgs_index_order", "higgs_stratum_index",
        "nsequation_bound", "t_mu_candidates", "u_tau_candidates",
    ),
    "linalg": (),
    "minnorm": ("PointCloud", "index_set_B", "kkt_certificate", "min_norm_point", "min_norm_point_of_sum"),
    "oracles": (
        "hull_contains_origin", "min_norm_point_by_faces", "nilpotent_commutant_dim_dense_oracle",
        "unipotent_stabilizer_dim_dense_oracle",
    ),
    "point_model": (
        "CoordinateTable", "Factor", "HiggsDatum", "Membership", "ModelPoint", "Step1Report", "Step2Report",
        "coordinates", "from_higgs_data", "membership", "nilpotent_commutant_dim", "retract_p_beta",
        "unipotent_stabilizer_dim", "verify_step1", "verify_step2",
    ),
    "strat_report": (
        "ClosureReport", "CompatReport", "StratumRecord", "assemble", "closure_order_report",
        "compat_cross_table", "default_beta_candidates",
    ),
    "svg": ("emit_polygon_svg",),
    "weight_lattice": (
        "BBWeights", "BetaVector", "CoordinateIndex", "alpha_of_index", "bb_weights", "beta_of_type",
        "coordinate_index_count", "enumerate_coordinate_indices", "grading_one_parameter_subgroup",
        "norm_sq", "pairing", "step2_trace_identity",
    ),
}
# name -> the submodule it is read from; a submodule's name maps to itself
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in (module, *names)}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
