"""What a fresh process loads: ``import higgsstrata`` loads no submodule, and a
CLI verb loads only the modules it uses (the docstrings of ``higgsstrata`` and
``higgsstrata.cli`` give the rule).  Each check runs in a new interpreter on
this checkout's source, since the test session has imported everything."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

from higgsstrata import cli

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SUBMODULES = {
    "errors", "hn_types", "linalg", "minnorm", "oracles", "point_model", "strat_report", "svg", "weight_lattice",
}
# The public names of ``import higgsstrata`` when it imported every submodule:
# 72 re-exported names and the nine submodules.
PUBLIC = {
    "AmbientMismatch", "AmbiguousMembership", "BBWeights", "BetaVector", "CandidateSet", "CapExceeded",
    "ClosureReport", "CompatReport", "CoordinateIndex", "CoordinateTable", "CurveContext", "DegeneratePoint",
    "Factor", "FlagShape", "HNType", "HiggsDatum", "HiggsStrataError", "InvariantViolation", "Membership",
    "ModelPoint", "NonPositiveBlockDimension", "NotInY", "PhiBlock", "PointCloud", "PolygonOrder",
    "Rank3Kind", "Rank3Verdict", "Step1Report", "Step2Report", "StratumRecord", "UnclassifiedPoint",
    "alpha_of_index", "assemble", "bb_weights", "beta_of_type", "classify_rank3", "closure_order_report",
    "compare_polygon", "compat_cross_table", "compute_phi_blocks", "coordinate_index_count", "coordinates",
    "default_beta_candidates", "emit_polygon_svg", "enumerate_coordinate_indices", "enumerate_hn_types",
    "errors", "first_slope_bound", "from_higgs_data", "general_first_slope_bound",
    "grading_one_parameter_subgroup", "higgs_index_order", "higgs_stratum_index", "hn_types",
    "hull_contains_origin", "index_set_B", "kkt_certificate", "linalg", "membership", "min_norm_point",
    "min_norm_point_by_faces", "min_norm_point_of_sum", "minnorm", "nilpotent_commutant_dim",
    "nilpotent_commutant_dim_dense_oracle", "norm_sq", "nsequation_bound", "oracles", "pairing",
    "point_model", "retract_p_beta", "step2_trace_identity", "strat_report", "svg", "t_mu_candidates",
    "u_tau_candidates", "unipotent_stabilizer_dim", "unipotent_stabilizer_dim_dense_oracle", "verify_step1",
    "verify_step2", "weight_lattice",
}

PRELUDE = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(SRC)!r})
loaded = lambda: sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("higgsstrata."))
"""

POINT = json.dumps({"factors": [{"y": [[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]], "c": 1, "phi": [[2, 0], [5, 3]]}]})
CTX = ["--rank", "2", "--degree", "7", "--genus", "2"]


def _fresh(code: str):
    """The JSON that ``code``, after PRELUDE, prints from a new interpreter."""
    done = subprocess.run([sys.executable, "-c", PRELUDE + code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_bare_import_loads_no_submodule_and_offers_every_name():
    got = _fresh("""
import higgsstrata
bare = loaded()
names = [n for n in dir(higgsstrata) if not n.startswith("_")]
star = {}
exec("from higgsstrata import *", star)
print(json.dumps({"bare": bare, "dir": names, "star": sorted(n for n in star if not n.startswith("_")),
                  "after": [n for n in dir(higgsstrata) if not n.startswith("_")], "loaded": loaded()}))
""")
    assert got["bare"] == []
    assert set(got["dir"]) == set(got["star"]) == set(got["after"]) == PUBLIC and len(PUBLIC) == 81
    assert SUBMODULES <= PUBLIC and set(got["loaded"]) == SUBMODULES  # the star import read them all


def test_cli_verbs_load_only_their_modules(tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"points": [{"id": "a", "point": json.loads(POINT)}]}))
    requests = {
        "index-set": ["--points", '[["1/2", "-3"], [1, 0], [0, 1]]'],
        "enumerate": ["--rank", "2", "--degree", "1", "--max-slope", "2"],
        "order": ["--a", "1,0", "--b", "2,-1", "--rank", "2"],
        "beta": ["--tau", "4,3", "--ranks", "1,1", "--genus", "2"],
        "compat": ["--rank-max", "1", "--d-max", "2", "--degl-max", "0"],
        "minnorm": ["--points", "[[1,0],[0,1]]"],
        "classify": ["--tau-type", "1,2", "--mu-type", "1,2"],
        "point-coords": ["--point", POINT, *CTX],
        "point-check": ["--point", POINT, "--tau", "4,3", "--ranks", "1,1", "--genus", "2", "--step2"],
        "stabdim": ["--point", POINT, "--blocks", "3,2", *CTX],
        "polygons": ["--types", "[[[2,1]]]", "--out", str(tmp_path / "p.svg")],
        "report": [*CTX, "--corpus-file", str(corpus), "--out-prefix", str(tmp_path / "rep"), "--svg"],
    }
    assert set(requests) == set(cli.build_parser()[1])  # every verb
    got = _fresh(f"""
from higgsstrata.cli import main
after = {{}}
for verb, argv in {requests!r}.items():
    with contextlib.redirect_stdout(io.StringIO()):
        after[verb] = (main([verb, *argv, "--json"]), loaded())
print(json.dumps({{"after": after, "end": loaded()}}))
""")
    assert all(code == 0 for code, _ in got["after"].values()), got
    assert "oracles" not in got["end"] and {"point_model", "strat_report", "svg"} <= set(got["end"])
    index_set = set(got["after"]["index-set"][1])  # the first verb run
    assert {"cli", "minnorm"} <= index_set and not {"point_model", "strat_report", "svg"} & index_set
