"""CLI contract: worked examples, JSON round trips, exit codes, SVG determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_flagged_point
from higgsstrata import CapExceeded, CurveContext, Factor, HNType, ModelPoint, index_set_B
from higgsstrata.cli import main
from higgsstrata.hn_types import DEFAULT_INDEX_CAP


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def point_file(tmp_path):
    p = ModelPoint((Factor([[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]], 1, [[2, 0], [5, 3]]),))
    path = tmp_path / "point.json"
    path.write_text(json.dumps(p.to_json()))
    return str(path)


class TestWorkedExamples:
    def test_beta_example(self, capsys):
        data = run_json(
            capsys, "beta", "--tau", "5,3", "--ranks", "1,1", "--genus", "2", "--npoints", "1"
        )
        assert data["schema"] == "higgsstrata.beta/1"
        entries = [F(e["num"], e["den"]) for e in data["beta"]["entries"]]
        assert entries == [F(1, 12)] * 4 + [F(-1, 6)] * 2

    def test_order_example(self, capsys):
        code, out, _ = run(capsys, "order", "--a", "1,0", "--b", "2,-1", "--rank", "2")
        assert code == 0 and out.strip() == "Less"

    def test_minnorm_example(self, capsys):
        code, out, _ = run(capsys, "minnorm", "--points", "[[1,0],[0,1]]")
        assert code == 0 and out.strip() == "(1/2, 1/2)"


class TestJsonRoundTrips:
    def test_enumerate(self, capsys):
        data = run_json(
            capsys, "enumerate", "--rank", "2", "--degree", "1", "--max-slope", "2"
        )
        types = [HNType.from_json(t) for t in data["types"]]
        assert HNType(((2, 1),)) in types and len(types) == 3

    def test_minnorm(self, capsys):
        data = run_json(capsys, "minnorm", "--points", "[[1,0],[0,1]]")
        assert [F(e["num"], e["den"]) for e in data["point"]] == [F(1, 2), F(1, 2)]

    def test_index_set(self, capsys):
        data = run_json(capsys, "index-set", "--points", "[[-1],[1]]")
        vs = [[F(e["num"], e["den"]) for e in v] for v in data["vectors"]]
        assert vs == [[F(0)], [F(1)]]

    def test_compat(self, capsys):
        data = run_json(
            capsys, "compat", "--rank-max", "2", "--d-max", "6", "--degl-max", "1"
        )
        assert data["violations"] == [] and data["checked"] > 0

    def test_classify(self, capsys):
        data = run_json(capsys, "classify", "--tau-type", "2,1", "--mu-type", "1,1,1")
        assert data["kind"] == "Forbidden"

    def test_point_coords(self, capsys, point_file):
        data = run_json(
            capsys,
            "point-coords", "--point-file", point_file,
            "--rank", "2", "--degree", "7", "--genus", "2",
        )
        assert data["total_indices"] == 50
        assert all(e["value"]["num"] != 0 for e in data["support"])

    def test_point_check(self, capsys, point_file):
        data = run_json(
            capsys,
            "point-check", "--point-file", point_file,
            "--tau", "4,3", "--ranks", "1,1", "--genus", "2", "--step2",
        )
        assert data["membership"] == "InY_not_Z"
        assert data["step1"]["passed"] is True
        assert data["step2"]["trace_identity_ok"] is True

    def test_stabdim_point(self, capsys, point_file):
        data = run_json(
            capsys,
            "stabdim", "--point-file", point_file, "--blocks", "3,2",
            "--rank", "2", "--degree", "7", "--genus", "2",
        )
        assert data["kind"] == "unipotent_stabilizer" and data["dim"] >= 0

    def _four_point_stabdim(self, capsys, *extra):
        ctx = CurveContext(2, 7, genus=2, npoints=4)
        point = build_flagged_point(HNType(((1, 5), (1, 2))), ctx, random.Random(6))
        return run(
            capsys,
            "stabdim", "--point", json.dumps(point.to_json()), "--blocks", "4,1",
            "--rank", "2", "--degree", "7", "--genus", "2", "--npoints", "4", *extra,
        )

    def test_stabdim_four_points(self, capsys):
        # 10^4 * (1 + 2^8) = 2,570,000 coordinate indices, 4 * 10 * 5 = 200 rows
        start = time.monotonic()
        code, out, err = self._four_point_stabdim(capsys, "--json")
        assert time.monotonic() - start < 10
        assert code == 0, err
        assert json.loads(out)["kind"] == "unipotent_stabilizer"

    def test_stabdim_cap_counts_rows(self, capsys):
        code, out, err = self._four_point_stabdim(capsys, "--cap", "199")
        assert code == 1 and not out
        assert re.fullmatch(r"CapExceeded: .*size 200 exceeds cap 199\n", err), err

    def test_stabdim_phis(self, capsys):
        data = run_json(
            capsys, "stabdim", "--blocks", "1,1", "--phis", "[[[0,0],[1,0]]]"
        )
        assert data["kind"] == "nilpotent_commutant" and data["dim"] == 0

    def test_report(self, capsys, tmp_path, point_file):
        corpus = {
            "points": [
                {"id": "a", "point": json.loads(Path(point_file).read_text()), "flag": [3, 2]}
            ]
        }
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(json.dumps(corpus))
        prefix = str(tmp_path / "rep")
        data = run_json(
            capsys,
            "report", "--rank", "2", "--degree", "7", "--genus", "2",
            "--corpus-file", str(corpus_path), "--max-slope", "5",
            "--out-prefix", prefix, "--svg",
        )
        assert len(data["records"]) == 1
        on_disk = json.loads((tmp_path / "rep.json").read_text())
        assert on_disk["schema"] == "higgsstrata.report/1"
        assert (tmp_path / "rep.csv").exists() and (tmp_path / "rep.svg").exists()

    def test_every_json_payload_carries_schema(self, capsys, point_file):
        invocations = [
            ["enumerate", "--rank", "2", "--degree", "1", "--max-slope", "2"],
            ["order", "--a", "1,0", "--b", "2,-1", "--rank", "2"],
            ["beta", "--tau", "4,3", "--ranks", "1,1", "--genus", "2"],
            ["compat", "--rank-max", "1", "--d-max", "2", "--degl-max", "0"],
            ["minnorm", "--points", "[[1,0],[0,1]]"],
            ["index-set", "--points", "[[-1],[1]]"],
            ["classify", "--tau-type", "1,2", "--mu-type", "1,2"],
        ]
        for argv in invocations:
            data = run_json(capsys, *argv)
            assert data["schema"].startswith("higgsstrata.")


def _golden_point(*factors) -> str:
    return json.dumps({"factors": [{"y": y, "c": c, "phi": phi} for y, c, phi in factors]})


# (context flags, point, stabiliser flag blocks): r = 1, 2 and 3, singular
# minors, c = 0, phi = 0 and N = 2.
_GOLDEN_CASES = {
    "r1": (
        ["--rank", "1", "--degree", "2"],
        _golden_point(([[1, 0, 2]], 3, [[1]])),
        "2,1",
    ),
    "r2-c0": (
        ["--rank", "2", "--degree", "2"],
        _golden_point(([[1, 1, 0, 0], [0, 1, 1, 0]], 0, [[1, 2], [0, -1]])),
        "2,2",
    ),
    "r2-phi0": (
        ["--rank", "2", "--degree", "3"],
        _golden_point(([[1, 0, 1, 0, 2], [0, 1, 1, 1, 0]], 5, [[0, 0], [0, 0]])),
        "3,2",
    ),
    "r3": (
        ["--rank", "3", "--degree", "2"],
        _golden_point(
            ([[1, 0, 0, 1, 0], [0, 1, 0, 1, 1], [0, 0, 1, 0, "1/2"]], "2/3",
             [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        ),
        "2,2,1",
    ),
    "r2-n2": (
        ["--rank", "2", "--degree", "1", "--npoints", "2"],
        _golden_point(
            ([[1, 0, 1], [0, 1, 1]], 1, [[1, 0], [1, 1]]),
            ([[1, 2, 0], [0, 0, 1]], -1, [[0, 0], [3, 0]]),
        ),
        "1,2",
    ),
}

# sha256 of the --json stdout, recorded from the adjugate/dual-number
# evaluator that the cofactor table replaced.
_GOLDEN_DIGESTS = {
    ("point-coords", "r1"): "bc64560b7256630a0749dc7f5321bb936bd14141262abbcae1e49b707eec9748",
    ("stabdim", "r1"): "a34aeaa4e3942014f25399c8c5af44a9328e81a77b1da11d2856d3989a6727c6",
    ("point-coords", "r2-c0"): "c5ac3d7167f67beffa0f96c5fbc1e7362ba62887479efbf80c56a7e6792e9944",
    ("stabdim", "r2-c0"): "afe4e1e91ed1a72c66fe808221cb4f35eb43eefd6b15b4d866b2e918d90b8951",
    ("point-coords", "r2-phi0"): "fd04d65e77d70c97c172b8b8ee9d0b18418b49e514118bdb0219d43ac109cbde",
    ("stabdim", "r2-phi0"): "3b3fb7e37a4217e3aca6481573f39fd724ca548c7f585471d2f6db603552875c",
    ("point-coords", "r3"): "7c9142948cb6b210e846b74c8e5520af6d25adba517a1e10a83b5e8d3602e0f6",
    ("stabdim", "r3"): "a34aeaa4e3942014f25399c8c5af44a9328e81a77b1da11d2856d3989a6727c6",
    ("point-coords", "r2-n2"): "7f9a68a95ce600fd13d013cd618658b4e7566073e2bacdc874e31cbeb92b5071",
    ("stabdim", "r2-n2"): "afe4e1e91ed1a72c66fe808221cb4f35eb43eefd6b15b4d866b2e918d90b8951",
}


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "verb,case", list(_GOLDEN_DIGESTS), ids=[f"{v}-{c}" for v, c in _GOLDEN_DIGESTS]
    )
    def test_json_stdout_digest(self, capsys, verb, case):
        ctx, point, blocks = _GOLDEN_CASES[case]
        extra = ["--blocks", blocks] if verb == "stabdim" else []
        code, out, err = run(capsys, verb, "--point", point, *ctx, *extra, "--json")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_DIGESTS[(verb, case)]


_TAU43 = ["--tau", "4,3", "--ranks", "1,1", "--genus", "2"]
_FLAG43 = ([[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]], 1, [[2, 0], [5, 3]])

# (type and context flags, point): Outside with 20 violations (16 listed),
# with and without an equality witness, InY_not_Z, InZ, c = 0 and N = 2.
_POINT_CHECK_CASES = {
    "outside-many": (
        ["--tau", "3,2", "--ranks", "1,1", "--npoints", "3"],
        _golden_point(
            ([[-1, 1, -1, 0, -1, 0, 0], [0, 1, 0, -1, -1, 0, -1]], 1, [[0, 0], [1, -1]]),
            ([[1, 0, 0, 1, -1, 1, -1], [0, -1, -1, -1, 1, 1, -1]], 1, [[0, 1], [-1, 0]]),
            ([[1, -1, 1, -1, 0, 0, 1], [-1, 0, -1, 1, -1, 0, 0]], 1, [[-1, 0], [1, 1]]),
        ),
    ),
    "outside-witness": (_TAU43, _golden_point(([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], 1, [[1, 2], [3, 4]]))),
    "outside-no-witness": (_TAU43, _golden_point(([[0, 1, 1, 0, 0], [0, -1, 0, 0, 0]], 1, [[1, 0], [0, -1]]))),
    "iny": (_TAU43, _golden_point(_FLAG43)),
    "inz": (_TAU43, _golden_point(([[1, 1, 1, 0, 0], [0, 0, 0, 1, 2]], 1, [[2, 0], [0, 3]]))),
    "c0": (_TAU43, _golden_point(([[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]], 0, [[2, 0], [5, 3]]))),
    "n2": (
        _TAU43 + ["--npoints", "2"],
        _golden_point(_FLAG43, ([[1, 2, 1, 3, 0], [0, 0, 0, 1, 2]], -1, [[0, 0], [1, 1]])),
    ),
}

# (case, --step2) -> (exit code, sha256 of stdout + stderr), recorded from
# the route that ran membership and step 1 as separate passes.
_POINT_CHECK_DIGESTS = {
    ("outside-many", False): (0, "898b4b441a6f8ece315fd976177754fba47c31c4087a3ae9dd3338bc9be90496"),
    ("outside-many", True): (1, "5ecb5670178013946798700a1b6666312147343e06dfe39ac39b5a6c56a6c685"),
    ("outside-witness", False): (0, "06571fd1bc05836992fe7bec1ec89f8921bfed92d09d7fdf74991e03b3539d0a"),
    ("outside-witness", True): (1, "5ecb5670178013946798700a1b6666312147343e06dfe39ac39b5a6c56a6c685"),
    ("outside-no-witness", False): (0, "add27038b5aada430d72e9c85160e8a3256a3a7e045e77f38f184a4da7486e27"),
    ("outside-no-witness", True): (1, "5ecb5670178013946798700a1b6666312147343e06dfe39ac39b5a6c56a6c685"),
    ("iny", False): (0, "107a1886356150741dc6c9ad697d99187a374c965fd6235ea79a040bd2cabfbe"),
    ("iny", True): (0, "ef6ea4a164b7848b9fcbd197ae9dc0229df6724a74dd5d588abb024db08b0ff4"),
    ("inz", False): (0, "b24528c871a0c7aca130a1dd59203ac0331161972b2e9129897d5eedc7a8a1a6"),
    ("inz", True): (0, "60a3362e8af4f0c71c1f58d63ed5332fe6372d103b2615a86f946892884d55e3"),
    ("c0", False): (0, "f8015c6fb0101b7513ce5032596987b76b0a99eafe34758927641db431df84ba"),
    ("c0", True): (0, "475921b8a572e1a13fee20bd6e8f1cdc5394b0fd09cfdf3095f53584650226b8"),
    ("n2", False): (0, "128840944553c45caf62dfc5579a82e6b43ac413aee5e49934607ebc4240a0aa"),
    ("n2", True): (0, "46ba7687c8a2de2484e99f6f2ee53b40c00dbb71b3891326f2b3071927e25042"),
}


class TestGoldenPointCheck:
    @pytest.mark.parametrize(
        "case,step2",
        list(_POINT_CHECK_DIGESTS),
        ids=[f"{c}{'-step2' if s else ''}" for c, s in _POINT_CHECK_DIGESTS],
    )
    def test_output_digest(self, capsys, case, step2):
        flags, point = _POINT_CHECK_CASES[case]
        extra = ["--step2"] if step2 else []
        code, out, err = run(capsys, "point-check", "--point", point, *flags, *extra, "--json")
        assert (code, hashlib.sha256((out + err).encode()).hexdigest()) == _POINT_CHECK_DIGESTS[(case, step2)]


class TestIndexSetDefaultCap:
    def test_library_and_cli_share_the_default_cap(self, capsys, monkeypatch):
        # 18 affinely independent points in Q^17: 2^18 - 1 subsets are counted
        points = [[0] * 17] + [[int(i == j) for j in range(17)] for i in range(17)]
        with pytest.raises(CapExceeded) as exc:
            index_set_B(points)
        assert (exc.value.count, exc.value.cap) == (262_143, DEFAULT_INDEX_CAP)
        monkeypatch.delenv("HIGGSSTRATA_CAP", raising=False)
        code, out, err = run(capsys, "index-set", "--points", json.dumps(points))
        assert code == 1 and not out
        assert err == f"CapExceeded: enumeration of size 262143 exceeds cap {DEFAULT_INDEX_CAP}\n"


class TestExitCodes:
    DOMAIN_ERRORS = [
        # (argv, reason)
        (["order", "--a", "1,0", "--b", "2,0", "--rank", "2"], "ambient mismatch"),
        (["beta", "--tau", "0,-1", "--ranks", "1,1", "--genus", "2"], "nonpositive block"),
        (["minnorm", "--points", "notjson"], "bad json"),
        (["minnorm", "--points", "[[1,0],[0,1]]", "--points-file", "x"], "both sources"),
        (["index-set", "--points", "[[1,0.5]]"], "float rejected"),
        (["classify", "--tau-type", "2,2", "--mu-type", "1,1,1"], "bad composition"),
        (["point-coords", "--point", "{}", "--rank", "2", "--degree", "7", "--genus", "2"], "bad point"),
        (["polygons", "--types", "[[[2,1]],[[2,2]]]", "--out", "/tmp/x.svg"], "mixed ambient"),
    ]

    @pytest.mark.parametrize("argv,reason", DOMAIN_ERRORS)
    def test_domain_errors_exit_one(self, capsys, argv, reason):
        code, _, err = run(capsys, *argv)
        assert code == 1, reason
        assert err.strip(), reason  # error name on the diagnostic stream

    def test_usage_errors_exit_two(self, capsys):
        assert run(capsys, "bogus-verb")[0] == 2
        assert run(capsys, "beta")[0] == 2  # missing required --tau

    @pytest.mark.parametrize(
        "argv",
        [
            ["minnorm", "--points", "[[1,0],[0,1]]", "--method", "faces"],
            ["enumerate", "--rank", "2", "--degree", "1", "--max-slope", "2", "--flavor", "higgs"],
        ],
        ids=["minnorm-method", "enumerate-flavor"],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert "usage:" in err and "unrecognized arguments" in err
        assert "Traceback" not in err

    def test_success_exit_zero(self, capsys):
        assert run(capsys, "classify", "--tau-type", "3", "--mu-type", "3")[0] == 0

    def test_cap_env_var_enforced(self, capsys, monkeypatch, point_file):
        monkeypatch.setenv("HIGGSSTRATA_CAP", "10")
        code, _, err = run(
            capsys,
            "point-coords", "--point-file", point_file,
            "--rank", "2", "--degree", "7", "--genus", "2",
        )
        assert code == 1 and "CapExceeded" in err


class TestRepeatedCalls:
    """Back-to-back ``main`` calls in one process share its parser but no state."""

    POINTS = "[[-1],[1]]"

    def test_no_chamber_then_chamber(self, capsys):
        raw = run_json(capsys, "index-set", "--points", self.POINTS, "--no-chamber")
        chamber = run_json(capsys, "index-set", "--points", self.POINTS)
        one = {"num": 1, "den": 1}
        assert raw["vectors"] == [[{"num": -1, "den": 1}], [{"num": 0, "den": 1}], [one]]
        assert chamber["vectors"] == [[{"num": 0, "den": 1}], [one]]

    def test_cap_then_default_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("HIGGSSTRATA_CAP", raising=False)
        code, out, err = run(capsys, "index-set", "--points", self.POINTS, "--cap", "1", "--json")
        assert (code, out) == (1, "") and err.startswith("CapExceeded")
        assert len(run_json(capsys, "index-set", "--points", self.POINTS)["vectors"]) == 2

    def test_usage_error_then_valid_call(self, capsys):
        code, out, err = run(capsys, "index-set", "--points", self.POINTS, "--bogus")
        assert (code, out) == (2, "") and "usage:" in err
        code, out, err = run(capsys, "index-set", "--points", self.POINTS, "--json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["vectors"]) == 2


class TestMalformedInput:
    """Bad input ends with one ``Name: message`` line on stderr, not a traceback."""

    ZERO_DEN_POINT = json.dumps(
        {"factors": [{"y": [[1, 0, 0], [0, {"num": 1, "den": 0}, 1]], "c": 1, "phi": [[0, 0], [0, 0]]}]}
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--rank", "2", "--degree", "1", "--max-slope", "1/0"],
            ["minnorm", "--points", '[["1/0",1]]'],
            ["point-coords", "--point", ZERO_DEN_POINT, "--rank", "2", "--degree", "1"],
        ],
        ids=["max-slope", "minnorm-points", "point-json"],
    )
    def test_zero_denominator(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert re.fullmatch(r"ValueError: .*zero denominator\n", err), err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["polygons", "--types", "[[[1, 1e400]]]", "--out", os.devnull], "TypeError"),
            (
                ["point-coords", "--point", '{"factors": [{"y": [], "c": 1, "phi": []}]}',
                 "--rank", "1", "--degree", "1"],
                "ValueError",
            ),
            (["polygons", "--types", "[[[1,1.5],[1,0.9]]]", "--out", os.devnull], "TypeError"),
        ],
        ids=["infinite-degree", "empty-y", "non-integer-block"],
    )
    def test_malformed_json(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert re.fullmatch(name + r": .*\n", err), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["minnorm", "--points", '[[{"num": 1.5, "den": 1}, 2], [3, 4]]'],
            ["minnorm", "--points", "[[true, 2], [3, 4]]"],
            ["point-coords", "--point", '{"factors": [{"y": [[1, 0]], "c": true, "phi": [[0]]}]}',
             "--rank", "1", "--degree", "1"],
        ],
        ids=["dict-float", "bool", "point-bool"],
    )
    def test_lossy_rational(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert re.fullmatch(r"TypeError: .*\n", err), err

    def test_non_integer_report_flag(self, capsys, tmp_path, point_file):
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(json.dumps(
            {"points": [{"id": "a", "point": json.loads(Path(point_file).read_text()), "flag": [2.9, 3.2]}]}
        ))
        code, out, err = run(
            capsys, "report", "--rank", "2", "--degree", "7", "--genus", "2",
            "--corpus-file", str(corpus_path), "--out-prefix", str(tmp_path / "r"),
        )
        assert code == 1 and not out
        assert re.fullmatch(r"TypeError: .*\n", err), err

    def test_unbounded_slope_hits_type_cap(self, capsys):
        start = time.monotonic()
        code, out, err = run(capsys, "enumerate", "--rank", "2", "--degree", "1", "--max-slope", "1e400")
        assert code == 1 and not out
        assert re.fullmatch(r"CapExceeded: .*\n", err), err
        assert time.monotonic() - start < 10

    def test_huge_lambda_bound_hits_trace_cap(self, capsys, point_file):
        start = time.monotonic()
        code, out, err = run(
            capsys, "point-check", "--point-file", point_file, "--tau", "5,2", "--ranks", "1,1",
            "--genus", "2", "--step2", "--lambda-bound", "1000000000",
        )
        assert code == 1 and not out
        assert re.fullmatch(r"CapExceeded: .*\n", err), err
        assert time.monotonic() - start < 10

    def test_negative_lambda_bound(self, capsys, point_file):
        code, out, err = run(
            capsys, "point-check", "--point-file", point_file, "--tau", "5,2", "--ranks", "1,1",
            "--genus", "2", "--step2", "--lambda-bound", "-1",
        )
        assert code == 1 and not out
        assert re.fullmatch(r"ValueError: .*\n", err), err

    def test_huge_report_slope_is_pruned(self, capsys, tmp_path, point_file):
        # every block slope must exceed genus - 1, which bounds the first slope
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(json.dumps(
            {"points": [{"id": "a", "point": json.loads(Path(point_file).read_text()), "flag": [3, 2]}]}
        ))
        common = ["report", "--rank", "2", "--degree", "7", "--genus", "2", "--corpus-file", str(corpus_path)]
        start = time.monotonic()
        huge = run_json(capsys, *common, "--max-slope", "1e9", "--out-prefix", str(tmp_path / "a"))
        assert time.monotonic() - start < 10
        small = run_json(capsys, *common, "--max-slope", "5", "--out-prefix", str(tmp_path / "b"))
        assert huge["records"] == small["records"]

    def test_non_integer_cap_env_var(self, capsys, monkeypatch, point_file):
        monkeypatch.setenv("HIGGSSTRATA_CAP", "abc")
        assert run(capsys, "beta", "--tau", "5,3", "--genus", "2")[0] == 0
        code, _, err = run(
            capsys,
            "point-coords", "--point-file", point_file,
            "--rank", "2", "--degree", "7", "--genus", "2",
        )
        assert code == 1
        assert re.fullmatch(r"ValueError: HIGGSSTRATA_CAP .*\n", err), err


class TestSvg:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        types = "[[[1,2],[1,1]],[[2,3]]]"
        assert run(capsys, "polygons", "--types", types, "--out", a)[0] == 0
        assert run(capsys, "polygons", "--types", types, "--out", b)[0] == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_single_semistable_polygon(self, capsys, tmp_path):
        out = str(tmp_path / "t0.svg")
        assert run(capsys, "polygons", "--types", "[[[2,3]]]", "--out", out)[0] == 0
        doc = Path(out).read_text()
        assert doc.count("<polyline") == 1 and "#000000" in doc

    def test_first_type_black_rest_grey(self, capsys, tmp_path):
        out = str(tmp_path / "two.svg")
        run(capsys, "polygons", "--types", "[[[1,2],[1,1]],[[2,3]]]", "--out", out)
        doc = Path(out).read_text()
        assert doc.count("#000000") > 0 and doc.count("#999999") > 0


# Free-form input for the fuzz test.  JSON is built as text so that tokens
# json.dumps cannot emit (1e400, which parses to an infinite float) appear.
_ATOMS = [
    "0", "1", "-2", "7", "100000000000000000000", "1e400", "0.5", "null", "true",
    '"3/4"', '"-5/2"', '"1/0"', '"x"', '""', "[]", "{}",
    '{"num": 2, "den": 3}', '{"num": 1, "den": 0}', '{"num": "a", "den": 1}',
]
_RATIONALS = [
    "0", "1", "-1", "3/2", "-7/3", "5", "1/0", "0/0", "abc", "", "0.5", "1e-400", "1e400", " 2",
]
_atom = st.sampled_from(_ATOMS)
_json_matrix = st.lists(
    st.lists(_atom, max_size=4).map(lambda xs: "[" + ",".join(xs) + "]"), max_size=4
).map(lambda rows: "[" + ",".join(rows) + "]")
_json_list = lambda items: st.lists(items, max_size=2).map(lambda xs: "[" + ",".join(xs) + "]")  # noqa: E731
_small_int = st.sampled_from(["0", "1", "1", "2", "2", "3", "-1", "x"])
_int_list = st.lists(st.sampled_from(["-1", "0", "1", "2", "3", "x", ""]), max_size=3).map(",".join)


def _flag(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def _point_case(draw):
    """Context flags, a point document, its tau and flag blocks.

    Half the cases are free-form; the rest are well-shaped integer points
    with a matching genus-0 context, so the deep routes run too.
    """
    if draw(st.booleans()):
        ctx = [
            "--rank", draw(_small_int), "--degree", draw(_small_int),
            "--genus", draw(st.sampled_from(["0", "1", "2"])),
            "--npoints", draw(st.sampled_from(["1", "2", "0"])),
        ]
        factor = st.builds('{{"y": {}, "c": {}, "phi": {}}}'.format, _json_matrix, _atom, _json_matrix)
        shape = draw(st.sampled_from(['{{"factors": [{}]}}', "[{}]", "{{}}"]))
        point = shape.format(",".join(draw(st.lists(factor, max_size=2))))
        return ctx, point, [draw(_int_list), draw(_int_list)], draw(_int_list)
    r, d, n = draw(st.integers(1, 2)), draw(st.integers(0, 3)), draw(st.integers(1, 2))
    m = d + r
    entries = st.integers(-1, 2)
    factors = [
        {
            "y": draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=r, max_size=r)),
            "c": draw(entries),
            "phi": draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=r, max_size=r)),
        }
        for _ in range(n)
    ]
    ctx = ["--rank", str(r), "--degree", str(d), "--genus", "0", "--npoints", str(n)]
    taus = [[str(d), str(r)]] + ([[f"{a},{d - a}", "1,1"] for a in range(d + 1)] if r == 2 else [])
    flag = draw(st.sampled_from([[m], [1] * m, [m - 1, 1] if m > 1 else [m]]))
    return ctx, json.dumps({"factors": factors}), draw(st.sampled_from(taus)), ",".join(map(str, flag))


def _argv(tmp: str, ctx: list, point: str, tau: list, blocks: str):
    point_arg = ["--point", point]
    free_ctx = st.tuples(
        st.just("--rank"), _small_int, st.just("--degree"), _small_int,
        st.just("--npoints"), st.sampled_from(["1", "2", "0"]),
    ).map(list)
    verbs = [
        # --max-slope stays small here: the type count grows with it by
        # design, up to the cap; TestMalformedInput runs 1e400.
        st.tuples(
            st.just(["enumerate"]), free_ctx,
            st.sampled_from([["--max-slope", q] for q in _RATIONALS if q != "1e400"]),
        ),
        st.tuples(
            st.just(["order", "--rank"]), _small_int.map(lambda v: [v]),
            _int_list.map(lambda v: ["--a", v]), _int_list.map(lambda v: ["--b", v]),
            _flag("--ranks-a", _int_list),
        ),
        st.tuples(
            st.just(["beta", "--tau"]), _int_list.map(lambda v: [v]),
            _flag("--ranks", _int_list), _flag("--genus", _small_int), _flag("--npoints", _small_int),
        ),
        st.tuples(
            st.just(["compat", "--rank-max"]), st.sampled_from(["0", "1", "2", "x"]).map(lambda v: [v]),
            st.sampled_from(["-1", "0", "2", "3"]).map(lambda v: ["--d-max", v]),
            st.sampled_from(["0", "1"]).map(lambda v: ["--degl-max", v]),
        ),
        st.tuples(
            st.just(["minnorm", "--points"]), _json_matrix.map(lambda v: [v]),
        ),
        st.tuples(
            st.just(["index-set", "--points"]), _json_matrix.map(lambda v: [v]),
            _flag("--cap", _small_int), st.sampled_from([[], ["--no-chamber"]]),
        ),
        st.tuples(st.just(["point-coords"] + ctx + point_arg), _flag("--cap", _small_int)),
        st.tuples(
            st.just(["point-check", "--tau", tau[0], "--ranks", tau[1]] + ctx[4:] + point_arg),
            st.sampled_from([[], ["--step2"]]),
        ),
        st.tuples(st.just(["stabdim", "--blocks", blocks] + ctx + point_arg)),
        st.tuples(
            st.just(["stabdim", "--blocks"]), _int_list.map(lambda v: [v]),
            _json_list(_json_matrix).map(lambda v: ["--phis", v]),
        ),
        st.tuples(
            st.just(["classify", "--tau-type"]), _int_list.map(lambda v: [v, "--mu-type"]),
            _int_list.map(lambda v: [v]),
        ),
        st.tuples(_json_list(_json_matrix).map(
            lambda v: ["polygons", "--types", v, "--out", os.path.join(tmp, "p.svg")]
        )),
        st.tuples(
            st.just(["report"] + ctx + [
                "--corpus-file", os.path.join(tmp, "corpus.json"),
                "--out-prefix", os.path.join(tmp, "rep"),
            ]),
            _flag("--max-slope", st.sampled_from(_RATIONALS)),
        ),
    ]
    return st.one_of(verbs).map(lambda parts: [a for part in parts for a in part] + ["--json"])


class TestFuzz:
    """Any argv: exit 0 with one JSON document, 1 with one ``Name: message`` line, or 2."""

    @given(st.data(), _point_case())
    @settings(max_examples=150, deadline=None)
    def test_contract(self, data, case):
        ctx, point, tau, blocks = case
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "corpus.json"), "w", encoding="utf-8") as handle:
                handle.write('{"points": [{"id": "a", "point": %s, "flag": [%s]}]}' % (point, blocks))
            argv = data.draw(_argv(tmp, ctx, point, tau, blocks))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 0:
            json.loads(out.getvalue())
            assert out.getvalue().count("\n") == 1, argv
        elif code == 1:
            assert not out.getvalue(), argv
            assert re.fullmatch(r"[A-Za-z]\w*: [^\n]*\n", err.getvalue()), (argv, err.getvalue())
