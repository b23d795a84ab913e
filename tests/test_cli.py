"""CLI contract: worked examples, JSON round trips, exit codes, SVG determinism."""

from __future__ import annotations

import json
import re
from fractions import Fraction as F

import pytest

from higgsstrata import CurveContext, Factor, HNType, ModelPoint
from higgsstrata.cli import main


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

    def test_enumerate_higgs_flavor(self, capsys):
        data = run_json(
            capsys,
            "enumerate", "--rank", "2", "--degree", "1", "--max-slope", "2",
            "--flavor", "higgs",
        )
        assert len(data["types"]) == 3

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

    def test_stabdim_phis(self, capsys):
        data = run_json(
            capsys, "stabdim", "--blocks", "1,1", "--phis", "[[[0,0],[1,0]]]"
        )
        assert data["kind"] == "nilpotent_commutant" and data["dim"] == 0

    def test_report(self, capsys, tmp_path, point_file):
        corpus = {
            "points": [
                {"id": "a", "point": json.loads(open(point_file).read()), "flag": [3, 2]}
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
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_single_semistable_polygon(self, capsys, tmp_path):
        out = str(tmp_path / "t0.svg")
        assert run(capsys, "polygons", "--types", "[[[2,3]]]", "--out", out)[0] == 0
        doc = open(out).read()
        assert doc.count("<polyline") == 1 and "#000000" in doc

    def test_first_type_black_rest_grey(self, capsys, tmp_path):
        out = str(tmp_path / "two.svg")
        run(capsys, "polygons", "--types", "[[[1,2],[1,1]],[[2,3]]]", "--out", out)
        doc = open(out).read()
        assert doc.count("#000000") > 0 and doc.count("#999999") > 0
