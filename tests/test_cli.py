"""CLI contract: worked examples, JSON round trips, exit codes, SVG determinism."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import INDEX_SET_LATTICE_GOLDEN, build_flagged_point, genus0_lattice_weights
from higgsstrata import CapExceeded, CurveContext, Factor, HNType, ModelPoint, index_set_B
from higgsstrata import cli
from higgsstrata.cli import main
from higgsstrata.hn_types import DEFAULT_INDEX_CAP
from higgsstrata.svg import polygon_svg


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def flagged_point_json(m1: int, phi) -> dict:
    """An r = 2, m = 5 point whose y splits the sections m1 + (5 - m1)."""
    y = [[1] * m1 + [0] * (5 - m1), [0] * m1 + [1] * (5 - m1)]
    return ModelPoint((Factor(y, 1, phi),)).to_json()


SEMISTABLE = ModelPoint((Factor([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], 1, [[1, 2], [3, 4]]),)).to_json()
REPORT_CTX = ["report", "--rank", "2", "--degree", "7", "--genus", "2"]


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

    def test_readme_report_example(self, capsys, tmp_path, monkeypatch):
        # the README's corpus file and report command, run verbatim
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        corpus = re.search(r"A corpus file for `report`.*?```json\n(.*?)\n```", readme, re.S)[1]
        command = re.search(r"^higgsstrata (report .*\\\n.*)$", readme, re.M)[1]
        monkeypatch.chdir(tmp_path)
        Path("corpus.json").write_text(corpus, encoding="utf-8")
        code, out, err = run(capsys, *shlex.split(command.replace("\\\n", " ")))
        assert (code, err) == (0, "")
        assert out == "1 records over 1 points\nwrote out.json\nwrote out.csv\nwrote out.svg\n"
        (record,) = json.loads(Path("out.json").read_text(encoding="utf-8"))["records"]
        assert record["member_ids"] == ["a"]
        assert HNType.from_json(record["beta"]["tau"]) == HNType(((1, 4), (1, 3)))


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
        # 10^4 * (1 + 2^8) = 2,570,000 coordinate indices; N r m |positions|
        # = 4 * 2 * 5 * 4 = 160 invariance-row entries
        start = time.monotonic()
        code, out, err = self._four_point_stabdim(capsys, "--json")
        assert time.monotonic() - start < 10
        assert code == 0, err
        assert json.loads(out)["kind"] == "unipotent_stabilizer"

    def test_stabdim_cap_counts_rows(self, capsys):
        code, out, err = self._four_point_stabdim(capsys, "--cap", "159")
        assert code == 1 and not out
        assert re.fullmatch(r"CapExceeded: .*size 160 exceeds cap 159\n", err), err
        assert self._four_point_stabdim(capsys, "--cap", "160")[0] == 0

    def test_rank4_two_point_stabiliser_under_the_default_cap(self, capsys, tmp_path):
        # (r, d, g, N) = (4, 20, 0, 2), m = 24: N r m |positions| = 2 * 4 * 24
        # * (13 * 11) = 27,456 entries, where N C(m,r) (1 + r^2) was 361,284
        ctx = CurveContext(4, 20, genus=0, npoints=2)
        point = build_flagged_point(HNType(((2, 11), (2, 9))), ctx, random.Random(0)).to_json()
        ctx_flags = ["--rank", "4", "--degree", "20", "--npoints", "2"]
        data = run_json(capsys, "stabdim", "--point", json.dumps(point), "--blocks", "13,11", *ctx_flags)
        assert data["dim"] == 99
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(json.dumps({"points": [{"id": "a", "point": point}]}))
        data = run_json(
            capsys, "report", *ctx_flags, "--corpus-file", str(corpus_path),
            "--max-slope", "6", "--out-prefix", str(tmp_path / "rep"),
        )
        assert [row["delta"] for row in data["closure"]["rows"]] == [99]

    def test_stabdim_phis(self, capsys):
        data = run_json(
            capsys, "stabdim", "--blocks", "1,1", "--phis", "[[[0,0],[1,0]]]"
        )
        assert data["kind"] == "nilpotent_commutant" and data["dim"] == 0

    @pytest.mark.parametrize("phis", [["--phis", "[[[0,1],[0,0]]]"], ["--phis-file", "phis.json"]])
    @pytest.mark.parametrize("point", [["--point", '{"factors":[]}'], ["--point-file", "point.json"]])
    def test_stabdim_refuses_phis_with_a_point(self, capsys, phis, point):
        # the mix is refused before either input is read (the files do not exist)
        code, out, err = run(capsys, "stabdim", "--blocks", "1,1", *phis, *point)
        assert (code, out) == (1, "")
        assert err == "ValueError: provide one of --phis and --point, not both\n"

    @pytest.mark.parametrize("phis", [["--phis", "[[[0,1],[0,0]]]"], ["--phis-file", "phis.json"]])
    def test_stabdim_refuses_a_cap_with_phis(self, capsys, phis):
        # the cap counts a point's values, so it is refused, not dropped, before
        # the matrices are read (the file does not exist)
        code, out, err = run(capsys, "stabdim", "--blocks", "1,1", *phis, "--cap", "0")
        assert (code, out) == (1, "")
        assert err == "ValueError: --cap applies only to --point\n"

    @pytest.mark.parametrize("ctx", [["--rank", "7"], ["--degree", "3"], ["--rank", "7", "--degree", "3"]])
    def test_stabdim_refuses_context_flags_with_phis(self, capsys, ctx):
        # --phis reads neither flag, so either is refused, not dropped
        code, out, err = run(capsys, "stabdim", "--blocks", "1,1", "--phis", "[[[0,1],[0,0]]]", *ctx)
        assert (code, out) == (1, "")
        assert err == "ValueError: --rank and --degree apply only to --point\n"

    @pytest.mark.parametrize("ctx", [["--genus", "-5", "--npoints", "-3"], ["--genus", "0"], ["--npoints", "1"]])
    def test_stabdim_refuses_genus_and_npoints_with_phis(self, capsys, ctx):
        # --phis reads neither flag, so either is refused, at its default value too
        code, out, err = run(capsys, "stabdim", "--blocks", "1,1", "--phis", "[[[0,0],[1,0]]]", *ctx)
        assert (code, out) == (1, "")
        assert err == "ValueError: --genus and --npoints apply only to --point\n"

    def test_stabdim_point_reads_genus_and_npoints(self, capsys, point_file):
        # --point reads both, at 0 and 1 when they are not given
        argv = ("stabdim", "--point-file", point_file, "--blocks", "3,2", "--rank", "2", "--json")
        want = run(capsys, *argv, "--degree", "7", "--genus", "2")
        assert want[0] == 0
        assert run(capsys, *argv, "--degree", "3") == want
        assert run(capsys, *argv, "--degree", "3", "--genus", "0", "--npoints", "1") == want
        code, out, err = run(capsys, *argv, "--degree", "3", "--npoints", "2")
        assert (code, out) == (1, "") and err.startswith("ValueError: point shape (2x5, 1 factors)")

    @pytest.mark.parametrize("ctx", [[], ["--rank", "2"], ["--degree", "7"]])
    def test_stabdim_point_needs_rank_and_degree(self, capsys, point_file, ctx):
        code, out, err = run(capsys, "stabdim", "--point-file", point_file, "--blocks", "3,2", "--genus", "2", *ctx)
        assert (code, out) == (1, "")
        assert err == "ValueError: stabdim --point needs --rank and --degree\n"

    def test_report(self, capsys, tmp_path, point_file):
        corpus = {"points": [{"id": "a", "point": json.loads(Path(point_file).read_text())}]}
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

    def test_report_degl_sets_the_default_slope_bound(self, capsys, tmp_path, point_file):
        # without --max-slope the bound is mu + (r-1)^2/r deg L: 7/2 admits only
        # the semistable type, 4 also admits the point's type ((1,4),(1,3))
        corpus = {"points": [{"id": "a", "point": json.loads(Path(point_file).read_text())}]}
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(json.dumps(corpus))
        rows = {
            degl: run_json(
                capsys, *REPORT_CTX, "--degl", degl, "--corpus-file", str(corpus_path),
                "--out-prefix", str(tmp_path / degl),
            )["closure"]["rows"]
            for degl in ("0", "1")
        }
        assert [r["tau"]["rank_degree_pairs"] for r in rows["0"]] == [[[2, 7]]]
        assert [r["tau"]["rank_degree_pairs"] for r in rows["1"]] == [[[1, 4], [1, 3]]]

    def test_report_svg_draws_the_distinct_types_in_row_order(self, capsys, tmp_path):
        entries = [
            ("g43", flagged_point_json(3, [[2, 0], [0, 3]])),
            ("f43", flagged_point_json(3, [[2, 0], [5, 3]])),
            ("f52", flagged_point_json(4, [[2, 0], [5, 3]])),
            ("ss", SEMISTABLE),
        ]
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(json.dumps({"points": [{"id": i, "point": p} for i, p in entries]}))
        data = run_json(
            capsys, *REPORT_CTX, "--corpus-file", str(corpus_path), "--max-slope", "5",
            "--out-prefix", str(tmp_path / "rep"), "--svg",
        )
        taus = [HNType.from_json(row["tau"]) for row in data["closure"]["rows"]]
        distinct = list(dict.fromkeys(taus))
        assert len(taus) > len(distinct) >= 3  # several records of one type
        assert (tmp_path / "rep.svg").read_text(encoding="utf-8") == polygon_svg(distinct)

    def test_report_svg_of_an_empty_corpus_writes_nothing(self, capsys, tmp_path):
        # there is no type to draw, which is refused before the first file is written
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text('{"points": []}')
        argv = (*REPORT_CTX, "--corpus-file", str(corpus_path), "--out-prefix", str(tmp_path / "rep"))
        assert run(capsys, *argv, "--svg") == (1, "", "ValueError: at least one type is required\n")
        assert [path.name for path in tmp_path.iterdir()] == ["corpus.json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("0 records over 0 points\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus.json", "rep.csv", "rep.json"]

    def test_report_ignores_a_flag_key(self, capsys, tmp_path):
        # each point's stabiliser is taken in the flag of the stratum it
        # matches, so a "flag" key that is correct, wrong (blocks (4, 1) on a
        # (3, 2) point), malformed or absent gives the same stdout and files
        points = {
            "f43": flagged_point_json(3, [[2, 0], [5, 3]]),
            "f52": flagged_point_json(4, [[2, 0], [5, 3]]),
            "ss": SEMISTABLE,
        }
        variants = [
            {"f43": [3, 2], "f52": [4, 1], "ss": [5]},
            {"f43": [4, 1], "f52": [5], "ss": [3, 2]},
            dict.fromkeys(points, 5),
            dict.fromkeys(points, [2.9, 3.2]),
            {},
        ]
        corpus_path, prefix = tmp_path / "corpus.json", str(tmp_path / "rep")
        outputs = set()
        for flags in variants:
            corpus_path.write_text(json.dumps({"points": [
                {"id": i, "point": p, **({"flag": flags[i]} if flags else {})} for i, p in points.items()
            ]}))
            stdout = []
            for mode in ([], ["--json"]):
                code, out, err = run(
                    capsys, *REPORT_CTX, "--corpus-file", str(corpus_path), "--max-slope", "5",
                    "--out-prefix", prefix, "--svg", *mode,
                )
                assert (code, err) == (0, ""), flags
                stdout.append(out)
            files = [Path(prefix + ext).read_bytes() for ext in (".json", ".csv", ".svg")]
            outputs.add((*stdout, *files))
        assert len(outputs) == 1

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
    # rational entries with different denominators per factor in y, c and phi
    "r2-n2-rational": (
        ["--rank", "2", "--degree", "7", "--genus", "2", "--npoints", "2"],
        _golden_point(
            ([["1/2", "1/3", 1, 0, 0], [0, 0, 0, "1/2", "2/3"]], "3/2", [["1/3", 0], ["1/2", 1]]),
            ([["1/4", 2, "3/7", "1/7", 0], [0, 0, 0, "1/4", "3/4"]], "-2/7", [[0, 0], ["3/4", "1/7"]]),
        ),
        "3,2",
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
    # recorded from the evaluator that built its tables over Fraction
    ("point-coords", "r2-n2-rational"): "7d96a18ef549a303c8c83563161468babe6a69b9ceadc322960da2ac0d8a5fe8",
    ("stabdim", "r2-n2-rational"): "3b3fb7e37a4217e3aca6481573f39fd724ca548c7f585471d2f6db603552875c",
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
# with and without an equality witness, InY_not_Z, InZ, c = 0 and N = 2;
# then Outside, InY_not_Z and N = 2 with rational entries.
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
    "rational-outside": (
        _TAU43,
        _golden_point(([[0, "1/2", 3, "4/7", 0], [0, "4/3", "1/3", 2, "1/4"]], "3/4", [["1/2", "2/3"], [0, 4]])),
    ),
    "rational-iny": (
        _TAU43,
        _golden_point(([["1/2", "1/3", 1, 0, 0], [0, 0, 0, "1/4", "2/7"]], "3/4", [["2/3", 0], ["5/7", "3/2"]])),
    ),
    "rational-n2": (_TAU43 + ["--npoints", "2"], _GOLDEN_CASES["r2-n2-rational"][1]),
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
    # recorded from the evaluator that built its tables and weights over Fraction
    ("rational-outside", False): (0, "283f5cbfe0a0a0f0ab05fa80336cd54403219c4d360e025c533da5e86bcc376f"),
    ("rational-outside", True): (1, "5ecb5670178013946798700a1b6666312147343e06dfe39ac39b5a6c56a6c685"),
    ("rational-iny", False): (0, "107a1886356150741dc6c9ad697d99187a374c965fd6235ea79a040bd2cabfbe"),
    ("rational-iny", True): (0, "ef6ea4a164b7848b9fcbd197ae9dc0229df6724a74dd5d588abb024db08b0ff4"),
    ("rational-n2", False): (0, "128840944553c45caf62dfc5579a82e6b43ac413aee5e49934607ebc4240a0aa"),
    ("rational-n2", True): (0, "46ba7687c8a2de2484e99f6f2ee53b40c00dbb71b3891326f2b3071927e25042"),
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
    def test_library_and_cli_share_the_default_cap(self, capsys):
        # 18 affinely independent points in Q^17: the walk's subsets, all but
        # the empty one and the full one, 2^18 - 2, are counted
        points = [[0] * 17] + [[int(i == j) for j in range(17)] for i in range(17)]
        with pytest.raises(CapExceeded) as exc:
            index_set_B(points)
        assert (exc.value.count, exc.value.cap) == (262_142, DEFAULT_INDEX_CAP)
        code, out, err = run(capsys, "index-set", "--points", json.dumps(points))
        assert code == 1 and not out
        assert err == f"CapExceeded: enumeration of size 262142 exceeds cap {DEFAULT_INDEX_CAP}\n"


class TestIndexSetLattices:
    @pytest.mark.parametrize(
        "lattice,chamber",
        list(INDEX_SET_LATTICE_GOLDEN),
        ids=[f"{''.join(map(str, lat))}-{'chamber' if c else 'raw'}" for lat, c in INDEX_SET_LATTICE_GOLDEN],
    )
    def test_json_matches_the_library_golden(self, capsys, lattice, chamber):
        points = json.dumps([[str(x) for x in w] for w in genus0_lattice_weights(*lattice)])
        extra = [] if chamber else ["--no-chamber"]
        vectors = run_json(capsys, "index-set", "--points", points, *extra)["vectors"]
        fracs = [[F(x["num"], x["den"]) for x in v] for v in vectors]
        assert vectors == [[{"num": x.numerator, "den": x.denominator} for x in v] for v in fracs]
        text = json.dumps([[str(x) for x in v] for v in fracs], separators=(",", ":"))
        assert (len(vectors), hashlib.sha256(text.encode()).hexdigest()) == INDEX_SET_LATTICE_GOLDEN[lattice, chamber]


class TestTextMode:
    def test_text_mode_builds_no_json_payload(self, capsys, monkeypatch):
        # 43 vectors of the (2,2,1) lattice: text mode converts none of them to JSON
        calls, convert = [], cli.rational_to_json
        monkeypatch.setattr(cli, "rational_to_json", lambda x: calls.append(x) or convert(x))
        points = json.dumps([[str(x) for x in w] for w in genus0_lattice_weights(2, 2, 1)])
        code, text, err = run(capsys, "index-set", "--points", points, "--no-chamber")
        assert code == 0 and not err and calls == []
        vectors = run_json(capsys, "index-set", "--points", points, "--no-chamber")["vectors"]
        assert len(vectors) == 43 and len(calls) == sum(map(len, vectors))
        lines = ["(" + ", ".join(str(F(x["num"], x["den"])) for x in v) + ")" for v in vectors]
        assert text == "".join(line + "\n" for line in lines)


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

    def test_order_types_of_another_rank(self, capsys):
        code, out, err = run(capsys, "order", "--a", "1,0", "--b", "2,-1", "--rank", "3")
        assert (code, out) == (1, "")
        assert err == "ValueError: types do not match the ambient rank\n"

    def test_usage_errors_exit_two(self, capsys):
        assert run(capsys, "bogus-verb")[0] == 2
        assert run(capsys, "beta")[0] == 2  # missing required --tau

    @pytest.mark.parametrize(
        "argv",
        [
            ["minnorm", "--points", "[[1,0],[0,1]]", "--method", "faces"],
            ["enumerate", "--rank", "2", "--degree", "1", "--max-slope", "2", "--flavor", "higgs"],
            # context flags no answer of the verb reads
            ["enumerate", "--rank", "2", "--degree", "1", "--max-slope", "2", "--genus", "0"],
            ["enumerate", "--rank", "2", "--degree", "1", "--max-slope", "2", "--degl", "0"],
            ["enumerate", "--rank", "2", "--degree", "1", "--max-slope", "2", "--npoints", "1"],
            ["beta", "--tau", "5,3", "--genus", "2", "--degl", "0"],
            ["point-check", "--point", "{}", "--tau", "4,3", "--ranks", "1,1", "--degl", "0"],
            ["point-coords", "--point", "{}", "--rank", "2", "--degree", "7", "--degl", "0"],
            ["stabdim", "--point", "{}", "--blocks", "3,2", "--rank", "2", "--degree", "7", "--degl", "0"],
        ],
        ids=[
            "minnorm-method", "enumerate-flavor", "enumerate-genus", "enumerate-degl",
            "enumerate-npoints", "beta-degl", "point-check-degl", "point-coords-degl", "stabdim-degl",
        ],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert "usage:" in err and "unrecognized arguments" in err
        assert "Traceback" not in err

    def test_success_exit_zero(self, capsys):
        assert run(capsys, "classify", "--tau-type", "3", "--mu-type", "3")[0] == 0

    def test_cap_env_var_changes_nothing(self, capsys, monkeypatch, point_file):
        # each request counts more than 10 in its verb's cap unit; --cap is
        # the only way to set a cap
        ctx = ["--rank", "2", "--degree", "7", "--genus", "2"]
        requests = [
            ["index-set", "--points", "[[0,0],[1,0],[0,1],[2,1],[1,3]]"],
            ["point-coords", "--point-file", point_file, *ctx],
            ["stabdim", "--point-file", point_file, "--blocks", "3,2", *ctx],
        ]
        monkeypatch.delenv("HIGGSSTRATA_CAP", raising=False)
        plain = [run(capsys, *argv, "--json") for argv in requests]
        assert all(code == 0 for code, _, _ in plain), plain
        monkeypatch.setenv("HIGGSSTRATA_CAP", "10")
        assert [run(capsys, *argv, "--json") for argv in requests] == plain
        assert run(capsys, *requests[2], "--cap", "10")[0] == 1


class TestOptionSurface:
    """Each verb's option strings, as its parser exposes them (--help aside).

    Every option here changes an answer or a refusal; adding or dropping one
    is an edit of this table."""

    OPTIONS = {
        "enumerate": ["--rank", "--degree", "--max-slope", "--json"],
        "order": ["--a", "--b", "--ranks-a", "--ranks-b", "--rank", "--json"],
        "beta": ["--tau", "--ranks", "--genus", "--npoints", "--json"],
        "compat": ["--rank-max", "--d-min", "--d-max", "--degl-min", "--degl-max", "--json"],
        "minnorm": ["--points", "--points-file", "--json"],
        "index-set": ["--points", "--points-file", "--no-chamber", "--cap", "--json"],
        "point-coords": [
            "--rank", "--degree", "--genus", "--npoints", "--point", "--point-file", "--cap", "--json",
        ],
        "point-check": [
            "--point", "--point-file", "--tau", "--ranks", "--genus", "--npoints", "--step2",
            "--lambda-bound", "--json",
        ],
        "stabdim": [
            "--genus", "--npoints", "--rank", "--degree", "--blocks", "--point", "--point-file",
            "--phis", "--phis-file", "--cap", "--json",
        ],
        "classify": ["--tau-type", "--mu-type", "--json"],
        "polygons": ["--types", "--types-file", "--out", "--json"],
        "report": [
            "--rank", "--degree", "--genus", "--degl", "--npoints", "--corpus-file", "--max-slope",
            "--out-prefix", "--svg", "--json",
        ],
    }

    def test_each_verb_exposes_its_options(self):
        _, verbs = cli.build_parser()
        exposed = {
            verb: [o for action in sub._actions for o in action.option_strings if o not in ("-h", "--help")]
            for verb, sub in verbs.items()
        }
        assert exposed == self.OPTIONS
        assert sum(map(len, exposed.values())) == 74


class TestRepeatedCalls:
    """Back-to-back ``main`` calls in one process share its parser but no state."""

    POINTS = "[[-1],[1]]"

    def test_no_chamber_then_chamber(self, capsys):
        raw = run_json(capsys, "index-set", "--points", self.POINTS, "--no-chamber")
        chamber = run_json(capsys, "index-set", "--points", self.POINTS)
        one = {"num": 1, "den": 1}
        assert raw["vectors"] == [[{"num": -1, "den": 1}], [{"num": 0, "den": 1}], [one]]
        assert chamber["vectors"] == [[{"num": 0, "den": 1}], [one]]

    def test_cap_then_default_cap(self, capsys):
        code, out, err = run(capsys, "index-set", "--points", self.POINTS, "--cap", "1", "--json")
        assert (code, out) == (1, "") and err.startswith("CapExceeded")
        assert len(run_json(capsys, "index-set", "--points", self.POINTS)["vectors"]) == 2

    def test_usage_error_then_valid_call(self, capsys):
        code, out, err = run(capsys, "index-set", "--points", self.POINTS, "--bogus")
        assert (code, out) == (2, "") and "usage:" in err
        code, out, err = run(capsys, "index-set", "--points", self.POINTS, "--json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["vectors"]) == 2


class TestDispatch:
    """One parse per request: a verb's own parser reads everything after it,
    and the top-level parser speaks only when the first argument is no verb."""

    VERBS = (
        "enumerate", "order", "beta", "compat", "minnorm", "index-set", "point-coords",
        "point-check", "stabdim", "classify", "polygons", "report",
    )
    TOP_USAGE = "usage: higgsstrata [-h]\n"

    def test_verb_map_lists_every_verb(self):
        parser, verbs = cli.build_parser()
        assert tuple(verbs) == self.VERBS
        assert all(sub.prog == f"higgsstrata {verb}" for verb, sub in verbs.items())

    def test_no_arguments(self, capsys):
        code, out, err = run(capsys)
        assert (code, out) == (2, "")
        assert err.startswith(self.TOP_USAGE)
        assert err.endswith("higgsstrata: error: the following arguments are required: verb\n")

    def test_top_level_help(self, capsys):
        code, out, err = run(capsys, "-h")
        assert (code, err) == (0, "")
        assert out.startswith(self.TOP_USAGE) and "Exact instability-stratification combinatorics" in out
        assert all(verb in out for verb in self.VERBS)

    def test_unknown_verb(self, capsys):
        code, out, err = run(capsys, "bogus-verb")
        assert (code, out) == (2, "")
        assert err.startswith(self.TOP_USAGE)
        assert "higgsstrata: error: argument verb: invalid choice: 'bogus-verb' (choose from 'enumerate'," in err

    @pytest.mark.parametrize("verb", VERBS)
    def test_verb_help(self, capsys, verb):
        code, out, err = run(capsys, verb, "-h")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: higgsstrata {verb} [-h]")
        assert "--json" in out

    @pytest.mark.parametrize("verb", VERBS)
    def test_unknown_flag_names_the_verb(self, capsys, verb):
        code, out, err = run(capsys, verb, "--bogus")
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: higgsstrata {verb} [-h]")
        assert f"higgsstrata {verb}: error: " in err

    def test_unknown_flag_after_complete_request(self, capsys):
        code, out, err = run(capsys, "beta", "--tau", "3,1", "--bogus")
        assert (code, out) == (2, "")
        assert err.endswith("higgsstrata beta: error: unrecognized arguments: --bogus\n")

    def test_default_argv_is_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["higgsstrata", "beta", "--tau", "3,1", "--json"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["schema"] == "higgsstrata.beta/1"

    def test_argv_untouched_and_verb_set(self, capsys, monkeypatch):
        argv = ["classify", "--tau-type", "3", "--mu-type", "3", "--json"]
        sub, seen = cli.build_parser()[1]["classify"], []

        def parse_args(*a, **k):
            seen.append(real(*a, **k))
            return seen[-1]

        real = sub.parse_args
        monkeypatch.setattr(sub, "parse_args", parse_args)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["kind"]
        assert argv == ["classify", "--tau-type", "3", "--mu-type", "3", "--json"]
        (args,) = seen
        assert (args.verb, args.tau_type, args.mu_type, args.json) == ("classify", "3", "3", True)


# Good values for an option of either type, and values that either type
# refuses or that start with "-" (argparse takes "-3" as a negative number
# and refuses the rest).
_GOOD = {int: ["0", "2", "7"], None: ["5,3", "", "[[1]]"]}
_VALUES = ["x", "5,3", "-3", "-x", "--json", "-h"]
_HOSTILE = ["-h", "--help", "--", "-3", "-x", "", "x", "--bogus", "--json=1"]
_EDITS = ["drop", "abbrev", "equals", "value", "repeat", "insert"]


@st.composite
def _near_request(draw):
    """A verb, an argv and whether it is a well-formed request.

    The request gives every required option and some others, each as its
    exact string with a value of its type, in any order.  Up to two edits
    follow: drop an option, abbreviate one, write one as ``--opt=value``,
    give one a hostile value, repeat one, or insert a hostile token.
    """
    verb = draw(st.sampled_from(TestDispatch.VERBS))
    groups = []
    for action in cli.build_parser()[1][verb]._actions:
        if action.dest == "help" or not (action.required or draw(st.booleans())):
            continue
        value = [] if action.nargs == 0 else [draw(st.sampled_from(_GOOD[action.type]))]
        groups.append([action.option_strings[0], *value])
    groups = draw(st.permutations(groups))
    edits = [draw(st.sampled_from(_EDITS)) for _ in range(draw(st.integers(0, 2)))]
    for edit in edits:
        if edit == "insert" or not groups:
            continue
        i = draw(st.integers(0, len(groups) - 1))
        option, *value = groups[i]
        if edit == "drop":
            del groups[i]
        elif edit == "abbrev":
            groups[i] = [option[:-1], *value]
        elif edit == "equals":
            groups[i] = ["=".join(groups[i])]
        elif edit == "value":
            groups[i] = [option, draw(st.sampled_from(_VALUES))]
        else:
            groups.append(groups[i])
    argv = [token for group in groups for token in group]
    for _ in range(edits.count("insert")):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_HOSTILE)))
    return verb, argv, not edits


class TestExactReader:
    """A well-formed request skips argparse's matching; nothing else does."""

    @given(_near_request())
    @example(("beta", ["--genus", "2"], False))  # a required option missing
    @example(("beta", ["--tau", "--json"], False))  # a value that starts with "-"
    @settings(max_examples=400, deadline=None)
    def test_reader_agrees_with_argparse(self, case):
        verb, argv, well_formed = case
        sub = cli.build_parser()[1][verb]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                expected = argparse.ArgumentParser.parse_args(sub, argv, argparse.Namespace(verb=verb))
            except SystemExit:
                expected = None
        read = sub._read_exact(list(argv), argparse.Namespace(verb=verb))
        assert read is not None or not well_formed, argv
        if read is not None:
            assert expected is not None, argv  # argparse refuses this argv
            assert read == expected, argv

    @staticmethod
    def _requests(point):
        """README's examples, and one request of each benchmark shape."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```\n(higgsstrata enumerate .*?)```", readme, re.S)[1]
        yield from (shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines())
        ctx = ["--rank", "2", "--degree", "7", "--genus", "2", "--npoints", "1"]
        yield ["report", *ctx, "--corpus-file", "corpus.json", "--max-slope", "5",
               "--out-prefix", "bench-out", "--svg", "--json"]
        yield ["stabdim", *ctx, "--blocks", "3,2", "--point", point, "--json"]
        for step2 in ([], ["--step2"]):
            yield ["point-check", "--point", point, "--tau", "4,3", "--ranks", "1,1",
                   "--genus", "2", "--npoints", "1", *step2, "--json"]
        yield ["index-set", "--points", "[[0,0],[1,0],[0,1],[2,1],[1,3]]", "--json"]

    def test_well_formed_requests_skip_argparse(self, capsys, tmp_path, monkeypatch, point_file):
        monkeypatch.chdir(tmp_path)  # where point_file wrote point.json
        point = Path(point_file).read_text(encoding="utf-8")
        Path("corpus.json").write_text('{"points": [{"id": "a", "point": %s}]}' % point, encoding="utf-8")
        calls = []
        real = argparse.ArgumentParser._parse_known_args

        def counted(self, *a, **k):
            calls.append(self.prog)
            return real(self, *a, **k)

        monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", counted)
        requests = list(self._requests(point))
        assert {argv[0] for argv in requests} == set(TestDispatch.VERBS)
        for argv in requests:
            code, _, err = run(capsys, *argv)
            assert (code, err, calls) == (0, "", []), argv
        # the counter sees argparse's own route
        assert run(capsys, "beta", "--tau=5,3")[0] == 0 and calls == ["higgsstrata beta"]


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

    def test_rank_deficient_y(self, capsys):
        # factor 2's rows are proportional, with different denominators
        point = {"factors": [
            {"y": [[1, 0, 0], [0, 1, 0]], "c": 1, "phi": [[0, 0], [1, 0]]},
            {"y": [["1/2", "1/3", 1], ["3/4", "1/2", "3/2"]], "c": 1, "phi": [[0, 0], [1, 0]]},
        ]}
        code, out, err = run(
            capsys, "point-coords", "--point", json.dumps(point),
            "--rank", "2", "--degree", "1", "--npoints", "2",
        )
        assert code == 1 and not out
        assert err == "ValueError: factor 2: y does not have full row rank\n"

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

    VECTOR = "a vector (a list of rationals)"
    ROW = "a matrix row (a list of rationals)"
    MATRIX = "a matrix (a list of rows)"
    TEXT_ROW_POINT = json.dumps({"factors": [{"y": ["110", "001"], "c": 1, "phi": [[0, 0], [0, 0]]}]})

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["minnorm", "--points", '["12","34"]'], VECTOR),
            (["minnorm", "--points", '"12"'], "a list of points"),
            (["minnorm", "--points", '{"1": [2], "3": [4]}'], "a list of points"),
            (["minnorm", "--points", '[{"num": 1, "den": 2}]'], VECTOR),
            (["index-set", "--points", '["12","34"]'], VECTOR),
            (["index-set", "--points", '"1234"'], "a list of points"),
            (["point-check", "--tau", "2,1", "--ranks", "1,1", "--point", TEXT_ROW_POINT], ROW),
            (["point-check", "--tau", "2,1", "--ranks", "1,1", "--point",
              json.dumps({"factors": [{"y": "110001", "c": 1, "phi": [[0, 0], [0, 0]]}]})], MATRIX),
            (["stabdim", "--blocks", "1,1", "--phis", '["0010"]'], MATRIX),
            (["stabdim", "--blocks", "1,1", "--phis", '[["00","10"]]'], ROW),
            (["stabdim", "--blocks", "1,1", "--phis", '"0010"'], "a list of matrices"),
            (["stabdim", "--blocks", "1,1", "--phis", '{"phi": [[0, 0], [1, 0]]}'], "a list of matrices"),
        ],
        ids=[
            "minnorm-string-points", "minnorm-string-cloud", "minnorm-dict-cloud", "minnorm-dict-point",
            "index-set-string-points", "index-set-string-cloud", "point-check-string-row",
            "point-check-string-y", "stabdim-string-matrix", "stabdim-string-rows",
            "stabdim-string-list", "stabdim-dict-list",
        ],
    )
    def test_text_or_mapping_for_a_sequence(self, capsys, argv, expected):
        # a string iterates as its characters and a dict as its keys: neither
        # is read as a vector, a row or a list
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert re.fullmatch(rf"TypeError: expected {re.escape(expected)}, got (str|dict) .*\n", err), err

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["index-set", "--points", "[1,2]"], f"{VECTOR}, got int 1"),
            (["minnorm", "--points", "[[1],2]"], f"{VECTOR}, got int 2"),
            (["point-check", "--tau", "2,1", "--ranks", "1,1", "--point",
              json.dumps({"factors": [{"y": [1, 2], "c": 1, "phi": [[0, 0], [0, 0]]}]})], f"{ROW}, got int 1"),
            (["stabdim", "--blocks", "1,1", "--rank", "2", "--degree", "1", "--point",
              json.dumps({"factors": [{"y": [[1, 0], [0, 1]], "c": 1, "phi": 5}]})], f"{MATRIX}, got int 5"),
        ],
        ids=["index-set", "minnorm", "point-check", "stabdim"],
    )
    def test_scalar_for_a_sequence(self, capsys, argv, expected):
        # a number where a list belongs is named, not left to Python's own
        # "object is not iterable"
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err == f"TypeError: expected {expected}\n"

    TYPE = "a type (a list of [rank, degree] blocks)"

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["polygons", "--types", "5", "--out", os.devnull], "a list of types, got int 5"),
            (["polygons", "--types", '{"a": 1}', "--out", os.devnull], "a list of types, got dict {'a': 1}"),
            (["polygons", "--types", "[[[1, 2]], 5]", "--out", os.devnull], f"{TYPE}, got int 5"),
            (["point-coords", "--point", '{"factors": 5}', "--rank", "1", "--degree", "1"],
             "a list of factors, got int 5"),
        ],
        ids=["polygons-scalar-types", "polygons-dict-types", "polygons-scalar-type", "point-scalar-factors"],
    )
    def test_scalar_or_mapping_for_a_list(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err == f"TypeError: expected {expected}\n"

    @pytest.mark.parametrize(
        "points,expected",
        [
            (5, "a list of corpus entries, got int 5"),
        ],
        ids=["scalar-points"],
    )
    def test_scalar_for_a_corpus_list(self, capsys, tmp_path, points, expected):
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(json.dumps({"points": points}))
        code, out, err = run(
            capsys, "report", "--rank", "2", "--degree", "7", "--genus", "2",
            "--corpus-file", str(corpus_path), "--out-prefix", str(tmp_path / "r"),
        )
        assert code == 1 and not out
        assert err == f"TypeError: expected {expected}\n"

    BLOCK = "a [rank, degree] block"

    @pytest.mark.parametrize(
        "types,expected",
        [
            ("[[5]]", f"TypeError: expected {BLOCK}, got int 5"),
            ("[[[1]]]", f"ValueError: expected {BLOCK}, got [1]"),
            ("[[[1, 2, 3]]]", f"ValueError: expected {BLOCK}, got [1, 2, 3]"),
        ],
        ids=["scalar-block", "short-block", "long-block"],
    )
    def test_block_of_two_entries(self, capsys, types, expected):
        code, out, err = run(capsys, "polygons", "--types", types, "--out", os.devnull)
        assert code == 1 and not out
        assert err == expected + "\n"

    POINT = "a point (an object with factors)"
    FACTOR = "a factor (an object with y, c and phi)"

    @pytest.mark.parametrize(
        "point,expected",
        [
            ("[1]", f"{POINT}, got list [1]"),
            ("5", f"{POINT}, got int 5"),
            ('{"factors": [5]}', f"{FACTOR}, got int 5"),
            ('{"factors": [[[1, 0, 0], [0, 1, 0]], 1, [[0, 0], [1, 0]]]}', f"{FACTOR}, got list [[1, 0, 0], [0, 1, 0]]"),
        ],
        ids=["list-point", "scalar-point", "scalar-factor", "list-factor"],
    )
    def test_json_value_for_an_object(self, capsys, point, expected):
        # a list or a number where an object belongs is named, not left to
        # Python's "list indices must be integers" or "not subscriptable"
        code, out, err = run(capsys, "point-check", "--tau", "2,1", "--ranks", "1,1", "--point", point)
        assert code == 1 and not out
        assert err == f"TypeError: expected {expected}\n"

    @pytest.mark.parametrize(
        "corpus,expected",
        [
            ([], "a corpus (an object with points), got list []"),
            ({"points": [5]}, "a corpus entry (an object with id and point), got int 5"),
        ],
        ids=["list-corpus", "scalar-entry"],
    )
    def test_json_value_for_a_corpus_object(self, capsys, tmp_path, corpus, expected):
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(json.dumps(corpus))
        code, out, err = run(
            capsys, "report", "--rank", "2", "--degree", "7", "--genus", "2",
            "--corpus-file", str(corpus_path), "--out-prefix", str(tmp_path / "r"),
        )
        assert code == 1 and not out
        assert err == f"TypeError: expected {expected}\n"

    def test_unbounded_slope_hits_type_cap(self, capsys):
        start = time.monotonic()
        code, out, err = run(capsys, "enumerate", "--rank", "2", "--degree", "1", "--max-slope", "1e400")
        assert code == 1 and not out
        assert re.fullmatch(r"CapExceeded: .*\n", err), err
        assert time.monotonic() - start < 10

    def test_huge_lambda_bound_is_counted(self, capsys):
        # an in-locus point of type (5,2), blocks (4, 1): the 2 lambda + 1 classes
        # are counted in closed form, with no cap on the bound
        point = ModelPoint((Factor([[1, 2, 3, 4, 1], [0, 0, 0, 0, 1]], 1, [[2, 0], [5, 3]]),))
        start = time.monotonic()
        data = run_json(
            capsys, "point-check", "--point", json.dumps(point.to_json()), "--tau", "5,2",
            "--ranks", "1,1", "--genus", "2", "--step2", "--lambda-bound", "1000000000",
        )
        assert data["step2"]["trace_classes_checked"] == 2_000_000_001
        assert data["step2"]["trace_identity_ok"] is True and data["membership"] == "InY_not_Z"
        assert time.monotonic() - start < 10

    def test_negative_lambda_bound(self, capsys, point_file):
        code, out, err = run(
            capsys, "point-check", "--point-file", point_file, "--tau", "5,2", "--ranks", "1,1",
            "--genus", "2", "--step2", "--lambda-bound", "-1",
        )
        assert code == 1 and not out
        assert re.fullmatch(r"ValueError: .*\n", err), err

    def test_negative_lambda_bound_before_not_in_y(self, capsys):
        # y = [I | 0], phi = 0 lies outside the locus of (4,3): the bound is
        # refused first, before step 2 finds the point outside
        point = ModelPoint((Factor([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], 1, [[0, 0], [0, 0]]),))
        common = ["point-check", "--point", json.dumps(point.to_json()), "--tau", "4,3", "--ranks", "1,1",
                  "--genus", "2", "--step2"]
        assert run(capsys, *common)[2].startswith("NotInY")
        code, out, err = run(capsys, *common, "--lambda-bound", "-1")
        assert (code, out, err) == (1, "", "ValueError: the trace bound must be >= 0, got -1\n")

    def test_lambda_bound_needs_step2(self, capsys, point_file):
        common = ["point-check", "--point-file", point_file, "--tau", "4,3", "--ranks", "1,1", "--genus", "2"]
        code, out, err = run(capsys, *common, "--lambda-bound", "2")
        assert (code, out, err) == (1, "", "ValueError: --lambda-bound applies only to --step2\n")
        default = run_json(capsys, *common, "--step2")
        assert run_json(capsys, *common, "--step2", "--lambda-bound", "2") == default
        assert default["step2"] != run_json(capsys, *common, "--step2", "--lambda-bound", "3")["step2"]

    LENGTHS = "ranks and degrees must have the same length"
    SLOPE = "Invalid literal for Fraction: ''"

    # an empty entry is refused by name; an explicitly empty value is read,
    # never dropped for the default: '' is no ranks and no slope bound
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["beta", "--tau", "5,,3"], "empty entry in the list '5,,3'"),
            (["beta", "--tau", "5,3,"], "empty entry in the list '5,3,'"),
            (["beta", "--tau", "5,3", "--ranks", ",1,1"], "empty entry in the list ',1,1'"),
            (["order", "--a", "1,0", "--b", "2,,-1", "--rank", "2"], "empty entry in the list '2,,-1'"),
            (["classify", "--tau-type", "2,1,", "--mu-type", "1,1,1"], "empty entry in the list '2,1,'"),
            (["stabdim", "--blocks", "1,,1", "--phis", "[[[0,0],[1,0]]]"], "empty entry in the list '1,,1'"),
            (["beta", "--tau", "5,3", "--ranks", ""], LENGTHS),
            (["order", "--a", "1,0", "--b", "2,-1", "--rank", "2", "--ranks-a", ""], LENGTHS),
            (["order", "--a", "1,0", "--b", "2,-1", "--rank", "2", "--ranks-b", ""], LENGTHS),
            (["enumerate", "--rank", "2", "--degree", "1", "--max-slope", ""], SLOPE),
            ([*REPORT_CTX, "--corpus-file", "CORPUS", "--max-slope", "", "--out-prefix", "OUT"], SLOPE),
        ],
        ids=[
            "double-comma", "trailing-comma", "leading-comma", "order", "classify", "stabdim",
            "empty-ranks", "empty-ranks-a", "empty-ranks-b", "enumerate-empty-slope", "report-empty-slope",
        ],
    )
    def test_empty_list_entry(self, capsys, tmp_path, argv, message):
        corpus = tmp_path / "corpus.json"
        corpus.write_text('{"points": []}')
        paths = {"CORPUS": str(corpus), "OUT": str(tmp_path / "r")}
        code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
        assert (code, out, err) == (1, "", f"ValueError: {message}\n")
        assert list(tmp_path.iterdir()) == [corpus]

    def test_empty_list_keeps_its_message(self, capsys):
        code, out, err = run(capsys, "beta", "--tau", "")
        assert (code, out, err) == (1, "", "ValueError: a type needs at least one block\n")

    def test_huge_report_slope_is_pruned(self, capsys, tmp_path, point_file):
        # every block slope must exceed genus - 1, which bounds the first slope
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(json.dumps(
            {"points": [{"id": "a", "point": json.loads(Path(point_file).read_text())}]}
        ))
        common = [*REPORT_CTX, "--corpus-file", str(corpus_path)]
        start = time.monotonic()
        huge = run_json(capsys, *common, "--max-slope", "1e9", "--out-prefix", str(tmp_path / "a"))
        assert time.monotonic() - start < 10
        small = run_json(capsys, *common, "--max-slope", "5", "--out-prefix", str(tmp_path / "b"))
        assert huge["records"] == small["records"]

    def test_deeply_nested_json(self, capsys, tmp_path):
        nested = "[" * 100000
        path = tmp_path / "nested.json"
        path.write_text(nested)
        for argv in (
            ["minnorm", "--points", nested],
            ["point-coords", "--point-file", str(path), "--rank", "2", "--degree", "1"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and not out
            assert re.fullmatch(r"RecursionError: .*\n", err), err

    @pytest.mark.parametrize("exponent", ["999999999", "-999999999"])
    def test_huge_exponent_is_refused_quickly(self, capsys, exponent):
        point = json.dumps({"factors": [{"y": [[1, 0, 0], [0, 1, f"1e{exponent}"]], "c": 1, "phi": [[0, 0], [0, 0]]}]})
        for argv in (
            ["enumerate", "--rank", "2", "--degree", "1", "--max-slope", f"1e{exponent}"],
            ["point-coords", "--point", point, "--rank", "2", "--degree", "1"],
        ):
            start = time.monotonic()
            code, out, err = run(capsys, *argv)
            assert time.monotonic() - start < 10
            assert code == 1 and not out
            assert re.fullmatch(r"ValueError: .*exponent.*\n", err), err


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
    free_ctx = st.tuples(st.just("--rank"), _small_int, st.just("--degree"), _small_int).map(list)
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
