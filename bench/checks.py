"""Answer checks for the benchmark, run outside the timed region.

Every answer is reduced to a canonical JSON text (the ``written`` paths of
``report`` normalised to the work-directory placeholder) and its digest.
Seeds with recorded expectations compare exit codes and digests with the
file under ``expected/``.  Every seed gets the invariant checks below, and
the recording step cross-checks answers once against independent routes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

from workloads import WORK, Request, Workload

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

SCHEMAS = {
    "report": "higgsstrata.report/1",
    "stabdim": "higgsstrata.stabdim/1",
    "point-check": "higgsstrata.point_check/1",
    "index-set": "higgsstrata.index_set/1",
}


def canonical(kind: str, stdout: str, work_dir: str):
    """(parsed payload, canonical text); raises ValueError on malformed output."""
    text = stdout.strip()
    if not text or "\n" in text:
        raise ValueError("expected exactly one JSON document on stdout")
    payload = json.loads(text)
    if payload.get("schema") != SCHEMAS[kind]:
        raise ValueError(f"schema {payload.get('schema')!r}, expected {SCHEMAS[kind]!r}")
    if kind == "report":
        payload["written"] = [p.replace(work_dir, WORK) for p in payload["written"]]
    return payload, json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    """First 64 bits of the SHA-256, enough to tell answers apart."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def inputs_digest(workload: Workload) -> str:
    doc = {"argv": [list(r.argv) for r in workload.requests], "files": workload.files}
    return digest(json.dumps(doc, sort_keys=True))


def load_expected(name: str, seed: int) -> dict | None:
    path = EXPECTED_DIR / f"{name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


def _rat(x) -> Fraction:
    return Fraction(x["num"], x["den"])


# ------------------------------------------------------------ invariants


def invariant_errors(req: Request, payload: dict, work_dir: str) -> list[str]:
    """Properties every correct answer has, whatever the seed."""
    check = INVARIANTS[req.kind]
    return check(req, payload, work_dir)


def _report(req: Request, payload: dict, work_dir: str) -> list[str]:
    errs = []
    members = req.meta["members"]
    seen = [pid for rec in payload["records"] for pid in rec["member_ids"]]
    if sorted(seen) != sorted(members) or len(seen) != len(set(seen)):
        errs.append("records do not partition the corpus")
    for rec in payload["records"]:
        blocks = tuple(tuple(b) for b in rec["beta"]["tau"]["rank_degree_pairs"])
        zero = _rat(rec["norm_sq"]) == 0
        for pid in rec["member_ids"]:
            want = members.get(pid)
            if want is None:
                if not zero:
                    errs.append(f"{pid}: semistable point outside the zero record")
            else:
                tau_blocks, graded = want
                if blocks != tuple(tuple(b) for b in tau_blocks):
                    errs.append(f"{pid}: assigned to {blocks}, built as {tau_blocks}")
                if graded and not rec["graded"]:
                    errs.append(f"{pid}: graded point outside the graded record")
        if not zero and not rec["graded"] and not isinstance(rec["delta"], int):
            errs.append("refined record without a stabiliser index")
    on_disk = Path(payload["written"][0].replace(WORK, work_dir))
    stored = json.loads(on_disk.read_text(encoding="utf-8"))
    if stored != {k: v for k, v in payload.items() if k != "written"}:
        errs.append("report file differs from the printed payload")
    return errs


def _stabdim(req: Request, payload: dict, work_dir: str) -> list[str]:
    dim = payload.get("dim")
    if payload.get("kind") != "unipotent_stabilizer":
        return ["wrong stabdim kind"]
    if not isinstance(dim, int) or not 0 <= dim <= req.meta["positions"] + 1:
        return [f"dimension {dim!r} outside [0, {req.meta['positions'] + 1}]"]
    return []


def _point_check(req: Request, payload: dict, work_dir: str) -> list[str]:
    errs = []
    got = payload["membership"]
    step1 = payload["step1"]
    if got not in ("InZ", "InY_not_Z", "Outside"):
        return [f"unknown membership {got!r}"]
    if step1["passed"] != (got != "Outside"):
        errs.append("membership and step 1 disagree")
    if step1["passed"] and (step1["violations"] or _rat(step1["min_support_weight"]) != _rat(step1["norm_sq"])):
        errs.append("step 1 passed with a violation or off-norm minimum")
    if req.meta["semistable_type"] and got != "InZ":
        errs.append("zero vector must give InZ")
    if req.meta["own"]:
        if got == "Outside":
            errs.append("point outside the locus of its own type")
        if req.meta["graded"] and got != "InZ":
            errs.append("graded point off the equality locus of its type")
        if not payload.get("step2", {}).get("passed"):
            errs.append("own-type step 2 did not pass")
    elif "step2" in payload:
        errs.append("unexpected step 2 block")
    return errs


def _chamber(v) -> tuple | None:
    rep = tuple(sorted(v, reverse=True))
    return None if rep[0] < 0 else rep


def _segment_min_norm(a, b) -> tuple:
    """Closest point of the segment [a, b] to the origin, in closed form."""
    d = [y - x for x, y in zip(a, b)]
    dd = sum(x * x for x in d)
    t = Fraction(0) if dd == 0 else min(Fraction(1), max(Fraction(0), -sum(x * y for x, y in zip(a, d)) / dd))
    return tuple(x + t * y for x, y in zip(a, d))


def _cloud(req: Request) -> list[tuple]:
    return [tuple(Fraction(x) for x in w) for w in json.loads(req.argv[2])]


def _index_set(req: Request, payload: dict, work_dir: str) -> list[str]:
    vectors = [tuple(_rat(x) for x in v) for v in payload["vectors"]]
    errs = []
    if vectors != sorted(set(vectors)):
        errs.append("vectors not sorted and distinct")
    if any(v != tuple(sorted(v, reverse=True)) or v[0] < 0 for v in vectors):
        errs.append("a vector lies outside the chamber")
    present = set(vectors)
    cloud = _cloud(req)
    small = [(w,) for w in cloud] + list(itertools.combinations(cloud, 2))
    for support in small:
        v = support[0] if len(support) == 1 else _segment_min_norm(*support)
        rep = _chamber(v)
        if rep is not None and rep not in present:
            errs.append(f"closest point of support {support} missing")
            break
    return errs


INVARIANTS = {
    "report": _report,
    "stabdim": _stabdim,
    "point-check": _point_check,
    "index-set": _index_set,
}


# ------------------------------------------- independent routes (recording)


def oracle_errors(req: Request, payload: dict) -> list[str]:
    """Cross-check one answer against the package's independent routes.

    Expensive (the index-set route solves every face of every support), so it
    runs only when expectations are recorded.
    """
    from higgsstrata import (
        CurveContext,
        HNType,
        ModelPoint,
        beta_of_type,
        membership,
        min_norm_point_by_faces,
        verify_step1,
    )

    if req.kind == "index-set":
        cloud = _cloud(req)
        brute = set()
        for size in range(1, len(cloud) + 1):
            for support in itertools.combinations(cloud, size):
                rep = _chamber(min_norm_point_by_faces(support))
                if rep is not None:
                    brute.add(rep)
        got = [tuple(_rat(x) for x in v) for v in payload["vectors"]]
        return [] if got == sorted(brute) else ["differs from the faces-oracle support enumeration"]
    if req.kind == "point-check":
        argv = list(req.argv)
        opt = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
        ds = [int(x) for x in opt["--tau"].split(",")]
        rs = [int(x) for x in opt["--ranks"].split(",")]
        tau = HNType(tuple(zip(rs, ds)))
        ctx = CurveContext(tau.rank, tau.degree, int(opt["--genus"]), 0, int(opt["--npoints"]))
        point = ModelPoint.from_json(json.loads(opt["--point"]))
        beta = beta_of_type(tau, ctx)
        got = membership(point, beta, ctx)
        passed = verify_step1(point, beta, ctx).passed
        errs = []
        if (got.name != "OUTSIDE") != passed:
            errs.append("library membership and verify_step1 disagree")
        if got.value != payload["membership"] or passed != payload["step1"]["passed"]:
            errs.append("CLI answer differs from the library route")
        return errs
    return []  # report: the partition property is an invariant already checked
