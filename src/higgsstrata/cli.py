"""Command-line surface over the library, with stable JSON output.

Every verb accepts ``--json`` and then writes exactly one JSON document to
standard output, tagged with a versioned ``schema`` key.  Rational values are
accepted as integers or "p/q" strings and always emitted in lowest terms.
Exit codes: 0 success, 1 domain error (the error name goes to stderr),
2 usage error.  The environment variable HIGGSSTRATA_CAP overrides the
default enumeration cap: for ``index-set`` it counts the weight subsets of at
most a + 1 distinct weights, a being their affine dimension; for ``stabdim``
the rows of the per-factor stabiliser system, N C(m,r) (1 + r^2) for N
points, rank r and m sections (``report`` holds its stabiliser calls to the
default cap in the same rows); for ``point-coords`` the C(m,r)^N (1 + r^(2N))
coordinate indices.  Type enumeration stops past 200,000 types, and
``point-check --step2`` refuses a ``--lambda-bound`` whose
prod_{g<s}(2 bound m_g + 1) block-trace heads (the traces of all blocks but
the last) exceed 200,000.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction

from . import svg as svg_mod
from .errors import HiggsStrataError
from .hn_types import (
    CurveContext,
    FlagShape,
    HNType,
    classify_rank3,
    compare_polygon,
    enumerate_hn_types,
)
from .linalg import frac, mat
from .minnorm import PointCloud, index_set_B, min_norm_point
from .point_model import (
    ModelPoint,
    coordinates,
    nilpotent_commutant_dim,
    unipotent_stabilizer_dim,
    verify_step1,
    verify_step2,
)
from .strat_report import assemble, closure_order_report, compat_cross_table
from .weight_lattice import (
    DEFAULT_INDEX_CAP,
    beta_of_type,
    rational_to_json,
)


def _cap(args) -> int:
    """The --cap value, else HIGGSSTRATA_CAP, else the default cap."""
    if args.cap is not None:
        return args.cap
    env = os.environ.get("HIGGSSTRATA_CAP")
    if not env:
        return DEFAULT_INDEX_CAP
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"HIGGSSTRATA_CAP must be an integer, got {env!r}") from None


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _parse_type(degrees: str, ranks: str | None) -> HNType:
    ds = _parse_int_list(degrees)
    rs = _parse_int_list(ranks) if ranks else [1] * len(ds)
    if len(rs) != len(ds):
        raise ValueError("ranks and degrees must have the same length")
    return HNType(tuple(zip(rs, ds)))


def _load_json_arg(inline: str | None, path: str | None, what: str):
    if (inline is None) == (path is None):
        raise ValueError(f"provide exactly one of --{what} and --{what}-file")
    if inline is not None:
        return json.loads(inline)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _points_from_json(data) -> PointCloud:
    return PointCloud.from_points([[frac(x) for x in row] for row in data])


def _rat_str(x: Fraction) -> str:
    return str(frac(x))


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _ctx_from(args) -> CurveContext:
    return CurveContext(
        args.rank, args.degree, args.genus, args.degl, args.npoints
    )


def _add_ctx_flags(sub, with_rank=True):
    if with_rank:
        sub.add_argument("--rank", type=int, required=True)
        sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--genus", type=int, default=0)
    sub.add_argument("--degl", type=int, default=0)
    sub.add_argument("--npoints", type=int, default=1)


def _cmd_enumerate(args) -> None:
    ctx = _ctx_from(args)
    types = enumerate_hn_types(ctx, frac(args.max_slope))
    payload = {
        "schema": "higgsstrata.enumerate/1",
        "types": [t.to_json() for t in types],
    }
    _emit(args, payload, [repr(t) for t in types])


def _cmd_order(args) -> None:
    a = _parse_type(args.a, args.ranks_a)
    b = _parse_type(args.b, args.ranks_b)
    if a.rank != args.rank or b.rank != args.rank:
        raise ValueError("types do not match the ambient rank")
    order = compare_polygon(a, b)
    payload = {"schema": "higgsstrata.order/1", "order": order.value}
    _emit(args, payload, [order.value])


def _cmd_beta(args) -> None:
    tau = _parse_type(args.tau, args.ranks)
    ctx = CurveContext(tau.rank, tau.degree, args.genus, args.degl, args.npoints)
    beta = beta_of_type(tau, ctx)
    payload = {"schema": "higgsstrata.beta/1", "beta": beta.to_json()}
    entries = ", ".join(_rat_str(v) for v in beta.entries)
    _emit(
        args,
        payload,
        [f"beta = ({entries})", f"norm_sq = {_rat_str(beta.norm_sq)}"],
    )


def _cmd_compat(args) -> None:
    base = CurveContext(1, 0, args.genus, 0, args.npoints)
    report = compat_cross_table(
        base,
        args.rank_max,
        range(args.d_min, args.d_max + 1),
        range(args.degl_min, args.degl_max + 1),
    )
    payload = {"schema": "higgsstrata.compat/1", **report.to_json()}
    lines = [f"checked {report.checked} pairs, {len(report.violations)} violations"]
    for v in report.violations:
        lines.append(f"violation: r={v.rank} d={v.degree} degL={v.deg_line} {v.tau} {v.mu}")
    _emit(args, payload, lines)


def _cmd_minnorm(args) -> None:
    cloud = _points_from_json(_load_json_arg(args.points, args.points_file, "points"))
    v = min_norm_point(cloud)
    payload = {
        "schema": "higgsstrata.minnorm/1",
        "point": [rational_to_json(x) for x in v],
    }
    _emit(args, payload, ["(" + ", ".join(_rat_str(x) for x in v) + ")"])


def _cmd_index_set(args) -> None:
    cloud = _points_from_json(_load_json_arg(args.points, args.points_file, "points"))
    reps = index_set_B(cloud, restrict_to_chamber=not args.no_chamber, cap=_cap(args))
    payload = {
        "schema": "higgsstrata.index_set/1",
        "vectors": [[rational_to_json(x) for x in v] for v in reps],
    }
    _emit(
        args,
        payload,
        ["(" + ", ".join(_rat_str(x) for x in v) + ")" for v in reps],
    )


def _load_point(args) -> ModelPoint:
    return ModelPoint.from_json(
        _load_json_arg(args.point, args.point_file, "point")
    )


def _cmd_point_coords(args) -> None:
    ctx = _ctx_from(args)
    point = _load_point(args)
    table = coordinates(point, ctx, cap=_cap(args))
    support = table.support()
    payload = {
        "schema": "higgsstrata.point_coords/1",
        "support": [
            {"index": idx.to_json(), "value": rational_to_json(table[idx])}
            for idx in support
        ],
        "total_indices": len(table.values),
    }
    lines = [f"{len(support)} nonzero of {len(table.values)} coordinates"]
    lines.extend(
        f"{json.dumps(idx.to_json(), sort_keys=True)} = {_rat_str(table[idx])}"
        for idx in support
    )
    _emit(args, payload, lines)


def _cmd_point_check(args) -> None:
    tau = _parse_type(args.tau, args.ranks)
    ctx = CurveContext(tau.rank, tau.degree, args.genus, args.degl, args.npoints)
    beta = beta_of_type(tau, ctx)
    point = _load_point(args)
    report = verify_step1(point, beta, ctx)
    got = report.membership
    payload = {
        "schema": "higgsstrata.point_check/1",
        "membership": got.value,
        "step1": {
            "passed": report.passed,
            "norm_sq": rational_to_json(report.norm_sq),
            "min_support_weight": rational_to_json(report.min_support_weight),
            "violations": [
                {"index": idx.to_json(), "weight": rational_to_json(w)}
                for idx, w in report.violations
            ],
            "equality_witness": (
                report.equality_witness.to_json()
                if report.equality_witness
                else None
            ),
        },
    }
    lines = [
        f"membership: {got.value}",
        f"step1: {'pass' if report.passed else 'fail'} "
        f"(min support weight {_rat_str(report.min_support_weight)}, "
        f"norm_sq {_rat_str(report.norm_sq)})",
    ]
    if args.step2:
        s2 = verify_step2(point, beta, ctx, lambda_bound=args.lambda_bound)
        payload["step2"] = {
            "passed": s2.passed,
            "trace_identity_ok": s2.trace_identity_ok,
            "trace_classes_checked": s2.trace_classes_checked,
            "blocks": [
                {
                    "index": b.index,
                    "semistable": b.semistable,
                    "witness": list(b.witness) if b.witness else None,
                }
                for b in s2.blocks
            ],
        }
        lines.append(f"step2: {'pass' if s2.passed else 'fail'}")
    _emit(args, payload, lines)


def _cmd_stabdim(args) -> None:
    flag = FlagShape(tuple(_parse_int_list(args.blocks)))
    if args.phis is not None or args.phis_file is not None:
        data = _load_json_arg(args.phis, args.phis_file, "phis")
        phis = [mat([[frac(x) for x in row] for row in phi]) for phi in data]
        dim = nilpotent_commutant_dim(flag, phis)
        payload = {
            "schema": "higgsstrata.stabdim/1",
            "kind": "nilpotent_commutant",
            "dim": dim,
        }
        _emit(args, payload, [str(dim)])
        return
    ctx = _ctx_from(args)
    point = _load_point(args)
    dim = unipotent_stabilizer_dim(point, flag, ctx, cap=_cap(args))
    payload = {
        "schema": "higgsstrata.stabdim/1",
        "kind": "unipotent_stabilizer",
        "dim": dim,
    }
    _emit(args, payload, [str(dim)])


def _cmd_classify(args) -> None:
    verdict = classify_rank3(
        _parse_int_list(args.tau_type), _parse_int_list(args.mu_type)
    )
    payload = {
        "schema": "higgsstrata.classify/1",
        "kind": verdict.kind.value,
        "constraint": verdict.constraint,
    }
    line = verdict.kind.value
    if verdict.constraint:
        line += f" ({verdict.constraint})"
    _emit(args, payload, [line])


def _cmd_polygons(args) -> None:
    data = _load_json_arg(args.types, args.types_file, "types")
    types = [HNType(tuple(blocks)) for blocks in data]
    doc = svg_mod.emit_polygon_svg(types, args.out)
    payload = {
        "schema": "higgsstrata.polygons/1",
        "path": args.out,
        "bytes": len(doc.encode("utf-8")),
    }
    _emit(args, payload, [f"wrote {args.out} ({len(doc)} chars)"])


def _cmd_report(args) -> None:
    ctx = _ctx_from(args)
    with open(args.corpus_file, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    corpus = [
        (
            entry["id"],
            ModelPoint.from_json(entry["point"]),
            FlagShape(tuple(entry["flag"])),
        )
        for entry in data["points"]
    ]
    max_slope = frac(args.max_slope) if args.max_slope else None
    records = assemble(corpus, ctx, max_first_slope=max_slope)
    closure = closure_order_report(records)
    report_json = {
        "schema": "higgsstrata.report/1",
        "records": [rec.to_json() for rec in records],
        "closure": closure.to_json(),
    }
    json_path = args.out_prefix + ".json"
    csv_path = args.out_prefix + ".csv"
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report_json, handle, sort_keys=True, indent=2)
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerows(closure.to_csv_rows())
    written = [json_path, csv_path]
    if args.svg:
        taus = []
        for row in closure.rows:
            if row.tau not in taus:
                taus.append(row.tau)
        svg_path = args.out_prefix + ".svg"
        svg_mod.emit_polygon_svg(taus, svg_path)
        written.append(svg_path)
    payload = dict(report_json)
    payload["written"] = written
    _emit(
        args,
        payload,
        [f"{len(records)} records over {sum(len(r.member_ids) for r in records)} points"]
        + [f"wrote {p}" for p in written],
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing reads only argv (HIGGSSTRATA_CAP is read when a verb runs), so one
    parser serves every call of ``main``.
    """
    parser = argparse.ArgumentParser(
        prog="higgsstrata",
        description="Exact instability-stratification combinatorics",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("enumerate", help="list types under a slope bound")
    _add_ctx_flags(p)
    p.add_argument("--max-slope", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("order", help="compare two type polygons")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--ranks-a")
    p.add_argument("--ranks-b")
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=_cmd_order)

    p = subs.add_parser("beta", help="instability vector of a type")
    p.add_argument("--tau", required=True, help="comma-separated block degrees")
    p.add_argument("--ranks", help="comma-separated block ranks (default all 1)")
    _add_ctx_flags(p, with_rank=False)
    p.set_defaults(func=_cmd_beta)

    p = subs.add_parser("compat", help="cross-check the candidate tables")
    p.add_argument("--rank-max", type=int, required=True)
    p.add_argument("--d-min", type=int, default=1)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--degl-min", type=int, default=0)
    p.add_argument("--degl-max", type=int, required=True)
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--npoints", type=int, default=1)
    p.set_defaults(func=_cmd_compat)

    p = subs.add_parser("minnorm", help="minimum-norm point of a hull")
    p.add_argument("--points")
    p.add_argument("--points-file")
    p.set_defaults(func=_cmd_minnorm)

    p = subs.add_parser("index-set", help="closest points over all supports")
    p.add_argument("--points")
    p.add_argument("--points-file")
    p.add_argument("--no-chamber", action="store_true")
    p.add_argument("--cap", type=int)
    p.set_defaults(func=_cmd_index_set)

    p = subs.add_parser("point-coords", help="projective coordinates of a point")
    _add_ctx_flags(p)
    p.add_argument("--point")
    p.add_argument("--point-file")
    p.add_argument("--cap", type=int)
    p.set_defaults(func=_cmd_point_coords)

    p = subs.add_parser("point-check", help="membership and inequality checks")
    p.add_argument("--point")
    p.add_argument("--point-file")
    p.add_argument("--tau", required=True)
    p.add_argument("--ranks")
    _add_ctx_flags(p, with_rank=False)
    p.add_argument("--step2", action="store_true")
    p.add_argument("--lambda-bound", type=int, default=2)
    p.set_defaults(func=_cmd_point_check)

    p = subs.add_parser("stabdim", help="stabiliser dimensions")
    _add_ctx_flags(p, with_rank=False)
    p.add_argument("--rank", type=int, default=0)
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--blocks", required=True, help="flag block sizes")
    p.add_argument("--point")
    p.add_argument("--point-file")
    p.add_argument("--phis")
    p.add_argument("--phis-file")
    p.add_argument("--cap", type=int)
    p.set_defaults(func=_cmd_stabdim)

    p = subs.add_parser("classify", help="rank-3 compatibility verdict")
    p.add_argument("--tau-type", required=True)
    p.add_argument("--mu-type", required=True)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("polygons", help="render type polygons to SVG")
    p.add_argument("--types")
    p.add_argument("--types-file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_polygons)

    p = subs.add_parser("report", help="assemble stratum records for a corpus")
    _add_ctx_flags(p)
    p.add_argument("--corpus-file", required=True)
    p.add_argument("--max-slope")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_report)

    for sub_action in subs.choices.values():
        sub_action.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.func(args)
    except (HiggsStrataError, ValueError, TypeError, OSError, KeyError, OverflowError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
