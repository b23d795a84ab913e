"""Command-line surface over the library, with stable JSON output.

Every verb accepts ``--json`` and then writes exactly one JSON document to
standard output, tagged with a versioned ``schema`` key.  Rational values are
accepted as integers or "p/q" strings and always emitted in lowest terms.
Exit codes: 0 success, 1 domain error (the error name goes to stderr),
2 usage error.  A request is parsed once, by its verb's parser alone, so an
unknown flag after a verb is reported with that verb's usage and prog:
``higgsstrata beta: error: unrecognized arguments: --bogus``.  That parser
first reads a well-formed request straight off its own argparse actions:
exact option strings, each store option followed by a value that does not
start with ``-`` and that its type accepts, every required option given.
Anything else (an abbreviation, ``--opt=value``, ``-h``, ``--``, a value
such as ``-3``, a refused or missing value or option) goes to argparse,
which parses it with its own help, usage and messages.  The context
flags are the ones an answer reads: ``--genus`` and ``--npoints`` wherever a
point or an instability vector is built, ``--degl`` (the twisting line
bundle's degree) on ``report`` alone, whose candidate bounds read it, and
only ``--rank`` and ``--degree`` on ``enumerate``.  ``--cap`` bounds, before
any work, ``index-set``'s weight subsets of at most a distinct weights, a
being their affine dimension, the subsets its walk can visit;
``stabdim --point``'s N r m |positions| invariance-row entries (N points,
rank r, m sections, |positions| the flag's strictly upper block-triangle
slots; ``report`` holds its stabiliser calls to the default cap in that
unit, ``stabdim --point`` needs ``--rank`` and ``--degree``, and
``stabdim --phis`` refuses ``--cap``, ``--rank``, ``--degree``, ``--genus``
and ``--npoints``, which only ``--point`` reads); and ``point-coords``'s
C(m,r)^N (1 + r^(2N)) coordinate indices.  Type enumeration stops past
200,000 types;
``point-check --step2`` takes any ``--lambda-bound`` >= 0 (default 2), the
trace classes being counted in closed form, and ``point-check`` refuses
``--lambda-bound`` without ``--step2``; it counts beta's classes itself.  A
list flag such as ``--tau 5,3`` refuses an empty entry (``5,,3``), and an
empty value is read, not dropped (``--ranks ''``, ``--max-slope ''``).
JSON nested too deeply to parse is a domain error, ``RecursionError``.

Each verb runs in a fresh process, where import costs more than most
requests, so this module imports at top level only what parsing and output
need (``errors``, ``hn_types``, ``linalg``, ``weight_lattice``).  A verb
imports ``minnorm``, ``point_model``, ``strat_report``, ``svg`` or ``csv``
itself, when it runs: ``index-set`` loads none of the last four, and no verb
loads ``oracles``.  A verb binds a package module by ``import
higgsstrata.<module> as <module>``, which costs less per call than a
relative ``from .<module> import`` (that form pays a failed ``__path__``
lookup on the module each time).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import DEFAULT_INDEX_CAP, HiggsStrataError
from .hn_types import (
    CurveContext,
    FlagShape,
    HNType,
    classify_rank3,
    compare_polygon,
    enumerate_hn_types,
)
from .linalg import frac, listlike, objectlike
from .weight_lattice import beta_of_type, rational_to_json, step2_trace_identity


def _parse_int_list(text: str) -> list[int]:
    if not text:
        return []
    entries = text.split(",")
    if "" in entries:
        raise ValueError(f"empty entry in the list {text!r}")
    return [int(x) for x in entries]


def _parse_type(degrees: str, ranks: str | None) -> HNType:
    ds = _parse_int_list(degrees)
    rs = [1] * len(ds) if ranks is None else _parse_int_list(ranks)
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


def _rat_str(x: Fraction) -> str:
    return str(frac(x))


def _vec_str(v) -> str:
    return "(" + ", ".join(_rat_str(x) for x in v) + ")"


def _emit(args, payload, text_lines) -> None:
    """Print the dict ``payload()`` makes under --json, else each line
    ``text_lines()`` makes: each mode builds only its own output."""
    if args.json:
        print(json.dumps(payload(), sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def _ctx_from(args, deg_line=0) -> CurveContext:
    return CurveContext(args.rank, args.degree, args.genus, deg_line, args.npoints)


def _add_ctx_flags(sub, with_rank=True, with_degl=False):
    if with_rank:
        sub.add_argument("--rank", type=int, required=True)
        sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--genus", type=int, default=0)
    if with_degl:
        sub.add_argument("--degl", type=int, default=0)
    sub.add_argument("--npoints", type=int, default=1)


def _cmd_enumerate(args) -> None:
    ctx = CurveContext(args.rank, args.degree)
    types = enumerate_hn_types(ctx, frac(args.max_slope))
    payload = lambda: {"schema": "higgsstrata.enumerate/1", "types": [t.to_json() for t in types]}
    _emit(args, payload, lambda: [repr(t) for t in types])


def _cmd_order(args) -> None:
    a = _parse_type(args.a, args.ranks_a)
    b = _parse_type(args.b, args.ranks_b)
    if a.rank != args.rank or b.rank != args.rank:
        raise ValueError("types do not match the ambient rank")
    order = compare_polygon(a, b)
    _emit(args, lambda: {"schema": "higgsstrata.order/1", "order": order.value}, lambda: [order.value])


def _type_beta(args):
    """The context of the --tau/--ranks type and that type's instability vector."""
    tau = _parse_type(args.tau, args.ranks)
    ctx = CurveContext(tau.rank, tau.degree, args.genus, npoints=args.npoints)
    return ctx, beta_of_type(tau, ctx)


def _cmd_beta(args) -> None:
    _, beta = _type_beta(args)
    _emit(
        args,
        lambda: {"schema": "higgsstrata.beta/1", "beta": beta.to_json()},
        lambda: [f"beta = {_vec_str(beta.entries)}", f"norm_sq = {_rat_str(beta.norm_sq)}"],
    )


def _cmd_compat(args) -> None:
    import higgsstrata.strat_report as strat_report

    report = strat_report.compat_cross_table(
        args.rank_max, range(args.d_min, args.d_max + 1), range(args.degl_min, args.degl_max + 1)
    )
    _emit(
        args,
        lambda: {"schema": "higgsstrata.compat/1", **report.to_json()},
        lambda: [f"checked {report.checked} pairs, {len(report.violations)} violations"],
    )


def _cmd_minnorm(args) -> None:
    import higgsstrata.minnorm as minnorm

    cloud = minnorm.PointCloud.from_points(_load_json_arg(args.points, args.points_file, "points"))
    v = minnorm.min_norm_point(cloud)
    payload = lambda: {"schema": "higgsstrata.minnorm/1", "point": [rational_to_json(x) for x in v]}
    _emit(args, payload, lambda: [_vec_str(v)])


def _cmd_index_set(args) -> None:
    import higgsstrata.minnorm as minnorm

    cloud = minnorm.PointCloud.from_points(_load_json_arg(args.points, args.points_file, "points"))
    reps = minnorm.index_set_B(cloud, restrict_to_chamber=not args.no_chamber, cap=args.cap)
    payload = lambda: {
        "schema": "higgsstrata.index_set/1",
        "vectors": [[rational_to_json(x) for x in v] for v in reps],
    }
    _emit(args, payload, lambda: [_vec_str(v) for v in reps])


def _cmd_point_coords(args) -> None:
    import higgsstrata.point_model as point_model

    ctx = _ctx_from(args)
    point = point_model.ModelPoint.from_json(_load_json_arg(args.point, args.point_file, "point"))
    table = point_model.coordinates(point, ctx, cap=args.cap)
    support = table.support()
    payload = lambda: {
        "schema": "higgsstrata.point_coords/1",
        "support": [
            {"index": idx.to_json(), "value": rational_to_json(table[idx])}
            for idx in support
        ],
        "total_indices": len(table.values),
    }

    def lines():
        yield f"{len(support)} nonzero of {len(table.values)} coordinates"
        for idx in support:
            yield f"{json.dumps(idx.to_json(), sort_keys=True)} = {_rat_str(table[idx])}"

    _emit(args, payload, lines)


def _cmd_point_check(args) -> None:
    import higgsstrata.point_model as point_model

    if args.lambda_bound is not None and not args.step2:
        raise ValueError("--lambda-bound applies only to --step2")
    ctx, beta = _type_beta(args)
    point = point_model.ModelPoint.from_json(_load_json_arg(args.point, args.point_file, "point"))
    report = point_model.verify_step1(point, beta, ctx)
    got = report.membership
    s2 = None
    if args.step2:
        bound = 2 if args.lambda_bound is None else args.lambda_bound
        checked, identity_ok, _ = step2_trace_identity(beta, bound)
        s2 = point_model.verify_step2(point, beta, ctx)

    def payload():
        out = {
            "schema": "higgsstrata.point_check/1",
            "membership": got.value,
            "step1": {
                "passed": report.passed,
                "norm_sq": rational_to_json(beta.norm_sq),
                "min_support_weight": rational_to_json(report.min_support_weight),
                "violations": [
                    {"index": idx.to_json(), "weight": rational_to_json(w)}
                    for idx, w in report.violations
                ],
                "equality_witness": report.equality_witness.to_json() if report.equality_witness else None,
            },
        }
        if s2:
            out["step2"] = {
                "passed": s2.passed,
                "trace_identity_ok": identity_ok,
                "trace_classes_checked": checked,
                "blocks": [
                    {
                        "index": b.index,
                        "semistable": b.semistable,
                        "witness": list(b.witness) if b.witness else None,
                    }
                    for b in s2.blocks
                ],
            }
        return out

    def lines():
        yield f"membership: {got.value}"
        yield (
            f"step1: {'pass' if report.passed else 'fail'} "
            f"(min support weight {_rat_str(report.min_support_weight)}, "
            f"norm_sq {_rat_str(beta.norm_sq)})"
        )
        if s2:
            yield f"step2: {'pass' if s2.passed else 'fail'}"

    _emit(args, payload, lines)


def _cmd_stabdim(args) -> None:
    import higgsstrata.point_model as point_model

    flag = FlagShape(tuple(_parse_int_list(args.blocks)))
    phis = args.phis is not None or args.phis_file is not None
    if phis and (args.point is not None or args.point_file is not None):
        raise ValueError("provide one of --phis and --point, not both")
    if phis and args.cap is not None:
        raise ValueError("--cap applies only to --point")
    if phis and (args.rank is not None or args.degree is not None):
        raise ValueError("--rank and --degree apply only to --point")
    if phis and (args.genus is not None or args.npoints is not None):
        raise ValueError("--genus and --npoints apply only to --point")
    if phis:
        kind = "nilpotent_commutant"
        dim = point_model.nilpotent_commutant_dim(flag, _load_json_arg(args.phis, args.phis_file, "phis"))
    else:
        kind = "unipotent_stabilizer"
        if args.rank is None or args.degree is None:
            raise ValueError("stabdim --point needs --rank and --degree")
        genus = 0 if args.genus is None else args.genus
        npoints = 1 if args.npoints is None else args.npoints
        ctx = CurveContext(args.rank, args.degree, genus, npoints=npoints)
        point = point_model.ModelPoint.from_json(_load_json_arg(args.point, args.point_file, "point"))
        cap = DEFAULT_INDEX_CAP if args.cap is None else args.cap
        dim = point_model.unipotent_stabilizer_dim(point, flag, ctx, cap=cap)
    _emit(args, lambda: {"schema": "higgsstrata.stabdim/1", "kind": kind, "dim": dim}, lambda: [str(dim)])


def _cmd_classify(args) -> None:
    verdict = classify_rank3(
        _parse_int_list(args.tau_type), _parse_int_list(args.mu_type)
    )
    payload = lambda: {
        "schema": "higgsstrata.classify/1",
        "kind": verdict.kind.value,
        "constraint": verdict.constraint,
    }
    line = verdict.kind.value
    if verdict.constraint:
        line += f" ({verdict.constraint})"
    _emit(args, payload, lambda: [line])


def _cmd_polygons(args) -> None:
    import higgsstrata.svg as svg

    data = _load_json_arg(args.types, args.types_file, "types")
    types = [HNType(blocks) for blocks in listlike(data, "a list of types")]
    doc = svg.emit_polygon_svg(types, args.out)
    payload = lambda: {
        "schema": "higgsstrata.polygons/1",
        "path": args.out,
        "bytes": len(doc.encode("utf-8")),
    }
    _emit(args, payload, lambda: [f"wrote {args.out} ({len(doc)} chars)"])


def _cmd_report(args) -> None:
    import csv

    import higgsstrata.point_model as point_model
    import higgsstrata.strat_report as strat_report
    import higgsstrata.svg as svg

    ctx = _ctx_from(args, args.degl)
    with open(args.corpus_file, "r", encoding="utf-8") as handle:
        data = objectlike(json.load(handle), "a corpus (an object with points)")
    corpus = []
    for entry in listlike(data["points"], "a list of corpus entries"):
        entry = objectlike(entry, "a corpus entry (an object with id and point)")
        corpus.append((entry["id"], point_model.ModelPoint.from_json(entry["point"])))
    max_slope = None if args.max_slope is None else frac(args.max_slope)
    records = strat_report.assemble(corpus, ctx, max_first_slope=max_slope)
    closure = strat_report.closure_order_report(records)
    report_json = {
        "schema": "higgsstrata.report/1",
        "records": [rec.to_json() for rec in records],
        "closure": closure.to_json(),
    }
    # the drawing is made, or refused (no types), before any file is written
    drawing = svg.polygon_svg(list(closure.types)) if args.svg else None
    json_path = args.out_prefix + ".json"
    csv_path = args.out_prefix + ".csv"
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report_json, sort_keys=True, indent=2))
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerows(closure.to_csv_rows())
    written = [json_path, csv_path]
    if drawing is not None:
        svg_path = args.out_prefix + ".svg"
        with open(svg_path, "w", encoding="utf-8") as handle:
            handle.write(drawing)
        written.append(svg_path)
    _emit(
        args,
        lambda: {**report_json, "written": written},
        lambda: [f"{len(records)} records over {sum(len(r.member_ids) for r in records)} points"]
        + [f"wrote {p}" for p in written],
    )


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads a well-formed request off its own actions.

    ``parse_args`` first tries ``_read_exact``; argparse parses whatever
    that reader returns None on, so help, usage errors and their messages
    stay argparse's.
    """

    def parse_args(self, args=None, namespace=None):
        if args is not None:
            read = self._read_exact(args, argparse.Namespace() if namespace is None else namespace)
            if read is not None:
                return read
        return super().parse_args(args, namespace)

    def _read_exact(self, args, namespace):
        """The namespace argparse makes of ``args``, or None to leave them to it.

        Every token must be an exact option string: a store-true option
        takes no value, a store option the next token, converted by its
        type.  None on anything else: an unknown token, an abbreviation, an
        ``--opt=value`` token, ``-h``, ``--``, a missing value or one that
        starts with ``-`` (such as ``-3``), a value the type refuses, or a
        required option (or one with a string default) not given.  The
        namespace is touched only on success.
        """
        seen, values, i = set(), [], 0
        while i < len(args):
            action = self._option_string_actions.get(args[i])
            kind = type(action)
            if kind is argparse._StoreTrueAction:
                value, i = action.const, i + 1
            elif kind is not argparse._StoreAction or action.nargs is not None or action.choices is not None:
                return None
            elif i + 1 == len(args) or args[i + 1].startswith("-"):
                return None
            else:
                try:
                    value = args[i + 1] if action.type is None else action.type(args[i + 1])
                except (TypeError, ValueError):
                    return None
                i += 2
            seen.add(action)
            values.append((action.dest, value))
        for a in self._actions:
            if a not in seen and (a.required or isinstance(a.default, str) and a.default is not argparse.SUPPRESS):
                return None
        defaults = [
            (a.dest, a.default) for a in self._actions
            if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS
        ]
        for dest, default in (*defaults, *self._defaults.items()):
            if not hasattr(namespace, dest):
                setattr(namespace, dest, default)
        for dest, value in values:
            setattr(namespace, dest, value)
        return namespace


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its verb -> parser map, built once per process.

    Parsing reads only argv, so they serve every call of ``main``, which
    parses with the verb's parser alone.
    """
    parser = _Parser(
        prog="higgsstrata",
        description="Exact instability-stratification combinatorics",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("enumerate", help="list types under a slope bound")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
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
    p.set_defaults(func=_cmd_compat)

    p = subs.add_parser("minnorm", help="minimum-norm point of a hull")
    p.add_argument("--points")
    p.add_argument("--points-file")
    p.set_defaults(func=_cmd_minnorm)

    p = subs.add_parser("index-set", help="closest points over all supports")
    p.add_argument("--points")
    p.add_argument("--points-file")
    p.add_argument("--no-chamber", action="store_true")
    p.add_argument("--cap", type=int, default=DEFAULT_INDEX_CAP)
    p.set_defaults(func=_cmd_index_set)

    p = subs.add_parser("point-coords", help="projective coordinates of a point")
    _add_ctx_flags(p)
    p.add_argument("--point")
    p.add_argument("--point-file")
    p.add_argument("--cap", type=int, default=DEFAULT_INDEX_CAP)
    p.set_defaults(func=_cmd_point_coords)

    p = subs.add_parser("point-check", help="membership and inequality checks")
    p.add_argument("--point")
    p.add_argument("--point-file")
    p.add_argument("--tau", required=True)
    p.add_argument("--ranks")
    _add_ctx_flags(p, with_rank=False)
    p.add_argument("--step2", action="store_true")
    p.add_argument("--lambda-bound", type=int)
    p.set_defaults(func=_cmd_point_check)

    p = subs.add_parser("stabdim", help="stabiliser dimensions")
    p.add_argument("--genus", type=int)
    p.add_argument("--npoints", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--degree", type=int)
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
    _add_ctx_flags(p, with_degl=True)
    p.add_argument("--corpus-file", required=True)
    p.add_argument("--max-slope")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_report)

    for sub_action in subs.choices.values():
        sub_action.add_argument("--json", action="store_true")
    return parser, subs.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, verbs = build_parser()
    verb = argv[0] if argv and argv[0] in verbs else None
    try:
        args = verbs[verb].parse_args(argv[1:], argparse.Namespace(verb=verb)) if verb else parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.func(args)
    except (
        HiggsStrataError, ValueError, TypeError, OSError, KeyError, OverflowError, RecursionError,
    ) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
