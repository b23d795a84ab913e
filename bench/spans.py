"""Span tracing of the higgsstrata layers from outside the package.

Each traced function is replaced, for the duration of a traced pass, at every
name its callers look up (``strat_report.membership``, ``point_model.det``,
``minnorm.min_norm_point`` and so on), by a wrapper that records one span:
name, start, end, parent span, request id, an optional outcome and whether it
raised.  Spans stay in memory and are written once, when the run ends.  The
per-layer metrics are derived from them afterwards: call counts, self time
(span time minus the time covered by child spans), error counts and the
useful-to-attempted ratios.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import time
from pathlib import Path

# Functions with metrics of their own.  Every other public function of
# hn_types and weight_lattice is traced too, and counted per module.
POINT_MODEL = (
    "membership", "verify_step1", "verify_step2", "retract_p_beta",
    "unipotent_stabilizer_dim", "coordinates",
)
MINNORM = ("min_norm_point", "index_set_B")
LINALG = ("det", "adjugate", "solve_unique", "nullspace", "rank")
ECHELON_ADD = "linalg.EchelonAccumulator.add"  # a method, patched on its class
# Serialisation helpers belong to the CLI's JSON load/dump, not to a layer.
UNTRACED = {"rational_to_json", "rational_from_json"}

OUTCOMES = {
    "point_model.membership": lambda got: got.name == "OUTSIDE",
    "point_model.verify_step2": lambda report: report.passed,
    "minnorm.index_set_B": len,
    "linalg.solve_unique": lambda sol: sol is None,
    ECHELON_ADD: bool,
}

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, REQUEST, OUTCOME, ERROR = range(7)


class Tracer:
    """Span recorder plus the patching that routes calls through it."""

    def __init__(self, package_modules: dict):
        self.modules = package_modules  # short name -> module object
        self.names: list[str] = []
        self.spans: list[list] = []
        self.passes: list[tuple[int, int, float, float]] = []  # span range and wall clock
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    # ---------------------------------------------------------- patching

    def _plan(self) -> None:
        """Resolve (owner, attribute, original, wrapper) for every traced call site.

        A function is patched in every package module that binds it, because
        callers look it up in their own module's namespace.
        """
        mods = self.modules
        targets = [("strat_report", "assemble")]
        targets += [("point_model", name) for name in POINT_MODEL]
        targets += [("minnorm", name) for name in MINNORM]
        targets += [("linalg", name) for name in LINALG]
        for layer in ("hn_types", "weight_lattice"):
            mod = mods[layer]
            targets += [
                (layer, name)
                for name, obj in vars(mod).items()
                if inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and name not in UNTRACED
            ]
        for layer, name in targets:
            original = getattr(mods[layer], name)
            wrapper = self.wrap(f"{layer}.{name}", original)
            for mod in mods.values():
                if vars(mod).get(name) is original:
                    self._patches.append((mod, name, original, wrapper))
        acc = mods["linalg"].EchelonAccumulator
        add = vars(acc)["add"]
        self._patches.append((acc, "add", add, self.wrap(ECHELON_ADD, add)))

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def wrap(self, name: str, fn):
        """A wrapper recording one span per call of ``fn`` under ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        outcome = OUTCOMES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.request, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                span[ERROR] = True
                stack.pop()
                raise
            span[END] = clock()
            stack.pop()
            if outcome is not None:
                span[OUTCOME] = outcome(result)
            return result

        return traced

    def begin_pass(self) -> int:
        return len(self.spans)

    def end_pass(self, first: int, start: float, end: float) -> None:
        self.passes.append((first, len(self.spans), start, end))

    def write(self, path: Path) -> None:
        """All spans, one JSON array per line after a header with the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "passes": self.passes,
                                     "fields": ["name", "start", "end", "parent", "request",
                                                "outcome", "error"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    # ----------------------------------------------------------- metrics

    def pass_metrics(self, index: int) -> dict:
        """Per-layer metrics of one traced pass, plus the self-time check."""
        first, last, start, end = self.passes[index]
        spans = self.spans[first:last]
        names = self.names
        child_time = [0.0] * len(spans)
        nested = True
        for span in spans:
            parent = span[PARENT]
            if parent >= 0:
                outer = spans[parent - first]
                child_time[parent - first] += span[END] - span[START]
                nested = nested and outer[START] <= span[START] and span[END] <= outer[END]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        errors: dict[str, int] = {}
        for span, inner in zip(spans, child_time):
            key = _metric_key(names[span[NAME]])
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + (span[END] - span[START]) - inner
            errors[key] = errors.get(key, 0) + span[ERROR]
        wall = end - start
        covered = _union_length((s[START], s[END]) for s in spans)
        unattributed = wall - covered
        attributed = sum(self_s.values())
        residual = attributed + unattributed - wall

        def count(name, parent=None, outcome=None):
            n = 0
            for s in spans:
                if names[s[NAME]] != name:
                    continue
                if parent is not None and (s[PARENT] < 0 or names[spans[s[PARENT] - first][NAME]] != parent):
                    continue
                if outcome is not None and s[OUTCOME] != outcome:
                    continue
                n += 1
            return n

        def ratio(num, den):
            return num / den if den else 0.0

        reps = sum(s[OUTCOME] for s in spans if names[s[NAME]] == "minnorm.index_set_B")
        bases = {
            "strat_report.match_ratio": (
                count("point_model.verify_step2", "strat_report.assemble", True),
                count("point_model.membership", "strat_report.assemble"),
            ),
            "point_model.outside_ratio": (
                count("point_model.membership", outcome=True), count("point_model.membership"),
            ),
            "minnorm.reps_per_solve": (
                reps, count("minnorm.min_norm_point", "minnorm.index_set_B"),
            ),
            "linalg.solve_unique.singular_ratio": (
                count("linalg.solve_unique", outcome=True), count("linalg.solve_unique"),
            ),
            "linalg.echelon.accepted_ratio": (
                count(ECHELON_ADD, outcome=True), count(ECHELON_ADD),
            ),
        }
        metrics: dict[str, tuple[float, str]] = {
            "cli.main.calls": (calls.get("cli", 0), "count"),
            "cli.self_s": (self_s.get("cli", 0.0), "s"),
        }
        grouped = ["strat_report.assemble", "hn_types", "weight_lattice"]
        grouped += [f"point_model.{name}" for name in POINT_MODEL]
        grouped += [f"minnorm.{name}" for name in MINNORM]
        grouped += [f"linalg.{name}" for name in LINALG] + [ECHELON_ADD]
        for key in grouped:
            metrics[f"{key}.calls"] = (calls.get(key, 0), "count")
            metrics[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
            if key.startswith("point_model."):
                metrics[f"{key}.errors"] = (errors.get(key, 0), "count")
        for key, (num, den) in bases.items():
            metrics[key] = (ratio(num, den), "ratio")
        metrics["trace.wall_s"] = (wall, "s")  # replaced by the run's per-request figure
        metrics["trace.unattributed_s"] = (unattributed, "s")
        metrics["trace.spans"] = (len(spans), "count")
        check = {
            "attributed_s": attributed,
            "unattributed_s": unattributed,
            "wall_s": wall,
            "residual_s": residual,
            "spans_nested": nested,
            "ok": nested and abs(residual) <= 1e-6,
        }
        return {"metrics": metrics, "bases": bases, "check": check}


def _metric_key(span_name: str) -> str:
    """The metric group a span's self time and calls are counted under."""
    layer = span_name.split(".", 1)[0]
    if layer in ("cli", "hn_types", "weight_lattice"):
        return layer
    return span_name


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def median_metrics(per_pass: list[dict]) -> dict[str, tuple[float, str]]:
    """Median over traced passes of each per-layer metric."""
    keys = per_pass[0]["metrics"].keys()
    return {
        key: (statistics.median(p["metrics"][key][0] for p in per_pass), per_pass[0]["metrics"][key][1])
        for key in keys
    }
