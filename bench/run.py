"""End-to-end and per-layer benchmark of the ``higgsstrata`` command.

    python3 bench/run.py --workload {stratify,pointcheck,indexset} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/`` next to
this directory and driven in-process through ``higgsstrata.cli.main(argv)``
with stdout captured: one process, one thread, one closed-loop client that
sends the next request when the previous one has returned.  A pass is one
run over the workload's fixed, seeded request list; passes repeat until the
time is up.  A request's latency is its median over the passes, after
scaling every time by the machine's current speed against a fixed
calibration loop (see REFERENCE_NOMINAL_S below).

``--trace 0`` reports the end-to-end metrics, every time scaled as above:

* ``setup_s``: median over fresh interpreters (one started after each pass)
  of the time from spawning one to its inputs being built and written,
  which covers interpreter start, import and input generation;
* ``wall_s``: time for one pass, the sum of the request latencies;
* ``req_p50_ms`` and ``req_tail_ms``: the median request latency and the
  one at the highest whole percentile with at least ten requests of a pass
  beyond it (the percentile and the sample count are in the details);
* ``peak_rss_mb``: peak resident set of this process, which ran only this
  workload;
* ``success_ratio``: requests answered correctly over requests attempted,
  that is one minus the failure ratio, which the details carry as well.

``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from spans recorded around each layer's public functions (see
``spans.py``), with the tracing overhead.

Every answer is checked after its pass (see ``checks.py``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the details (environment,
sample counts, percentiles, per-pass times, failures).

``--record`` instead runs each request once, cross-checks the answers against
the package's independent routes and stores their digests for the seed in
``expected/<workload>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
TRACE_DIR = BENCH_DIR / "out"
WORKLOADS = ("stratify", "pointcheck", "indexset")

# Machine-speed calibration.  On the shared 2-vCPU virtual machine this
# benchmark was tuned on, speed per cycle swung by 1.5-2x for seconds to
# minutes with its neighbours' load; the steal counter stayed near zero, so
# CPU time slows too and a repeat taken later cannot undo it.  A fixed loop
# of exact rational arithmetic (the package's own kind of work, using none of
# its code) is therefore timed before every request, and every time is scaled
# by REFERENCE_NOMINAL_S over the median loop time measured around it.  Over
# 3-second windows the ratio of request time to loop time varied by 4% (cv)
# where the raw times varied by 23%.  The unscaled figures are in the details.
REFERENCE_TERMS = 700
REFERENCE_NOMINAL_S = 1.8e-3  # the loop's median time on that machine when quiet
REFERENCE_WINDOW = 8  # loop samples on each side of a request used for its scale


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store expected answers for this seed after oracle cross-checks")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import higgsstrata from this checkout's src/, never from elsewhere."""
    init = SRC / "higgsstrata" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a checkout with the package source")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import higgsstrata

    if Path(higgsstrata.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported {higgsstrata.__file__} instead of {init}")
    return higgsstrata


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------- setup


def setup_probe(args) -> None:
    """Child mode: import, build and write the inputs, report, clean up."""
    import_package()
    import workloads

    work = WORK_ROOT / f"probe-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed)
        workloads.materialise(workload, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def reference_loop() -> float:
    """Seconds taken by the fixed calibration loop (see REFERENCE_NOMINAL_S)."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


def scales(reference: list[float]) -> list[float]:
    """Per request, nominal over the median loop time in the window around it."""
    return [
        REFERENCE_NOMINAL_S
        / statistics.median(reference[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW + 1])
        for i in range(len(reference))
    ]


def measure_setup(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until its inputs are ready,
    and the speed scale from calibration loops timed just before."""
    scale = REFERENCE_NOMINAL_S / statistics.median(
        reference_loop() for _ in range(2 * REFERENCE_WINDOW + 1))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return ready - start, scale


# ---------------------------------------------------------------- passes


def run_pass(main, argvs, tracer=None) -> tuple[float, float, list, list]:
    """One closed-loop pass.

    Returns its start and end, (latency, code, out, err, exc) per request and
    the calibration loop time taken just before each request.
    """
    results, reference = [], []
    gc.collect()
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        reference.append(reference_loop())
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = i
        exc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as e:  # an escaped exception is a failed request, not a crash
            code, exc = None, f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        results.append((t1 - t0, code, out.getvalue(), err.getvalue(), exc))
    end = time.perf_counter()
    return start, end, results, reference


def check_pass(workload, results, work_dir: str, first: list, expected) -> list[str | None]:
    """Failure reason per request of one pass (None when the answer is right).

    ``first`` holds, per request, the digest of its first well-formed answer
    and that answer's invariant verdict; later passes must repeat the digest.
    """
    import checks

    reasons = []
    for i, (req, (_, code, out, err, exc)) in enumerate(zip(workload.requests, results)):
        reason = None
        if exc is not None:
            reason = f"escaped exception {exc}"
        elif code != 0:
            reason = f"exit code {code}: {err.strip()[:200]}"
        elif err:
            reason = f"stderr output: {err.strip()[:200]}"
        else:
            try:
                payload, text = checks.canonical(req.kind, out, work_dir)
                dig = checks.digest(text)
                if first[i] is None:
                    errs = checks.invariant_errors(req, payload, work_dir)
                    first[i] = (dig, "; ".join(errs) or None)
                if dig != first[i][0]:
                    reason = "answer differs from the first pass"
                else:
                    reason = first[i][1]
                if reason is None and expected is not None:
                    want = expected["answers"].get(req.key)
                    if want != [0, dig]:
                        reason = "answer differs from the recorded expectation"
            except (ValueError, KeyError, TypeError, IndexError, OSError) as e:
                reason = f"malformed answer: {type(e).__name__}: {e}"
        reasons.append(None if reason is None else f"{req.key} ({req.kind}): {reason}")
    return reasons


def nearest_rank(samples: list[float], pct: float) -> float:
    ordered = sorted(samples)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * pct // 100) - 1))
    return ordered[int(k)]


# ------------------------------------------------------------------ main


def record(args, workload, argvs, main, work_dir: str) -> int:
    import checks

    problems = []
    answers = {}
    for req, argv in zip(workload.requests, argvs):
        _, _, [(_, code, out, err, exc)], _ = run_pass(main, [argv])
        if exc or code != 0 or err:
            problems.append(f"{req.key}: exit {code} {exc or err.strip()}")
            continue
        payload, text = checks.canonical(req.kind, out, work_dir)
        errs = checks.invariant_errors(req, payload, work_dir) + checks.oracle_errors(req, payload)
        if errs:
            problems.append(f"{req.key}: {'; '.join(errs)}")
        answers[req.key] = [code, checks.digest(text)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = checks.EXPECTED_DIR / f"{args.workload}.json"
    doc = json.loads(path.read_text()) if path.is_file() else {"workload": args.workload, "seeds": {}}
    doc["seeds"][str(args.seed)] = {"inputs": checks.inputs_digest(workload), "answers": answers}
    path.parent.mkdir(parents=True, exist_ok=True)
    seeds = ",\n".join(
        f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
        for k, v in sorted(doc["seeds"].items(), key=lambda kv: int(kv[0]))
    )
    path.write_text(f'{{\n "workload": {json.dumps(args.workload)},\n "seeds": {{\n{seeds}\n }}\n}}\n')
    print(f"recorded {len(answers)} answers for seed {args.seed} in {path}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    cap_env = os.environ.pop("HIGGSSTRATA_CAP", None)  # it changes the --cap default
    import_package()
    import workloads
    from higgsstrata import cli

    work = WORK_ROOT / f"run-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed)
        argvs = workloads.materialise(workload, work)
        if args.record:
            return record(args, workload, argvs, cli.main, str(work))
        return measure(args, workload, argvs, cli, str(work), cap_env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, argvs, cli, work_dir: str, cap_env) -> int:
    """Passes until the time is up; untraced and traced passes alternate under --trace 1.

    Without tracing, one set-up probe runs after every pass, so that both the
    probes and each request's samples spread over the whole run and a slow
    stretch of the machine touches only a minority of them.
    """
    import checks
    import spans

    expected = checks.load_expected(args.workload, args.seed)
    problems = []
    if expected is not None and expected["inputs"] != checks.inputs_digest(workload):
        problems.append("generated inputs differ from the recorded ones for this seed")
    tracer = None
    if args.trace:
        from higgsstrata import hn_types, linalg, minnorm, point_model, strat_report, svg, weight_lattice

        tracer = spans.Tracer({
            "cli": cli, "strat_report": strat_report, "point_model": point_model,
            "minnorm": minnorm, "linalg": linalg, "hn_types": hn_types,
            "weight_lattice": weight_lattice, "svg": svg,
        })
        traced_main = tracer.wrap("cli.main", cli.main)

    seen = [None] * len(workload.requests)
    walls = {False: [], True: []}
    # Latencies per request, scaled by the machine's speed and as measured.
    samples = {False: [[] for _ in argvs], True: [[] for _ in argvs]}
    raw_samples = {False: [[] for _ in argvs], True: [[] for _ in argvs]}
    setup: list[tuple[float, float]] = []
    attempted = failed = 0
    failures = []
    trace_passes = []
    began = time.perf_counter()
    longest = 0.0
    while True:
        lap = time.perf_counter()
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            first_span = tracer.begin_pass()
            tracer.install()
            try:
                start, end, results, reference = run_pass(traced_main, argvs, tracer)
            finally:
                tracer.uninstall()
            tracer.end_pass(first_span, start, end)
            trace_passes.append(tracer.pass_metrics(len(tracer.passes) - 1))
        else:
            start, end, results, reference = run_pass(cli.main, argvs)
        walls[traced].append(end - start)
        for sample, raw, r, scale in zip(samples[traced], raw_samples[traced], results, scales(reference)):
            sample.append(r[0] * scale)
            raw.append(r[0])
        reasons = check_pass(workload, results, work_dir, seen, expected)
        attempted += len(reasons)
        bad = [r for r in reasons if r is not None]
        failed += len(bad)
        failures.extend(bad[: max(0, 20 - len(failures))])
        if not args.trace:
            setup.append(measure_setup(args))
        now = time.perf_counter()
        longest = max(longest, now - lap)
        if (not args.trace or walls[True]) and now - began + longest > args.seconds:
            break

    # Each request's latency is its median over the untraced passes.
    latency = [statistics.median(s) for s in samples[False]]
    raw_latency = [statistics.median(s) for s in raw_samples[False]]
    pct = workload.tail_percentile
    by_class: dict[str, list[float]] = {}
    for req, value in zip(workload.requests, latency):
        by_class.setdefault(req.label, []).append(value)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "git_commit": git_commit(),
            "higgsstrata_cap_env": cap_env,  # null when unset; removed for the run
        },
        "requests_per_pass": len(argvs),
        "passes": len(walls[False]) + len(walls[True]),
        "pass_wall_s": walls[False],
        "latency_samples": sum(len(s) for s in samples[False]),
        "tail_percentile": pct,
        "latency_by_class_ms": {
            label: {"requests": len(v), "p50": statistics.median(v) * 1000, "max": max(v) * 1000}
            for label, v in sorted(by_class.items())
        },
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "problems": problems,
        "expected_answers": expected is not None,
    }
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        untraced_wall = sum(latency)
        traced_wall = sum(statistics.median(s) for s in samples[True])
        metrics.update(spans.median_metrics(trace_passes))
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1, "ratio")
        metrics["trace.selfcheck_residual_s"] = (
            max(abs(p["check"]["residual_s"]) for p in trace_passes), "s")
        detail["traced_pass_wall_s"] = walls[True]
        detail["self_time_check"] = [p["check"] for p in trace_passes]
        detail["ratio_bases"] = trace_passes[0]["bases"]
        if not all(p["check"]["ok"] for p in trace_passes):
            problems.append("traced self times plus unattributed time do not add up to the wall time")
        spans_file = TRACE_DIR / f"spans-{args.workload}.jsonl.gz"
        tracer.write(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics["setup_s"] = (statistics.median(t * scale for t, scale in setup), "s")
        metrics["wall_s"] = (sum(latency), "s")
        metrics["req_p50_ms"] = (statistics.median(latency) * 1000, "ms")
        metrics["req_tail_ms"] = (nearest_rank(latency, pct) * 1000, "ms")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["success_ratio"] = (1 - failed / attempted, "ratio")
        detail["setup_samples_s"] = [t for t, _ in setup]
        detail["unscaled"] = {
            "setup_s": statistics.median(t for t, _ in setup),
            "wall_s": sum(raw_latency),
            "req_p50_ms": statistics.median(raw_latency) * 1000,
            "req_tail_ms": nearest_rank(raw_latency, pct) * 1000,
        }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
