"""Seeded inputs and fixed request lists for the three benchmark workloads.

Every input is built from ``random.Random(seed)`` with the standard-position,
flag-adapted construction: y is block upper triangular over (image blocks) x
(section blocks) with full-row-rank diagonal blocks, and the stored Higgs
matrix is block lower triangular.  Graded points keep only the diagonal
blocks.  The program sees nothing but argv strings and the JSON files written
here, exactly as a user of the ``higgsstrata`` command would.

The structure of each request list (which verb, which context, which type)
is fixed; the seed only changes matrix entries and sub-cloud choices, so
every seed asks for the same kind and amount of work.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from higgsstrata import (
    CurveContext,
    Factor,
    HiggsDatum,
    HNType,
    ModelPoint,
    beta_of_type,
    enumerate_coordinate_indices,
    enumerate_hn_types,
    from_higgs_data,
)
from higgsstrata.errors import NonPositiveBlockDimension
from higgsstrata.linalg import det, rank
from higgsstrata.weight_lattice import alpha_of_index

# Placeholder for the per-process work directory inside recorded argv and
# output, so that digests do not depend on where the benchmark runs.
WORK = "<work>"


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what the answer checks need to know about it."""

    key: str
    kind: str  # report | stabdim | point-check | index-set
    argv: tuple[str, ...]
    meta: dict
    label: str  # request class, for per-class latency summaries


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[Request, ...]
    files: dict  # relative file name -> JSON text, written before timing

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile with at least ten requests of one pass beyond it."""
        n = len(self.requests)
        return max(p for p in range(0, 100) if (100 - p) * n >= 1000)


# ---------------------------------------------------------------- points


def _random_block(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    """Full-row-rank rows x cols block over small integers, all maximal minors nonzero."""
    while True:
        block = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        if rank(tuple(map(tuple, block))) != rows:
            continue
        if all(
            det(tuple(tuple(row[c] for c in cs) for row in block))
            for cs in itertools.combinations(range(cols), rows)
        ):
            return block


def flagged_point(tau: HNType, ctx: CurveContext, rng: random.Random, graded: bool) -> ModelPoint:
    """A general-position point presenting a pair of type ``tau``, validated."""
    beta = beta_of_type(tau, ctx)
    r, m = ctx.rank, beta.m
    blocks, row0, col0 = [], 0, 0
    for (r_g, _), m_g in zip(tau.blocks, beta.m_blocks):
        blocks.append((row0, col0, r_g, m_g))
        row0 += r_g
        col0 += m_g
    factors = []
    for _ in range(ctx.npoints):
        y = [[Fraction(0)] * m for _ in range(r)]
        phi = [[Fraction(0)] * r for _ in range(r)]
        for bi, (row0, col0, r_g, m_g) in enumerate(blocks):
            diag = _random_block(rng, r_g, m_g)
            for a in range(r_g):
                y[row0 + a][col0:col0 + m_g] = diag[a]
                for b in range(r_g):
                    phi[row0 + a][row0 + b] = Fraction(rng.randint(-2, 2))
            if graded:
                continue
            for row2, col2, r2, m2 in blocks[bi + 1:]:
                for a in range(r_g):
                    for b in range(m2):
                        y[row0 + a][col2 + b] = Fraction(rng.randint(-2, 2))
                # stored strictly lower blocks: rows in the later image block
                for a in range(r2):
                    for b in range(r_g):
                        phi[row2 + a][row0 + b] = Fraction(rng.randint(-2, 2))
        factors.append(Factor(y, Fraction(1), phi))
    return from_higgs_data(HiggsDatum(tau, ctx, tuple(factors)))


def semistable_point(ctx: CurveContext, rng: random.Random) -> ModelPoint:
    """A point with every maximal minor nonzero: outside every nonzero locus."""
    m = ctx.sections_dim
    factors = []
    for _ in range(ctx.npoints):
        y = _random_block(rng, ctx.rank, m)
        phi = [[Fraction(rng.randint(-2, 2)) for _ in range(ctx.rank)] for _ in range(ctx.rank)]
        factors.append(Factor(y, Fraction(1), phi))
    return ModelPoint(tuple(factors))


def candidate_types(ctx: CurveContext) -> list[HNType]:
    """Types whose instability vector the matrix model supports, semistable first."""
    out = []
    for tau in enumerate_hn_types(
        ctx, ctx.degree + ctx.rank, min_slope_exclusive=ctx.genus - 1
    ):
        try:
            beta_of_type(tau, ctx)
        except NonPositiveBlockDimension:
            continue
        out.append(tau)
    out.sort(key=lambda t: (not t.is_semistable, t.slope_vector))
    return out


def model_supported(tau: HNType, ctx: CurveContext) -> bool:
    """Whether every block has at least as many sections as its rank.

    The standard-position evaluation map of a block is surjective only when
    m_g >= r_g, so points of the type can be built only then.
    """
    return all(d + r * (1 - ctx.genus) >= r for r, d in tau.blocks)


def _ctx_flags(ctx: CurveContext) -> list[str]:
    return [
        "--rank", str(ctx.rank), "--degree", str(ctx.degree),
        "--genus", str(ctx.genus), "--npoints", str(ctx.npoints),
    ]


def _type_flags(tau: HNType) -> list[str]:
    return [
        "--tau", ",".join(str(d) for _, d in tau.blocks),
        "--ranks", ",".join(str(r) for r, _ in tau.blocks),
    ]


def _point_text(point: ModelPoint) -> str:
    return json.dumps(point.to_json(), sort_keys=True, separators=(",", ":"))


def _type_label(tau: HNType) -> str:
    return "/".join(f"{r}.{d}" for r, d in tau.blocks)


# ------------------------------------------------------------- workloads


def _stratify(rng: random.Random) -> tuple[list[Request], dict]:
    """report corpora and single-point stabdim at (r,d,g) = (2,7,2), N = 1 and 2.

    Per pass: two N=1 corpora and one N=2 corpus (graded and generic points of
    both unstable types plus one semistable point each), 24 stabdim requests
    at N=1 alternating the two unstable types, and 12 at N=2 on the
    (1,5),(1,2) type, whose cost varies least from point to point.  Those
    twelve set the tail; there are enough of them that the tail percentile
    falls inside their class.
    """
    requests: list[Request] = []
    files: dict[str, str] = {}
    plan = [(1, "report")] * 2 + [(2, "report")]
    plan += [(1, "stabdim")] * 24 + [(2, "stabdim")] * 12
    rng.shuffle(plan)
    contexts = {n: CurveContext(2, 7, genus=2, npoints=n) for n in (1, 2)}
    unstable = {
        n: [t for t in candidate_types(c) if not t.is_semistable and model_supported(t, c)]
        for n, c in contexts.items()
    }
    stabdims = {1: 0, 2: 0}  # stabdim requests so far per point count
    for i, (n, kind) in enumerate(plan):
        ctx = contexts[n]
        key = f"r{i:03d}"
        if kind == "report":
            entries, expect = [], {}
            for tau in unstable[n]:
                flag = list(beta_of_type(tau, ctx).m_blocks)
                for graded in (True, False):
                    pid = f"{_type_label(tau)}-{'graded' if graded else 'generic'}"
                    point = flagged_point(tau, ctx, rng, graded)
                    entries.append({"id": pid, "point": point.to_json(), "flag": flag})
                    expect[pid] = (tau.blocks, graded)
            entries.append(
                {"id": "semistable", "point": semistable_point(ctx, rng).to_json(), "flag": [ctx.sections_dim]}
            )
            expect["semistable"] = None
            corpus = f"{key}-corpus.json"
            files[corpus] = json.dumps({"points": entries}, sort_keys=True)
            argv = ["report", *_ctx_flags(ctx), "--corpus-file", f"{WORK}/{corpus}",
                    "--max-slope", "5", "--out-prefix", f"{WORK}/{key}-out", "--svg", "--json"]
            requests.append(Request(key, kind, tuple(argv), {"members": expect}, f"report N={n}"))
        else:
            choices = unstable[n] if n == 1 else [t for t in unstable[n] if t.blocks == ((1, 5), (1, 2))]
            tau = choices[stabdims[n] % len(choices)]
            stabdims[n] += 1
            beta = beta_of_type(tau, ctx)
            point = flagged_point(tau, ctx, rng, graded=False)
            argv = ["stabdim", *_ctx_flags(ctx), "--blocks", ",".join(map(str, beta.m_blocks)),
                    "--point", _point_text(point), "--json"]
            positions = sum(a * b for a, b in itertools.combinations(beta.m_blocks, 2))
            requests.append(Request(key, kind, tuple(argv), {"positions": positions},
                                    f"stabdim N={n}"))
    return requests, files


def _pointcheck(rng: random.Random) -> tuple[list[Request], dict]:
    """point-check of seeded points against every candidate type of their context.

    Per pass: two generic points of each of the six buildable unstable types
    at (3,10,2) N=1 and a graded and a generic point of each of the two
    unstable types at (2,7,2) N=2, each checked against every candidate
    type.  Only the point's own type gets ``--step2``: step 2 on a point
    outside the locus exits 1 with NotInY by contract.
    """
    plan = []
    for ctx in (CurveContext(3, 10, genus=2, npoints=1), CurveContext(2, 7, genus=2, npoints=2)):
        types = candidate_types(ctx)
        unstable = [t for t in types if not t.is_semistable and model_supported(t, ctx)]
        gradings = (False, False) if ctx.npoints == 1 else (True, False)
        for own in unstable:
            for graded in gradings:
                plan.append((ctx, types, own, graded))
    jobs = []
    for ctx, types, own, graded in plan:
        point = _point_text(flagged_point(own, ctx, rng, graded))
        for tau in types:
            jobs.append((ctx, point, own, graded, tau))
    rng.shuffle(jobs)
    requests = []
    for i, (ctx, point, own, graded, tau) in enumerate(jobs):
        argv = ["point-check", "--point", point, *_type_flags(tau),
                "--genus", str(ctx.genus), "--npoints", str(ctx.npoints)]
        if tau == own:
            argv.append("--step2")
        argv.append("--json")
        meta = {"own": tau == own, "graded": graded, "semistable_type": tau.is_semistable}
        label = f"point-check ({ctx.rank},{ctx.degree},{ctx.genus}) N={ctx.npoints} {'step2' if tau == own else 'step1'}"
        requests.append(Request(f"r{i:03d}", "point-check", tuple(argv), meta, label))
    return requests, {}


LATTICES = ((2, 2, 1), (2, 1, 2))  # (r, d, N) at genus 0: 10 weights in Q^4, 15 in Q^3
SUBCLOUD_SIZES = (6,) * 6 + (7,) * 14 + (8,) * 2


def weight_lattice_points(r: int, d: int, n: int) -> list[tuple[Fraction, ...]]:
    ctx = CurveContext(r, d, genus=0, npoints=n)
    return sorted({alpha_of_index(idx, ctx) for idx in enumerate_coordinate_indices(ctx)})


def _indexset(rng: random.Random) -> tuple[list[Request], dict]:
    """index-set on seeded sub-clouds of two genus-0 weight lattices.

    Per pass and lattice: six 6-weight, fourteen 7-weight and two 8-weight
    sub-clouds.  Work doubles with each added weight (every support is
    solved), so the fixed size mix keeps the amount of work per seed even.
    Clouds of one size still differ in cost by a third or more, so the median
    and tail percentiles are placed inside the large 7-weight class, where a
    seed's sample of clouds moves them least.  9-weight clouds (0.4-0.6 s
    each) are left out: they halved the passes per run.
    """
    jobs = []
    for lattice in LATTICES:
        weights = weight_lattice_points(*lattice)
        for size in SUBCLOUD_SIZES:
            jobs.append((lattice, sorted(rng.sample(weights, size))))
    rng.shuffle(jobs)
    requests = []
    for i, (lattice, cloud) in enumerate(jobs):
        text = json.dumps([[str(x) for x in w] for w in cloud], separators=(",", ":"))
        argv = ("index-set", "--points", text, "--json")
        label = f"index-set {lattice} {len(cloud)} weights"
        requests.append(Request(f"r{i:03d}", "index-set", argv, {}, label))
    return requests, {}


BUILDERS = {"stratify": _stratify, "pointcheck": _pointcheck, "indexset": _indexset}


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    requests, files = BUILDERS[name](rng)
    return Workload(name, tuple(requests), files)


def materialise(workload: Workload, work_dir: Path) -> list[list[str]]:
    """Write the workload's input files and return argv lists with real paths."""
    work_dir.mkdir(parents=True, exist_ok=True)
    for rel, text in workload.files.items():
        (work_dir / rel).write_text(text, encoding="utf-8")
    return [[a.replace(WORK, str(work_dir)) for a in req.argv] for req in workload.requests]
