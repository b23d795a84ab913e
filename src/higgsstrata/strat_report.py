"""Stratum records: partitioning point corpora and cross-validating type tables.

A corpus point is assigned to the unique nonzero candidate instability vector
whose inequality locus contains it; points matching no nonzero candidate fall
into the zero record (their locus conditions are vacuous for the zero vector,
so literal uniqueness can only be asked of the nonzero candidates).  Within a
nonzero record, points on the equality locus form a terminal graded record and
the rest are refined by the unipotent stabiliser dimension.  Closure relations
are reported, never asserted: they are invisible to finitely many points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbiguousMembership, UnclassifiedPoint
from .hn_types import (
    CurveContext,
    FlagShape,
    HNType,
    PolygonOrder,
    compare_polygon,
    enumerate_hn_types,
    first_slope_bound,
    general_first_slope_bound,
    u_tau_candidates,
)
from .point_model import (
    Membership,
    membership,
    unipotent_stabilizer_dim,
    verify_step2,
)
from .weight_lattice import BetaVector, beta_of_type, rational_to_json
from .errors import NonPositiveBlockDimension


@dataclass(frozen=True)
class StratumRecord:
    """One refined stratum: an instability vector plus a stabiliser index.

    ``delta`` is None for the zero record and for the terminal graded record
    of a nonzero vector (flagged by ``graded``).
    """

    beta: BetaVector
    norm_sq: Fraction
    delta: int | None
    graded: bool
    member_ids: tuple

    def to_json(self) -> dict:
        return {
            "beta": self.beta.to_json(),
            "norm_sq": rational_to_json(self.norm_sq),
            "delta": self.delta,
            "graded": self.graded,
            "member_ids": list(self.member_ids),
        }


def default_beta_candidates(
    ctx: CurveContext, max_first_slope=None
) -> list[BetaVector]:
    """Instability vectors of every enumerable type under a slope bound.

    The zero vector enters through the single-block type.  The default bound
    is the general first-slope bound of the semistable type, which covers
    everything the finiteness results allow.
    """
    if max_first_slope is None:
        mu0 = HNType.semistable(ctx.rank, ctx.degree)
        max_first_slope = general_first_slope_bound(mu0, ctx)
    out = []
    for tau in enumerate_hn_types(
        ctx, max_first_slope, min_slope_exclusive=ctx.genus - 1
    ):
        try:
            out.append(beta_of_type(tau, ctx))
        except NonPositiveBlockDimension:
            continue
    return out


def assemble(
    corpus,
    ctx: CurveContext,
    candidates: list[BetaVector] | None = None,
    max_first_slope=None,
) -> list[StratumRecord]:
    """Partition a corpus of (id, point, flag) triples into stratum records.

    Each point must match exactly one nonzero candidate (AmbiguousMembership
    flags an inconsistent candidate list); points matching none go to the
    zero record when the zero vector is among the candidates, else
    UnclassifiedPoint is raised.  Matching a candidate means lying in its
    inequality locus and also passing the blockwise torus
    semistability of the retracted point: the inequality locus alone is not
    disjoint across candidates (a deeper graded point satisfies the locus
    conditions of shallower vectors too), and the semistable part of the
    equality locus is what separates the strata.  Nonzero records are refined
    by stabiliser dimension, with equality-locus points collected in a
    separate terminal graded record.  Records are sorted by norm, then
    stabiliser index, graded records last.
    """
    if candidates is None:
        candidates = default_beta_candidates(ctx, max_first_slope)
    nonzero = [b for b in candidates if not b.is_zero]
    zero = next((b for b in candidates if b.is_zero), None)
    buckets: dict[tuple, list] = {}  # (beta, delta, graded) -> member ids

    for point_id, point, flag in corpus:
        matches = []
        for beta in nonzero:
            got = membership(point, beta, ctx)
            if got is Membership.OUTSIDE:
                continue
            if not verify_step2(point, beta, ctx, lambda_bound=0).passed:
                continue
            matches.append((beta, got))
        if len(matches) > 1:
            raise AmbiguousMembership(point_id, [beta for beta, _ in matches])
        beta, got = matches[0] if matches else (zero, None)
        if beta is None:
            raise UnclassifiedPoint(point_id)
        if got is not Membership.IN_Y_NOT_Z:
            key = (beta, None, got is Membership.IN_Z)
        else:
            flag_shape = flag if isinstance(flag, FlagShape) else FlagShape(tuple(flag))
            if flag_shape.block_sizes != beta.m_blocks:
                raise ValueError(
                    f"corpus flag {flag_shape.block_sizes} does not match the "
                    f"matched vector's blocks {beta.m_blocks} for point {point_id!r}"
                )
            key = (beta, unipotent_stabilizer_dim(point, flag_shape, ctx), False)
        buckets.setdefault(key, []).append(point_id)

    records = [
        StratumRecord(beta, beta.norm_sq, delta, graded, tuple(ids))
        for (beta, delta, graded), ids in buckets.items()
    ]
    records.sort(
        key=lambda rec: (
            rec.norm_sq,
            rec.beta.tau.slope_vector,
            rec.graded,
            rec.delta if rec.delta is not None else -1,
        )
    )
    return records


@dataclass(frozen=True)
class ClosureReportRow:
    tau: HNType
    norm_sq: Fraction
    delta: int | None
    graded: bool
    members: int


@dataclass(frozen=True)
class ClosureReport:
    """Descriptive norm-versus-polygon-order table over assembled records.

    Closure inclusions cannot be certified on a finite corpus, so this report
    carries comparisons only: for each pair of source types, the polygon order
    and the order of the squared norms.
    """

    rows: tuple[ClosureReportRow, ...]
    pairs: tuple[tuple[HNType, HNType, PolygonOrder, str], ...]

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "tau": row.tau.to_json(),
                    "norm_sq": rational_to_json(row.norm_sq),
                    "delta": row.delta,
                    "graded": row.graded,
                    "members": row.members,
                }
                for row in self.rows
            ],
            "pairs": [
                {
                    "tau_a": a.to_json(),
                    "tau_b": b.to_json(),
                    "polygon_order": order.value,
                    "norm_order": norm_order,
                }
                for a, b, order, norm_order in self.pairs
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        out = [["tau", "norm_sq", "delta", "graded", "members"]]
        for row in self.rows:
            out.append(
                [
                    repr(row.tau),
                    str(row.norm_sq),
                    "" if row.delta is None else str(row.delta),
                    str(row.graded),
                    str(row.members),
                ]
            )
        return out


def closure_order_report(records) -> ClosureReport:
    """Records sorted by norm, with the pairwise polygon/norm comparison table."""
    rows = tuple(
        ClosureReportRow(
            rec.beta.tau, rec.norm_sq, rec.delta, rec.graded, len(rec.member_ids)
        )
        for rec in sorted(records, key=lambda r: (r.norm_sq, r.beta.tau.slope_vector))
    )
    seen: list[HNType] = []
    for row in rows:
        if row.tau not in seen:
            seen.append(row.tau)
    pairs = []
    for i, a in enumerate(seen):
        for b in seen[i + 1:]:
            order = compare_polygon(a, b)
            rec_a = next(r for r in rows if r.tau == a)
            rec_b = next(r for r in rows if r.tau == b)
            if rec_a.norm_sq < rec_b.norm_sq:
                norm_order = "Less"
            elif rec_a.norm_sq > rec_b.norm_sq:
                norm_order = "Greater"
            else:
                norm_order = "Equal"
            pairs.append((a, b, order, norm_order))
    return ClosureReport(rows, tuple(pairs))


@dataclass(frozen=True)
class CompatRow:
    rank: int
    degree: int
    deg_line: int
    tau: HNType
    mu: HNType
    consistent: bool


@dataclass(frozen=True)
class CompatReport:
    rows: tuple[CompatRow, ...]
    violations: tuple[CompatRow, ...]

    @property
    def checked(self) -> int:
        return len(self.rows)

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "violations": [
                {
                    "rank": v.rank,
                    "degree": v.degree,
                    "deg_line": v.deg_line,
                    "tau": v.tau.to_json(),
                    "mu": v.mu.to_json(),
                }
                for v in self.violations
            ],
        }


def compat_cross_table(
    base_ctx: CurveContext, r_max: int, d_range, degL_range
) -> CompatReport:
    """Cross-check the two candidate constructions over finite ranges.

    For every underlying type tau in range and every Higgs candidate mu of
    tau, tau must reappear among mu's own underlying-type candidates; rows
    record each check and violations collect the failures (expected empty).
    """
    rows: list[CompatRow] = []
    violations: list[CompatRow] = []
    for r in range(1, r_max + 1):
        for d in d_range:
            for deg_line in degL_range:
                ctx = CurveContext(
                    r, d, base_ctx.genus, deg_line, base_ctx.npoints
                )
                tau_bound = general_first_slope_bound(
                    HNType.semistable(r, d), ctx
                )
                for tau in enumerate_hn_types(ctx, tau_bound):
                    for mu in u_tau_candidates(tau, ctx):
                        ok = tau.top_slope <= first_slope_bound(mu, ctx)
                        row = CompatRow(r, d, deg_line, tau, mu, ok)
                        rows.append(row)
                        if not ok:
                            violations.append(row)
    return CompatReport(tuple(rows), tuple(violations))
