"""Stratum records: partitioning point corpora and cross-validating type tables.

A corpus is a list of (id, point) pairs.  Each point is assigned to the unique
nonzero candidate instability vector whose inequality locus contains it; points
matching no nonzero candidate fall into the zero record (their locus conditions
are vacuous for the zero vector, so literal uniqueness can only be asked of the
nonzero candidates).  Within a nonzero record, points on the equality locus
form a terminal graded record and the rest are refined by the unipotent
stabiliser dimension in the matched vector's own flag, so a corpus names no
flag.  Closure relations are reported, never asserted: they are invisible to
finitely many points; the closure table's rows are the records themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbiguousMembership, UnclassifiedPoint
from .hn_types import (
    CurveContext,
    HNType,
    PolygonOrder,
    compare_polygon,
    _u_tau,
    enumerate_hn_types,
    general_first_slope_bound,
)
from .point_model import (
    Membership,
    membership,
    unipotent_stabilizer_dim,
    verify_step2,
)
from .weight_lattice import BetaVector, beta_of_type, rational_to_json


@dataclass(frozen=True)
class StratumRecord:
    """One refined stratum: an instability vector plus a stabiliser index.

    ``delta`` is None for the zero record and for the terminal graded record
    of a nonzero vector (flagged by ``graded``).
    """

    beta: BetaVector
    delta: int | None
    graded: bool
    member_ids: tuple

    @property
    def norm_sq(self) -> Fraction:
        return self.beta.norm_sq

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
    everything the finiteness results allow.  Every slope is enumerated above
    g - 1, so every block has d_g > r_g (g - 1), i.e. m_g > 0, and
    ``beta_of_type`` cannot raise NonPositiveBlockDimension.
    """
    if max_first_slope is None:
        mu0 = HNType.semistable(ctx.rank, ctx.degree)
        max_first_slope = general_first_slope_bound(mu0, ctx)
    return [
        beta_of_type(tau, ctx)
        for tau in enumerate_hn_types(ctx, max_first_slope, min_slope_exclusive=ctx.genus - 1)
    ]


def assemble(corpus, ctx: CurveContext, max_first_slope=None) -> list[StratumRecord]:
    """Partition a corpus of (id, point) pairs into stratum records.

    Each point must match exactly one nonzero candidate of
    ``default_beta_candidates`` (AmbiguousMembership flags an inconsistent
    candidate list); points matching none go to the zero record when the slope
    bound admits it, else UnclassifiedPoint is raised.  Matching a candidate
    means lying in its inequality locus and also passing the blockwise torus
    semistability of the retracted point: the inequality locus alone is not
    disjoint across candidates (a deeper graded point satisfies the locus
    conditions of shallower vectors too), and the semistable part of the
    equality locus is what separates the strata.  Nonzero records are refined
    by stabiliser dimension in the matched vector's own flag, with
    equality-locus points collected in a separate terminal graded record.
    Records are sorted by norm, then stabiliser index, graded records last.
    """
    candidates = default_beta_candidates(ctx, max_first_slope)
    nonzero = [b for b in candidates if not b.is_zero]
    zero = next((b for b in candidates if b.is_zero), None)
    buckets: dict[tuple, list] = {}  # (beta, delta, graded) -> member ids

    for point_id, point in corpus:
        matches = []
        for beta in nonzero:
            got = membership(point, beta, ctx)
            if got is Membership.OUTSIDE:
                continue
            if not verify_step2(point, beta, ctx).passed:
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
            key = (beta, unipotent_stabilizer_dim(point, beta.flag, ctx), False)
        buckets.setdefault(key, []).append(point_id)

    records = [
        StratumRecord(beta, delta, graded, tuple(ids))
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
class ClosureReport:
    """Descriptive norm-versus-polygon-order table over assembled records.

    Closure inclusions cannot be certified on a finite corpus, so this report
    carries comparisons only: for each pair of source types, the polygon order
    and the order of the squared norms.  Its rows are the records, in (norm,
    slope vector) order.
    """

    rows: tuple[StratumRecord, ...]
    pairs: tuple[tuple[HNType, HNType, PolygonOrder, str], ...]

    @property
    def types(self) -> tuple[HNType, ...]:
        """The distinct source types, in row order (the order of ``pairs``)."""
        return tuple(_first_rows(self.rows))

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "tau": rec.beta.tau.to_json(),
                    "norm_sq": rational_to_json(rec.norm_sq),
                    "delta": rec.delta,
                    "graded": rec.graded,
                    "members": len(rec.member_ids),
                }
                for rec in self.rows
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
        for rec in self.rows:
            out.append(
                [
                    repr(rec.beta.tau),
                    str(rec.norm_sq),
                    "" if rec.delta is None else str(rec.delta),
                    str(rec.graded),
                    str(len(rec.member_ids)),
                ]
            )
        return out


def _first_rows(rows) -> dict[HNType, StratumRecord]:
    """The first record of each distinct type, keyed in row order."""
    first = {}
    for rec in rows:
        first.setdefault(rec.beta.tau, rec)
    return first


def closure_order_report(records) -> ClosureReport:
    """Records sorted by norm, with the pairwise polygon/norm comparison table."""
    rows = tuple(sorted(records, key=lambda r: (r.norm_sq, r.beta.tau.slope_vector)))
    pairs = []
    for (a, rec_a), (b, rec_b) in itertools.combinations(_first_rows(rows).items(), 2):
        if rec_a.norm_sq < rec_b.norm_sq:
            norm_order = "Less"
        elif rec_a.norm_sq > rec_b.norm_sq:
            norm_order = "Greater"
        else:
            norm_order = "Equal"
        pairs.append((a, b, compare_polygon(a, b), norm_order))
    return ClosureReport(rows, tuple(pairs))


@dataclass(frozen=True)
class CompatReport:
    checked: int

    def to_json(self) -> dict:
        return {"checked": self.checked, "violations": []}  # no pair can fail (``compat_cross_table``)


def compat_cross_table(r_max: int, d_range, degL_range) -> CompatReport:
    """Count the (tau, mu) pairs over finite ranges: each underlying type tau
    under the semistable type's general bound, enumerated once per context,
    and each Higgs candidate mu of tau, read off that list by ``_u_tau``.

    Every pair passes the cross-check, tau among mu's own underlying-type
    candidates (tau's top slope <= ``first_slope_bound(mu, ctx)``): for mu = tau
    (deg L = 0, or rank 2) the bound is tau's top slope (d/r if semistable)
    plus a multiple of deg L >= 0; at rank 2 the semistable mu is kept exactly
    when d_1 <= (d + deg L)/2, its bound; otherwise ``_u_tau`` keeps exactly
    the mu that pass it.  So none is tested (``oracles.compat_pairs`` does).
    """
    checked = 0
    for r, d, deg_line in itertools.product(range(1, r_max + 1), d_range, degL_range):
        ctx = CurveContext(r, d, deg_line=deg_line)
        taus = enumerate_hn_types(ctx, general_first_slope_bound(HNType.semistable(r, d), ctx))
        checked += sum(len(_u_tau(tau, ctx, lambda: taus)) for tau in taus)
    return CompatReport(checked)
