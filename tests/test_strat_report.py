"""Stratum assembly, closure reports, candidate cross-tables."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import build_flagged_point, count_calls
from higgsstrata import point_model
from higgsstrata.oracles import compat_pairs
from higgsstrata import (
    CurveContext,
    Factor,
    FlagShape,
    HNType,
    Membership,
    ModelPoint,
    PolygonOrder,
    UnclassifiedPoint,
    assemble,
    beta_of_type,
    closure_order_report,
    compare_polygon,
    compat_cross_table,
    default_beta_candidates,
    enumerate_hn_types,
    general_first_slope_bound,
    membership,
    u_tau_candidates,
    unipotent_stabilizer_dim,
)

CTX = CurveContext(2, 7, genus=2, npoints=1)  # m = 5
TAU43 = HNType(((1, 4), (1, 3)))
TAU52 = HNType(((1, 5), (1, 2)))


def flagged_point(m1: int, phi) -> ModelPoint:
    y = [[1] * m1 + [0] * (5 - m1), [0] * m1 + [1] * (5 - m1)]
    return ModelPoint((Factor(y, 1, phi),))


def mixed_corpus():
    return [
        ("g43", flagged_point(3, [[2, 0], [0, 3]])),
        ("f43a", flagged_point(3, [[2, 0], [5, 3]])),
        ("f43b", flagged_point(3, [[1, 0], [1, 1]])),
        ("g52", flagged_point(4, [[2, 0], [0, 3]])),
        ("f52", flagged_point(4, [[2, 0], [5, 3]])),
        ("ss", ModelPoint((Factor([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], 1, [[1, 2], [3, 4]]),))),
    ]


class TestAssemble:
    def test_empty_corpus(self):
        assert assemble([], CTX, max_first_slope=5) == []

    def test_one_walk_per_point_and_beta(self):
        # step 2's NotInY guard on an in-locus (point, beta) reads the walk
        # that assemble's ``membership`` call has just made
        corpus = mixed_corpus()
        nonzero = [b for b in default_beta_candidates(CTX, 5) if not b.is_zero]
        walks, calls, step2 = count_calls(
            lambda: assemble(corpus, CTX, max_first_slope=5),
            point_model._family_min_max, point_model.membership, point_model.verify_step2,
        )
        # each step 2 makes one ``membership`` call of its own, which walks nothing
        assert walks == len(corpus) * len(nonzero) and calls == walks + step2 and step2 > 0

    def test_single_type_corpus_delta_partitioned(self):
        rng = random.Random(12)
        corpus = [
            (f"p{i}", build_flagged_point(TAU43, CTX, rng, general_position=True))
            for i in range(6)
        ]
        records = assemble(corpus, CTX, max_first_slope=5)
        assert all(rec.beta.tau == TAU43 for rec in records)
        ids = sorted(x for rec in records for x in rec.member_ids)
        assert ids == sorted(c[0] for c in corpus)

    def test_mixed_corpus_partition_and_order(self):
        records = assemble(mixed_corpus(), CTX, max_first_slope=5)
        # true partition
        ids = [x for rec in records for x in rec.member_ids]
        assert sorted(ids) == sorted(c[0] for c in mixed_corpus())
        assert len(ids) == len(set(ids))
        # norm-sorted with the zero record first
        norms = [rec.norm_sq for rec in records]
        assert norms == sorted(norms)
        assert records[0].norm_sq == 0 and records[0].member_ids == ("ss",)
        # delta present only for nonzero non-graded records
        for rec in records:
            if rec.beta.is_zero or rec.graded:
                assert rec.delta is None
            else:
                assert rec.delta is not None

    def test_delta_matches_recomputation(self):
        records = assemble(mixed_corpus(), CTX, max_first_slope=5)
        by_id = dict(mixed_corpus())
        for rec in records:
            if rec.delta is None:
                continue
            flag = FlagShape(rec.beta.m_blocks)
            for pid in rec.member_ids:
                assert unipotent_stabilizer_dim(by_id[pid], flag, CTX) == rec.delta

    def test_ambiguity_without_block_semistability_filter(self):
        # the deeper graded point also lies in the shallower inequality locus,
        # so the inequality loci alone do not separate the strata; the torus
        # filter in assemble places it in the deeper graded record only
        _, g52 = mixed_corpus()[3]
        assert membership(g52, beta_of_type(TAU43, CTX), CTX) is not Membership.OUTSIDE
        assert membership(g52, beta_of_type(TAU52, CTX), CTX) is Membership.IN_Z
        records = assemble(mixed_corpus(), CTX, max_first_slope=5)
        (home,) = [rec for rec in records if "g52" in rec.member_ids]
        assert home.beta.tau == TAU52 and home.graded

    def test_unclassified_without_zero_candidate(self):
        # a slope bound below the semistable slope 7/2 admits no type at all
        assert default_beta_candidates(CTX, 3) == []
        with pytest.raises(UnclassifiedPoint):
            assemble([mixed_corpus()[5]], CTX, max_first_slope=3)


class TestClosureReport:
    def test_single_record(self):
        rng = random.Random(1)
        corpus = [("p0", build_flagged_point(TAU43, CTX, rng, graded=True))]
        report = closure_order_report(assemble(corpus, CTX, max_first_slope=5))
        assert len(report.rows) == 1 and not report.pairs

    def test_norm_and_polygon_orders(self):
        report = closure_order_report(assemble(mixed_corpus(), CTX, max_first_slope=5))
        norms = [row.norm_sq for row in report.rows]
        assert norms == sorted(norms)
        assert norms[0] == 0
        for a, b, order, norm_order in report.pairs:
            assert order is compare_polygon(a, b)
        # at rank 2 the polygon order and the norm order agree strictly
        pair = next(
            (x for x in report.pairs if not x[0].is_semistable and not x[1].is_semistable),
            None,
        )
        assert pair is not None
        assert (pair[2], pair[3]) in {
            (PolygonOrder.LESS, "Less"),
            (PolygonOrder.GREATER, "Greater"),
        }

    def test_pairs_follow_the_distinct_types_in_row_order(self):
        report = closure_order_report(assemble(mixed_corpus(), CTX, max_first_slope=5))
        types = []
        for row in report.rows:
            if row.beta.tau not in types:
                types.append(row.beta.tau)
        assert len(report.rows) > len(types) >= 3  # several records of one type
        assert report.types == tuple(types)
        assert [(a, b) for a, b, _, _ in report.pairs] == list(itertools.combinations(types, 2))

    def test_serialisation(self):
        records = assemble(mixed_corpus(), CTX, max_first_slope=5)
        report = closure_order_report(records)
        assert sorted(map(id, report.rows)) == sorted(map(id, records))  # the rows are the records
        data = report.to_json()
        assert len(data["rows"]) == len(report.rows)
        csv_rows = report.to_csv_rows()
        assert csv_rows[0][0] == "tau" and len(csv_rows) == len(report.rows) + 1


class TestCompat:
    def test_rank_two_no_violations(self):
        # none can fail, so the report keeps only its count; the pair oracle re-tests each pair
        checked, violations = compat_pairs(2, range(1, 13), range(0, 3))
        assert violations == ()
        assert compat_cross_table(2, range(1, 13), range(0, 3)).checked == checked > 0

    @staticmethod
    def _pairs(r_max, d_range, degL_range):
        """The (tau, mu) pairs ``compat_cross_table`` checks over these ranges."""
        for r, d, deg_line in itertools.product(range(1, r_max + 1), d_range, degL_range):
            ctx = CurveContext(r, d, deg_line=deg_line)
            for tau in enumerate_hn_types(ctx, general_first_slope_bound(HNType.semistable(r, d), ctx)):
                for mu in u_tau_candidates(tau, ctx):
                    yield tau, mu

    def test_degl_zero_identity_pairing(self):
        pairs = list(self._pairs(3, range(1, 7), range(0, 1)))
        assert pairs and all(mu.blocks == tau.blocks for tau, mu in pairs)
        assert compat_cross_table(3, range(1, 7), range(0, 1)).checked == len(pairs)

    def test_rank_one_single_cell(self):
        pairs = list(self._pairs(1, range(3, 4), range(0, 2)))
        assert pairs and all(tau.is_semistable and mu.is_semistable for tau, mu in pairs)
        assert compat_cross_table(1, range(3, 4), range(0, 2)).checked == len(pairs)

    def test_count_matches_pair_oracle(self):
        # AC10's ranges: every pair re-tested by the literal route, none failing
        checked, violations = compat_pairs(3, range(1, 13), range(0, 3))
        assert violations == ()
        assert compat_cross_table(3, range(1, 13), range(0, 3)).checked == checked == 3244

    def test_rank_four_count(self):
        # the count of the pair-by-pair route at these ranges
        assert compat_cross_table(4, range(1, 13), range(0, 3)).checked == 614986

    def test_bound_test_matches_literal_membership(self):
        # the table uses the slope-bound form; spot-check it against literal
        # candidate membership
        from higgsstrata import t_mu_candidates

        ctx = CurveContext(3, 8, genus=0, deg_line=2)
        for tau in list(u_tau_candidates(HNType(((1, 4), (2, 4))), ctx)):
            assert tau in t_mu_candidates(tau, ctx)  # tau always reappears among its own candidates


class TestDefaultCandidates:
    def test_contains_zero_and_matches_types(self):
        cands = default_beta_candidates(CTX, 5)
        assert any(c.is_zero for c in cands)
        taus = {c.tau for c in cands}
        assert TAU43 in taus and TAU52 in taus

    def test_floor_keeps_exactly_the_types_with_positive_blocks(self):
        # slopes above g - 1 are the types whose every block has m_g > 0, so
        # beta_of_type raises for none of the candidates
        for r, d, g, degl in itertools.product(range(1, 4), range(-3, 13), range(4), range(3)):
            ctx = CurveContext(r, d, genus=g, deg_line=degl)
            bound = general_first_slope_bound(HNType.semistable(r, d), ctx)
            floored = enumerate_hn_types(ctx, bound, min_slope_exclusive=g - 1)
            positive = [
                tau for tau in enumerate_hn_types(ctx, bound)
                if all(d_g + r_g * (1 - g) > 0 for r_g, d_g in tau.blocks)
            ]
            assert floored == positive
            assert [beta.tau for beta in default_beta_candidates(ctx)] == floored
