"""Instability vectors, torus weights, pairings, fibre weights."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsstrata import (
    AmbientMismatch,
    BetaVector,
    CapExceeded,
    CoordinateIndex,
    CurveContext,
    HNType,
    NonPositiveBlockDimension,
    alpha_of_index,
    bb_weights,
    beta_of_type,
    coordinate_index_count,
    enumerate_coordinate_indices,
    enumerate_hn_types,
    grading_one_parameter_subgroup,
    norm_sq,
    pairing,
    step2_trace_identity,
)
from higgsstrata.linalg import clear_denominators, frac
from higgsstrata.weight_lattice import rational_to_json


class TestBeta:
    def test_semistable_is_zero(self):
        ctx = CurveContext(2, 8, genus=2)
        assert beta_of_type(HNType(((2, 8),)), ctx).is_zero

    def test_hand_example_five_three(self):
        ctx = CurveContext(2, 8, genus=2, npoints=1)
        beta = beta_of_type(HNType(((1, 5), (1, 3))), ctx)
        assert beta.entries == (F(1, 12),) * 4 + (F(-1, 6),) * 2
        assert sum(beta.entries) == 0

    def test_hand_example_four_three(self):
        ctx = CurveContext(2, 7, genus=2, npoints=1)
        beta = beta_of_type(HNType(((1, 4), (1, 3))), ctx)
        assert beta.entries == (F(1, 15),) * 3 + (F(-1, 10),) * 2
        assert beta.norm_sq == F(1, 30)

    @pytest.mark.parametrize("rank, degree", [(3, 5), (2, 6), (2, 8)])
    def test_refuses_a_type_of_another_ambient(self, rank, degree):
        # as the candidate tables do: the context's (rank, degree) is the type's
        tau = HNType(((1, 5), (1, 2)))
        with pytest.raises(AmbientMismatch, match=r"^type does not match the context's \(rank, degree\)$"):
            beta_of_type(tau, CurveContext(rank, degree))
        assert beta_of_type(tau, CurveContext(2, 7)).m_blocks == (6, 3)

    def test_nonpositive_block_dimension(self):
        ctx = CurveContext(2, -1, genus=2)
        with pytest.raises(NonPositiveBlockDimension) as exc:
            beta_of_type(HNType(((1, 0), (1, -1))), ctx)
        assert exc.value.block_index == 1
        # the first block with m_g <= 0 is named: m = (2, 0) at genus 0 and
        # (1, -1) at genus 1, the second block only
        for genus in (0, 1):
            with pytest.raises(NonPositiveBlockDimension) as exc:
                BetaVector(HNType(((1, 1), (1, -1))), genus, 1)
            assert (exc.value.block_index, exc.value.dimension) == (2, -genus)

    # refused by name before any other check: (1, 0), (1, -1) has m_1 <= 0
    # at genus 2, a one-block type built a beta at any count, and two blocks
    # at npoints 0 would build the zero beta, every k_g being 0
    BAD_CONTEXT_TYPES = [HNType(((1, 0), (1, -1))), HNType(((2, 7),)), HNType(((1, 4), (1, 3)))]

    @pytest.mark.parametrize("genus", [-1, -3])
    def test_refuses_a_negative_genus(self, genus):
        for tau in self.BAD_CONTEXT_TYPES:
            with pytest.raises(ValueError, match=r"^genus must be >= 0$"):
                BetaVector(tau, genus, 1)

    @pytest.mark.parametrize("npoints", [0, -1])
    def test_refuses_a_point_count_below_one(self, npoints):
        for tau in self.BAD_CONTEXT_TYPES:
            with pytest.raises(ValueError, match=r"^npoints must be >= 1$"):
                BetaVector(tau, 2, npoints)

    @pytest.mark.parametrize(
        "genus,npoints",
        [(0.5, 1), (2.0, 1), (F(2), 1), (2, True), (2, 1.5), (-1, 1.5)],
        ids=["half-genus", "float-genus", "fraction-genus", "bool-npoints", "float-npoints", "before-value"],
    )
    def test_refuses_a_non_int_genus_or_point_count(self, genus, npoints):
        # read as CurveContext reads them, before any other check: 0.5 would
        # build m_blocks (4.5, 3.5), and True or 1.5 a beta at N = 1 or 1.5
        for tau in self.BAD_CONTEXT_TYPES:
            with pytest.raises(TypeError, match=r"^expected an integer, got "):
                BetaVector(tau, genus, npoints)
        with pytest.raises(TypeError):
            CurveContext(2, 7, genus, npoints=npoints)

    def test_genus_refused_before_point_count(self):
        with pytest.raises(ValueError, match=r"^genus must be >= 0$"):
            BetaVector(HNType(((1, 4), (1, 3))), -1, 0)

    def test_built_from_its_type_alone(self):
        tau = HNType(((1, 4), (1, 3)))
        beta = beta_of_type(tau, CurveContext(2, 7, genus=2, npoints=3))
        assert beta == BetaVector(tau, 2, 3) and hash(beta) == hash(BetaVector(tau, 2, 3))
        assert beta != BetaVector(tau, 2, 1)
        # no value can be set apart from the type
        with pytest.raises(TypeError):
            dataclasses.replace(beta, block_values=(F(1, 2), F(-3, 4)))

    def test_trace_zero_and_decreasing_quantified(self):
        for r in (2, 3, 4):
            for g in (0, 1, 3):
                for d in range(r * (2 * g - 1) + 1, r * (2 * g - 1) + 8):
                    ctx = CurveContext(r, d, genus=g, npoints=2)
                    for tau in enumerate_hn_types(
                        ctx, d + r, min_slope_exclusive=g - 1
                    ):
                        beta = beta_of_type(tau, ctx)
                        assert sum(beta.entries) == 0
                        vals = beta.block_values
                        assert all(a > b for a, b in zip(vals, vals[1:]))
                        assert (beta.norm_sq > 0) == (not tau.is_semistable)


class TestAlpha:
    def setup_method(self):
        self.ctx = CurveContext(2, 1, genus=0, npoints=1)  # m = 3

    def test_det_weight(self):
        idx = CoordinateIndex("det", ((1, 2),))
        assert alpha_of_index(idx, self.ctx) == (F(0), F(0), F(1))

    def test_end_weight(self):
        idx = CoordinateIndex("end", ((1, 2),), ((1, 2),))
        assert alpha_of_index(idx, self.ctx) == (F(-1), F(1), F(1))

    def test_two_points_add(self):
        ctx = CurveContext(2, 1, genus=0, npoints=2)
        idx = CoordinateIndex("det", ((1, 2), (1, 2)))
        assert alpha_of_index(idx, ctx) == (F(0), F(0), F(2))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            alpha_of_index(CoordinateIndex("det", ((1, 4),)), self.ctx)
        with pytest.raises(ValueError):
            CoordinateIndex("det", ((1, 2),), ((1, 1),))
        with pytest.raises(ValueError):
            CoordinateIndex("end", ((1, 2),))

    def test_unsorted_subset_refused(self):
        # sorting would move position 1 of the subset from section 2 to
        # section 1 and give weight (-1, 1, 1, 1) at (r, d) = (2, 2)
        with pytest.raises(ValueError, match="strictly increasing"):
            CoordinateIndex("end", ((2, 1),), ((1, 2),))
        with pytest.raises(ValueError, match="strictly increasing"):
            CoordinateIndex("det", ((1, 2), (3, 3)))
        ctx = CurveContext(2, 2, genus=0, npoints=1)  # m = 4
        idx = CoordinateIndex("end", ((1, 2),), ((2, 1),))
        assert alpha_of_index(idx, ctx) == (F(1), F(-1), F(1), F(1))


class TestPairing:
    def test_zero_vector(self):
        assert pairing((F(3), F(5)), (F(0), F(0))) == 0

    def test_equality_case(self):
        ctx = CurveContext(2, 7, genus=2)
        beta = beta_of_type(HNType(((1, 4), (1, 3))), ctx)
        alpha = alpha_of_index(CoordinateIndex("det", ((1, 4),)), ctx)
        assert pairing(alpha, beta) == F(1, 30) == beta.norm_sq

    def test_strict_case(self):
        ctx = CurveContext(2, 7, genus=2)
        beta = beta_of_type(HNType(((1, 4), (1, 3))), ctx)
        alpha = alpha_of_index(CoordinateIndex("det", ((4, 5),)), ctx)
        assert pairing(alpha, beta) == F(1, 5) > beta.norm_sq

    @given(
        data=st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        subset=st.sets(st.integers(1, 4), min_size=2, max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_rewriting_identity(self, data, subset):
        # for trace-zero b: <sum_{l in J} e_l, b> = -<sum_{l not in J} e_l, b>
        b = [F(x) for x in data]
        b[-1] = -sum(b[:-1])
        inside = sum(b[l - 1] for l in subset)
        outside = sum(b[l - 1] for l in range(1, 5) if l not in subset)
        assert inside == -outside

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pairing((F(1),), (F(1), F(2)))


class TestBBWeights:
    def test_semistable(self):
        ctx = CurveContext(2, 8, genus=2)
        got = bb_weights(HNType(((2, 8),)), ctx)
        assert got.weights == (F(0),) and got.min_weight == 0

    def test_two_block_example(self):
        ctx = CurveContext(2, 7, genus=2)
        got = bb_weights(HNType(((1, 4), (1, 3))), ctx)
        assert got.weights == (F(-1, 6), F(0), F(1, 6))
        assert got.min_weight == F(-1, 6)

    def test_three_block_multiset(self):
        # ratios (1, 1/2, 0) at genus 0 with two evaluation points
        ctx = CurveContext(5, 2, genus=0, npoints=2)
        tau = HNType(((1, 1), (3, 1), (1, 0)))
        beta = beta_of_type(tau, ctx)
        ratios = [F(k, m) for k, m in zip(beta.k_blocks, beta.m_blocks)]
        assert ratios == [F(1), F(1, 2), F(0)]
        got = bb_weights(tau, ctx)
        assert len(got.weights) == 7
        assert got.min_weight == F(-1)
        assert got.weights == tuple(sorted(got.weights))

    def test_error_propagates(self):
        ctx = CurveContext(2, -1, genus=2)
        with pytest.raises(NonPositiveBlockDimension):
            bb_weights(HNType(((1, 0), (1, -1))), ctx)

    def test_min_formula_quantified(self):
        for g in (0, 2):
            for d in range(3 * (2 * g - 1) + 1, 3 * (2 * g - 1) + 7):
                ctx = CurveContext(3, d, genus=g, npoints=2)
                for tau in enumerate_hn_types(ctx, d + 3, min_slope_exclusive=g - 1):
                    beta = beta_of_type(tau, ctx)
                    got = bb_weights(tau, ctx)
                    want = F(beta.k_blocks[-1], beta.m_blocks[-1]) - F(
                        beta.k_blocks[0], beta.m_blocks[0]
                    )
                    assert got.min_weight == want


class TestCoordinateEnumeration:
    @pytest.mark.parametrize(
        "ctx,count",
        [
            (CurveContext(2, 1, genus=0, npoints=1), 15),
            (CurveContext(2, 0, genus=0, npoints=1), 5),
            (CurveContext(2, 2, genus=0, npoints=2), 612),
        ],
    )
    def test_counts(self, ctx, count):
        assert coordinate_index_count(ctx) == count
        idxs = list(enumerate_coordinate_indices(ctx, cap=1000))
        assert len(idxs) == count
        assert len(set(idxs)) == count

    def test_cap_exceeded(self):
        ctx = CurveContext(2, 2, genus=0, npoints=2)
        with pytest.raises(CapExceeded) as exc:
            enumerate_coordinate_indices(ctx, cap=100)
        assert exc.value.count == 612

    def test_restartable(self):
        ctx = CurveContext(2, 0, genus=0, npoints=1)
        first = list(enumerate_coordinate_indices(ctx))
        second = list(enumerate_coordinate_indices(ctx))
        assert first == second

    def test_json_roundtrip(self):
        idx = CoordinateIndex("end", ((1, 3), (2, 4)), ((1, 2), (2, 2)))
        assert CoordinateIndex.from_json(idx.to_json()) == idx


class TestGrading:
    def test_integer_and_minimal(self):
        ctx = CurveContext(2, 7, genus=2)
        beta = beta_of_type(HNType(((1, 4), (1, 3))), ctx)
        lam = grading_one_parameter_subgroup(beta)
        assert lam == (2, 2, 2, -3, -3)
        from math import gcd

        assert gcd(gcd(lam[0], lam[1]), lam[3]) == 1

    def test_zero_has_no_grading(self):
        ctx = CurveContext(2, 8, genus=2)
        assert grading_one_parameter_subgroup(beta_of_type(HNType(((2, 8),)), ctx)) is None


def _identity_holds(beta, traces) -> bool:
    """The grading/trace identity at one block-trace tuple, by two ``Fraction`` sums."""
    lhs = sum(-F(beta.npoints * r_g, m_g) * t for r_g, m_g, t in zip(beta.tau.composition, beta.m_blocks, traces))
    return lhs == sum(v * t for v, t in zip(beta.block_values, traces))


def trace_identity_by_fractions(beta, bound: int):
    """(number of block-trace classes, whether the identity holds on all of
    them), by a walk over every class: the zero-sum t with |t_g| <= bound m_g."""
    m_blocks = beta.m_blocks
    checked, ok = 0, True
    for head in itertools.product(*(range(-bound * m_g, bound * m_g + 1) for m_g in m_blocks[:-1])):
        traces = head + (-sum(head),)
        if abs(traces[-1]) <= bound * m_blocks[-1]:
            checked += 1
            ok = ok and _identity_holds(beta, traces)
    return checked, ok


class TestTraceIdentity:
    @pytest.mark.parametrize("npoints", [1, 2, 3])
    def test_matches_the_fraction_sums(self, npoints):
        # every type of ranks 1-4 at genus 0-2: the block values are
        # k_g/m_g - k/m and strictly decrease (the chamber), T = D |beta|^2,
        # and the identity holds at bounds 0-3, its classes counted as the
        # walk counts them
        for r, g in itertools.product((1, 2, 3, 4), (0, 1, 2)):
            ctx = CurveContext(r, r * (2 * g - 1) + 4, genus=g, npoints=npoints)
            for tau in enumerate_hn_types(ctx, ctx.degree + r, min_slope_exclusive=g - 1):
                beta = beta_of_type(tau, ctx)
                k, m, values = beta.k, beta.m, beta.block_values
                assert values == tuple(F(k_g, m_g) - F(k, m) for k_g, m_g in zip(beta.k_blocks, beta.m_blocks))
                assert all(type(v) is F for v in values) and all(a > b for a, b in zip(values, values[1:]))
                _, D, T = beta.integer_form
                assert T == D * sum(m_g * v * v for m_g, v in zip(beta.m_blocks, values))
                for bound in range(4):
                    checked, ok = trace_identity_by_fractions(beta, bound)
                    assert ok and step2_trace_identity(beta, bound) == checked

    def test_exact_over_classes(self):
        ctx = CurveContext(2, 7, genus=2)
        beta = beta_of_type(HNType(((1, 4), (1, 3))), ctx)
        assert step2_trace_identity(beta, 3) == 13 == trace_identity_by_fractions(beta, 3)[0]

    def test_huge_bound_counted_in_closed_form(self):
        start = time.monotonic()
        ctx = CurveContext(2, 7, genus=2)
        beta = beta_of_type(HNType(((1, 5), (1, 2))), ctx)  # m_blocks (4, 1)
        assert step2_trace_identity(beta, 10**9) == 2 * 10**9 + 1
        assert time.monotonic() - start < 10

    @pytest.mark.parametrize("bound, error", [(-1, ValueError), (2.0, TypeError), (True, TypeError), ("2", TypeError)])
    def test_bad_bound_refused(self, bound, error):
        beta = beta_of_type(HNType(((1, 4), (1, 3))), CurveContext(2, 7, genus=2))
        with pytest.raises(error):
            step2_trace_identity(beta, bound)

    def test_explicit_diagonals_match_block_form(self):
        ctx = CurveContext(2, 7, genus=2)
        beta = beta_of_type(HNType(((1, 4), (1, 3))), ctx)
        n = beta.npoints
        for lam in [(1, 0, -1, 2, -2), (3, -3, 0, 1, -1), (0, 0, 0, 3, -3)]:
            traces = [sum(lam[:3]), sum(lam[3:])]
            lhs = sum(
                -F(n * r_g, m_g) * t
                for r_g, m_g, t in zip(beta.tau.composition, beta.m_blocks, traces)
            )
            assert lhs == pairing(beta, tuple(F(x) for x in lam))


def _all_betas() -> list:
    """``beta_of_type`` of every type of ranks 1-3 at genus 0 and 2, N 1-3."""
    out = []
    for r, g, n in itertools.product((1, 2, 3), (0, 2), (1, 2, 3)):
        ctx = CurveContext(r, r * (2 * g - 1) + 4, genus=g, npoints=n)
        out += [beta_of_type(tau, ctx) for tau in enumerate_hn_types(ctx, ctx.degree + r, min_slope_exclusive=g - 1)]
    return out


ALL_BETAS = _all_betas()


class TestIntegerFormByFractions:
    """``BetaVector.integer_form`` and its readers against their ``Fraction``
    definitions."""

    @given(st.sampled_from(ALL_BETAS))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_definitions(self, beta):
        b, D, T = beta.integer_form
        norm = sum((v * v * m_g for v, m_g in zip(beta.block_values, beta.m_blocks)), F(0))
        assert beta.norm_sq == norm == sum(x * x for x in beta.entries) and type(beta.norm_sq) is F
        assert D == math.lcm(*(x.denominator for x in beta.entries))
        assert b == tuple(v * D for v in beta.block_values) and T == norm * D
        assert beta.is_zero == (norm == 0)
        scaled, _ = clear_denominators(beta.entries)
        want = None if norm == 0 else tuple(x // math.gcd(*scaled) for x in scaled)
        assert grading_one_parameter_subgroup(beta) == want

    def test_int_target_exact_and_not(self):
        # on the (3, 2) blocks the own beta (1/15, -1/10) has D = 30 and
        # T = D |beta|^2 = 30 * 1/30 = 1
        own = beta_of_type(HNType(((1, 4), (1, 3))), CurveContext(2, 7, genus=2))
        assert own.integer_form == ((2, -3), 30, 1)


class TestRationalJson:
    def test_lowest_terms(self):
        assert rational_to_json(F(2, 4)) == {"num": 1, "den": 2}
        assert frac({"num": 3, "den": 6}) == F(1, 2)
        assert frac("7/3") == F(7, 3)
        assert frac(5) == F(5)

    @pytest.mark.parametrize(
        "data", [1.5, True, {"num": 1.5, "den": 1}, {"num": 1, "den": True}, {"num": "3", "den": 1}]
    )
    def test_lossy_rationals_refused(self, data):
        with pytest.raises(TypeError):
            frac(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": "det", "subsets": [[1.9, 2.2]]},
            {"kind": "end", "subsets": [[1, 2]], "ij": [[1.5, True]]},
            {"kind": "det", "subsets": [[True, 2]]},
        ],
    )
    def test_non_integer_index_refused(self, data):
        with pytest.raises(TypeError):
            CoordinateIndex.from_json(data)

    @pytest.mark.parametrize(
        "data,expected",
        [
            ([1], "a coordinate index (an object with kind and subsets), got list [1]"),
            ({"kind": "det", "subsets": 5}, "a list of subsets, got int 5"),
        ],
        ids=["list-index", "scalar-subsets"],
    )
    def test_index_of_the_wrong_shape_is_named(self, data, expected):
        with pytest.raises(TypeError, match=re.escape(f"expected {expected}")):
            CoordinateIndex.from_json(data)

    def test_norm_sq_helper(self):
        assert norm_sq((F(1, 2), F(1, 2))) == F(1, 2)
