"""Matrix-model points: coordinates, membership, retraction, stabilisers."""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import inspect
import itertools
import math
import pathlib
import random
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    build_flagged_point, count_calls, fresh_factors, model_supported, mutate_break_flag, random_block,
)
from higgsstrata import (
    CapExceeded,
    CoordinateIndex,
    CurveContext,
    DegeneratePoint,
    Factor,
    FlagShape,
    HiggsDatum,
    HNType,
    InvariantViolation,
    Membership,
    ModelPoint,
    NotInY,
    alpha_of_index,
    beta_of_type,
    coordinate_index_count,
    coordinates,
    enumerate_hn_types,
    from_higgs_data,
    min_norm_point_by_faces,
    membership,
    nilpotent_commutant_dim,
    nilpotent_commutant_dim_dense_oracle,
    pairing,
    retract_p_beta,
    unipotent_stabilizer_dim,
    unipotent_stabilizer_dim_dense_oracle,
    verify_step1,
    step2_trace_identity,
    verify_step2,
)
from higgsstrata import cli, point_model
from higgsstrata.linalg import (
    EchelonAccumulator, adjugate, clear_denominators, det, frac, full_row_rank, mat,
    mat_mul, rank, transpose,
)
from higgsstrata.oracles import Dual, adapted_flag_basis, inverse
from higgsstrata.point_model import (
    BlockReport,
    Step2Report,
    _adapted_factors,
    _block_weight_set,
    _entry_keys,
    _factor_values,
    _first_reads,
    _table,
)
from higgsstrata.weight_lattice import enumerate_coordinate_indices, grading_one_parameter_subgroup, step2_trace_identity


CTX3 = CurveContext(2, 1, genus=0, npoints=1)  # m = 3
CTX73 = CurveContext(2, 7, genus=2, npoints=1)  # m = 5
CTX73_N2 = CurveContext(2, 7, genus=2, npoints=2)
TAU43 = HNType(((1, 4), (1, 3)))
TAU52 = HNType(((1, 5), (1, 2)))


def flagged_point(m1: int, phi, c=1) -> ModelPoint:
    y = [[1] * m1 + [0] * (5 - m1), [0] * m1 + [1] * (5 - m1)]
    return ModelPoint((Factor(y, c, phi),))


class TestCoordinates:
    def test_lower_corner_example(self):
        p = ModelPoint((Factor([[1, 0, 0], [0, 1, 0]], 1, [[0, 0], [1, 0]]),))
        table = coordinates(p, CTX3)
        assert table[CoordinateIndex("det", ((1, 2),))] == 1
        assert table[CoordinateIndex("end", ((1, 2),), ((2, 1),))] == 1
        assert table[CoordinateIndex("end", ((1, 2),), ((1, 2),))] == 0

    def test_infinite_point_kills_det_family(self):
        p = ModelPoint((Factor([[1, 0, 0], [0, 1, 0]], 0, [[0, 0], [1, 0]]),))
        table = coordinates(p, CTX3)
        assert all(table[idx] == 0 for idx in table.values if idx.kind == "det")
        assert any(table[idx] != 0 for idx in table.values)

    def test_identity_higgs_field_pattern(self):
        p = ModelPoint((Factor([[1, 2, 0], [0, 1, 3]], 1, [[1, 0], [0, 1]]),))
        table = coordinates(p, CTX3)
        for sub in itertools.combinations(range(1, 4), 2):
            d = table[CoordinateIndex("det", (sub,))]
            for i in range(1, 3):
                for j in range(1, 3):
                    v = table[CoordinateIndex("end", (sub,), ((i, j),))]
                    assert v == (d if i == j else 0)

    def test_singular_minor_evaluates_polynomially(self):
        # columns 1,2 are dependent: det = 0 yet end entries stay finite
        p = ModelPoint((Factor([[1, 2, 0], [2, 4, 1]], 1, [[1, 1], [1, 1]]),))
        table = coordinates(p, CTX3)
        idx = CoordinateIndex("end", ((1, 2),), ((1, 1),))
        assert table[idx] == table[idx]  # evaluated, no inversion error

    def test_invalid_points_rejected(self):
        with pytest.raises(ValueError):
            ModelPoint((Factor([[1, 2, 0], [2, 4, 0]], 1, [[1, 0], [0, 1]]),))
        with pytest.raises(ValueError):
            ModelPoint((Factor([[1, 0, 0], [0, 1, 0]], 0, [[0, 0], [0, 0]]),))

    def test_cap_checked_before_any_value(self):
        p = ModelPoint((Factor([[1, 2, 0], [0, 1, 3]], 1, [[1, 0], [0, 1]]),))
        total = coordinate_index_count(CTX3)  # C(3,2) (1 + 2^2) = 15
        with pytest.raises(CapExceeded) as exc:
            coordinates(p, CTX3, cap=total - 1)
        assert (exc.value.count, exc.value.cap) == (15, 14)
        assert not any("_tables" in vars(f) for f in p.factors)  # no per-factor value was evaluated
        assert len(coordinates(p, CTX3, cap=total).values) == total


class TestMembership:
    def setup_method(self):
        self.beta = beta_of_type(TAU43, CTX73)

    def test_graded_point_in_equality_locus(self):
        p = flagged_point(3, [[2, 0], [0, 3]])
        assert membership(p, self.beta, CTX73) is Membership.IN_Z

    def test_flag_compatible_nongraded(self):
        p = flagged_point(3, [[2, 0], [5, 3]])
        assert membership(p, self.beta, CTX73) is Membership.IN_Y_NOT_Z

    def test_generic_point_outside(self):
        p = ModelPoint((Factor([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], 1, [[1, 2], [3, 4]]),))
        assert membership(p, self.beta, CTX73) is Membership.OUTSIDE

    def test_flag_breaking_phi_outside(self):
        # a stored-upper entry pairs below the squared norm
        p = flagged_point(3, [[2, 9], [0, 3]])
        assert membership(p, self.beta, CTX73) is Membership.OUTSIDE


_TRIT = st.sampled_from([-1, 0, 1])
_MOSTLY = st.sampled_from([True, True, False])


@st.composite
def _small_rank2_cases(draw):
    """(point, beta, ctx): r = 2, m <= 5, N <= 2, entries in {-1, 0, 1}, c in {0, 1},
    beta of a two-block type.  Most factors get y's lower-left block zeroed at
    the type's cut and a zero upper-right phi entry, which keeps many points
    in the locus; at N = 2 one unadapted factor among adapted ones is where
    the retraction's contract needs the flag check."""
    m, n = draw(st.integers(3, 5)), draw(st.sampled_from([2, 1, 2]))
    d1 = draw(st.integers(m // 2, m - 2))  # d1 > d2 = m - 2 - d1 >= 0
    ctx = CurveContext(2, m - 2, genus=0, npoints=n)
    beta = beta_of_type(HNType(((1, d1), (1, m - 2 - d1))), ctx)
    factors = []
    for _ in range(n):
        y = [[draw(_TRIT) for _ in range(m)] for _ in range(2)]
        if draw(_MOSTLY):
            y[1][: d1 + 1] = [0] * (d1 + 1)
        c = draw(st.sampled_from([0, 1]))
        phi = [[draw(_TRIT) for _ in range(2)] for _ in range(2)]
        if draw(_MOSTLY):
            phi[0][1] = 0
        assume(rank(mat(y)) == 2 and (c or any(map(any, phi))))
        factors.append(Factor(y, c, phi))
    return ModelPoint(tuple(factors)), beta, ctx


class TestRetraction:
    def setup_method(self):
        self.beta = beta_of_type(TAU43, CTX73)

    def test_idempotent_and_lands_in_equality_locus(self):
        p = ModelPoint((Factor([[1, 1, 1, 2, 0], [0, 0, 0, 1, 1]], 1, [[2, 0], [5, 3]]),))
        q = retract_p_beta(p, self.beta, CTX73)
        assert membership(q, self.beta, CTX73) is Membership.IN_Z
        assert retract_p_beta(q, self.beta, CTX73) == q

    def test_exact_coordinate_zeroing(self):
        p = ModelPoint((Factor([[1, 1, 1, 2, 0], [0, 0, 0, 1, 1]], 1, [[2, 0], [5, 3]]),))
        q = retract_p_beta(p, self.beta, CTX73)
        tp, tq = coordinates(p, CTX73), coordinates(q, CTX73)
        target = self.beta.norm_sq
        for idx, v in tp.values.items():
            w = pairing(alpha_of_index(idx, CTX73), self.beta)
            assert tq[idx] == (v if w == target else F(0))

    def test_strictly_lower_phi_retracts_to_zero_blocks(self):
        p = flagged_point(3, [[0, 0], [7, 0]])
        q = retract_p_beta(p, self.beta, CTX73)
        assert q.factors[0].phi == ((F(0), F(0)), (F(0), F(0)))
        assert q.factors[0].c != 0

    def test_outside_raises(self):
        p = ModelPoint((Factor([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], 1, [[1, 2], [3, 4]]),))
        with pytest.raises(NotInY):
            retract_p_beta(p, self.beta, CTX73)

    def test_unadapted_c0_point_refused(self):
        # in the inequality locus, but the first three columns span a plane
        ctx = CurveContext(3, 3, genus=0)  # m = 6
        beta = beta_of_type(HNType(((1, 2), (2, 1))), ctx)
        y = [[0, 0, 1, 0, 1, 1], [0, 1, 1, 1, -1, -1], [0, 0, 0, 1, 1, 0]]
        p = ModelPoint((Factor(y, 0, [[0, 0, 0], [0, 0, 0], [1, 1, 0]]),))
        assert membership(p, beta, ctx) is Membership.IN_Y_NOT_Z
        with pytest.raises(InvariantViolation) as exc:
            retract_p_beta(p, beta, ctx)
        assert (exc.value.block_index, exc.value.factor_index) == (1, 1)

    def test_compensating_factors_refused(self):
        # factor 2's phi breaks the flag, yet the product stays in the locus
        ctx = CurveContext(2, 1, genus=0, npoints=2)  # m = 3
        beta = beta_of_type(HNType(((1, 1), (1, 0))), ctx)
        p = ModelPoint((
            Factor([[1, 0, 0], [0, 0, 1]], 1, [[0, 0], [1, 0]]),
            Factor([[0, 0, 1], [1, 1, 1]], 1, [[0, 0], [1, 1]]),
        ))
        assert membership(p, beta, ctx) is Membership.IN_Y_NOT_Z
        with pytest.raises(InvariantViolation) as exc:
            retract_p_beta(p, beta, ctx)
        assert (exc.value.block_index, exc.value.factor_index) == (1, 2)

    @given(_small_rank2_cases())
    @settings(max_examples=200, deadline=None)
    def test_in_locus_points_zero_exactly_or_are_refused(self, case):
        p, beta, ctx = case
        try:
            if membership(p, beta, ctx) is Membership.OUTSIDE:
                return
        except DegeneratePoint:  # every coordinate vanishes: no point at all
            return
        try:
            q = retract_p_beta(p, beta, ctx)
        except InvariantViolation:
            return
        tp, tq = coordinates(p, ctx), coordinates(q, ctx)
        for idx, v in tp.values.items():
            w = pairing(alpha_of_index(idx, ctx), beta)
            assert tq[idx] == (v if w == beta.norm_sq else F(0))

    def test_corpus_contract(self):
        rng = random.Random(17)
        ctx = CurveContext(3, 10, genus=2, npoints=1)  # m = 7
        tau = HNType(((1, 5), (2, 5)))
        beta = beta_of_type(tau, ctx)
        for _ in range(5):
            p = build_flagged_point(tau, ctx, rng)
            assert membership(p, beta, ctx) is not Membership.OUTSIDE
            q = retract_p_beta(p, beta, ctx)
            assert membership(q, beta, ctx) is Membership.IN_Z
            assert retract_p_beta(q, beta, ctx) == q


def _flagged_corpus():
    """Flagged conftest points, graded and ungraded, of every supported unstable type."""
    rng = random.Random(23)
    for r, g, d, n in [(2, 2, 7, 1), (2, 2, 8, 1), (2, 0, 4, 2), (3, 2, 10, 1), (3, 0, 4, 1)]:
        ctx = CurveContext(r, d, genus=g, npoints=n)
        for tau in enumerate_hn_types(ctx, d + r, min_slope_exclusive=g - 1):
            if tau.is_semistable or not model_supported(tau, ctx):
                continue
            for graded in (False, True) * 3:
                yield beta_of_type(tau, ctx), ctx, build_flagged_point(tau, ctx, rng, graded=graded)


class TestGradedBlocks:
    def test_step2_reads_the_retracted_blocks(self):
        # step 2 slices the diagonal blocks that the retraction keeps; a
        # random gauge moves the point out of its adapted basis first
        rng = random.Random(29)
        count = 0
        for beta, ctx, p in _flagged_corpus():
            for k in range(p.npoints):
                alpha = random_block(rng, p.r, p.r)
                p = p.gauge_factor(k, alpha)
            q = retract_p_beta(p, beta, ctx)
            assert verify_step2(p, beta, ctx) == verify_step2(q, beta, ctx)
            count += 1
        assert count == 108


class TestHiggsData:
    def test_valid_datum_passes_step1(self):
        h = HiggsDatum(TAU43, CTX73, (Factor([[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]], 1, [[2, 0], [5, 3]]),))
        p = from_higgs_data(h)
        beta = beta_of_type(TAU43, CTX73)
        assert verify_step1(p, beta, CTX73).passed

    def test_semistable_shape_unconstrained(self):
        tau0 = HNType(((2, 7),))
        h = HiggsDatum(tau0, CTX73, (Factor([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], 1, [[1, 2], [3, 4]]),))
        p = from_higgs_data(h)
        assert verify_step1(p, beta_of_type(tau0, CTX73), CTX73).passed

    def test_flag_breaking_phi_rejected(self):
        h = HiggsDatum(TAU43, CTX73, (Factor([[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]], 1, [[2, 9], [0, 3]]),))
        with pytest.raises(InvariantViolation) as exc:
            from_higgs_data(h)
        assert (exc.value.block_index, exc.value.factor_index) == (1, 1)

    def test_wrong_image_flag_rejected(self):
        h = HiggsDatum(TAU43, CTX73, (Factor([[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]], 1, [[2, 0], [5, 3]]),))
        with pytest.raises(InvariantViolation) as exc:
            from_higgs_data(h)
        assert exc.value.block_index == 1

    def test_zero_factor_refused_before_any_flag(self):
        # the point is built, refusing (c, phi) = (0, 0) as ModelPoint does,
        # before any factor's flag is checked on its adapted form
        y = [[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]]
        h = HiggsDatum(TAU43, CTX73_N2, (Factor(y, 1, [[2, 9], [0, 3]]), Factor(y, 0, [[0, 0], [0, 0]])))
        with pytest.raises(ValueError) as exc:
            from_higgs_data(h)
        assert type(exc.value) is ValueError and str(exc.value) == "factor 2: (c, phi) must not be (0, 0)"

    def test_one_minor_search_per_factor(self):
        # each fresh factor searches its minors once, for its rank check, and is
        # gauged once, for its flag check: N = 2 makes 2 of each, step 2 none
        factors = fresh_factors(build_flagged_point(TAU52, CTX73_N2, random.Random(3)).factors)
        h, beta = HiggsDatum(TAU52, CTX73_N2, factors), beta_of_type(TAU52, CTX73_N2)
        watched, got = (full_row_rank, point_model._gauged), []
        assert count_calls(lambda: got.append(from_higgs_data(h)), *watched) == [2, 2]
        assert count_calls(lambda: verify_step2(got[0], beta, CTX73_N2), *watched) == [0, 0]

    def test_moves_keep_the_pivot_columns(self):
        # rescaling keeps y, and alpha y has the row space, hence rref(y)'s pivot
        # columns, of y: the moved factor searches its own minors once and finds
        # the same columns, and the other factor, shared, searches none
        y = [[0, 1, 1, 0, 0], [0, 0, 0, 1, 1]]  # pivot columns (1, 3)
        generic = build_flagged_point(TAU52, CTX73_N2, random.Random(3)).factors[0]
        p = ModelPoint((Factor(y, 1, [[2, 0], [5, 3]]), generic))
        for k, alpha in itertools.product((0, 1), (((F(2, 3), 1), (0, F(-5, 2))), ((0, 1), (1, 1)))):
            for move in (lambda: p.rescale_factor(k, F(-3, 4)), lambda: p.gauge_factor(k, alpha)):
                assert count_calls(move, full_row_rank) == [1]
                moved = move()
                assert moved.factors[1 - k] is p.factors[1 - k]
                assert moved.factors[k]._basis == p.factors[k]._basis
        assert p.factors[0]._basis == (1, 3)

    def test_rank_refused_before_a_zero_factor(self):
        # every factor's rank is checked before any factor's (c, phi)
        y, low = [[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]], [[1, 1, 1, 0, 0], [2, 2, 2, 0, 0]]
        h = HiggsDatum(TAU43, CTX73_N2, (Factor(y, 0, [[0, 0], [0, 0]]), Factor(low, 1, [[2, 0], [5, 3]])))
        with pytest.raises(InvariantViolation, match="factor 2: y does not have full row rank$"):
            from_higgs_data(h)

    def test_one_gauge_per_factor(self):
        # the flag is checked on the point's own adapted form, which step 2 reuses
        factors = fresh_factors(build_flagged_point(TAU52, CTX73_N2, random.Random(3)).factors)
        beta = beta_of_type(TAU52, CTX73_N2)
        run = lambda: verify_step2(from_higgs_data(HiggsDatum(TAU52, CTX73_N2, factors)), beta, CTX73_N2)
        assert count_calls(run, point_model._gauged) == [2]


class TestInputChecks:
    Y = [[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]]
    PHI = [[2, 0], [5, 3]]

    def test_higgs_datum_wrong_factor_count(self):
        h = HiggsDatum(TAU43, CTX73_N2, (Factor(self.Y, 1, self.PHI),))
        with pytest.raises(ValueError, match="^factor count does not match the context$"):
            from_higgs_data(h)

    def test_higgs_datum_wrong_y_shape(self):
        h = HiggsDatum(TAU43, CTX73, (Factor([row[:4] for row in self.Y], 1, self.PHI),))
        with pytest.raises(ValueError, match="^factor 1: y must be 2x5$"):
            from_higgs_data(h)

    @pytest.mark.parametrize("phi", [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0]]])
    def test_higgs_datum_wrong_phi_shape(self, phi):
        # the same shape check as ModelPoint's, before any basis change
        h = HiggsDatum(TAU43, CTX73, (Factor(self.Y, 1, phi),))
        with pytest.raises(ValueError, match=r"^factor 1: phi must be 2x2$"):
            from_higgs_data(h)

    def test_higgs_datum_rank_deficient_y(self):
        h = HiggsDatum(TAU43, CTX73, (Factor([self.Y[0], self.Y[0]], 1, self.PHI),))
        with pytest.raises(InvariantViolation, match="factor 1: y does not have full row rank$"):
            from_higgs_data(h)

    def test_point_context_mismatch(self):
        p = flagged_point(3, self.PHI)
        message = r"^point shape \(2x5, 1 factors\) does not match context \(2x5, 2 factors\)$"
        with pytest.raises(ValueError, match=message):
            membership(p, beta_of_type(TAU43, CTX73_N2), CTX73_N2)
        with pytest.raises(ValueError, match=message):
            coordinates(p, CTX73_N2)

    def test_beta_for_another_point_count_or_rank(self):
        # a beta built for N = 1 at an N = 2 point of the same shape, and one
        # of a rank-3 type with as many sections at a rank-2 point
        p = ModelPoint(flagged_point(3, self.PHI).factors * 2)
        rank3 = beta_of_type(HNType(((1, 2), (2, 0))), CurveContext(3, 2))  # m = 5
        for beta, message in (
            (beta_of_type(TAU43, CTX73), r"^instability vector shape \(2x5, 1 factors\) does not match point \(2x5, 2 factors\)$"),
            (rank3, r"^instability vector shape \(3x5, 1 factors\) does not match point \(2x5, 2 factors\)$"),
        ):
            for route in (membership, verify_step1, verify_step2, retract_p_beta):
                with pytest.raises(ValueError, match=message):
                    route(p, beta, CTX73_N2)
        assert membership(p, beta_of_type(TAU43, CTX73_N2), CTX73_N2) is Membership.IN_Y_NOT_Z

    def test_model_point_wrong_y_row_length(self):
        narrow = Factor([row[:4] for row in self.Y], 1, self.PHI)
        with pytest.raises(ValueError, match="^factor 2: y must be 2x5$"):
            ModelPoint((Factor(self.Y, 1, self.PHI), narrow))

    def test_model_point_wrong_phi_shape(self):
        with pytest.raises(ValueError, match="^factor 1: phi must be 2x2$"):
            ModelPoint((Factor(self.Y, 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),))

    def test_model_point_rank_deficient_y_with_unlike_denominators(self):
        # proportional rows whose entries have different denominators; the
        # factor's integer form is [[6, 4, 12], [9, 6, 18]], still of rank 1
        y = [[F(1, 2), F(1, 3), 1], [F(3, 4), F(1, 2), F(3, 2)]]
        first = Factor([[1, 0, 0], [0, 1, 0]], 1, [[0, 0], [1, 0]])
        with pytest.raises(ValueError, match="^factor 2: y does not have full row rank$"):
            ModelPoint((first, Factor(y, 1, [[0, 0], [1, 0]])))

    def test_stabilizer_flag_total_mismatch(self):
        with pytest.raises(ValueError, match="^flag total must equal the section count$"):
            unipotent_stabilizer_dim(flagged_point(3, self.PHI), FLAG11, CTX73)


class TestErrorOrder:
    """Points with several defects give the first message, factor by factor:
    every entry is read first, then per factor its shape, y's rank and
    (c, phi) != (0, 0)."""

    GOOD = ([[1, 0, 0], [0, 1, 0]], 1, [[0, 0], [0, 0]])
    LOW_RANK = ([[1, 2, 3], [2, 4, 6]], 1, [[0, 0], [0, 0]])
    ZERO = ([[1, 0, 0], [0, 1, 0]], 0, [[0, 0], [0, 0]])
    CASES = [
        ([([[1, 2, 3], [2, 4, 6]], 1, [[0, 0, 0], [0, 0, 0]])], ValueError, "factor 1: phi must be 2x2"),
        ([GOOD, ([[1, 2], [2, 4]], 1, [[0, 0], [0, 0]])], ValueError, "factor 2: y must be 2x3"),
        ([LOW_RANK, ZERO], ValueError, "factor 1: y does not have full row rank"),
        ([ZERO, LOW_RANK], ValueError, "factor 1: (c, phi) must not be (0, 0)"),
        ([([[1, 2, 3], [2, 4, 6]], 0, [[0, 0], [0, 0]])], ValueError, "factor 1: y does not have full row rank"),
        ([LOW_RANK, ([[1, 0, 0], [0, 1, 0]], 1, [[0, 0, 0], [0, 0, 0]])], ValueError,
         "factor 1: y does not have full row rank"),
        ([([[1, 0, 0], [0, 1, 0]], 1, [[0, 0], [0]])], ValueError, "ragged matrix"),
        ([LOW_RANK, ([[1, 0, 0], [0, 1, 0]], 1, [[0, 0], [0]])], ValueError, "ragged matrix"),
        ([LOW_RANK, ([[1, 0, 0], [0, 1, 0]], 1.5, [[0, 0], [0, 0]])], TypeError,
         "float input 1.5 is not accepted; pass a rational"),
        ([([[1, 0, 0], [0, 1]], 1, [[0, 0], [0, 0]])], ValueError, "ragged matrix"),
        ([([], 1, [])], ValueError, "factor 1: y must have at least one row"),
        ([GOOD, ([], 1, [])], ValueError, "factor 2: y must be 2x3"),
        ([], ValueError, "a model point needs at least one factor"),
    ]

    @pytest.mark.parametrize("factors,kind,message", CASES, ids=[f"case-{i}" for i in range(len(CASES))])
    def test_first_message(self, factors, kind, message):
        with pytest.raises(kind) as got:
            ModelPoint(tuple(factors))
        assert type(got.value) is kind and str(got.value) == message


class TestIntegerForm:
    """A factor holds (L y, L) and (M c, M phi, M), each entry read once."""

    @staticmethod
    def _point(half) -> ModelPoint:
        return ModelPoint((Factor([[half, 1, 0], [0, 0, 1]], half, [[half, 0], [0, 1]]),))

    def test_one_value_four_spellings(self):
        points = [self._point(half) for half in ("1/2", {"num": 2, "den": 4}, {"num": -1, "den": -2}, F(1, 2))]
        first = points[0]
        form = lambda p: [(f.Y, f.C, f.Phi, f._scale) for f in p.factors]  # the scale s = L^r M
        assert form(first) == [(((1, 2, 0), (0, 0, 2)), 1, ((1, 0), (0, 2)), 8)]
        assert first.factors[0].y == ((F(1, 2), 1, 0), (0, 0, 1)) and first.factors[0].c == F(1, 2)
        for p in points:
            assert p.factors[0] == first.factors[0] and hash(p.factors[0]) == hash(first.factors[0])
            assert p == first and hash(p) == hash(first)
            assert form(p) == form(first)
            assert p.to_json() == first.to_json()
        assert self._point(F(1, 3)).factors[0] != first.factors[0]

    def test_moves_read_no_entry_again(self):
        half = F(1, 2)
        p = ModelPoint((Factor([[half, half, half, 1, 0], [0, 0, 0, 1, 1]], F(1, 3), [[2, 0], [5, F(3, 7)]]),))
        beta, alpha, t = beta_of_type(TAU43, CTX73), ((F(2, 3), 1), (0, F(-5, 2))), F(-3, 4)
        for move in (
            lambda: retract_p_beta(p, beta, CTX73),
            lambda: p.gauge_factor(0, alpha),
            lambda: p.rescale_factor(0, t),
        ):
            assert count_calls(move, frac) == [0]
        assert count_calls(lambda: frac("1/2"), frac) == [1]  # the counter sees frac
        f, g, s = p.factors[0], p.gauge_factor(0, alpha).factors[0], p.rescale_factor(0, t).factors[0]
        a_inv = inverse(alpha)
        d = det(a_inv)
        assert g.y == mat_mul(alpha, f.y) and g.c == f.c * d
        conjugated = mat_mul(mat_mul(transpose(a_inv), f.phi), transpose(alpha))
        assert g.phi == tuple(tuple(d * x for x in row) for row in conjugated)
        assert (s.y, s.c, s.phi) == (f.y, t * f.c, tuple(tuple(t * x for x in row) for row in f.phi))

    def test_parse_builds_no_fraction_and_runs_no_elimination(self):
        point = {"factors": [{
            "y": [[{"num": 2, "den": 4}, 1, 0], [0, {"num": 3, "den": -1}, 1]],
            "c": 1,
            "phi": [[{"num": 0, "den": 5}, 0], [1, 0]],
        }]}
        watched = (F.__new__, EchelonAccumulator.add, rank)
        assert count_calls(lambda: ModelPoint.from_json(point), *watched) == [0, 0, 0]
        # plain "p/q" strings are read on ints too; a decimal takes Fraction's syntax
        text = {"factors": [{"y": [["1/2", 1, 0], [0, "-3", 1]], "c": 1, "phi": [[0, 0], [1, 0]]}]}
        assert count_calls(lambda: ModelPoint.from_json(text), *watched) == [0, 0, 0]
        text["factors"][0]["y"][0][0] = "0.5"
        assert count_calls(lambda: ModelPoint.from_json(text), F.__new__)[0] == 1  # the counter sees Fraction


class TestFactorForms:
    """A factor's pivot columns, tables and adapted form are cached on the
    ``Factor``, so a factor shared by two points is worked out once."""

    def test_a_shared_factor_builds_no_table_again(self):
        beta = beta_of_type(TAU52, CTX73_N2)
        p = build_flagged_point(TAU52, CTX73_N2, random.Random(3))
        verify_step1(p, beta, CTX73_N2)
        step1 = lambda q: count_calls(lambda: verify_step1(q, beta, CTX73_N2), point_model._factor_values)
        assert step1(ModelPoint(p.factors)) == [0]
        moved = p.rescale_factor(0, F(-3, 4))
        assert step1(moved) == [1]  # the moved factor's, and not the shared one's
        assert moved.factors[1]._tables is p.factors[1]._tables
        assert moved.factors[0]._tables is not p.factors[0]._tables

    def test_forms_leave_equality_and_hash_alone(self):
        f = build_flagged_point(TAU52, CTX73_N2, random.Random(3)).factors[0]
        g = fresh_factors([f])[0]
        assert "_adapted" in vars(f) and "_adapted" not in vars(g)
        assert f == g and hash(f) == hash(g) and repr(f) == repr(g)


class TestBetaIntegerForm:
    """Step 1's verdict, ``is_zero`` and the grading subgroup read beta's
    integer form (``BetaVector.integer_form``), over int, and the trace
    identity reads m_g alone; none reads a ``Fraction`` view of beta."""

    READERS = {
        ("point_model.py", "_family_min_max"): "integer_form",
        ("weight_lattice.py", "BetaVector.is_zero"): "integer_form",
        ("weight_lattice.py", "grading_one_parameter_subgroup"): "integer_form",
        ("weight_lattice.py", "step2_trace_identity"): "m_blocks",
    }

    def test_a_fresh_beta_builds_no_fraction(self):
        p = ModelPoint((Factor([[1, 2, 0, 1, 0], [0, 0, 1, 3, 1]], 1, [[2, 0], [5, 3]]),))
        p.factors[0]._tables  # the factor's tables, over int, before counting
        for read in (
            lambda beta: point_model._family_min_max(p, beta),
            lambda beta: step2_trace_identity(beta, 3),
            lambda beta: beta.is_zero,
            grading_one_parameter_subgroup,
        ):
            beta = beta_of_type(TAU43, CTX73)
            assert count_calls(lambda: read(beta), F.__new__) == [0]
        assert count_calls(lambda: beta.norm_sq, F.__new__) == [1]  # the counter sees Fraction

    def test_readers_name_only_the_integer_form(self):
        package = pathlib.Path(point_model.__file__).parent
        for (module, name), reads in self.READERS.items():
            scope = ast.parse((package / module).read_text(encoding="utf-8"))
            for part in name.split("."):
                scope = next(
                    node for node in scope.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part
                )
            attrs = {node.attr for node in ast.walk(scope) if isinstance(node, ast.Attribute)}
            assert reads in attrs and not attrs & {"entries", "block_values", "norm_sq"}, name


class TestStepSurface:
    """The steps' parameters and report fields, as the library exposes them.

    A report holds only what the point decides, and each parameter changes
    an answer; adding or dropping a knob or a field is an edit of this table."""

    PARAMETERS = {
        membership: ["p", "beta", "ctx"],
        verify_step1: ["p", "beta", "ctx", "max_violations"],
        verify_step2: ["p", "beta", "ctx"],
        retract_p_beta: ["p", "beta", "ctx"],
        coordinates: ["p", "ctx", "cap"],
        unipotent_stabilizer_dim: ["p", "flag", "ctx", "cap"],
    }
    FIELDS = {
        point_model.Step1Report: ["membership", "min_support_weight", "violations", "equality_witness"],
        Step2Report: ["blocks"],
        BlockReport: ["index", "semistable", "witness", "vacuous"],
    }

    def test_parameters(self):
        for fn, names in self.PARAMETERS.items():
            assert list(inspect.signature(fn).parameters) == names, fn.__name__

    def test_report_fields(self):
        for cls, names in self.FIELDS.items():
            assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__

    def test_passed_reads_the_verdict_and_the_blocks(self):
        # two in-locus points, one graded, one with a failing block, and
        # y = [I | 0], phi = 0 outside the locus
        beta, verdicts = beta_of_type(TAU43, CTX73), []
        for y, phi in (
            ([[1, 1, 1, 0, 0], [0, 0, 0, 1, 2]], [[2, 0], [0, 3]]),
            ([[1, 1, 0, 0, 0], [0, 0, 0, 1, 1]], [[2, 0], [0, 3]]),
            ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], [[0, 0], [0, 0]]),
        ):
            p = ModelPoint((Factor(y, 1, phi),))
            s1 = verify_step1(p, beta, CTX73)
            assert s1.passed == (s1.min_support_weight == beta.norm_sq)
            assert s1.passed == (s1.membership is not Membership.OUTSIDE)
            s2 = verify_step2(p, beta, CTX73) if s1.passed else None
            assert s2 is None or s2.passed == all(b.semistable for b in s2.blocks)
            verdicts.append((s1.passed, s2 and s2.passed))
        assert verdicts == [(True, True), (True, False), (False, None)]
        vacuous = Step2Report((BlockReport(1, True, None, vacuous=True), BlockReport(2, True, None)))
        assert vacuous.passed and not Step2Report((BlockReport(1, False, (1, -1)),)).passed


class TestStep1:
    def test_wrong_beta_fails_with_explicit_index(self):
        p = flagged_point(3, [[2, 0], [5, 3]])
        beta_wrong = beta_of_type(TAU52, CTX73)
        report = verify_step1(p, beta_wrong, CTX73)
        assert not report.passed
        assert report.violations
        idx, weight = report.violations[0]
        assert weight < beta_wrong.norm_sq
        # the named coordinate really is nonzero and really pairs low
        table = coordinates(p, CTX73)
        assert table[idx] != 0
        assert pairing(alpha_of_index(idx, CTX73), beta_wrong) == weight

    def test_failure_detected_even_without_collecting_violations(self):
        p = flagged_point(3, [[2, 0], [5, 3]])
        beta_wrong = beta_of_type(TAU52, CTX73)
        report = verify_step1(p, beta_wrong, CTX73, max_violations=0)
        assert not report.passed
        assert report.min_support_weight < beta_wrong.norm_sq

    def test_zero_beta_trivially_passes(self):
        p = ModelPoint((Factor([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], 1, [[1, 2], [3, 4]]),))
        beta0 = beta_of_type(HNType(((2, 7),)), CTX73)
        report = verify_step1(p, beta0, CTX73)
        assert report.passed and report.min_support_weight == 0

    def test_mutation_detected(self):
        rng = random.Random(3)
        p = build_flagged_point(TAU43, CTX73, rng)
        beta = beta_of_type(TAU43, CTX73)
        assert verify_step1(p, beta, CTX73).passed
        broken = mutate_break_flag(p, TAU43, CTX73)
        report = verify_step1(broken, beta, CTX73)
        assert not report.passed and report.violations

    @pytest.mark.parametrize("bad, kind, message", [
        *((n, ValueError, "max_violations must be >= 0") for n in (-3, -1)),
        *((x, TypeError, "expected an integer") for x in (2.5, True, None, "3")),
    ])
    def test_bad_max_violations_refused_before_any_work(self, bad, kind, message):
        p = mutate_break_flag(build_flagged_point(TAU43, CTX73, random.Random(3)), TAU43, CTX73)
        beta = beta_of_type(TAU43, CTX73)
        with pytest.raises(kind, match=message):
            verify_step1(p, beta, CTX73, max_violations=bad)
        assert "_last_walk" not in vars(p) and not any("_tables" in vars(f) for f in p.factors)
        assert len(verify_step1(p, beta, CTX73, max_violations=1).violations) == 1
        assert verify_step1(p, beta, CTX73, max_violations=0).violations == ()

    def test_step2_guard_reads_the_step1_walk(self):
        # the point keeps the walk of the last beta asked, so step 2's NotInY
        # guard (one ``membership`` call) after step 1 walks nothing again
        factors = build_flagged_point(TAU52, CTX73_N2, random.Random(3)).factors
        beta = beta_of_type(TAU52, CTX73_N2)

        def run():
            p = ModelPoint(factors)
            verify_step1(p, beta, CTX73_N2)
            verify_step2(p, beta, CTX73_N2)

        assert count_calls(run, point_model._family_min_max, point_model.membership) == [1, 1]

    def test_one_entry_for_the_last_beta(self):
        # another beta walks again and replaces the entry; so does going back
        p = build_flagged_point(TAU52, CTX73_N2, random.Random(3))
        betas = [beta_of_type(tau, CTX73_N2) for tau in (TAU52, TAU52, TAU43, TAU52)]
        walks = [count_calls(lambda: membership(p, beta, CTX73_N2), point_model._family_min_max)[0] for beta in betas]
        assert walks == [1, 0, 1, 1] and p._last_walk[0] == beta_of_type(TAU52, CTX73_N2)


class TestStep2:
    def test_general_position_graded_passes(self):
        beta = beta_of_type(TAU43, CTX73)
        p = ModelPoint((Factor([[1, 1, 1, 0, 0], [0, 0, 0, 1, 2]], 1, [[2, 0], [0, 3]]),))
        report = verify_step2(p, beta, CTX73)
        assert report.passed
        assert all(b.semistable for b in report.blocks)

    def test_hyperplane_support_fails_with_witness(self):
        beta = beta_of_type(TAU43, CTX73)
        # block 1 has a zero column: its support misses the twisted character
        p = ModelPoint((Factor([[1, 1, 0, 0, 0], [0, 0, 0, 1, 1]], 1, [[2, 0], [0, 3]]),))
        report = verify_step2(p, beta, CTX73)
        assert not report.passed
        bad = report.blocks[0]
        assert not bad.semistable and bad.witness is not None
        # the witness separates: every supported weight pairs above the character
        assert any(x for x in bad.witness)

    def test_rank_zero_block_weights(self):
        # a rank-0 block has the det coordinate () iff c != 0, of character 1
        # everywhere, and no end coordinate: its point m_g w - m_g is 0, and
        # a factor with c = 0 leaves the block vacuous
        for c_vals in ([1, 2], [5], [1, 0], [0]):
            blocks = [()] * len(c_vals)
            want = [rescaled(cramer_block_weights((), c, (), 3), 3, 0) for c in c_vals]
            assert _block_weight_set(blocks, c_vals, blocks, 3) == (want if all(want) else [])
        assert _block_weight_set([(), ()], [1, 2], [(), ()], 3) == [{(0, 0, 0)}] * 2


def minkowski_sum(sets) -> set:
    """The explicit Minkowski sum of finite sets of int tuples; empty for no sets."""
    if not sets:
        return set()
    total = {(0,) * len(next(iter(sets[0])))}
    for pts in sets:
        total = {tuple(a + b for a, b in zip(t, w)) for t in total for w in pts}
    return total


def graded_blocks(p: ModelPoint, beta):
    """Per graded block, (m_g, y blocks, c values, phi blocks, block ranks) over
    factors, each factor written in its adapted basis g by the exact rule
    <g^-1 y, [c det g : det(g) g^T phi g^-T]> over ``Fraction``."""
    adapted = []
    for f in p.factors:
        g, dims = adapted_flag_basis(transpose(f.y), beta.flag.cuts)
        g_inv, d = inverse(g), det(g)
        phi = mat_mul(mat_mul(transpose(g), f.phi), transpose(g_inv))
        adapted.append((mat_mul(g_inv, f.y), f.c * d, tuple(tuple(d * x for x in row) for row in phi), dims))
    cuts = (0,) + beta.flag.cuts
    for gamma, m_g in enumerate(beta.m_blocks, start=1):
        graded = []
        for y, c, phi, dims in adapted:
            r_lo, r_hi = ((0,) + dims)[gamma - 1], dims[gamma - 1]
            graded.append((
                tuple(row[cuts[gamma - 1]:cuts[gamma]] for row in y[r_lo:r_hi]), c,
                tuple(row[r_lo:r_hi] for row in phi[r_lo:r_hi]), r_hi - r_lo,
            ))
        yield (m_g, *zip(*graded))


def step2_by_faces(p: ModelPoint, beta, ctx: CurveContext) -> Step2Report:
    """``verify_step2`` by the explicit route: each graded block of
    ``graded_blocks``, its weights by definition (``cramer_block_weights``)
    summed over factors point by point,
    translated by the twisted character, and the faces oracle's min-norm
    point."""
    if membership(p, beta, ctx) is Membership.OUTSIDE:
        raise NotInY("outside the inequality locus")
    blocks = []
    for gamma, (m_g, y_bs, c_vals, phi_bs, r_bs) in enumerate(graded_blocks(p, beta), start=1):
        per_factor = [cramer_block_weights(*args, m_g) for args in zip(y_bs, c_vals, phi_bs)]
        weights = minkowski_sum(per_factor) if all(per_factor) else set()
        if not weights:
            blocks.append(BlockReport(gamma, True, None, vacuous=True))
            continue
        chi = sum(F(m_g - r_b, m_g) for r_b in r_bs)
        v = min_norm_point_by_faces(sorted(tuple(a - chi for a in w) for w in weights))
        ss = not any(v)
        blocks.append(BlockReport(gamma, ss, None if ss else clear_denominators(v)[0]))
    return Step2Report(tuple(blocks))


def cramer_block_weights(y_b, c, phi_b, m_g: int) -> set[tuple[int, ...]]:
    """One factor's supported weights in a graded block of rank r_b, by the
    definitions: a det value c det(y_s) from ``det`` of the block's columns
    s, an end value (s, i, j) in Cramer form, det(y_s with column j replaced
    by column s_i of phi^T y), and each weight from ``alpha_of_index`` in
    the one-point context with m_g sections.  A rank-0 block has the one det
    value c, at s = (), of character 1 everywhere, and no end value."""
    r_b = len(y_b)
    if not r_b:
        return {(1,) * m_g} if c else set()
    ctx_b = CurveContext(r_b, m_g - r_b)
    z = mat_mul(transpose(phi_b), y_b)
    weights = set()
    for s in itertools.combinations(range(1, m_g + 1), r_b):
        y_s = tuple(tuple(row[l - 1] for l in s) for row in y_b)
        if c * det(y_s):
            weights.add(alpha_of_index(CoordinateIndex("det", (s,)), ctx_b))
        for i, j in itertools.product(range(1, r_b + 1), repeat=2):
            replaced = tuple(row[:j - 1] + (z_row[s[i - 1] - 1],) + row[j:] for row, z_row in zip(y_s, z))
            if det(replaced):
                weights.add(alpha_of_index(CoordinateIndex("end", (s,), ((i, j),)), ctx_b))
    return {tuple(int(a) for a in w) for w in weights}


def rescaled(weights, m_g: int, r_b: int) -> set[tuple[int, ...]]:
    """A factor's weights w as step 2's integer points m_g w - (m_g - r_b)."""
    return {tuple(m_g * a - m_g + r_b for a in w) for w in weights}


def _sparsified(p: ModelPoint, rng: random.Random) -> ModelPoint:
    """The point with random entries of y and phi zeroed (y keeping full row
    rank) and c zeroed on some factors whose phi is nonzero."""
    factors = []
    for f in p.factors:
        while True:
            y = tuple(tuple(x if rng.random() < 0.6 else 0 for x in row) for row in f.y)
            if rank(y) == len(y):
                break
        phi = tuple(tuple(x if rng.random() < 0.5 else 0 for x in row) for row in f.phi)
        c = 0 if rng.random() < 0.2 and any(x for row in phi for x in row) else f.c
        factors.append(Factor(y, c, phi))
    return ModelPoint(tuple(factors))


class TestStep2Reference:
    # (r, d, genus) contexts at N = 1-3; a type enters at N when each graded
    # block's summed weights stay within the exponential faces oracle's reach:
    # rank-1 blocks with at most 10 multisets of N of the m_g weights, and
    # rank-2 blocks with m_g = 2
    CONTEXTS = [(1, 1, 0), (1, 2, 0), (2, 0, 0), (2, 1, 0), (3, 1, 0), (2, 7, 2), (2, 8, 2)]

    @staticmethod
    def _in_reach(tau: HNType, beta, n: int) -> bool:
        return all(
            (r_g == 1 and math.comb(m_g + n - 1, n) <= 10) or r_g == m_g == 2
            for r_g, m_g in zip(tau.composition, beta.m_blocks)
        )

    def test_matches_the_faces_reference(self):
        rng = random.Random(13)
        compared = failing = vacuous = refused = 0
        for (r, d, g), n in itertools.product(self.CONTEXTS, (1, 2, 3)):
            ctx = CurveContext(r, d, genus=g, npoints=n)
            for tau in enumerate_hn_types(ctx, d + r, min_slope_exclusive=g - 1):
                beta = beta_of_type(tau, ctx)
                if not model_supported(tau, ctx) or not self._in_reach(tau, beta, n):
                    continue
                for graded in (False, True) * 3:
                    p = _sparsified(build_flagged_point(tau, ctx, rng, graded=graded), rng)
                    try:
                        want = step2_by_faces(p, beta, ctx)
                    except (NotInY, DegeneratePoint) as exc:
                        with pytest.raises(type(exc)):
                            verify_step2(p, beta, ctx)
                        refused += 1
                        continue
                    assert verify_step2(p, beta, ctx) == want
                    compared += 1
                    failing += sum(not b.semistable for b in want.blocks)
                    vacuous += sum(b.vacuous for b in want.blocks)
        assert compared >= 120 and failing >= 60 and vacuous >= 10 and refused > 0

    def test_block_weight_sets_match_cramer_oracle(self):
        # the cases of test_matches_the_faces_reference; rank-0 blocks are
        # covered by test_rank_zero_block_weights
        rng = random.Random(13)
        compared = vacuous = 0
        for (r, d, g), n in itertools.product(self.CONTEXTS, (1, 2, 3)):
            ctx = CurveContext(r, d, genus=g, npoints=n)
            for tau in enumerate_hn_types(ctx, d + r, min_slope_exclusive=g - 1):
                beta = beta_of_type(tau, ctx)
                if not model_supported(tau, ctx) or not self._in_reach(tau, beta, n):
                    continue
                for graded in (False, True) * 3:
                    p = _sparsified(build_flagged_point(tau, ctx, rng, graded=graded), rng)
                    for m_g, y_bs, c_vals, phi_bs, r_bs in graded_blocks(p, beta):
                        if not all(r_bs):
                            continue
                        want = [
                            rescaled(cramer_block_weights(*args, m_g), m_g, r_b)
                            for *args, r_b in zip(y_bs, c_vals, phi_bs, r_bs)
                        ]
                        want = want if all(want) else []
                        assert _block_weight_set(y_bs, c_vals, phi_bs, m_g) == want
                        compared += 1
                        vacuous += not want
        assert compared >= 200 and vacuous >= 10

    @pytest.mark.parametrize("r, d, genus", [(1, 3, 0), (2, 7, 2), (3, 4, 0)])
    def test_adapted_factors_are_int(self, r, d, genus):
        # rational entries, cleared once by the point and gauged without division
        rng = random.Random(31)
        ctx = CurveContext(r, d, genus=genus, npoints=2)
        checked = 0
        for tau in enumerate_hn_types(ctx, d + r, min_slope_exclusive=genus - 1):
            if not model_supported(tau, ctx):
                continue
            p = build_flagged_point(tau, ctx, rng)
            for k in range(p.npoints):
                alpha = tuple(tuple(x / t for x in row) for row, t in zip(random_block(rng, r, r), (2, 3, 5)))
                p = p.gauge_factor(k, alpha).rescale_factor(k, F(rng.randint(1, 5), rng.randint(2, 5)))
            beta = beta_of_type(tau, ctx)
            adapted = _adapted_factors(p, beta, ctx)
            for ((y, c, phi), dims, d_g, s), f in zip(adapted, p.factors):
                entries = [*(x for row in y + phi for x in row), c, *dims, d_g, s]
                assert all(type(x) is int for x in entries)
                # the det(g) read off _gauged's cofactors is det of the adapted basis
                assert d_g == det(adapted_flag_basis(transpose(f.Y), beta.flag.cuts)[0])
                checked += 1
        assert checked >= 2


class TestAdaptedBasis:
    """Each factor is written once, in the basis of its rank check's pivot
    columns; a beta only counts those columns under its cuts."""

    def test_step2_runs_no_elimination(self):
        p = ModelPoint(build_flagged_point(TAU52, CTX73_N2, random.Random(4)).factors)
        beta = beta_of_type(TAU52, CTX73_N2)
        assert count_calls(lambda: verify_step2(p, beta, CTX73_N2), EchelonAccumulator.add) == [0]

    def test_one_gauge_per_factor_across_betas(self):
        ctx = CTX73_N2
        p = ModelPoint(fresh_factors(build_flagged_point(TAU52, ctx, random.Random(3)).factors))
        betas = [beta_of_type(tau, ctx) for tau in (TAU43, TAU52)]
        assert all(membership(p, beta, ctx) is not Membership.OUTSIDE for beta in betas)
        assert betas[0].flag.cuts != betas[1].flag.cuts
        run = lambda: [_adapted_factors(p, beta, ctx) for beta in betas]
        assert count_calls(run, point_model._gauged) == [2]  # N = 2, not 4

    def test_graded_y_blocks_have_full_row_rank(self):
        # y' = det(g) rref(y), so each graded block holds det(g) I on its pivot columns
        rng = random.Random(29)
        checked = rational = 0
        for (r, d, genus), n in itertools.product([(1, 2, 0), (2, 3, 0), (2, 7, 2), (3, 2, 0)], (1, 2, 3)):
            ctx = CurveContext(r, d, genus=genus, npoints=n)
            types = [tau for tau in enumerate_hn_types(ctx, d + r, min_slope_exclusive=genus - 1)
                     if model_supported(tau, ctx)]
            betas = [beta_of_type(tau, ctx) for tau in types]
            for tau in types * 4:
                p = _sparsified(build_flagged_point(tau, ctx, rng, graded=rng.random() < 0.3), rng)
                for k in range(n):
                    alpha = [[x / t for x in row] for row, t in zip(random_block(rng, r, r), (2, 3, 5))]
                    p = p.gauge_factor(k, alpha).rescale_factor(k, F(rng.randint(1, 5), rng.randint(2, 5)))
                rational += any(f.L > 1 for f in p.factors)
                for beta in betas:
                    try:
                        adapted = _adapted_factors(p, beta, ctx)
                    except (NotInY, DegeneratePoint):
                        continue
                    cuts = (0,) + beta.flag.cuts
                    for (y, _, _), dims, _, _ in adapted:
                        for c_lo, c_hi, r_lo, r_hi in zip(cuts, cuts[1:], (0,) + dims, dims):
                            block = tuple(row[c_lo:c_hi] for row in y[r_lo:r_hi])
                            assert rank(block) == len(block)
                            checked += 1
        assert checked >= 500 and rational >= 100


class TestScalingInvariance:
    def setup_method(self):
        self.beta = beta_of_type(TAU43, CTX73)
        self.p = ModelPoint(
            (Factor([[1, 1, 1, 2, 0], [0, 0, 0, 1, 1]], 1, [[2, 0], [5, 3]]),)
        )
        self.flag = FlagShape(self.beta.m_blocks)

    def test_projective_rescale(self):
        rng = random.Random(9)
        t0 = coordinates(self.p, CTX73)
        for _ in range(5):
            t = F(rng.randint(1, 5), rng.randint(1, 5))
            q = self.p.rescale_factor(0, t)
            assert t0.proportional_to(coordinates(q, CTX73))
            assert membership(q, self.beta, CTX73) is membership(self.p, self.beta, CTX73)

    def test_gauge_leaves_coordinates_fixed(self):
        rng = random.Random(10)
        t0 = coordinates(self.p, CTX73)
        for _ in range(5):
            alpha = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if alpha[0][0] * alpha[1][1] - alpha[0][1] * alpha[1][0] == 0:
                continue
            q = self.p.gauge_factor(0, alpha)
            tq = coordinates(q, CTX73)
            assert all(t0[idx] == tq[idx] for idx in t0.values)
            assert verify_step1(q, self.beta, CTX73).passed == verify_step1(
                self.p, self.beta, CTX73
            ).passed
            assert verify_step2(q, self.beta, CTX73).passed == verify_step2(
                self.p, self.beta, CTX73
            ).passed
            assert unipotent_stabilizer_dim(q, self.flag, CTX73) == unipotent_stabilizer_dim(
                self.p, self.flag, CTX73
            )

    def test_gauge_round_trip_is_exact(self):
        # alpha^-1 from the adjugate, apart from the elimination behind gauge_factor
        rng = random.Random(14)
        for _, _, p in itertools.islice(_flagged_corpus(), 0, 108, 9):
            for k in range(p.npoints):
                alpha = tuple(
                    tuple(x * F(rng.randint(1, 4), rng.randint(1, 4)) for x in row)
                    for row in random_block(rng, p.r, p.r)
                )
                d = det(alpha)
                alpha_inv = tuple(tuple(x / d for x in row) for row in adjugate(alpha))
                assert p.gauge_factor(k, alpha).gauge_factor(k, alpha_inv) == p
        with pytest.raises(ValueError, match="invertible"):
            self.p.gauge_factor(0, [[1, 2], [2, 4]])

    @pytest.mark.parametrize("alpha", [[[2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0]]])
    def test_gauge_of_the_wrong_shape_is_refused(self, alpha):
        with pytest.raises(ValueError, match="2 x 2"):
            self.p.gauge_factor(0, alpha)

    def test_negative_factor_index_counts_from_the_end(self):
        p = ModelPoint((*self.p.factors, Factor([[1, 0, 1, 0, 1], [0, 1, 0, 1, 1]], 2, [[1, 0], [0, 1]])))
        for move, arg in ((ModelPoint.rescale_factor, 5), (ModelPoint.gauge_factor, [[2, 0], [1, 1]])):
            last = move(p, -1, arg)
            assert last.npoints == 2 and last == move(p, 1, arg) and last.factors[0] == p.factors[0]
            for k in (2, -3):
                with pytest.raises(IndexError):
                    move(p, k, arg)

    def test_two_factor_coordinates_are_products(self):
        ctx = CurveContext(2, 1, genus=0, npoints=2)  # m = 3
        f1 = Factor([[1, 2, 0], [0, 1, 3]], 1, [[1, 0], [2, 1]])
        f2 = Factor([[1, 0, 1], [0, 1, 1]], F(2), [[0, 1], [1, 0]])
        pair = ModelPoint((f1, f2))
        singles = [
            coordinates(ModelPoint((f,)), CurveContext(2, 1, genus=0, npoints=1))
            for f in (f1, f2)
        ]
        table = coordinates(pair, ctx)
        for idx, value in table.values.items():
            parts = []
            for k in range(2):
                sub_ij = None if idx.ij is None else (idx.ij[k],)
                sub = CoordinateIndex(idx.kind, (idx.subsets[k],), sub_ij)
                parts.append(singles[k][sub])
            assert value == parts[0] * parts[1]


CTX22 = CurveContext(2, 0, genus=0, npoints=1)  # m = 2
FLAG11 = FlagShape((1, 1))


def _act(p: ModelPoint, u) -> ModelPoint:
    return ModelPoint(
        tuple(Factor(mat_mul(f.y, mat(u)), f.c, f.phi) for f in p.factors)
    )


class TestUnipotentStabilizer:
    def test_zero_higgs_field_full_unipotent(self):
        p = ModelPoint((Factor([[1, 0], [0, 1]], 1, [[0, 0], [0, 0]]),))
        assert unipotent_stabilizer_dim(p, FLAG11, CTX22) == 1
        # group-element check: the one-parameter unipotent really stabilises
        u = [[1, F(5, 3)], [0, 1]]
        assert coordinates(p, CTX22).proportional_to(coordinates(_act(p, u), CTX22))

    def test_distinct_scalar_blocks_trivial(self):
        p = ModelPoint((Factor([[1, 0], [0, 1]], 1, [[2, 0], [0, 3]]),))
        assert unipotent_stabilizer_dim(p, FLAG11, CTX22) == 0
        u = [[1, 1], [0, 1]]
        assert not coordinates(p, CTX22).proportional_to(coordinates(_act(p, u), CTX22))

    def test_equal_scalar_blocks_recover_dimension(self):
        p = ModelPoint((Factor([[1, 0], [0, 1]], 1, [[2, 0], [0, 2]]),))
        assert unipotent_stabilizer_dim(p, FLAG11, CTX22) == 1

    def test_nonzero_offdiagonal_block_trivial(self):
        p = ModelPoint((Factor([[1, 0], [0, 1]], 1, [[0, 5], [0, 0]]),))
        assert unipotent_stabilizer_dim(p, FLAG11, CTX22) == 0
        assert nilpotent_commutant_dim(FLAG11, [[[0, 0], [5, 0]]]) == 0

    def test_matches_lowering_commutant_on_graded_points(self):
        # graded two-block points: first-order stabiliser = commuting lowerings
        rng = random.Random(21)
        ctx = CurveContext(2, 7, genus=2, npoints=1)
        tau = TAU43
        beta = beta_of_type(tau, ctx)
        flag = FlagShape(beta.m_blocks)
        for _ in range(6):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            p = flagged_point(3, [[a, 0], [0, b]])
            dim = unipotent_stabilizer_dim(p, flag, ctx)
            expected = 1 if a == b else 0
            # the Higgs-side commutant of the fibre matrices (column convention)
            fibre = [[a, 0], [0, b]]
            assert nilpotent_commutant_dim(FLAG11, [fibre]) == expected
            # unipotent stabiliser also counts directions acting trivially on
            # the section space beyond the fibre data, so it dominates
            assert dim >= expected


_SPARSE = st.sampled_from([0, 0, 0, 0, 1, -1, 2])


def _sparse_y(draw, r: int, m: int):
    """Sparse r x m matrix, many minors singular, with full row rank: each row
    owns one column that only it touches."""
    y = [[draw(_SPARSE) for _ in range(m)] for _ in range(r)]
    for i, col in enumerate(draw(st.permutations(range(m)))[:r]):
        for a in range(r):
            y[a][col] = draw(st.integers(1, 2)) if a == i else 0
    return y


def _rank_one(draw, r: int):
    """u v^T with u and v nonzero; u . v = 0 in about half the draws at r >= 2."""
    v = [draw(_SPARSE) for _ in range(r)]
    b = draw(st.integers(0, r - 1))
    v[b] = draw(st.sampled_from([1, -1, 2]))
    if r > 1 and draw(st.booleans()):
        i = draw(st.sampled_from([i for i in range(r) if i != b]))
        u = [v[b] * (t == i) - v[i] * (t == b) for t in range(r)]
    else:
        u = [draw(_SPARSE) for _ in range(r)]
        u[b] = u[b] or 1
    return [[a * x for x in v] for a in u]


@st.composite
def _stabilizer_cases(draw):
    """(point, flag, ctx) at genus 0, small enough for the full-table oracle.

    Each factor keeps both families, or has c = 0, or has phi = 0, or has a
    rank-one phi with c = 0 or not, so that one family or both can vanish
    across the factors, and the end family alone can live on rank-one phis.
    """
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    sizes = [
        m for m in range(r, r + 3)
        if coordinate_index_count(CurveContext(r, m - r, genus=0, npoints=n)) <= 2000
    ]
    m = draw(st.sampled_from(sizes))
    factors = []
    for _ in range(n):
        y = _sparse_y(draw, r, m)
        phi = [[draw(_SPARSE) for _ in range(r)] for _ in range(r)]
        kind = draw(st.sampled_from(["both", "c=0", "phi=0", "rank1"]))
        c = 0 if kind == "c=0" else draw(st.sampled_from([1, -1, 2] + [0] * (kind == "rank1")))
        if kind == "phi=0":
            phi = [[0] * r for _ in range(r)]
        elif kind == "rank1":
            phi = _rank_one(draw, r)
        elif not any(map(any, phi)):
            phi[0][0] = 1
        factors.append(Factor(y, c, phi))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), min_size=1))) if m > 1 else []
    blocks = [b - a for a, b in zip([0] + cuts, cuts + [m])]
    return ModelPoint(tuple(factors)), FlagShape(tuple(blocks)), CurveContext(r, m - r, genus=0, npoints=n)


@st.composite
def _single_factors(draw):
    """(point, ctx): one factor, r 1-3, m <= r + 3, sparse y, c = 0 or phi = 0 allowed."""
    r = draw(st.integers(1, 3))
    m = draw(st.integers(r, r + 3))
    y = _sparse_y(draw, r, m)
    c = draw(st.sampled_from([0, 1, -1, 2, F(1, 2)]))
    phi = [[draw(_SPARSE) for _ in range(r)] for _ in range(r)]
    if c == 0 and not any(map(any, phi)):
        phi[0][0] = 1
    return ModelPoint((Factor(y, c, phi),)), CurveContext(r, m - r, genus=0)


def per_family_weights(y_blocks, c_vals, phi_blocks, m_g: int) -> list[set[tuple[int, ...]]]:
    """A graded block's per-factor weights by family, unscaled: 1 off K minus
    e_x for every nonzero V_z entry (K, x), x in K too, and 1 off s for
    every nonzero det y_s when c != 0; (1, ..., 1) for a rank-0 block when
    c != 0; an empty list when some factor has none."""
    cols = range(1, m_g + 1)
    per_factor = []
    for y_b, c, phi_b in zip(y_blocks, c_vals, phi_blocks):
        if not y_b:
            weights = {(1,) * m_g} if c else set()
        else:
            _, dets, v_z = _factor_values(y_b, c, phi_b, m_g)
            K_all = itertools.combinations(cols, len(y_b) - 1)
            weights = {
                tuple(int(l not in K) - (l == x) for l in cols)
                for n, K in enumerate(K_all) for x in cols if v_z[n * m_g + x - 1]
            }
            if c:
                s_all = itertools.combinations(cols, len(y_b))
                weights |= {tuple(int(l not in s) for l in cols) for s, v in zip(s_all, dets) if v}
        if not weights:
            return []
        per_factor.append(weights)
    return per_factor


@st.composite
def _graded_block_cases(draw):
    """(y blocks, c values, phi blocks, m_g): 1-3 factors of one graded block,
    r_b 0-3, m_g <= r_b + 3, sparse y of full row rank, c zero or not, and
    phi zero, rank one or generic."""
    r = draw(st.integers(0, 3))
    m = draw(st.integers(max(r, 1), r + 3))
    cases = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["zero", "rank1", "generic"]))
        if kind == "zero" or not r:
            phi = [[0] * r for _ in range(r)]
        else:
            phi = _rank_one(draw, r) if kind == "rank1" else [[draw(_SPARSE) for _ in range(r)] for _ in range(r)]
        y = _sparse_y(draw, r, m)
        cases.append((tuple(map(tuple, y)), draw(st.sampled_from([0, 1, -2])), tuple(map(tuple, phi))))
    return (*map(list, zip(*cases)), m)


class TestBlockPointsByFamily:
    # y = I_2 and phi_12 = 3: z = phi^T y has z_1 = (0, 3), so V_z({1}, 1) =
    # det[y_1 | z_1] = 3 is an entry with x in K; c = 0 and phi = 0 leave
    # the block vacuous
    @given(_graded_block_cases())
    @settings(max_examples=300, deadline=None)
    @example(([((1, 0), (0, 1))], [0], [((0, 3), (0, 0))], 2))
    @example(([((1, 0, 2),), ((0, 1, 1),)], [1, 0], [((0,),), ((0,),)], 3))
    @example(([(), ()], [1, 0], [(), ()], 2))
    def test_points_match_the_per_family_weights_rescaled(self, case):
        y_bs, c_vals, phi_bs, m_g = case
        want = [rescaled(ws, m_g, len(y_b)) for ws, y_b in zip(per_family_weights(*case), y_bs)]
        assert _block_weight_set(y_bs, c_vals, phi_bs, m_g) == want


class TestFactorValuesReference:
    """The cofactor-table evaluator against the defining formulas of the module."""

    @given(_single_factors())
    @settings(max_examples=150, deadline=None)
    def test_values_match_definitions(self, case):
        p, ctx = case
        f, r = p.factors[0], p.r
        table = coordinates(p, ctx)
        y_t_phi = mat_mul(transpose(f.y), f.phi)
        for s in itertools.combinations(range(1, p.m + 1), r):
            y_s = tuple(tuple(row[l - 1] for l in s) for row in f.y)
            d = det(y_s)
            assert table[CoordinateIndex("det", (s,))] == f.c * d
            b = mat_mul(tuple(y_t_phi[l - 1] for l in s), adjugate(transpose(y_s)))
            y_inv = inverse(y_s) if d else None
            for i, j in itertools.product(range(1, r + 1), repeat=2):
                v = table[CoordinateIndex("end", (s,), ((i, j),))]
                assert v == b[i - 1][j - 1]
                if y_inv is not None:
                    sigma = tuple(
                        tuple(F(int((a, e) == (i - 1, j - 1))) for e in range(r)) for a in range(r)
                    )
                    conj = mat_mul(mat_mul(mat_mul(y_s, sigma), y_inv), transpose(f.phi))
                    assert v == d * sum(conj[a][a] for a in range(r))


@st.composite
def _ring_factors(draw):
    """(y, c, phi) over int, Fraction or dual numbers: r 1-4, m <= 5, sparse
    entries, zero rows (hence whole zero cofactor vectors), c = 0 and phi = 0."""
    kind = draw(st.sampled_from(["int", "fraction", "dual"]))
    r, m = draw(st.integers(1, 4)), draw(st.integers(0, 5))

    def entry():
        x = draw(_SPARSE)
        return {"int": x, "fraction": F(x, 3), "dual": Dual(F(x), F(draw(_SPARSE)))}[kind]

    zero_row = st.sampled_from([False, False, True])
    y = [[entry() for _ in range(m)] for _ in range(r)]
    y = [[x - x for x in row] if draw(zero_row) else row for row in y]
    c = entry()
    phi = [[entry() for _ in range(r)] for _ in range(r)]
    if draw(st.booleans()):
        phi = [[x - x for x in row] for row in phi]
    return y, c, phi


class TestFactorTablesByDefinition:
    """Every entry of the cofactor tables, and the support pass over them,
    against their definitions, in the ring of the input."""

    @given(_ring_factors())
    @settings(max_examples=150, deadline=None)
    def test_every_entry_is_its_determinant(self, case):
        # P[n] = det y_s for the n-th r-subset s in lex order, and the flat
        # V_z[kidx(K) m + x - 1] = det[y_K | z_x], in the input's ring
        y, c, phi = case
        r, m = len(y), len(y[0])
        ring = type(y[0][0]) if m else None
        z = mat_mul(transpose(phi), y)
        got_c, dets, v_z = _factor_values(y, c, phi, m)
        assert got_c == c
        columns = lambda w, cols: tuple(tuple(row[l - 1] for l in cols) for row in w)
        subsets = list(itertools.combinations(range(1, m + 1), r))
        assert len(dets) == len(subsets)
        for s, got in zip(subsets, dets):
            assert got == det(columns(y, s)) and type(got) is ring
        Ks = list(itertools.combinations(range(1, m + 1), r - 1))
        assert len(v_z) == len(Ks) * m
        for n, K in enumerate(Ks):
            for x in range(1, m + 1):
                want = det(tuple((*y_K, z_row[x - 1]) for y_K, z_row in zip(columns(y, K), z)))
                got = v_z[n * m + x - 1]
                assert got == want and type(got) is ring

    @given(_ring_factors())
    @settings(max_examples=150, deadline=None)
    def test_support_is_the_first_key_walk(self, case):
        # step 1 keeps, per family, the entries of ``_first_reads`` that are
        # nonzero (the det family only when c != 0, ``_live_families``), each
        # with the first key in table order that reads it, in that key's order
        y, c, phi = case
        r, m = len(y), len(y[0])
        _, *tables = _factor_values(y, c, phi, m)
        Ks = list(itertools.combinations(range(1, m + 1), r - 1))
        want = ({}, {})
        for key, (fam, n, _) in _entry_keys(r, m).items():
            if (fam or c) and tables[fam][n]:
                want[fam].setdefault(n, key)
        got = [
            [(n, key) for n, k, x, key in reads if tables[fam][n]] if fam or c else []
            for fam, reads in enumerate(_first_reads(r, m))
        ]
        assert got == [list(d.items()) for d in want]
        # each step's (kidx(K), x) names the entry (K, x) its key reads
        for fam, reads in enumerate(_first_reads(r, m)):
            for n, k, x, key in reads:
                s, i, j = (key, r, r) if fam == 0 else key
                assert (Ks[k], x) == (s[:j - 1] + s[j:], s[i - 1])
        # so the det walk reads P in order, by ``zip``
        assert [n for n, *_ in _first_reads(r, m)[0]] == list(range(math.comb(m, r)))


def _or_degenerate(route, *args):
    try:
        return route(*args)
    except DegeneratePoint:
        return "degenerate"


class TestStabilizerDenseOracle:
    """The factorised per-factor system against the full N-fold table."""

    @given(_stabilizer_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_oracle(self, case):
        p, flag, ctx = case
        assert _or_degenerate(unipotent_stabilizer_dim, p, flag, ctx) == _or_degenerate(
            unipotent_stabilizer_dim_dense_oracle, p, flag, ctx
        )

    def test_both_families_vanish(self):
        ctx = CurveContext(2, 1, genus=0, npoints=2)  # m = 3
        p = ModelPoint((
            Factor([[1, 0, 1], [0, 1, 2]], 0, [[1, 2], [0, 1]]),
            Factor([[1, 1, 0], [0, 1, 1]], 3, [[0, 0], [0, 0]]),
        ))
        for route in (unipotent_stabilizer_dim, unipotent_stabilizer_dim_dense_oracle):
            with pytest.raises(DegeneratePoint):
                route(p, FlagShape((2, 1)), ctx)

    def test_cap_counts_factorised_rows(self):
        beta = beta_of_type(TAU52, CTX73_N2)
        flag = FlagShape(beta.m_blocks)
        p = build_flagged_point(TAU52, CTX73_N2, random.Random(3))
        # N r m |positions| = 2 * 2 * 5 * (4 * 1) invariance-row entries
        # against 10^2 * 17 coordinates
        dim = unipotent_stabilizer_dim(p, flag, CTX73_N2, cap=80)
        with pytest.raises(CapExceeded) as exc:
            unipotent_stabilizer_dim(p, flag, CTX73_N2, cap=79)
        assert exc.value.count == 80
        with pytest.raises(CapExceeded) as exc:
            unipotent_stabilizer_dim_dense_oracle(p, flag, CTX73_N2, cap=100)
        assert exc.value.count == 1700
        assert unipotent_stabilizer_dim_dense_oracle(p, flag, CTX73_N2) == dim

    def test_three_points_under_budget(self):
        ctx = CurveContext(2, 7, genus=2, npoints=3)
        beta = beta_of_type(TAU43, ctx)
        p = build_flagged_point(TAU43, ctx, random.Random(4))
        start = time.monotonic()
        unipotent_stabilizer_dim(p, FlagShape(beta.m_blocks), ctx)
        assert time.monotonic() - start < 5


def _bench_workload(name: str, seed: int):
    """A workload's request list, built by ``bench/workloads.py`` (read-only)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        return module.build(name, seed)
    finally:
        del sys.modules[spec.name]


class TestStabilizerInvariance:
    """The stabiliser as per-factor subspace invariance, which reads no table."""

    @given(_single_factors())
    @settings(max_examples=100, deadline=None)
    def test_live_families_match_the_support(self, case):
        # a family is live when every factor has a nonzero value in it, each
        # value an entry of its tables times c or a sign (``_entry_keys``)
        p, _ = case
        reads = _entry_keys(p.r, p.m).values()
        supported = lambda fam, c, parts: any(
            (sign if fam else c) * parts[fam][n] for f, n, sign in reads if f == fam
        )
        tables = [f._tables for f in p.factors]
        want = tuple(fam for fam in (0, 1) if all(supported(fam, c, parts) for c, *parts in tables))
        assert p._live_families == want

    def test_step1_caches_only_the_tables(self):
        # step 1 walks each factor's cached tables once per beta and keeps no
        # support of its own, only the one walk of the last beta (``_last_walk``)
        p = ModelPoint(fresh_factors(build_flagged_point(TAU52, CTX73_N2, random.Random(3)).factors))
        verify_step1(p, beta_of_type(TAU52, CTX73_N2), CTX73_N2)
        assert set(vars(p)) == {"factors", "_live_families", "_last_walk"}
        assert all(set(vars(f)) == {"Y", "L", "C", "Phi", "M", "_basis", "_tables"} for f in p.factors)

    def test_builds_no_table(self):
        p = ModelPoint(fresh_factors(build_flagged_point(TAU52, CTX73_N2, random.Random(3)).factors))
        unipotent_stabilizer_dim(p, FlagShape(beta_of_type(TAU52, CTX73_N2).m_blocks), CTX73_N2)
        assert not any("_tables" in vars(f) for f in p.factors)

    def test_one_minor_search_per_factor(self):
        # the rank check's columns give each factor's kernel, so a fresh N = 2
        # point searches for a nonzero maximal minor twice, not four times
        factors = build_flagged_point(TAU52, CTX73_N2, random.Random(3)).factors
        assert all(f.C and any(map(any, f.Phi)) for f in factors)  # both families live
        flag = FlagShape(beta_of_type(TAU52, CTX73_N2).m_blocks)
        run = lambda: unipotent_stabilizer_dim(ModelPoint(fresh_factors(factors)), flag, CTX73_N2)
        assert count_calls(run, full_row_rank) == [2]

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_four_matches_dense_oracle(self, seed):
        # N = 1, m 5-8; c = 0 with a rank-one phi, u . v = 0 or not, takes the rank-one rule
        rng = random.Random(seed)
        m = rng.randint(5, 8)
        ctx = CurveContext(4, m - 4, genus=0)
        kind = ["both", "c=0", "phi=0", "rank1", "rank1"][seed % 5]
        phi = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(4)] for _ in range(4)]
        phi[0][0] = 1
        if kind == "phi=0":
            phi = [[0] * 4 for _ in range(4)]
        elif kind == "rank1":
            v = [rng.choice([0, 1, -1, 2]) for _ in range(3)] + [1]
            u = [1, 0, 0, -v[0]] if seed % 2 else [rng.choice([1, 2]), -1, 0, 3]  # u . v = 0 when odd
            phi = [[a * x for x in v] for a in u]
        c = 0 if kind in ("c=0", "rank1") else 1
        p = ModelPoint((Factor(random_block(rng, 4, m), c, phi),))
        cuts = sorted(rng.sample(range(1, m), 2))
        flag = FlagShape(tuple(b - a for a, b in zip([0, *cuts], [*cuts, m])))
        assert unipotent_stabilizer_dim(p, flag, ctx) == unipotent_stabilizer_dim_dense_oracle(p, flag, ctx)

    def test_one_block_flag(self):
        p = build_flagged_point(TAU43, CTX73, random.Random(9))
        flag = FlagShape((p.m,))
        assert unipotent_stabilizer_dim(p, flag, CTX73) == 0
        assert unipotent_stabilizer_dim_dense_oracle(p, flag, CTX73) == 0

    def test_rows_fed_on_the_stratify_stabdim_points(self, capsys, monkeypatch):
        # 77 nonzero rows fed and 47 kept through the cofactor tables; the
        # invariance rows keep the same 47 and feed no dependent row
        requests = [req for req in _bench_workload("stratify", 1).requests if req.kind == "stabdim"]
        assert len(requests) == 36
        fed, real = [], EchelonAccumulator.add

        def add(self, row):
            fed.append(real(self, row))
            return fed[-1]

        monkeypatch.setattr(EchelonAccumulator, "add", add)
        for req in requests:
            assert cli.main(list(req.argv)) == 0
        capsys.readouterr()
        assert (len(fed), sum(fed)) == (47, 47)


@st.composite
def _rational_cases(draw):
    """(point, flag, beta, ctx) at genus 0 with rational entries, r 1-3, N 1-2.

    The denominators 2, 3, 4 and 7 are dealt to y, c and phi so that each
    differs between the factors; each entry is over 1 or that denominator,
    so the lcms that clear them vary too.  Factors may have c = 0 or phi = 0.
    """
    n = draw(st.integers(1, 2))
    r = draw(st.integers(1, 3))
    sizes = [
        m for m in range(r, r + 3)
        if coordinate_index_count(CurveContext(r, m - r, genus=0, npoints=n)) <= 2000
    ]
    m = draw(st.sampled_from(sizes))
    ctx = CurveContext(r, m - r, genus=0, npoints=n)
    dens = draw(st.permutations([2, 3, 4, 7]))

    def over(x, d):
        return F(x, draw(st.sampled_from([1, d])))

    factors = []
    for k in range(n):
        d_y, d_c, d_phi = dens[k], dens[k + 1], dens[k + 2]
        y = [[over(x, d_y) for x in row] for row in _sparse_y(draw, r, m)]
        phi = [[over(draw(_SPARSE), d_phi) for _ in range(r)] for _ in range(r)]
        kind = draw(st.sampled_from(["both", "c=0", "phi=0"]))
        c = 0 if kind == "c=0" else over(draw(st.sampled_from([1, -1, 2, 3])), d_c)
        if kind == "phi=0":
            phi = [[0] * r for _ in range(r)]
        elif not any(map(any, phi)):
            phi[0][0] = F(1, d_phi)
        factors.append(Factor(y, c, phi))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), min_size=1))) if m > 1 else []
    blocks = [b - a for a, b in zip([0] + cuts, cuts + [m])]
    types = enumerate_hn_types(ctx, ctx.degree + r, min_slope_exclusive=-1)
    beta = beta_of_type(draw(st.sampled_from(types)), ctx)
    return ModelPoint(tuple(factors)), FlagShape(tuple(blocks)), beta, ctx


class TestRationalEntries:
    """Int tables from cleared denominators against the raw Fraction route."""

    @given(_rational_cases())
    @settings(max_examples=120, deadline=None)
    def test_coordinates_match_fraction_tables(self, case):
        p, _, _, ctx = case
        raw = _table(
            enumerate_coordinate_indices(ctx),
            [_factor_values(f.y, f.c, f.phi, p.m) for f in p.factors], p.r, p.m,
        )
        table = _or_degenerate(coordinates, p, ctx)
        if table == "degenerate":
            assert not any(raw.values())
            return
        assert table.values == raw
        assert all(type(v) is F for v in table.values.values())

    @given(_rational_cases())
    @settings(max_examples=80, deadline=None)
    def test_stabilizer_matches_dense_oracle(self, case):
        p, flag, _, ctx = case
        assert _or_degenerate(unipotent_stabilizer_dim, p, flag, ctx) == _or_degenerate(
            unipotent_stabilizer_dim_dense_oracle, p, flag, ctx
        )

    @given(_rational_cases())
    @settings(max_examples=120, deadline=None)
    def test_step1_weights_match_pairings(self, case):
        p, _, beta, ctx = case
        report = _or_degenerate(verify_step1, p, beta, ctx)
        if report == "degenerate":
            assert _or_degenerate(coordinates, p, ctx) == "degenerate"
            return
        support = coordinates(p, ctx).support()
        weights = {idx: pairing(beta, alpha_of_index(idx, ctx)) for idx in support}
        assert report.min_support_weight == min(weights.values())
        assert type(report.min_support_weight) is F
        for idx, w in report.violations:
            assert w == weights[idx] < beta.norm_sq and type(w) is F


class TestNilpotentCommutant:
    def test_forced_zero(self):
        assert nilpotent_commutant_dim(FLAG11, [[[0, 0], [1, 0]]]) == 0

    def test_zero_field_full_lowering_space(self):
        assert nilpotent_commutant_dim(FLAG11, [[[0, 0], [0, 0]]]) == 1

    def test_distinct_scalars_force_zero(self):
        flag = FlagShape((2, 1))
        phi = [[2, 0, 0], [0, 2, 0], [0, 0, 5]]
        assert nilpotent_commutant_dim(flag, [phi]) == 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            nilpotent_commutant_dim(FLAG11, [[[1]]])

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_one_block_flag_has_no_lowering_maps(self, r, count):
        # no strictly upper block positions: the nullity over none is 0
        flag = FlagShape((r,))
        rng = random.Random(r * 10 + count)
        phis = [[[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)] for _ in range(count)]
        assert nilpotent_commutant_dim(flag, phis) == nilpotent_commutant_dim_dense_oracle(flag, phis) == 0

    def test_dense_oracle_agreement(self):
        rng = random.Random(7)
        for _ in range(40):
            r = rng.randint(2, 5)
            sizes = []
            left = r
            while left:
                b = rng.randint(1, left)
                sizes.append(b)
                left -= b
            flag = FlagShape(tuple(sizes))
            phis = [
                [[F(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
                for _ in range(rng.randint(1, 2))
            ]
            assert nilpotent_commutant_dim(flag, phis) == nilpotent_commutant_dim_dense_oracle(flag, phis)


class TestLoweringComparison:
    """Lowering commutant of a matrix against that of its graded part.

    The naive matrix-level analogue of the bundle statement fails in general;
    it holds on the family whose strictly lower (coupling) block vanishes.
    """

    @staticmethod
    def _dims(phi):
        graded = [[phi[0][0], 0], [0, phi[1][1]]]  # the diagonal blocks of FLAG11
        return nilpotent_commutant_dim(FLAG11, [phi]), nilpotent_commutant_dim(FLAG11, [graded])

    def test_restricted_family_agrees(self):
        rng = random.Random(2)
        for _ in range(20):
            phi = [[rng.randint(-3, 3), rng.randint(-3, 3)], [0, rng.randint(-3, 3)]]
            assert phi[1][0] == 0
            full, graded = self._dims(phi)
            assert full == graded

    def test_counterexample_exists(self):
        phi = [[1, 0], [3, 1]]
        assert phi[1][0] != 0
        assert self._dims(phi) == (0, 1)


class TestRetractionStabReport:
    def test_report_runs_and_compares(self):
        beta = beta_of_type(TAU43, CTX73)
        flag = FlagShape(beta.m_blocks)
        p = flagged_point(3, [[2, 0], [5, 3]])
        before = unipotent_stabilizer_dim(p, flag, CTX73)
        after = unipotent_stabilizer_dim(retract_p_beta(p, beta, CTX73), flag, CTX73)
        assert (before, after) == (4, 4)


class TestDirectDefinitionCrossChecks:
    """The factorised membership path against the literal coordinate scan."""

    def _direct_membership(self, p, beta, ctx):
        table = coordinates(p, ctx)
        target = beta.norm_sq
        weights = [
            pairing(alpha_of_index(idx, ctx), beta) for idx in table.support()
        ]
        if any(w < target for w in weights):
            return Membership.OUTSIDE
        if all(w == target for w in weights):
            return Membership.IN_Z
        if any(w == target for w in weights):
            return Membership.IN_Y_NOT_Z
        return Membership.OUTSIDE

    def _cases(self):
        """(ctx, points, betas) at one and at two evaluation points."""
        rng = random.Random(31)
        one = [
            flagged_point(3, [[2, 0], [5, 3]]),
            flagged_point(3, [[2, 0], [0, 3]]),
            flagged_point(4, [[1, 0], [2, 3]]),
            ModelPoint((Factor([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], 1, [[1, 2], [3, 4]]),)),
        ]
        one += [build_flagged_point(TAU43, CTX73, rng) for _ in range(4)]
        two = [
            ModelPoint(flagged_point(3, [[2, 0], [5, 3]]).factors + flagged_point(4, [[1, 0], [2, 3]]).factors),
            ModelPoint(flagged_point(3, [[2, 0], [0, 3]]).factors + flagged_point(3, [[0, 0], [1, 0]], c=0).factors),
        ]
        two += [build_flagged_point(TAU43, CTX73_N2, rng) for _ in range(2)]
        two += [build_flagged_point(TAU52, CTX73_N2, rng, graded=True)]
        for ctx, points in ((CTX73, one), (CTX73_N2, two)):
            betas = [beta_of_type(tau, ctx) for tau in (TAU43, TAU52, HNType(((2, 7),)))]
            yield ctx, points, betas

    def test_membership_matches_direct_scan(self):
        for ctx, points, betas in self._cases():
            for p in points:
                for beta in betas:
                    assert membership(p, beta, ctx) is self._direct_membership(p, beta, ctx)

    def test_min_support_weight_matches_direct_scan(self):
        for ctx, points, betas in self._cases():
            for p in points:
                support = coordinates(p, ctx).support()
                for beta in betas:
                    direct = min(pairing(alpha_of_index(idx, ctx), beta) for idx in support)
                    report = verify_step1(p, beta, ctx)
                    assert report.min_support_weight == direct
                    witness = report.equality_witness
                    if witness is not None:
                        assert witness in support
                        assert pairing(alpha_of_index(witness, ctx), beta) == beta.norm_sq

    def test_equality_weight_counting_characterisation(self):
        # for a flag-adapted point in standard position, a supported det
        # coordinate pairs exactly at the squared norm precisely when each
        # selection loses, below every flag cut, as many columns as the kernel
        # of y meets that cut
        rng = random.Random(41)
        ctx = CurveContext(3, 10, genus=2, npoints=1)  # m = 7
        tau = HNType(((1, 5), (2, 5)))
        beta = beta_of_type(tau, ctx)
        cuts = beta.flag.cuts
        p = build_flagged_point(tau, ctx, rng)
        table = coordinates(p, ctx)
        rank_prefix = [1, 3]
        for idx in table.support():
            if idx.kind != "det":
                continue
            w = pairing(alpha_of_index(idx, ctx), beta)
            subset = idx.subsets[0]
            counting = all(
                cut - r_pref == sum(1 for l in range(1, cut + 1) if l not in subset)
                for cut, r_pref in zip(cuts, rank_prefix)
            )
            assert (w == beta.norm_sq) == counting

    @staticmethod
    def _step1_by_definition(p, beta, ctx, max_violations):
        """``verify_step1``'s violations and equality witness from the
        definition, or None when no family is supported at every factor: each
        factor's nonzero keys in table order from ``coordinates`` of that
        factor alone, weighted by ``alpha_of_index``, the first key of each
        weight kept, and the tuples walked in lexicographic weight order,
        det family first."""
        one = dataclasses.replace(ctx, npoints=1)
        firsts = {"det": [], "end": []}
        for f in p.factors:
            support = coordinates(ModelPoint((f,)), one).support()
            for kind, per_factor in firsts.items():
                kept = {}
                for idx in support:
                    if idx.kind == kind:
                        kept.setdefault(pairing(alpha_of_index(idx, one), beta), idx)
                per_factor.append(sorted(kept.items()))
        violations, witness, supported = [], None, False
        for kind, per_factor in firsts.items():
            if not all(per_factor):
                continue
            supported = True
            for combo in itertools.product(*per_factor):
                w = sum(weight for weight, _ in combo)
                ij = None if kind == "det" else tuple(idx.ij[0] for _, idx in combo)
                idx = CoordinateIndex(kind, tuple(idx.subsets[0] for _, idx in combo), ij)
                if w < beta.norm_sq:
                    violations.append((idx, w))
                elif w == beta.norm_sq and witness is None:
                    witness = idx
        return (tuple(violations[:max_violations]), witness) if supported else None

    def test_step1_report_matches_definition(self):
        rng = random.Random(37)
        r3 = CurveContext(3, 10, genus=2, npoints=1)  # m = 7
        r3_n2 = CurveContext(3, 10, genus=2, npoints=2)
        tau3 = HNType(((1, 5), (2, 5)))
        c_zero = flagged_point(3, [[0, 0], [1, 0]], c=0)
        phi_zero = flagged_point(4, [[0, 0], [0, 0]])
        extra = {
            CTX73: [c_zero, phi_zero] + [_sparsified(build_flagged_point(TAU43, CTX73, rng), rng) for _ in range(4)],
            CTX73_N2: [
                ModelPoint(phi_zero.factors + flagged_point(3, [[2, 0], [5, 3]]).factors),
                ModelPoint(phi_zero.factors + c_zero.factors),
            ] + [_sparsified(build_flagged_point(TAU43, CTX73_N2, rng), rng) for _ in range(4)],
        }
        cases = [(ctx, points + extra[ctx], betas) for ctx, points, betas in self._cases()]
        for ctx in (r3, r3_n2):
            points = [build_flagged_point(tau3, ctx, rng), _sparsified(build_flagged_point(tau3, ctx, rng), rng)]
            cases.append((ctx, points, [beta_of_type(tau, ctx) for tau in (tau3, HNType(((1, 6), (2, 4))))]))
        n3 = CurveContext(2, 7, genus=2, npoints=3)
        points = [build_flagged_point(TAU43, n3, rng), _sparsified(build_flagged_point(TAU52, n3, rng), rng)]
        points.append(ModelPoint(phi_zero.factors + c_zero.factors + flagged_point(3, [[2, 0], [5, 3]]).factors))
        cases.append((n3, points, [beta_of_type(tau, n3) for tau in (TAU43, TAU52, HNType(((2, 7),)))]))
        compared = cut = degenerate = 0
        for ctx, points, betas in cases:
            for p, beta, limit in itertools.product(points, betas, (0, 1, 3, 16)):
                want = self._step1_by_definition(p, beta, ctx, limit)
                if want is None:
                    with pytest.raises(DegeneratePoint):
                        verify_step1(p, beta, ctx, max_violations=limit)
                    degenerate += 1
                    continue
                report = verify_step1(p, beta, ctx, max_violations=limit)
                assert (report.violations, report.equality_witness) == want
                compared += 1
                cut += len(want[0]) == limit > 0
        assert compared >= 200 and cut >= 20 and degenerate > 0


class TestCoordinateTableType:
    def test_all_zero_table_rejected(self):
        from higgsstrata import CoordinateTable, DegeneratePoint

        idx = CoordinateIndex("det", ((1, 2),))
        with pytest.raises(DegeneratePoint):
            CoordinateTable({idx: F(0)})

    def test_proportionality_rejects_support_mismatch(self):
        from higgsstrata import CoordinateTable

        a = CoordinateIndex("det", ((1, 2),))
        b = CoordinateIndex("det", ((1, 3),))
        t1 = CoordinateTable({a: F(1), b: F(0)})
        t2 = CoordinateTable({a: F(0), b: F(1)})
        assert not t1.proportional_to(t2)


class TestJson:
    def test_model_point_roundtrip(self):
        p = ModelPoint((Factor([[1, F(1, 2), 0], [0, 1, 3]], F(2, 3), [[1, 0], [F(-1, 5), 1]]),))
        assert ModelPoint.from_json(p.to_json()) == p
