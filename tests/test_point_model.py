"""Matrix-model points: coordinates, membership, retraction, stabilisers."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import build_flagged_point, model_supported, mutate_break_flag, random_block
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
    membership,
    nilpotent_commutant_dim,
    nilpotent_commutant_dim_dense_oracle,
    pairing,
    retract_p_beta,
    unipotent_stabilizer_dim,
    unipotent_stabilizer_dim_dense_oracle,
    verify_step1,
    verify_step2,
)
from higgsstrata.linalg import adjugate, det, inverse, mat, mat_mul, rank, transpose


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
        assert "_values" not in vars(p)  # no per-factor value was evaluated
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


class TestStep2:
    def test_general_position_graded_passes(self):
        beta = beta_of_type(TAU43, CTX73)
        p = ModelPoint((Factor([[1, 1, 1, 0, 0], [0, 0, 0, 1, 2]], 1, [[2, 0], [0, 3]]),))
        report = verify_step2(p, beta, CTX73)
        assert report.passed
        assert all(b.semistable for b in report.blocks)
        assert report.trace_identity_ok

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

    def test_trace_identity_runs(self):
        beta = beta_of_type(TAU43, CTX73)
        p = ModelPoint((Factor([[1, 1, 1, 0, 0], [0, 0, 0, 1, 2]], 1, [[2, 0], [0, 3]]),))
        report = verify_step2(p, beta, CTX73, lambda_bound=3)
        assert report.trace_classes_checked == 13 and report.trace_identity_ok

    def test_rank_zero_block_weights(self):
        # a rank-0 block has the det coordinate () iff c != 0, and no end coordinate
        from higgsstrata.point_model import _block_weight_set

        ones = (F(1),) * 3
        assert _block_weight_set([(), ()], [1, 2], [(), ()], 3) == {(F(2),) * 3}
        assert _block_weight_set([()], [5], [()], 3) == {ones}
        assert _block_weight_set([(), ()], [1, 0], [(), ()], 3) == set()


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


@st.composite
def _stabilizer_cases(draw):
    """(point, flag, ctx) at genus 0, small enough for the full-table oracle.

    Each factor keeps both families, or has c = 0, or has phi = 0, so that
    one family or both can vanish across the factors.
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
        kind = draw(st.sampled_from(["both", "c=0", "phi=0"]))
        c = 0 if kind == "c=0" else draw(st.sampled_from([1, -1, 2]))
        if kind == "phi=0":
            phi = [[0] * r for _ in range(r)]
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


def _dim_or_degenerate(route, p, flag, ctx):
    try:
        return route(p, flag, ctx)
    except DegeneratePoint:
        return "degenerate"


class TestStabilizerDenseOracle:
    """The factorised per-factor system against the full N-fold table."""

    @given(_stabilizer_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_oracle(self, case):
        p, flag, ctx = case
        assert _dim_or_degenerate(unipotent_stabilizer_dim, p, flag, ctx) == _dim_or_degenerate(
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
        # N C(m,r) (1 + r^2) = 2 * 10 * 5 rows against 10^2 * 17 coordinates
        dim = unipotent_stabilizer_dim(p, flag, CTX73_N2, cap=100)
        with pytest.raises(CapExceeded) as exc:
            unipotent_stabilizer_dim(p, flag, CTX73_N2, cap=99)
        assert exc.value.count == 100
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
