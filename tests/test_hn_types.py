"""Type enumeration, polygon order, candidate bounds, block procedure."""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsstrata import (
    AmbientMismatch,
    CurveContext,
    FlagShape,
    HNType,
    PolygonOrder,
    Rank3Kind,
    classify_rank3,
    compare_polygon,
    compute_phi_blocks,
    enumerate_hn_types,
    first_slope_bound,
    higgs_index_order,
    higgs_stratum_index,
    t_mu_candidates,
    u_tau_candidates,
)
from conftest import count_calls
from higgsstrata import hn_types, oracles
from higgsstrata.hn_types import _u_tau, pair_weight
from higgsstrata.oracles import u_tau_candidates_literal
from higgsstrata.point_model import _lie_upper_positions


def blocks(*pairs):
    return HNType(tuple(pairs))


class TestEnumerate:
    def test_rank_one_only_semistable(self):
        assert enumerate_hn_types(CurveContext(1, 5), 10) == [HNType(((1, 5),))]

    def test_rank_two_degree_one_bound_two(self):
        got = set(enumerate_hn_types(CurveContext(2, 1), 2))
        want = {
            HNType(((2, 1),)),
            blocks((1, 1), (1, 0)),
            blocks((1, 2), (1, -1)),
        }
        assert got == want

    def test_rank_three_degree_zero_bound_one_against_bruteforce(self):
        got = set(enumerate_hn_types(CurveContext(3, 0), 1))
        assert blocks((1, 1), (1, 0), (1, -1)) in got
        assert blocks((2, 1), (1, -1)) in got
        # independent brute force: all slopes lie in [-3, 1] here
        brute = set()
        compositions = [(3,), (1, 2), (2, 1), (1, 1, 1)]
        for comp in compositions:
            for degs in itertools.product(range(-9, 4), repeat=len(comp)):
                if sum(degs) != 0:
                    continue
                slopes = [F(d, r) for r, d in zip(comp, degs)]
                if any(a <= b for a, b in zip(slopes, slopes[1:])):
                    continue
                if slopes[0] > 1:
                    continue
                brute.add(tuple(zip(comp, degs)))
        assert {t.blocks for t in got} == brute

    def test_bound_below_average_is_empty(self):
        assert enumerate_hn_types(CurveContext(2, 1), F(1, 4)) == []

    def test_roundtrip_sums_and_slopes(self):
        for r, d in [(2, 3), (3, -2), (4, 5)]:
            for tau in enumerate_hn_types(CurveContext(r, d), 3):
                assert tau.rank == r and tau.degree == d
                assert all(
                    a > b for a, b in zip(tau.slopes, tau.slopes[1:])
                )

    def test_sorted_by_slope_vector(self):
        out = enumerate_hn_types(CurveContext(3, 2), 3)
        keys = [t.slope_vector for t in out]
        assert keys == sorted(keys)


class TestPolygonOrder:
    def test_semistable_is_minimal(self):
        t0 = HNType(((2, 1),))
        for tau in enumerate_hn_types(CurveContext(2, 1), 3):
            if tau != t0:
                assert compare_polygon(t0, tau) is PolygonOrder.LESS

    def test_vertex_comparison(self):
        a = blocks((1, 2), (1, -1))
        b = blocks((1, 1), (1, 0))
        assert compare_polygon(a, b) is PolygonOrder.GREATER

    def test_crossing_polygons_are_incomparable(self):
        # rank 3, degree 3: the heights at x = 1, 2 are (3, 3) and (2, 4), so the polygons cross
        a = blocks((1, 3), (2, 0))
        b = blocks((2, 4), (1, -1))
        assert compare_polygon(a, b) is compare_polygon(b, a) is PolygonOrder.INCOMPARABLE

    def test_reflexive_equal(self):
        a = blocks((1, 2), (1, -1))
        assert compare_polygon(a, a) is PolygonOrder.EQUAL

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            compare_polygon(HNType(((2, 1),)), HNType(((2, 2),)))

    def test_polygon_abscissa_range(self):
        tau = HNType(((2, 1),))
        with pytest.raises(ValueError):
            tau.polygon_at(3)
        # the abscissa is read as an int (linalg.integer): True is not 1
        for x in (True, F(1, 2), 1.0):
            with pytest.raises(TypeError, match="^expected an integer, got "):
                tau.polygon_at(x)
        assert tau.polygon_at(1) == F(1, 2)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_partial_order_exhaustive(self, r):
        # antisymmetry and transitivity over every family |d| <= 6, bound <= 4,
        # checked on the boolean comparison matrix
        for d in range(-6, 7):
            fam = enumerate_hn_types(CurveContext(r, d), 4)
            n = len(fam)
            ge = [[False] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    heights_i = fam[i].polygon_heights
                    heights_j = fam[j].polygon_heights
                    ge[i][j] = all(x >= y for x, y in zip(heights_i, heights_j))
            for i in range(n):
                assert ge[i][i]
                for j in range(n):
                    if ge[i][j] and ge[j][i]:
                        assert fam[i] == fam[j]
                    for k in range(n):
                        if ge[i][j] and ge[j][k]:
                            assert ge[i][k]
            # semistable type is the unique minimum when present
            t0s = [t for t in fam if t.is_semistable]
            if t0s:
                i0 = fam.index(t0s[0])
                assert all(ge[j][i0] for j in range(n))


class TestHiggsIndexOrder:
    def setup_method(self):
        self.mu = blocks((1, 3), (1, 2), (1, 1))

    def test_examples(self):
        assert higgs_index_order((1, 3), (1, 2), self.mu) is PolygonOrder.LESS
        assert higgs_index_order((1, 2), (2, 3), self.mu) is PolygonOrder.EQUAL
        assert higgs_index_order((1, 2), (1, 2), self.mu) is PolygonOrder.EQUAL

    def test_greater(self):
        assert higgs_index_order((2, 3), (1, 3), self.mu) is PolygonOrder.GREATER

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            higgs_index_order((1, 4), (1, 2), self.mu)
        with pytest.raises(ValueError):
            higgs_index_order((2, 2), (1, 2), self.mu)


class TestCandidates:
    def test_t_mu_semistable_bound(self):
        ctx = CurveContext(2, 3, genus=0, deg_line=2)
        got = set(t_mu_candidates(HNType(((2, 3),)), ctx))
        assert got == {HNType(((2, 3),)), blocks((1, 2), (1, 1))}

    def test_t_mu_degl_zero_only_semistable(self):
        ctx = CurveContext(2, 3, genus=0, deg_line=0)
        assert t_mu_candidates(HNType(((2, 3),)), ctx) == [HNType(((2, 3),))]

    def test_t_mu_general_bound(self):
        ctx = CurveContext(2, 3, genus=0, deg_line=2)
        got = set(t_mu_candidates(blocks((1, 2), (1, 1)), ctx))
        want = {
            HNType(((2, 3),)),
            blocks((1, 2), (1, 1)),
            blocks((1, 3), (1, 0)),
            blocks((1, 4), (1, -1)),
            blocks((1, 5), (1, -2)),
        }
        assert got == want

    def test_u_tau_rank_two(self):
        ctx = CurveContext(2, 3, genus=0, deg_line=2)
        tau = blocks((1, 2), (1, 1))
        got = u_tau_candidates(tau, ctx)
        assert set(got) == {HNType(((2, 3),)), tau}
        assert got.sharp

    def test_u_tau_rank_two_drops_semistable(self):
        ctx = CurveContext(2, 3, genus=0, deg_line=2)
        tau = blocks((1, 3), (1, 0))
        got = u_tau_candidates(tau, ctx)  # 3 > (3 + 2)/2
        assert list(got) == [tau]

    def test_u_tau_degl_zero(self):
        for r, d in [(2, 5), (3, 4), (4, 7)]:
            ctx = CurveContext(r, d, genus=0, deg_line=0)
            for tau in enumerate_hn_types(ctx, F(d, 1) + 2)[:8]:
                got = u_tau_candidates(tau, ctx)
                assert list(got) == [tau]
                assert got.sharp

    def test_u_tau_contains_tau(self):
        for deg_line in (0, 1, 2):
            ctx = CurveContext(3, 5, genus=0, deg_line=deg_line)
            for tau in enumerate_hn_types(ctx, 4):
                assert tau in u_tau_candidates(tau, ctx)

    def test_u_tau_rank3_forbidden_never_present(self):
        ctx = CurveContext(3, 5, genus=0, deg_line=2)
        for tau in enumerate_hn_types(ctx, 4):
            for mu in u_tau_candidates(tau, ctx):
                verdict = classify_rank3(tau.composition, mu.composition)
                assert verdict.kind is not Rank3Kind.FORBIDDEN

    def test_u_tau_matches_literal_route(self, monkeypatch):
        # the same tuple, in the same order, as the literal route, and as the
        # helper reading one list per context; enumerate_hn_types is a pure
        # function, memoised here so that each (context, bound) runs once
        memo = functools.cache(enumerate_hn_types)
        monkeypatch.setattr(hn_types, "enumerate_hn_types", memo)
        monkeypatch.setattr(oracles, "enumerate_hn_types", memo)
        cases = 0
        for r, d, deg_line, genus in itertools.product(range(1, 5), range(-6, 7), range(4), (0, 2)):
            ctx = CurveContext(r, d, genus=genus, deg_line=deg_line)
            taus = enumerate_hn_types(ctx, F(d, r) + 3)
            for tau in taus:
                want = u_tau_candidates_literal(tau, ctx)
                assert u_tau_candidates(tau, ctx) == want
                assert _u_tau(tau, ctx, lambda: taus) == want
                cases += 1
        assert cases == 8024

    def test_u_tau_keeps_a_reverse_bound_met_exactly(self):
        # past the top slopes above, an unstable mu's bound can equal tau's top
        # slope, and that mu is kept
        ctx = CurveContext(3, 0, deg_line=3)
        tau, mu = blocks((1, 8), (1, -3), (1, -5)), blocks((1, 1), (2, -1))
        assert first_slope_bound(mu, ctx) == tau.top_slope and mu in u_tau_candidates(tau, ctx)
        for tau in enumerate_hn_types(ctx, 9):
            assert u_tau_candidates(tau, ctx) == u_tau_candidates_literal(tau, ctx)

    def test_u_tau_sharp_rules_enumerate_nothing(self):
        # degree-0 twisting and rank 2 answer before any enumeration, so a huge
        # top slope raises no CapExceeded
        huge = 10**6
        for tau, ctx, n in [
            (blocks((1, huge), (3, 7 - huge)), CurveContext(4, 7, deg_line=0), 1),
            (blocks((1, huge), (1, 7 - huge)), CurveContext(2, 7, deg_line=2), 1),
            (blocks((1, 4), (1, 3)), CurveContext(2, 7, deg_line=2), 2),  # and the semistable type
        ]:
            assert count_calls(lambda: u_tau_candidates(tau, ctx), enumerate_hn_types) == [0]
            assert len(u_tau_candidates(tau, ctx)) == n

    def test_cross_consistency_smoke(self):
        # the full exhaustive run is acceptance criterion 10
        ctx = CurveContext(3, 7, genus=0, deg_line=1)
        for tau in enumerate_hn_types(ctx, 5):
            for mu in u_tau_candidates(tau, ctx):
                assert tau in t_mu_candidates(mu, ctx)


class TestClassifyRank3:
    TABLE = [
        ((1, 1, 1), (1, 1, 1), Rank3Kind.FORCED_EQUAL),
        ((1, 1, 1), (2, 1), Rank3Kind.ALLOWED),
        ((1, 1, 1), (1, 2), Rank3Kind.ALLOWED),
        ((2, 1), (1, 1, 1), Rank3Kind.FORBIDDEN),
        ((2, 1), (2, 1), Rank3Kind.FORCED_EQUAL),
        ((2, 1), (1, 2), Rank3Kind.ALLOWED),
        ((1, 2), (1, 1, 1), Rank3Kind.FORBIDDEN),
        ((1, 2), (2, 1), Rank3Kind.FORBIDDEN),
        ((1, 2), (1, 2), Rank3Kind.FORCED_EQUAL),
    ]

    @pytest.mark.parametrize("tau_c,mu_c,kind", TABLE)
    def test_table(self, tau_c, mu_c, kind):
        assert classify_rank3(tau_c, mu_c).kind is kind

    def test_constraints_recorded(self):
        assert classify_rank3((1, 1, 1), (2, 1)).constraint == "E^1 contains E'^1"
        assert classify_rank3((1, 1, 1), (1, 2)).constraint == "E^1 inside E'^2"
        assert classify_rank3((2, 1), (1, 2)).constraint == "E^1 inside E'^1"

    def test_semistable_allowed_everywhere(self):
        for tau_c in [(1, 1, 1), (2, 1), (1, 2)]:
            assert classify_rank3(tau_c, (3,)).kind is Rank3Kind.ALLOWED

    def test_bad_composition(self):
        with pytest.raises(ValueError):
            classify_rank3((2, 2), (1, 1, 1))

    @pytest.mark.parametrize("tau_c", [(2.9, 1), (True, 2)])
    def test_lossy_entries_refused(self, tau_c):
        # int() would read these as (2, 1) and (1, 2)
        with pytest.raises(TypeError):
            classify_rank3(tau_c, (3,))


class TestTypeBlocks:
    TYPE = "a type (a list of [rank, degree] blocks)"

    @pytest.mark.parametrize(
        "data,kind,message",
        [
            ([[1, 2]], TypeError, "expected a type (an object with rank_degree_pairs), got list [[1, 2]]"),
            ({"rank_degree_pairs": 5}, TypeError, f"expected {TYPE}, got int 5"),
            ({"rank_degree_pairs": [[1, 2], "12"]}, TypeError, "expected a [rank, degree] block, got str '12'"),
            ({"rank_degree_pairs": [[1, 2], []]}, ValueError, "expected a [rank, degree] block, got []"),
        ],
        ids=["list-type", "scalar-pairs", "string-block", "empty-block"],
    )
    def test_from_json_names_the_block(self, data, kind, message):
        with pytest.raises(kind) as exc:
            HNType.from_json(data)
        assert type(exc.value) is kind and str(exc.value) == message

    @pytest.mark.parametrize(
        "blocks,message",
        [(((0, 1),), "block ranks must be >= 1"), (((1, 1), (1, 2)), "slopes must strictly decrease")],
        ids=["rank-zero", "slopes-rise"],
    )
    def test_invalid_blocks_refused(self, blocks, message):
        with pytest.raises(ValueError) as exc:
            HNType(blocks)
        assert str(exc.value) == message

    def test_blocks_read_from_any_iterable(self):
        tau = HNType(iter([iter([1, 4]), (1, 3)]))
        assert tau.blocks == ((1, 4), (1, 3)) and HNType.from_json(tau.to_json()) == tau


class TestCurveContext:
    def test_fractional_degree_refused(self):
        with pytest.raises(TypeError):  # it would give the section count m = 9.5
            CurveContext(2, 7.5)

    def test_fractional_npoints_refused(self):
        with pytest.raises(TypeError):
            CurveContext(2, 7, npoints=1.5)

    @pytest.mark.parametrize("field", ["rank", "genus", "deg_line"])
    def test_bool_fields_refused(self, field):
        kwargs = {"rank": 2, "degree": 7, field: True}
        with pytest.raises(TypeError):
            CurveContext(**kwargs)

    @pytest.mark.parametrize(
        "field,value,message",
        [("genus", -1, "genus must be >= 0"), ("deg_line", -1, "deg_line must be >= 0"),
         ("npoints", 0, "npoints must be >= 1")],
    )
    def test_out_of_range_fields_refused(self, field, value, message):
        with pytest.raises(ValueError) as exc:
            CurveContext(2, 7, **{field: value})
        assert str(exc.value) == message

    def test_nonpositive_section_count_refused(self):
        # m = d + r(1 - g) = 1 + 2(1 - 2) = -1
        with pytest.raises(ValueError) as exc:
            CurveContext(2, 1, genus=2).require_positive_sections()
        assert str(exc.value) == "section count m = -1 <= 0; degree too small for this genus"


class TestPhiBlocks:
    def test_two_step_lower_corner(self):
        got = compute_phi_blocks(FlagShape((1, 1)), [[0, 0], [1, 0]])
        assert got[(1, 2)].defined and got[(1, 2)].entries == ((F(1),),)

    def test_three_step_induction(self):
        flag = FlagShape((1, 1, 1))
        phi = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
        got = compute_phi_blocks(flag, phi)
        assert got[(1, 3)].defined and got[(1, 3)].is_zero
        assert got[(1, 2)].defined and not got[(1, 2)].is_zero
        assert higgs_stratum_index(flag, phi) == (1, 2)

    def test_undefined_when_corner_nonzero(self):
        flag = FlagShape((1, 1, 1))
        phi = [[0, 0, 0], [1, 0, 0], [2, 0, 0]]
        got = compute_phi_blocks(flag, phi)
        assert not got[(1, 3)].is_zero
        assert not got[(1, 2)].defined

    def test_block_diagonal_is_flag_invariant(self):
        got = compute_phi_blocks(FlagShape((1, 1)), [[3, 0], [0, 5]])
        assert got[(1, 2)].is_zero
        assert higgs_stratum_index(FlagShape((1, 1)), [[3, 0], [0, 5]]) is None

    def test_stratum_index_examples(self):
        flag = FlagShape((1, 1))
        assert higgs_stratum_index(flag, [[0, 0], [1, 0]]) == (1, 2)
        assert higgs_stratum_index(flag, [[1, 2], [0, 3]]) is None

    def test_flag_invariant_iff_upper_triangular(self):
        import random

        rng = random.Random(3)
        flag = FlagShape((2, 1, 1))
        for _ in range(40):
            phi = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
            upper = all(
                phi[a][b] == 0
                for a in range(4)
                for b in range(4)
                if flag.block_of(a + 1) > flag.block_of(b + 1)
            )
            assert (higgs_stratum_index(flag, phi) is None) == upper

    def test_weight_tie_break_uses_mu(self):
        # both (1,2) and (2,3) qualify; mu decides by slope difference
        flag = FlagShape((1, 1, 1))
        phi = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        mu = HNType(((1, 5), (1, 1), (1, 0)))
        # weights: (1,2) -> 1-5 = -4, (2,3) -> 0-1 = -1
        assert higgs_stratum_index(flag, phi, mu) == (1, 2)
        mu2 = HNType(((1, 5), (1, 4), (1, 0)))
        # weights: (1,2) -> -1, (2,3) -> -4
        assert higgs_stratum_index(flag, phi, mu2) == (2, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compute_phi_blocks(FlagShape((1, 1)), [[0, 0, 0], [0, 0, 0], [0, 0, 0]])


def _first_cut_block(flag: FlagShape, position: int) -> int:
    """The block rule by definition: the first gamma with position <= B_gamma."""
    return next(g for g, cut in enumerate(flag.cuts, start=1) if position <= cut)


_BLOCK_RULE_FLAGS = [(1,), (5,), (3, 2), (4, 1), (1, 1, 1), (1, 2, 2, 2), (2, 3, 1, 4)]


class TestBlockRule:
    @pytest.mark.parametrize("sizes", _BLOCK_RULE_FLAGS)
    def test_block_of_is_the_first_cut_at_or_past_the_position(self, sizes):
        flag = FlagShape(sizes)
        for position in range(-2, flag.total + 1):
            assert flag.block_of(position) == _first_cut_block(flag, position)
        assert flag.block_of(0) == flag.block_of(-1) == 1
        for position in (flag.total + 1, flag.total + 4):
            message = rf"^position {position} outside flag of total {flag.total}$"
            with pytest.raises(ValueError, match=message):
                flag.block_of(position)

    @pytest.mark.parametrize("sizes", _BLOCK_RULE_FLAGS)
    def test_lie_upper_positions_are_the_pairs_of_increasing_block(self, sizes):
        flag = FlagShape(sizes)
        want = [
            (a, b)
            for a in range(flag.total)
            for b in range(flag.total)
            if _first_cut_block(flag, a + 1) < _first_cut_block(flag, b + 1)
        ]
        assert _lie_upper_positions(flag) == want


def _qualifying_pairs(flag: FlagShape, phi) -> list[tuple[int, int]]:
    """Reference rescan: the pairs (i, j) whose block is nonzero while every
    other block (i', j') with i' <= i, j' >= j vanishes, in scan order."""
    s, cuts = flag.length, (0,) + flag.cuts

    def block_nonzero(i: int, j: int) -> bool:
        return any(
            phi[a][b]
            for a in range(cuts[j - 1], cuts[j])
            for b in range(cuts[i - 1], cuts[i])
        )

    def qualifies(i: int, j: int) -> bool:
        if not block_nonzero(i, j):
            return False
        for i2 in range(1, i + 1):
            for j2 in range(j, s + 1):
                if (i2, j2) != (i, j) and block_nonzero(i2, j2):
                    return False
        return True

    return [(i, j) for i in range(1, s + 1) for j in range(s, i, -1) if qualifies(i, j)]


@st.composite
def _stratum_cases(draw):
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4))
    n = sum(sizes)
    phi = [[draw(st.sampled_from((0, 0, 0, 1, -2))) for _ in range(n)] for _ in range(n)]
    mu = None
    if draw(st.booleans()):
        degrees = draw(st.sets(st.integers(-6, 6), min_size=len(sizes), max_size=len(sizes)))
        mu = HNType(tuple((1, d) for d in sorted(degrees, reverse=True)))
    return FlagShape(tuple(sizes)), phi, mu


class TestStratumIndexReference:
    @settings(max_examples=300, deadline=None)
    @given(_stratum_cases())
    def test_matches_rescan(self, case):
        flag, phi, mu = case
        found = _qualifying_pairs(flag, phi)
        if mu is not None and len(found) > 1:
            found.sort(key=lambda p: (pair_weight(mu, *p), p))
        assert higgs_stratum_index(flag, phi, mu) == (found[0] if found else None)
