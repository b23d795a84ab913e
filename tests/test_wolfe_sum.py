"""Wolfe on a Minkowski sum of integer point sets, and step 2 on top of it."""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import higgsstrata
from higgsstrata import Factor, HiggsStrataError, ModelPoint, beta_of_type, min_norm_point_by_faces
from higgsstrata.linalg import clear_denominators
from higgsstrata.minnorm import _affine_minimizer, min_norm_point_of_sum
from higgsstrata.point_model import verify_step2
from test_minnorm import _run_under_optimize
from test_point_model import CTX73, TAU43


@st.composite
def rational_sets(draw):
    """One to three finite sets of rational points in a common dimension 0-3,
    with repeated points and collinear runs; at most nine points in their sum."""
    dim = draw(st.integers(0, 3))
    count = draw(st.integers(1, 3))
    entries = st.fractions(-4, 4, max_denominator=3)
    point = st.lists(entries, min_size=dim, max_size=dim).map(tuple)
    sets = []
    for _ in range(count):
        pts = [draw(point)]
        for _ in range(draw(st.integers(0, {1: 5, 2: 2, 3: 1}[count]))):
            kind = draw(st.sampled_from(["new", "repeat", "collinear"]))
            if kind == "new":
                pts.append(draw(point))
            elif kind == "repeat":
                pts.append(draw(st.sampled_from(pts)))
            else:
                p, q = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
                t = draw(st.fractions(-2, 2, max_denominator=3))
                pts.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
        sets.append(pts)
    return sets


def explicit_sum(sets) -> list:
    """The Minkowski sum of the sets, built point by point."""
    return sorted({tuple(map(sum, zip(*choice))) for choice in itertools.product(*sets)})


def integer_sets(sets) -> tuple[list, int]:
    """The sets times D, one common denominator cleared, as int tuples; and D."""
    _, D = clear_denominators([F(a) for pts in sets for p in pts for a in p])
    return [[tuple(int(a * D) for a in p) for p in pts] for pts in sets], D


class TestMinkowskiWolfe:
    @given(rational_sets())
    @example([[(), ()], [()]])
    @example([[(F(1), F(0)), (F(0), F(1))], [(F(1), F(1)), (F(1), F(1))], [(F(-3), F(-3))]])
    @settings(max_examples=80, deadline=None)
    def test_matches_faces_oracle_on_the_explicit_sum(self, sets):
        ints, D = integer_sets(sets)
        X, delta = min_norm_point_of_sum(ints)
        assert all(type(a) is int for a in X) and type(delta) is int and delta > 0
        assert tuple(F(a, delta * D) for a in X) == min_norm_point_by_faces(explicit_sum(sets))

    def test_one_set_is_the_point_cloud_case(self):
        X, delta = min_norm_point_of_sum([[(2, 0), (0, 2)]])
        assert (F(X[0], delta), F(X[1], delta)) == higgsstrata.min_norm_point([[2, 0], [0, 2]])

    def test_oracle_is_the_sum_of_per_set_argmins(self):
        # the sum is the square with corners (-1, -1) and (3, 3), around the
        # origin, though no single set's hull contains it
        X, _ = min_norm_point_of_sum([[(0, 0), (4, 0)], [(0, 0), (0, 4)], [(-1, -1)]])
        assert not any(X)

    def test_wrong_point_fails_the_certificate(self, monkeypatch):
        monkeypatch.setattr(higgsstrata.minnorm, "_wolfe", lambda sets: ((1, 1), 1))
        with pytest.raises(HiggsStrataError, match="exact KKT certificate failed"):
            min_norm_point_of_sum([[(1, 0), (0, 1)], [(0, 0)]])

    def test_dependent_corral_raises(self, monkeypatch):
        monkeypatch.setattr(higgsstrata.minnorm, "_affine_minimizer", lambda pts: None)
        with pytest.raises(HiggsStrataError, match="affinely dependent"):
            min_norm_point_of_sum([[(1, 0), (0, 1)], [(0, 0)]])

    @pytest.mark.parametrize(
        "sets, error, match",
        [
            ([], ValueError, "at least one set"),
            ([[(1, 2)], []], ValueError, "no empty set"),
            ([[(1, 2)], [(3,)]], ValueError, "lengths 2 and 1"),
            ([[(1, 2), (2,)]], ValueError, "lengths 2 and 1"),
            ([[(1, 2)], [(F(3, 2), 2)]], TypeError, "integer"),
            ([[(1, 2)], [(1.5, 2)]], TypeError, "integer"),
            ([[(True, 2)]], TypeError, "integer"),
            ([[(1, "2")]], TypeError, "integer"),
            ([[(1, 2)], [(0, 0), (3, 4), (5, F(1, 2))]], TypeError, r"integer, got Fraction\(1, 2\)"),
        ],
        ids=["no-sets", "empty-set", "short-point-in-later-set", "short-point-in-one-set",
             "fraction", "float", "bool", "str", "bad-entry-in-later-point-of-later-set"],
    )
    def test_malformed_input_is_refused(self, monkeypatch, sets, error, match):
        monkeypatch.setattr(higgsstrata.minnorm, "_wolfe", None)  # refused before any work
        with pytest.raises(error, match=match):
            min_norm_point_of_sum(sets)

    def test_int_subclass_is_accepted(self):
        # only bool among int's subclasses is refused, as by ``linalg.integer``
        class Tagged(int):
            pass

        sets = [[(Tagged(1), 0), (0, Tagged(1))], [(Tagged(2), 2)]]
        assert min_norm_point_of_sum(sets) == min_norm_point_of_sum([[(1, 0), (0, 1)], [(2, 2)]])


class TestAffineMinimizer:
    @pytest.mark.parametrize(
        "points",
        [[(1, 0), (1, 0)], [(0, 0), (1, 1), (2, 2)], [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 0)]],
        ids=["repeat", "collinear", "coplanar"],
    )
    def test_dependent_points(self, points):
        assert _affine_minimizer(points) is None

    def test_projection_in_integers(self):
        lam, X, delta = _affine_minimizer([(3, 0), (0, 3)])
        assert sum(lam) == delta > 0
        assert [F(a, delta) for a in X] == [F(3, 2), F(3, 2)]
        assert [F(a, delta) for a in lam] == [F(1, 2), F(1, 2)]

    def test_negative_weight_off_the_segment(self):
        lam, X, delta = _affine_minimizer([(1, 2), (1, 5)])
        assert X == [delta, 0] and lam[0] > 0 > lam[1]


# a general-position point of TAU43 at CTX73, whose graded blocks are both
# semistable; the wrong Wolfe answers the sum of each set's first point
STEP2_FACTOR = ([[1, 1, 1, 0, 0], [0, 0, 0, 1, 2]], 1, [[2, 0], [0, 3]])
WRONG_WOLFE = "lambda sets: (tuple(map(sum, zip(*(T[0] for T in sets)))), 1)"


class TestStep2Path:
    def setup_method(self):
        self.point = ModelPoint((Factor(*STEP2_FACTOR),))
        self.beta = beta_of_type(TAU43, CTX73)

    def test_wrong_wolfe_point_raises(self, monkeypatch):
        assert verify_step2(self.point, self.beta, CTX73).passed
        monkeypatch.setattr(
            higgsstrata.minnorm, "_wolfe", lambda sets: (tuple(map(sum, zip(*(T[0] for T in sets)))), 1)
        )
        with pytest.raises(HiggsStrataError, match="exact KKT certificate failed"):
            verify_step2(self.point, self.beta, CTX73)

    def test_wrong_wolfe_point_raises_under_optimize(self):
        done = _run_under_optimize(
            f"mn._wolfe = {WRONG_WOLFE}\n"
            "from higgsstrata import Factor, HNType, ModelPoint, CurveContext, beta_of_type, verify_step2\n"
            "ctx = CurveContext(2, 7, genus=2, npoints=1)\n"
            "beta = beta_of_type(HNType(((1, 4), (1, 3))), ctx)\n"
            f"p = ModelPoint((Factor(*{STEP2_FACTOR!r}),))",
            "verify_step2(p, beta, ctx)",
        )
        assert done.stdout.strip() == "raised", done.stderr

    def test_per_factor_sets_and_no_bordered_solve(self, monkeypatch):
        # Wolfe gets one scaled set per factor, never their sum, and neither it
        # nor the certificate solves a linear system over Fraction
        seen = []
        wolfe = higgsstrata.minnorm._wolfe

        def recording(sets):
            seen.append([len(T) for T in sets])
            return wolfe(sets)

        def refused(*args):
            raise AssertionError("solve_unique called")

        monkeypatch.setattr(higgsstrata.minnorm, "_wolfe", recording)
        monkeypatch.setattr(higgsstrata.oracles, "solve_unique", refused)
        monkeypatch.setattr(higgsstrata.linalg, "solve_unique", refused)
        ctx = higgsstrata.CurveContext(2, 7, genus=2, npoints=2)
        f = Factor(*STEP2_FACTOR)
        report = verify_step2(ModelPoint((f, f)), beta_of_type(TAU43, ctx), ctx)
        assert report.passed
        assert seen == [[3, 3], [2, 2]]
        assert higgsstrata.min_norm_point([[1, 0], [0, 1], [F(1, 3), 2]]) == (F(1, 2), F(1, 2))
