"""Exact minimum-norm points: solver, oracle, certificates, index sets."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import higgsstrata
from conftest import INDEX_SET_LATTICE_GOLDEN, count_calls, genus0_lattice_weights
from higgsstrata import (
    CapExceeded,
    CurveContext,
    HiggsStrataError,
    PointCloud,
    alpha_of_index,
    enumerate_coordinate_indices,
    hull_contains_origin,
    index_set_B,
    kkt_certificate,
    min_norm_point,
    min_norm_point_by_faces,
)
from higgsstrata.linalg import clear_denominators, dot, ratio


def random_cloud(rng: random.Random, dim=None, npts=None) -> PointCloud:
    dim = dim or rng.randint(1, 4)
    npts = npts or rng.randint(1, 7)
    pts = [
        [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim)]
        for _ in range(npts)
    ]
    return PointCloud.from_points(pts)


@st.composite
def degenerate_clouds(
    draw,
    entries=st.fractions(-4, 4, max_denominator=3),
    steps=st.fractions(-2, 2, max_denominator=3),
    extra=st.integers(1, 6),
):
    """Points in dimension 1-4, one plus ``extra`` of them, with repeated points
    and collinear and coplanar runs (``steps`` along the runs)."""
    dim = draw(st.integers(1, 4))
    point = st.lists(entries, min_size=dim, max_size=dim)
    pts = [draw(point)]
    for _ in range(draw(extra)):
        kind = draw(st.sampled_from(["new", "repeat", "collinear", "coplanar"]))
        if kind == "new":
            pts.append(draw(point))
        elif kind == "repeat":
            pts.append(draw(st.sampled_from(pts)))
        elif kind == "collinear":
            p, q = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
            t = draw(steps)
            pts.append([a + t * (b - a) for a, b in zip(p, q)])
        else:
            p, q, r = (draw(st.sampled_from(pts)) for _ in range(3))
            t, u = (draw(steps) for _ in range(2))
            pts.append([a + t * (b - a) + u * (c - a) for a, b, c in zip(p, q, r)])
    return draw(st.permutations(pts))


# 4-7 points with denominators 2-97 and numerators up to 10^12 in magnitude
wide_rational_clouds = degenerate_clouds(
    entries=st.builds(F, st.integers(-10**12, 10**12), st.integers(2, 97)),
    steps=st.builds(F, st.integers(-97, 97), st.integers(2, 97)),
    extra=st.integers(3, 6),
)


def closest_points_by_wolfe(weights, chamber: bool) -> list:
    """index_set_B's answer from one Wolfe solve per support."""
    pts = sorted({tuple(F(x) for x in w) for w in weights})
    expected = set()
    for size in range(1, len(pts) + 1):
        for support in itertools.combinations(pts, size):
            v = min_norm_point(support)
            if chamber:
                v = tuple(sorted(v, reverse=True))
                if v[0] < 0:
                    continue
            expected.add(v)
    return sorted(expected)


def _run_under_optimize(
    patch: str, call: str = "mn.min_norm_point([[1, 0], [0, 1]])"
) -> subprocess.CompletedProcess:
    """Run ``call`` under ``python -O`` after ``patch``; prints 'raised' on HiggsStrataError."""
    script = (
        "import higgsstrata.minnorm as mn\n"
        "from higgsstrata.errors import HiggsStrataError\n"
        f"{patch}\n"
        "try:\n"
        f"    {call}\n"
        "except HiggsStrataError:\n"
        "    print('raised')\n"
    )
    src = str(Path(higgsstrata.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestPointCloud:
    def test_integer_form_and_fraction_view(self):
        cloud = PointCloud.from_points([["1/2", F(2, 3)], [1, {"num": 2, "den": -4}]])
        assert (cloud.dim, cloud.P, cloud.D) == (2, ((3, 4), (6, -3)), 6)
        assert cloud.points == ((F(1, 2), F(2, 3)), (F(1), F(-1, 2)))

    def test_equality_and_hash_are_those_of_the_points(self):
        a, b = PointCloud.from_points([["1/2", 3]]), PointCloud.from_points([[F(2, 4), "6/2"]])
        assert a == b and hash(a) == hash(b)
        assert a != PointCloud.from_points([["1/2", 4]])

    def test_each_entry_read_once_with_no_fraction(self):
        points = [[1, {"num": 1, "den": 2}], [{"num": -3, "den": 4}, 5], [0, 7]]
        assert count_calls(lambda: PointCloud.from_points(points), ratio, F.__new__) == [6, 0]

    def test_answers_build_fractions_only_for_their_points(self):
        cloud = PointCloud.from_points([[1, {"num": 1, "den": 2}], [{"num": -3, "den": 4}, 5], [0, 7]])
        got = []
        assert count_calls(lambda: got.append(min_norm_point(cloud)), F.__new__) == [2]
        assert count_calls(lambda: got.append(index_set_B(cloud, restrict_to_chamber=False)), F.__new__) == [
            2 * len(got[1])
        ]

    @pytest.mark.parametrize(
        "points,error,message",
        [
            ([], ValueError, "a point cloud needs at least one point"),
            ([[1, 2], [1]], ValueError, "all points must share the cloud dimension"),
            ([[1.5, 2]], TypeError, "float input 1.5 is not accepted; pass a rational"),
            ([[True, 2]], TypeError, "bool input True is not accepted; pass a rational"),
            ({"1": [2]}, TypeError, "expected a list of points, got dict {'1': [2]}"),
            ([{"num": 1, "den": 2}], TypeError, "expected a vector (a list of rationals), got dict {'num': 1, 'den': 2}"),
            ([[1], 2], TypeError, "expected a vector (a list of rationals), got int 2"),
        ],
        ids=["empty", "ragged", "float", "bool", "dict-cloud", "dict-point", "int-point"],
    )
    def test_refusals(self, points, error, message):
        with pytest.raises(error) as exc:
            PointCloud.from_points(points)
        assert str(exc.value) == message

    def test_given_dimension_checked(self):
        with pytest.raises(ValueError, match="cloud dimension"):
            PointCloud(3, [[1, 2]])
        assert PointCloud(2, [[1, 2]]) == PointCloud.from_points([[1, 2]])


class TestMinNorm:
    def test_origin_inside(self):
        assert min_norm_point(PointCloud.from_points([[1, 1], [-1, -1]])) == (F(0), F(0))

    def test_segment_projection(self):
        assert min_norm_point(PointCloud.from_points([[1, 0], [0, 1]])) == (
            F(1, 2),
            F(1, 2),
        )

    def test_single_point(self):
        assert min_norm_point(PointCloud.from_points([[2, 3]])) == (F(2), F(3))

    def test_methods_agree_on_examples(self):
        for pts in ([[1, 0], [0, 1]], [[1, 1], [-1, -1]], [[2, 3]], [[1, 2], [3, 1], [-1, 5]]):
            assert min_norm_point(pts) == min_norm_point_by_faces(pts)

    def test_oracle_equality_random(self):
        rng = random.Random(11)
        for _ in range(30):
            cloud = random_cloud(rng)
            assert min_norm_point(cloud) == min_norm_point_by_faces(cloud)

    def test_kkt_with_active_support_equality(self):
        rng = random.Random(5)
        for _ in range(20):
            cloud = random_cloud(rng)
            x = min_norm_point(cloud)
            xx = dot(x, x)
            assert all(dot(p, x) >= xx for p in cloud.points)
            # reconstructing x as a convex combination of active points is
            # possible: the minimum over actives alone must agree
            active = [p for p in cloud.points if dot(p, x) == xx]
            assert active
            assert min_norm_point(PointCloud.from_points(active)) == x

    def test_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(higgsstrata.minnorm, "_wolfe", lambda sets: ((1, 1), 1))
        with pytest.raises(HiggsStrataError, match="KKT"):
            min_norm_point([[1, 0], [0, 1]])

    def test_failed_certificate_raises_under_optimize(self):
        done = _run_under_optimize("mn._wolfe = lambda sets: ((1, 1), 1)")
        assert done.stdout.strip() == "raised", done.stderr

    def test_dependent_corral_raises(self, monkeypatch):
        monkeypatch.setattr(higgsstrata.minnorm, "_affine_minimizer", lambda pts: None)
        with pytest.raises(HiggsStrataError, match="affinely dependent"):
            min_norm_point([[1, 0], [0, 1]])

    def test_major_cycle_without_decrease_raises(self, monkeypatch):
        # minor cycles that keep only the first corral point return the same
        # x every major cycle: Wolfe's strict decrease fails, and the run
        # raises instead of cycling forever
        affine_minimizer = higgsstrata.minnorm._affine_minimizer
        monkeypatch.setattr(
            higgsstrata.minnorm, "_affine_minimizer", lambda pts: affine_minimizer(pts[:1])
        )
        with pytest.raises(HiggsStrataError, match="did not decrease"):
            min_norm_point([[1, 0], [0, 1]])

    def test_dependent_corral_raises_under_optimize(self):
        done = _run_under_optimize("mn._affine_minimizer = lambda pts: None")
        assert done.stdout.strip() == "raised", done.stderr

    @given(degenerate_clouds())
    @settings(max_examples=60, deadline=None)
    def test_degenerate_clouds_match_faces_oracle(self, pts):
        assert min_norm_point(pts) == min_norm_point_by_faces(pts)

    @given(degenerate_clouds())
    @settings(max_examples=60, deadline=None)
    def test_certified_without_the_affine_minimizer(self, pts):
        # Wolfe and the faces oracle both solve through linalg's elimination;
        # the phase-1 simplex keeps its own tableau.  x in conv(P) and the KKT
        # condition make x the min-norm point of conv(P).
        x = min_norm_point(pts)
        assert hull_contains_origin([[a - b for a, b in zip(p, x)] for p in pts])
        xx = dot(x, x)
        assert all(dot(p, x) >= xx for p in pts)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_kkt_certificate_property(self, seed):
        cloud = random_cloud(random.Random(seed))
        assert kkt_certificate(cloud, min_norm_point(cloud))


def _integer_form(points, x) -> tuple[list, list]:
    """(delta P, X) with P = D p, D clearing the points' denominators, and
    X = delta D x, delta the least positive int making it integral."""
    _, D = clear_denominators([F(a) for p in points for a in p])
    delta = math.lcm(*(F(a * D).denominator for a in x))
    return [[int(a * D * delta) for a in p] for p in points], [int(a * D * delta) for a in x]


class TestKktIntegerForm:
    """<p, x> >= <x, x> for p = P/D and x = X/(delta D) is delta <P, X> >= <X, X>."""

    @given(wide_rational_clouds, st.integers(-1, 5))
    @settings(max_examples=60, deadline=None)
    def test_same_verdict(self, pts, pick):
        # the min-norm point passes; a member of the cloud usually fails
        x = min_norm_point(pts) if pick < 0 else tuple(F(a) for a in pts[pick % len(pts)])
        scaled, X = _integer_form(pts, x)
        assert all(type(a) is int for a in [*X, *(a for p in scaled for a in p)])
        assert kkt_certificate(scaled, X) == kkt_certificate(pts, x)

    @pytest.mark.parametrize(
        "points,x,verdict",
        [
            ([[1, 0], [0, 1]], (F(1, 2), F(1, 2)), True),
            ([[1, 0], [0, 1]], (F(1), F(0)), False),
            ([[1, 0], [0, 1], [0, 0]], (F(1, 2), F(1, 2)), False),
            ([[F(1, 3), F(2, 5)], [F(-1, 7), F(1, 2)]], (F(1, 3), F(2, 5)), False),
        ],
    )
    def test_known_verdicts(self, points, x, verdict):
        scaled, X = _integer_form(points, x)
        assert kkt_certificate(points, x) is verdict
        assert kkt_certificate(scaled, X) is verdict

    def test_empty_and_ragged_input_still_refused(self):
        with pytest.raises(ValueError):
            kkt_certificate([], (0,))
        with pytest.raises(ValueError):
            kkt_certificate([[1, 2], [1]], (1, 2))


class TestHullMembership:
    def test_both_directions_agree(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(40):
            cloud = random_cloud(rng, dim=rng.randint(1, 3), npts=rng.randint(1, 5))
            a = hull_contains_origin(cloud)
            assert a == all(x == 0 for x in min_norm_point(cloud))
            hits += a
        assert 0 < hits < 40  # both outcomes exercised

    def test_known_cases(self):
        assert hull_contains_origin([[1, 1], [-1, -1]])
        assert not hull_contains_origin([[1, 0], [0, 1]])


class TestIndexSet:
    def test_one_dimensional_example(self):
        assert index_set_B([[-1], [1]]) == [(F(0),), (F(1),)]

    def test_repeated_weight(self):
        assert index_set_B([[3, 3], [3, 3], [3, 3]]) == [(F(3), F(3))]

    def test_permuting_identical_weights_invariant(self):
        a = index_set_B([[1, 0], [0, 1], [1, 0]])
        b = index_set_B([[0, 1], [1, 0], [1, 0]])
        assert a == b

    def test_chamber_representatives_sorted(self):
        for v in index_set_B([[2, -1], [-1, 2], [1, 1]]):
            assert list(v) == sorted(v, reverse=True)

    def test_no_chamber_keeps_raw_vectors(self):
        got = index_set_B([[-1], [1]], restrict_to_chamber=False)
        assert got == [(F(-1),), (F(0),), (F(1),)]

    def test_cap(self):
        # affine dimension 2: the walk's subsets, at most 2 of the 12 weights,
        # are counted, 12 + 66; the cap admits exactly that many
        cloud = [[i, i * i] for i in range(12)]
        with pytest.raises(CapExceeded) as exc:
            index_set_B(cloud, cap=77)
        assert exc.value.count == 78
        assert len(index_set_B(cloud, cap=78)) == len(index_set_B(cloud))

    def test_collinear_cloud_under_cap(self):
        # affine dimension 1: only the 12 singletons count
        got = index_set_B([[i, 1] for i in range(12)], cap=12)
        assert got == [(F(1), F(0)), (F(1), F(1))] + [(F(i), F(1)) for i in range(2, 12)]

    def test_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(higgsstrata.minnorm, "_certified", lambda sets, X, delta: False)
        with pytest.raises(HiggsStrataError, match="KKT"):
            index_set_B([[1, 0], [0, 1]])

    def test_failed_certificate_raises_under_optimize(self):
        done = _run_under_optimize(
            "mn._certified = lambda sets, X, delta: False", "mn.index_set_B([[1, 0], [0, 1]])"
        )
        assert done.stdout.strip() == "raised", done.stderr

    LATTICE_GOLDEN = INDEX_SET_LATTICE_GOLDEN

    @pytest.mark.parametrize(
        "lattice,chamber",
        list(LATTICE_GOLDEN),
        ids=[f"{''.join(map(str, lat))}-{'chamber' if c else 'raw'}" for lat, c in LATTICE_GOLDEN],
    )
    def test_full_genus0_lattices(self, lattice, chamber):
        r, d, n = lattice
        ctx = CurveContext(r, d, genus=0, npoints=n)
        weights = sorted({alpha_of_index(idx, ctx) for idx in enumerate_coordinate_indices(ctx)})
        assert len(weights) == {(2, 2, 1): 10, (2, 1, 2): 15, (2, 3, 1): 15, (2, 2, 2): 35}[lattice]
        got = index_set_B(weights, restrict_to_chamber=chamber)
        text = json.dumps([[str(x) for x in v] for v in got], separators=(",", ":"))
        assert (len(got), hashlib.sha256(text.encode()).hexdigest()) == self.LATTICE_GOLDEN[lattice, chamber]

    @given(degenerate_clouds(), st.booleans())
    # the origin is interior to this sorted triangle, while its first two
    # points project it off their segment: the walk must descend below a
    # subset whose barycentric weights are not all positive
    @example([[-1, 2], [0, 10], [1, -5]], False)
    @example([[-1, 2], [0, 10], [1, -5]], True)
    @settings(max_examples=40, deadline=None)
    def test_matches_wolfe_over_every_support(self, weights, chamber):
        assert index_set_B(weights, restrict_to_chamber=chamber) == closest_points_by_wolfe(weights, chamber)

    @given(wide_rational_clouds, st.booleans())
    # a residual's own coefficient sigma is not 1 here when its weight joins
    @example(
        [
            [F(1, 29), F(1, 42), -10], [2, F(7, 2), 8], [5, -4, F(-2, 77)],
            [6, F(9, 53), F(-1, 22)], [F(2, 43), 6, 6], [4, 0, F(-8, 3)],
        ],
        False,
    )
    @settings(max_examples=40, deadline=None)
    def test_wide_rationals_match_wolfe_over_every_support(self, weights, chamber):
        # the integer walk clears one common denominator up to 97^(4 * 7) and
        # carries numerators far past 10^12
        assert index_set_B(weights, restrict_to_chamber=chamber) == closest_points_by_wolfe(weights, chamber)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_clouds_match_wolfe_over_every_support(self, seed):
        # general position in dimension 3-4 reaches depth 4 and 5 of the walk
        rng = random.Random(seed)
        for _ in range(5):
            dim, big = rng.randint(3, 4), rng.choice([10, 10**12])
            weights = [
                [F(rng.randint(-big, big), rng.choice([1, 3, rng.randint(2, 97)])) for _ in range(dim)]
                for _ in range(rng.randint(4, 6))
            ]
            for chamber in (True, False):
                assert index_set_B(weights, restrict_to_chamber=chamber) == closest_points_by_wolfe(weights, chamber)

    def test_certificate_checked_on_integers(self, monkeypatch):
        seen = []

        def recording(sets, X, delta):
            entries = [delta, *X, *(a for T in sets for p in T for a in p)]
            seen.append(all(type(a) is int for a in entries))
            return certified(sets, X, delta)

        certified = higgsstrata.minnorm._certified
        monkeypatch.setattr(higgsstrata.minnorm, "_certified", recording)
        assert index_set_B([[F(1, 2), 0], [0, F(1, 3)], [F(-1, 5), F(2, 7)]], restrict_to_chamber=False)
        assert seen and all(seen)

    # a tetrahedron around the origin in Q^3: no face or edge of it holds 0
    TETRAHEDRON = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    # four weights in the plane z = 1 of Q^3 (a = 2 < 3), projecting the origin to
    # x_P = (0, 0, 1), inside the first triangle and on none of the segments
    PLANE = [[1, 0, 1], [-1, 1, 1], [-1, -1, 1], [3, 1, 1]]

    def test_point_of_a_full_dimensional_simplex_only(self):
        zero = (F(0),) * 3
        assert not any(
            hull_contains_origin(sub) for k in range(1, 4) for sub in itertools.combinations(self.TETRAHEDRON, k)
        )
        for chamber in (True, False):
            got = index_set_B(self.TETRAHEDRON, restrict_to_chamber=chamber)
            assert zero in got
            assert got == closest_points_by_wolfe(self.TETRAHEDRON, chamber)

    def test_planar_cloud_off_the_origin(self):
        x_p = (F(0), F(0), F(1))
        assert min_norm_point(self.PLANE) == x_p
        assert min_norm_point(self.PLANE[:3]) == x_p
        assert all(min_norm_point(pair) != x_p for pair in itertools.combinations(self.PLANE, 2))
        for chamber in (True, False):
            got = index_set_B(self.PLANE, restrict_to_chamber=chamber)
            assert (tuple(sorted(x_p, reverse=True)) if chamber else x_p) in got
            assert got == closest_points_by_wolfe(self.PLANE, chamber)

    def test_projection_outside_the_hull(self):
        # aff(P) is Q^2, so x_P = 0, outside conv P; Wolfe's point (1, 1) is a
        # weight, which the walk emits too
        weights = [[1, 1], [2, 1], [1, 2]]
        assert min_norm_point(weights) == (F(1), F(1))
        got = index_set_B(weights, restrict_to_chamber=False)
        assert (F(0), F(0)) not in got and (F(1), F(1)) in got
        assert got == closest_points_by_wolfe(weights, False)

    def test_one_wolfe_call(self):
        wolfe = higgsstrata.minnorm._wolfe
        assert count_calls(lambda: index_set_B(self.PLANE), wolfe) == [1]
        assert count_calls(lambda: index_set_B([[2, 3], [2, 3]]), wolfe) == [1]

    def test_walk_builds_no_node_of_a_plus_one_members(self, monkeypatch):
        # the (2,2,2) lattice: 35 weights in Q^4 of affine dimension 3
        extend, built = higgsstrata.minnorm._extend, []

        def recording(*args):
            X, lam, delta, rest = extend(*args)
            if sys._getframe(1).f_code.co_name == "visit":
                built.append((len(lam), len(rest)))
            return X, lam, delta, rest

        monkeypatch.setattr(higgsstrata.minnorm, "_extend", recording)
        assert len(index_set_B(genus0_lattice_weights(2, 2, 2), restrict_to_chamber=False)) == 1289
        assert max(size for size, _ in built) == 3
        assert all(not rest for size, rest in built if size == 3)

    def test_zero_included_iff_origin_in_some_hull(self):
        got = index_set_B([[1, 0], [0, 1]])
        assert (F(0), F(0)) not in got
        got = index_set_B([[1, 0], [-1, 0]])
        assert (F(0), F(0)) in got
