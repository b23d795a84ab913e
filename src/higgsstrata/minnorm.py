"""Exact minimum-norm point in a convex hull, and closest-point index sets.

The primary solver is Wolfe's method run entirely in rational arithmetic,
which terminates finitely and returns the exact minimiser together with an
exact KKT certificate.  A brute-force oracle projects the origin onto the
affine hull of every subset and keeps the feasible minimum; it exists so the
two routes can be compared with zero tolerance.  Index sets walk the affinely
independent weight subsets depth-first over Python ints: the weights'
denominators are cleared once, and each node carries its projection as
integers (X, L, delta), the point X / (delta D) with barycentric weights
L / delta.  Each extension by one weight is a fraction-free Gram-Schmidt
step followed by one gcd reduction, and every extension by an affinely
dependent weight is pruned.  The KKT certificate <p, x> >= <x, x> at
x = X / (delta D) is the integer inequality delta <P, X> >= <X, X>, and
``Fraction`` is built only for the emitted points.  No floating point is
used anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import CapExceeded, HiggsStrataError
from .hn_types import DEFAULT_INDEX_CAP
from .linalg import Vec, clear_denominators, dot, rank, solve_unique, vec


@dataclass(frozen=True)
class PointCloud:
    """Finitely many rational points of a common dimension."""

    dim: int
    points: tuple[Vec, ...]

    def __post_init__(self):
        pts = tuple(vec(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("a point cloud needs at least one point")
        if any(len(p) != self.dim for p in pts):
            raise ValueError("all points must share the cloud dimension")

    @classmethod
    def from_points(cls, points) -> "PointCloud":
        pts = tuple(vec(p) for p in points)
        return cls(len(pts[0]) if pts else 0, pts)


def _as_points(cloud) -> tuple[Vec, ...]:
    if isinstance(cloud, PointCloud):
        return cloud.points
    return PointCloud.from_points(cloud).points


def _affine_minimizer(points: list[Vec]) -> tuple[list[Fraction], Vec] | None:
    """Min-norm point of the affine hull, as barycentric weights and the point.

    None when the points are affinely dependent (the bordered Gram system is
    then singular and a smaller subset spans the same hull).
    """
    k = len(points)
    gram = [[dot(p, q) for q in points] for p in points]
    rows = [tuple(gram[i] + [Fraction(1)]) for i in range(k)]
    rows.append(tuple([Fraction(1)] * k + [Fraction(0)]))
    rhs = [Fraction(0)] * k + [Fraction(1)]
    sol = solve_unique(tuple(rows), rhs)
    if sol is None:
        return None
    lam = list(sol[:k])
    y = tuple(
        sum((l * p[i] for l, p in zip(lam, points)), Fraction(0))
        for i in range(len(points[0]))
    )
    return lam, y


def wolfe_min_norm(points) -> Vec:
    """Wolfe's minimum-norm-point method over the rationals.

    Maintains a corral with positive barycentric weights; each major cycle
    strictly decreases the norm, so the run visits each corral at most once
    and terminates with the exact minimiser.  Corrals stay affinely
    independent (Wolfe 1976): x minimises the norm over the corral's affine
    hull, on which <x, q> = <x, x>, the entering point has <x, p> < <x, x>,
    and minor cycles only drop points.  A singular corral raises
    HiggsStrataError.
    """
    pts = list(_as_points(points))
    x = min(pts, key=lambda p: dot(p, p))
    corral = [pts.index(x)]
    weights = [Fraction(1)]
    while True:
        xx = dot(x, x)
        best_val, best_idx = None, None
        for idx, p in enumerate(pts):
            val = dot(x, p)
            if best_val is None or val < best_val:
                best_val, best_idx = val, idx
        if best_val >= xx:
            return x
        corral.append(best_idx)
        weights.append(Fraction(0))
        while True:
            sub = [pts[i] for i in corral]
            solved = _affine_minimizer(sub)
            if solved is None:
                raise HiggsStrataError("Wolfe corral became affinely dependent")
            alpha, y = solved
            if all(a >= 0 for a in alpha):
                x = y
                pairs = [
                    (c, a) for c, a in zip(corral, alpha) if a > 0
                ]
                corral = [c for c, _ in pairs]
                weights = [a for _, a in pairs]
                break
            # Walk from x toward y until a weight hits zero, then drop it.
            theta = min(
                weights[i] / (weights[i] - alpha[i])
                for i in range(len(alpha))
                if alpha[i] < 0
            )
            weights = [
                (1 - theta) * w + theta * a for w, a in zip(weights, alpha)
            ]
            x = tuple(
                sum((w * p[i] for w, p in zip(weights, sub)), Fraction(0))
                for i in range(len(x))
            )
            drop = next(i for i, w in enumerate(weights) if w == 0)
            corral.pop(drop)
            weights.pop(drop)


def min_norm_point_by_faces(points) -> Vec:
    """Brute-force oracle: project the origin onto every affine face.

    For each nonempty subset, the origin is projected onto the subset's
    affine hull; projections with nonnegative barycentric weights are convex
    combinations, and the best of those is the answer.  Exponential in the
    number of points; intended as an independent check.
    """
    pts = list(_as_points(points))
    best = None
    for size in range(1, len(pts) + 1):
        for subset in itertools.combinations(pts, size):
            solved = _affine_minimizer(list(subset))
            if solved is None:
                continue
            lam, y = solved
            if any(l < 0 for l in lam):
                continue
            if best is None or dot(y, y) < dot(best, best):
                best = y
    return best


def min_norm_point(cloud) -> Vec:
    """Exact closest point to the origin of the convex hull of the cloud.

    Computed by Wolfe's method and certified: every point pairs with it at
    least as much as its squared norm.  ``min_norm_point_by_faces`` is the
    independent oracle.
    """
    pts = _as_points(cloud)
    if len(pts) == 1:
        return pts[0]
    x = wolfe_min_norm(pts)
    if not kkt_certificate(pts, x):
        raise HiggsStrataError("exact KKT certificate failed")
    return x


def kkt_certificate(points, x: Vec) -> bool:
    """Exact optimality certificate: <p, x> >= <x, x> for every point p.

    All-``int`` input (x and points of x's length) is paired as it is; any
    other input is coerced to ``Fraction`` through ``PointCloud``.
    Scaling the points and x by one positive factor multiplies both sides by
    its square, so ``index_set_B`` certifies its integer form with the same
    verdict.
    """
    if isinstance(points, PointCloud):
        points = points.points
    else:
        points = list(points)
        if (
            points
            and all(len(p) == len(x) for p in points)
            and all(type(a) is int for a in itertools.chain(x, *points))
        ):
            xx = sum(map(mul, x, x))
            return all(sum(map(mul, p, x)) >= xx for p in points)
        points = _as_points(points)
    xx = dot(x, x)
    return all(dot(p, x) >= xx for p in points)


def hull_contains_origin(points) -> bool:
    """Whether the origin lies in the convex hull, by an exact phase-1 simplex.

    Independent of ``min_norm_point``, which vanishes exactly in this case.
    """
    pts = _as_points(points)
    columns = [tuple(p) + (Fraction(1),) for p in pts]
    target = tuple([Fraction(0)] * len(pts[0])) + (Fraction(1),)
    return nonneg_combination_exists(columns, target)


def nonneg_combination_exists(columns, target) -> bool:
    """Exact phase-1 simplex: does some x >= 0 solve (columns as matrix) x = b?

    Columns and target are rational vectors of a common length.  Bland's rule
    keeps the run finite; arithmetic is exact throughout.
    """
    cols = [vec(c) for c in columns]
    b = vec(target)
    nrows, ncols = len(b), len(cols)
    # Flip rows so the right-hand side is nonnegative.
    rows = []
    rhs = []
    for i in range(nrows):
        sign = -1 if b[i] < 0 else 1
        rows.append([sign * cols[j][i] for j in range(ncols)])
        rhs.append(sign * b[i])
    # Tableau with artificial basis; minimise the artificial sum.
    tableau = [row + [Fraction(0)] * nrows + [rhs[i]] for i, row in enumerate(rows)]
    for i in range(nrows):
        tableau[i][ncols + i] = Fraction(1)
    basis = [ncols + i for i in range(nrows)]
    width = ncols + nrows
    cost = [Fraction(0)] * (width + 1)
    for i in range(nrows):
        for j in range(width + 1):
            cost[j] += tableau[i][j]
    while True:
        enter = next(
            (j for j in range(ncols) if cost[j] > 0), None
        )
        if enter is None:
            break
        ratios = [
            (tableau[i][width] / tableau[i][enter], i)
            for i in range(nrows)
            if tableau[i][enter] > 0
        ]
        if not ratios:
            # The artificial sum is bounded below by 0, so an improving
            # column always has a positive entry.
            raise HiggsStrataError("phase-1 simplex found no pivot row")
        _, pivot_row = min(ratios, key=lambda t: (t[0], basis[t[1]]))
        piv = tableau[pivot_row][enter]
        tableau[pivot_row] = [x / piv for x in tableau[pivot_row]]
        for i in range(nrows):
            if i != pivot_row and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [
                    x - f * y for x, y in zip(tableau[i], tableau[pivot_row])
                ]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tableau[pivot_row])]
        basis[pivot_row] = enter
    return cost[width] == 0


def index_set_B(weights, restrict_to_chamber: bool = True, cap: int = DEFAULT_INDEX_CAP) -> list[Vec]:
    """Closest-to-origin points of the hulls of all weight supports.

    By Caratheodory the minimum-norm point of a support lies in the relative
    interior of conv(S) for some affinely independent S inside it, so it is
    the projection of the origin onto aff(S), with positive barycentric
    weights; conversely each such projection lies in conv(S), minimises the
    norm over aff(S) and so is the minimum-norm point of the support S.  So
    every affinely independent subset S of the distinct weights (at most
    a + 1 of them, a their affine dimension) is visited once and its
    projection kept, KKT-certified, when all its weights are positive;
    ``cap`` bounds the number of subsets of at most a + 1 weights and is
    checked before any work.

    The subsets are walked depth-first over the sorted weights, a child
    adding one later weight: Wolfe's affine-minimiser step taken one point at
    a time by fraction-free Gram-Schmidt (integral LLL's, Cohen 1993,
    section 2.6.3), O(k + dim) integer operations per subset.  The weights'
    denominators are cleared once, P = D p.  A node S carries its projection
    as integers (X, L, delta): x = X / (delta D), barycentric weights
    L / delta, delta > 0 and X = sum_i L_i P_i.  Each later weight q carries
    the component d of P_q - P_q0 orthogonal to aff(S) - q0, up to a positive
    scale, as integer coefficients: d = sigma P_q + sum_i e_i P_i with
    sigma > 0.  Adding the weight with residual u takes
    X' = <u,u> X - <X,u> u, L' = <u,u> L - <X,u> coeffs(u), delta' = delta <u,u>
    and, for each later residual, d' = <u,u> d - <d,u> u with its coefficients
    updated alike; each new vector is divided by the gcd of its coefficients,
    which divides the vector too.  This is the rational step
    x' = x - (<x,u>/<u,u>) u scaled by delta <u,u>, so the sign test (L > 0)
    and the dependence test (d' = 0) are exact.  A zero residual means q lies
    in aff(S), hence in the affine hull of every extension of S, so q is
    dropped from the whole subtree.  A sorted subset is affinely dependent
    exactly when some prefix step adds such a point, so the walk visits
    exactly the affinely independent subsets.

    The certificate <p, x> >= <x, x> for p in S reads, at x = X / (delta D),
    delta <P, X> >= <X, X>: ``kkt_certificate`` gets the members scaled by
    delta together with X, all integers.  ``Fraction`` is built only for the
    emitted points, once per distinct (X, delta) in lowest terms.

    Results are deduplicated and, with ``restrict_to_chamber``, replaced by
    their weakly decreasing rearrangement, dropping those whose largest
    coordinate is negative (a nonzero trace-free closest point has a
    positive one).  Sorted.
    """
    pts = sorted(set(_as_points(weights)))
    flat, D = clear_denominators([x for p in pts for x in p])
    dim = len(pts[0])
    P = [flat[i * dim:(i + 1) * dim] for i in range(len(pts))]
    affine_dim = rank(tuple(tuple(a - b for a, b in zip(p, P[0])) for p in P[1:]))
    count = sum(math.comb(len(pts), s) for s in range(1, affine_dim + 2))
    if count > cap:
        raise CapExceeded(count, cap)
    found: set[tuple[tuple[int, ...], int]] = set()

    def visit(members: list, X: list, lam: list, delta: int, later: list) -> None:
        # later: per later weight, (its scaled point, its residual d, d's
        # coefficients over members, d's coefficient on the weight itself)
        if min(lam) > 0:
            if not kkt_certificate([tuple(delta * a for a in p) for p in members], X):
                raise HiggsStrataError("exact KKT certificate failed")
            g = math.gcd(delta, *X)
            found.add((tuple(a // g for a in X), delta // g))
        for pos, (p, u, coeffs, sigma) in enumerate(later):
            uu = sum(map(mul, u, u))
            xu = sum(map(mul, X, u))
            child = []
            for q, d, e, tau in later[pos + 1:]:
                t = sum(map(mul, d, u))
                if t:
                    d = [uu * a - t * b for a, b in zip(d, u)]
                    if not any(d):
                        continue
                    e = [uu * a - t * b for a, b in zip(e, coeffs)]
                    e.append(-t * sigma)
                    tau *= uu
                    g = math.gcd(tau, *e)
                    if g > 1:
                        d = [a // g for a in d]
                        e = [a // g for a in e]
                        tau //= g
                else:
                    e = e + [0]
                child.append((q, d, e, tau))
            lam2 = [uu * a - xu * b for a, b in zip(lam, coeffs)]
            lam2.append(-xu * sigma)
            X2 = [uu * a - xu * b for a, b in zip(X, u)]
            delta2 = delta * uu
            g = math.gcd(*lam2)
            if g > 1:
                lam2 = [a // g for a in lam2]
                X2 = [a // g for a in X2]
                delta2 //= g
            visit(members + [p], X2, lam2, delta2, child)

    for i, q0 in enumerate(P):
        later = [(p, [a - b for a, b in zip(p, q0)], [-1], 1) for p in P[i + 1:]]
        visit([q0], list(q0), [1], 1, later)
    if restrict_to_chamber:
        chamber = ((tuple(sorted(X, reverse=True)), delta) for X, delta in found)
        found = {(X, delta) for X, delta in chamber if not (X and X[0] < 0)}
    return sorted(tuple(Fraction(a, delta * D) for a in X) for X, delta in found)
