"""Exact minimum-norm point in a convex hull, and closest-point index sets.

Everything runs over Python ints, with no floating point anywhere.  The one
exact projection of the origin onto an affine hull is a fraction-free
Gram-Schmidt step (``_extend``): a point set carries its projection as
integers (X, L, delta), the point X / delta with barycentric weights
L / delta, and each added point costs one integral-LLL style update and one
gcd reduction.  Wolfe's method (``_wolfe``) runs on a Minkowski sum of
integer point sets through its linear-minimisation oracle, the sum of the
per-set argmins, so the sum is never built; its minor cycles project each
corral through ``_affine_minimizer`` and keep integer weight numerators,
and a major cycle that fails to decrease the norm raises.  A point cloud is
the one-set case: its denominators are cleared once, and ``Fraction`` is
built only for the answer.  Every answer passes one exact KKT certificate
(``_certified``), <p, x> >= <x, x> over ints, as a raise, not an assert.
Index sets walk the affinely independent weight subsets depth-first, one
``_extend`` per added weight, and prune every extension by an affinely
dependent weight.  A brute-force oracle projects the origin onto the affine
hull of every subset by its own bordered-Gram ``Fraction`` solve and keeps
the feasible minimum; it and the phase-1 simplex exist so the routes can be
compared with zero tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import CapExceeded, HiggsStrataError
from .hn_types import DEFAULT_INDEX_CAP
from .linalg import Vec, dot, integer, integer_rows, listlike, rank, solve_unique, vec


@dataclass(frozen=True)
class PointCloud:
    """Finitely many rational points of a common dimension; each entry is read
    once, here, and a dim of None is the first point's."""

    dim: int | None
    points: tuple[Vec, ...]

    def __post_init__(self):
        pts = tuple(vec(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("a point cloud needs at least one point")
        object.__setattr__(self, "dim", len(pts[0]) if self.dim is None else self.dim)
        if any(len(p) != self.dim for p in pts):
            raise ValueError("all points must share the cloud dimension")

    @classmethod
    def from_points(cls, points) -> "PointCloud":
        return cls(None, listlike(points, "a list of points"))


def _as_points(cloud) -> tuple[Vec, ...]:
    if isinstance(cloud, PointCloud):
        return cloud.points
    return PointCloud.from_points(cloud).points


def _extend(X: list, lam: list, delta: int, u: list, coeffs: list, sigma: int, rest: list):
    """One fraction-free Gram-Schmidt step: the node (X, lam, delta) extended
    by the point whose residual is u, with u's coefficients ``coeffs`` over the
    node's points and ``sigma`` on the point itself.

    Returns the child's (X, lam, delta) and ``rest``, the later residuals
    (payload, d, e, tau), each made orthogonal to u; a residual that becomes
    zero lies in the child's affine hull and is dropped.  Each new vector is
    divided by the gcd of its coefficients, which divides the vector too.
    """
    uu = sum(map(mul, u, u))
    xu = sum(map(mul, X, u))
    child = []
    for q, d, e, tau in rest:
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
    return X2, lam2, delta2, child


def _affine_minimizer(points: list) -> tuple[list[int], list[int], int] | None:
    """Projection of the origin onto the affine hull of integer points.

    Returns (L, X, delta): barycentric weights L / delta, one per point in
    order, and the projection X / delta = sum_i (L_i / delta) points_i, built
    one point at a time by ``_extend``.  None when the points are affinely
    dependent (some residual vanishes, and a smaller subset spans the same
    hull).
    """
    q0 = points[0]
    X, lam, delta = list(q0), [1], 1
    later = [(None, [a - b for a, b in zip(p, q0)], [-1], 1) for p in points[1:]]
    while later:
        _, u, coeffs, sigma = later[0]
        if not any(u):
            return None
        X, lam, delta, rest = _extend(X, lam, delta, u, coeffs, sigma, later[1:])
        if len(rest) < len(later) - 1:
            return None
        later = rest
    return lam, X, delta


def _wolfe(sets: list) -> tuple[tuple[int, ...], int]:
    """Wolfe's minimum-norm-point method on a Minkowski sum of integer point sets.

    Returns (X, delta), the minimiser X / delta of conv(T_1 + ... + T_n),
    without building the sum: the linear-minimisation oracle argmin <X, p>
    over the sum is the sum of the per-set argmins.  The corral holds points
    of the sum with positive weights W / sum(W); each major cycle adds the
    oracle's point and strictly decreases the norm, so the run visits each
    corral at most once and terminates with the exact minimiser.  Corrals
    stay affinely independent (Wolfe 1976): x minimises the norm over the
    corral's affine hull, on which <x, q> = <x, x>, the entering point has
    <x, p> < <x, x>, and minor cycles only drop points.  A minor cycle that
    walks from x toward the affine minimiser (L, Y, delta) of the corral
    stops where the first weight W_j hits zero, at the integer weights
    W_j L - L_j W.  A singular corral, or a major cycle whose new point
    Y / delta' is not strictly shorter than X / delta (<Y, Y> delta^2 <
    <X, X> delta'^2, Wolfe's strict decrease), raises HiggsStrataError, so a
    defect shows as a failure rather than a cycle.
    """
    X = [0] * len(sets[0][0])
    for T in sets:
        X = [a + b for a, b in zip(X, min(T, key=lambda p: sum(map(mul, p, p))))]
    corral, W, delta = [tuple(X)], [1], 1
    while True:
        q, low = [0] * len(X), 0
        for T in sets:
            vals = [sum(map(mul, p, X)) for p in T]
            best = min(vals)
            low += best
            q = [a + b for a, b in zip(q, T[vals.index(best)])]
        if delta * low >= sum(map(mul, X, X)):
            return tuple(X), delta
        corral.append(tuple(q))
        W.append(0)
        while True:
            solved = _affine_minimizer(corral)
            if solved is None:
                raise HiggsStrataError("Wolfe corral became affinely dependent")
            lam, Y, lam_sum = solved
            if min(lam) >= 0:
                if sum(map(mul, Y, Y)) * delta**2 >= sum(map(mul, X, X)) * lam_sum**2:
                    raise HiggsStrataError("Wolfe major cycle did not decrease the norm")
                corral = [p for p, a in zip(corral, lam) if a > 0]
                W = [a for a in lam if a > 0]
                X, delta = Y, lam_sum
                break
            j = None
            for i, a in enumerate(lam):
                if a < 0 and (j is None or W[i] * -lam[j] < W[j] * -a):
                    j = i
            W = [W[j] * a - lam[j] * w for w, a in zip(W, lam)]
            g = math.gcd(*W)
            W = [w // g for w in W]
            drop = W.index(0)
            corral.pop(drop)
            W.pop(drop)


def _certified(sets, X, delta: int) -> bool:
    """The exact KKT certificate of x = X / delta as the closest point of
    conv(T_1 + ... + T_n) to the origin, over ints:
    delta sum_k min_{p in T_k} <p, X> >= <X, X>, i.e. <p, x> >= <x, x> for
    every p of the sum.  Scaling the points and X by one positive factor
    multiplies both sides by its square, so the verdict is that of the
    rational points they clear."""
    low = sum(min(sum(map(mul, p, X)) for p in T) for T in sets)
    return delta * low >= sum(map(mul, X, X))


def min_norm_point_of_sum(sets) -> tuple[tuple[int, ...], int]:
    """Certified closest point to the origin of conv(T_1 + ... + T_n), for
    nonempty sets T_k of integer points: (X, delta) with x = X / delta,
    Wolfe's answer passed through ``_certified``.

    Raises ValueError for no sets, an empty set or points of different
    lengths, and TypeError for an entry that is not an int, before any work.
    """
    sets = [list(T) for T in sets]
    if not sets or not all(sets):
        raise ValueError("the Minkowski sum needs at least one set, and no empty set")
    dim = len(sets[0][0])
    for T in sets:
        for p in T:
            if len(p) != dim:
                raise ValueError(f"points of lengths {dim} and {len(p)} in one sum")
            for x in p:
                integer(x)
    X, delta = _wolfe(sets)
    if not _certified(sets, X, delta):
        raise HiggsStrataError("exact KKT certificate failed")
    return X, delta


def min_norm_point_by_faces(points) -> Vec:
    """Brute-force oracle: project the origin onto every affine face.

    For each nonempty subset, the origin is projected onto the subset's
    affine hull by solving the bordered Gram system over ``Fraction``, a
    route independent of Wolfe's integer projection; a singular system means
    an affinely dependent subset, whose hull a smaller subset spans.
    Projections with nonnegative barycentric weights are convex combinations,
    and the best of those is the answer.  Exponential in the number of
    points; intended as an independent check.
    """
    pts = list(_as_points(points))
    best = None
    for size in range(1, len(pts) + 1):
        for subset in itertools.combinations(pts, size):
            rows = [(*(dot(p, q) for q in subset), 1) for p in subset]
            rows.append((*[1] * size, 0))
            sol = solve_unique(tuple(rows), [0] * size + [1])
            if sol is None:
                continue
            lam = sol[:size]
            if any(l < 0 for l in lam):
                continue
            y = tuple(sum(l * p[i] for l, p in zip(lam, subset)) for i in range(len(pts[0])))
            if best is None or dot(y, y) < dot(best, best):
                best = y
    return best


def min_norm_point(cloud) -> Vec:
    """Exact closest point to the origin of the convex hull of the cloud.

    The one-set case of ``min_norm_point_of_sum``, on P = D p with D clearing
    the cloud's denominators once; the answer is X / (delta D).
    ``min_norm_point_by_faces`` is the independent oracle.
    """
    P, D = integer_rows(_as_points(cloud))
    X, delta = min_norm_point_of_sum([P])
    return tuple(Fraction(a, delta * D) for a in X)


def kkt_certificate(points, x: Vec) -> bool:
    """Exact optimality certificate: <p, x> >= <x, x> for every point p.

    The points and x are cleared by one common denominator and decided by
    ``_certified`` on the one set they form.
    """
    pts = _as_points(points)
    x = vec(x)
    if len(x) != len(pts[0]):
        raise ValueError(f"length mismatch: {len(pts[0])} vs {len(x)}")
    (X, *P), _ = integer_rows([x, *pts])
    return _certified([P], X, 1)


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
    denominators are cleared once, P = D p, before the distinct P are sorted,
    in the weights' order since D > 0.  A node S carries its projection
    as integers (X, L, delta): x = X / (delta D), barycentric weights
    L / delta, delta > 0 and X = sum_i L_i P_i.  Each later weight q carries
    the component d of P_q - P_q0 orthogonal to aff(S) - q0, up to a positive
    scale, as integer coefficients: d = sigma P_q + sum_i e_i P_i with
    sigma > 0.  Adding the weight with residual u (``_extend``) takes
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
    delta <P, X> >= <X, X>: ``_certified`` on the one set S, all integers.
    ``Fraction`` is built only for the emitted points, once per distinct
    (X, delta) in lowest terms.

    Results are deduplicated and, with ``restrict_to_chamber``, replaced by
    their weakly decreasing rearrangement, dropping those whose largest
    coordinate is negative (a nonzero trace-free closest point has a
    positive one).  Sorted.
    """
    P, D = integer_rows(_as_points(weights))
    P = sorted(set(P))
    affine_dim = rank(tuple(tuple(a - b for a, b in zip(p, P[0])) for p in P[1:]))
    count = sum(math.comb(len(P), s) for s in range(1, affine_dim + 2))
    if count > cap:
        raise CapExceeded(count, cap)
    found: set[tuple[tuple[int, ...], int]] = set()

    def visit(members: list, X: list, lam: list, delta: int, later: list) -> None:
        # later: per later weight, (its scaled point, its residual d, d's
        # coefficients over members, d's coefficient on the weight itself)
        if min(lam) > 0:
            if not _certified([members], X, delta):
                raise HiggsStrataError("exact KKT certificate failed")
            g = math.gcd(delta, *X)
            found.add((tuple(a // g for a in X), delta // g))
        for pos, (p, u, coeffs, sigma) in enumerate(later):
            visit(members + [p], *_extend(X, lam, delta, u, coeffs, sigma, later[pos + 1:]))

    for i, q0 in enumerate(P):
        later = [(p, [a - b for a, b in zip(p, q0)], [-1], 1) for p in P[i + 1:]]
        visit([q0], list(q0), [1], 1, later)
    if restrict_to_chamber:
        chamber = ((tuple(sorted(X, reverse=True)), delta) for X, delta in found)
        found = {(X, delta) for X, delta in chamber if not (X and X[0] < 0)}
    return sorted(tuple(Fraction(a, delta * D) for a in X) for X, delta in found)
