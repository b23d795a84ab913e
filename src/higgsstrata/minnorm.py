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
the one-set case: ``PointCloud`` reads each entry once into integer rows
P = D p over one denominator D, and ``Fraction`` is built only for the
answer.  Every answer passes one exact KKT certificate (``_certified``),
<p, x> >= <x, x> over ints, as a raise, not an assert.

Index sets walk the affinely independent weight subsets of at most a
weights depth-first, a the weights' affine dimension, one ``_extend`` per
added weight, and prune every extension by an affinely dependent weight.
The full-dimensional level, a + 1 weights, needs no walk: each such subset
spans aff(P) and so projects the origin to one point x_P, which that level
can emit only when x_P lies in conv P, and then x_P is the certified Wolfe
point w of conv P; w is in the index set in any case.  So one Wolfe call
replaces that level (``index_set_B`` gives the proof).  The brute-force
routes that check these with zero tolerance live in ``higgsstrata.oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DEFAULT_INDEX_CAP, CapExceeded, HiggsStrataError
from .linalg import VECTOR, Vec, cleared, integer, listlike, rank, ratio


@dataclass(frozen=True, init=False)
class PointCloud:
    """Finitely many rational points of a common dimension, held in integer form.

    Each entry is read once, by ``linalg.ratio``, into the rows P = D p, D
    the lcm of the entries' reduced denominators; a dim of None is the first
    point's.  The form is canonical, so equality and hash are those of the
    points, and ``points`` is built as ``Fraction`` only when read.
    """

    dim: int
    P: tuple[tuple[int, ...], ...]
    D: int

    def __init__(self, dim: int | None, points):
        rows = [tuple(map(ratio, listlike(p, VECTOR))) for p in points]
        if not rows:
            raise ValueError("a point cloud needs at least one point")
        dim = len(rows[0]) if dim is None else dim
        if any(len(p) != dim for p in rows):
            raise ValueError("all points must share the cloud dimension")
        P, D = cleared(rows)
        self.__dict__.update(dim=dim, P=tuple(P), D=D)

    points = property(lambda c: tuple(tuple(Fraction(x, c.D) for x in p) for p in c.P))

    @classmethod
    def from_points(cls, points) -> "PointCloud":
        return cls(None, listlike(points, "a list of points"))


def _as_cloud(cloud) -> PointCloud:
    return cloud if isinstance(cloud, PointCloud) else PointCloud.from_points(cloud)


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


def min_norm_point(cloud) -> Vec:
    """Exact closest point to the origin of the convex hull of the cloud.

    The one-set case of ``min_norm_point_of_sum``, on the cloud's integer
    rows P = D p; the answer is X / (delta D).
    ``oracles.min_norm_point_by_faces`` is the independent oracle.
    """
    cloud = _as_cloud(cloud)
    X, delta = min_norm_point_of_sum([cloud.P])
    return tuple(Fraction(a, delta * cloud.D) for a in X)


def kkt_certificate(points, x: Vec) -> bool:
    """Exact optimality certificate: <p, x> >= <x, x> for every point p.

    With the cloud's rows P = D p and x = X / E read by ``linalg.ratio``,
    x = D X / (E D), so ``_certified`` decides it on P at (D X, E).
    """
    cloud = _as_cloud(points)
    xs = [ratio(a) for a in listlike(x, VECTOR)]
    if len(xs) != cloud.dim:
        raise ValueError(f"length mismatch: {cloud.dim} vs {len(xs)}")
    (X,), E = cleared([xs])
    return _certified([cloud.P], [cloud.D * a for a in X], E)


def index_set_B(weights, restrict_to_chamber: bool = True, cap: int = DEFAULT_INDEX_CAP) -> list[Vec]:
    """Closest-to-origin points of the hulls of all weight supports.

    By Caratheodory the minimum-norm point of a support lies in the relative
    interior of conv(S) for some affinely independent S inside it, so it is
    the projection of the origin onto aff(S), with positive barycentric
    weights; conversely each such projection lies in conv(S), minimises the
    norm over aff(S) and so is the minimum-norm point of the support S.  So
    the answer B is the set of projections of the affinely independent
    subsets S of the distinct weights P whose barycentric weights are all
    positive.  Such an S has at most a + 1 members, a the affine dimension of
    P.  ``cap`` bounds the subsets the walk below can visit, those of at most
    a weights, sum_{s=1}^{a} C(n, s) for n distinct weights, and is checked
    before any work.

    The subsets of at most a weights are walked, and each projection with
    positive weights is kept, KKT-certified.  The a + 1 level is replaced by
    one Wolfe call.  An affinely independent S of a + 1 weights spans aff(P),
    so every such S projects the origin to the one point x_P, and that level
    can keep only x_P, and only when x_P lies in conv(S), inside conv(P).
    Let w be the minimum-norm point of conv(P), certified by
    ``min_norm_point_of_sum([P])``.  When x_P lies in conv(P), x_P minimises
    the norm over aff(P), which contains conv(P), so x_P = w.  And w is always
    in B, since P is itself a support: by the argument above it is the
    projection of some affinely independent S in P with positive weights.
    So B is the walk's points together with w: the a + 1 level adds nothing
    else, and w adds nothing outside B.  With a = 0 there is one distinct
    weight, no walk, and w is that weight.

    The subsets are walked depth-first over the sorted weights, a child
    adding one later weight: Wolfe's affine-minimiser step taken one point at
    a time by fraction-free Gram-Schmidt (integral LLL's, Cohen 1993,
    section 2.6.3), O(k + dim) integer operations per subset.  The weights'
    integer rows P = D p (``PointCloud``) are deduplicated and sorted, in the
    weights' order since D > 0.  A node S carries its projection
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
    exactly the affinely independent subsets of at most a weights.  A node of
    a weights has no children, so it is built with no later residuals.

    The certificate <p, x> >= <x, x> for p in S reads, at x = X / (delta D),
    delta <P, X> >= <X, X>: ``_certified`` on the one set S, all integers.

    Results are deduplicated and, with ``restrict_to_chamber``, replaced by
    their weakly decreasing rearrangement, dropping those whose largest
    coordinate is negative (a nonzero trace-free closest point has a
    positive one).  Sorted, on ints: each distinct (X, delta) in lowest terms
    by [a (L // delta) for a in X], L the lcm of the deltas, which is the
    point times L D > 0, so the order is that of the points.  ``Fraction`` is
    built only for the emitted points, once per entry, after sorting.
    """
    cloud = _as_cloud(weights)
    P, D = sorted(set(cloud.P)), cloud.D
    affine_dim = rank(tuple(tuple(a - b for a, b in zip(p, P[0])) for p in P[1:]))
    count = sum(math.comb(len(P), s) for s in range(1, affine_dim + 1))
    if count > cap:
        raise CapExceeded(count, cap)
    found: set[tuple[tuple[int, ...], int]] = set()

    def keep(X, delta: int) -> None:
        g = math.gcd(delta, *X)
        found.add((tuple(a // g for a in X), delta // g))

    def visit(members: list, X: list, lam: list, delta: int, later: list) -> None:
        # later: per later weight, (its scaled point, its residual d, d's
        # coefficients over members, d's coefficient on the weight itself);
        # empty for a node of a members
        if min(lam) > 0:
            if not _certified([members], X, delta):
                raise HiggsStrataError("exact KKT certificate failed")
            keep(X, delta)
        inner = len(members) + 1 < affine_dim
        for pos, (p, u, coeffs, sigma) in enumerate(later):
            rest = later[pos + 1:] if inner else []
            visit(members + [p], *_extend(X, lam, delta, u, coeffs, sigma, rest))

    if affine_dim:
        for i, q0 in enumerate(P):
            later = [(p, [a - b for a, b in zip(p, q0)], [-1], 1) for p in P[i + 1:]]
            visit([q0], list(q0), [1], 1, later if affine_dim > 1 else [])
    keep(*min_norm_point_of_sum([P]))
    if restrict_to_chamber:
        chamber = ((tuple(sorted(X, reverse=True)), delta) for X, delta in found)
        found = {(X, delta) for X, delta in chamber if not (X and X[0] < 0)}
    L = math.lcm(*(delta for _, delta in found))
    ordered = sorted(found, key=lambda node: [a * (L // node[1]) for a in node[0]])
    return [tuple(Fraction(a, delta * D) for a in X) for X, delta in ordered]
