"""Brute-force routes, kept only as independent test oracles.

No answer module imports this one.  Each reaches a fast route's answer by
another road, compared with zero tolerance in the tests:

- ``min_norm_point_by_faces`` checks ``minnorm.min_norm_point`` (Wolfe on
  ints): the shortest projection of the origin, with nonnegative weights,
  onto the affine hull of any subset, by a ``Fraction`` solve.
- ``hull_contains_origin`` checks that this point is zero exactly when the
  origin is in the hull, by a phase-1 simplex, ``nonneg_combination_exists``.
- ``unipotent_stabilizer_dim_dense_oracle`` checks
  ``point_model.unipotent_stabilizer_dim`` on the full coordinate table,
  differentiated through ``Dual`` numbers, with the scalar kept unknown.
- ``nilpotent_commutant_dim_dense_oracle`` checks
  ``point_model.nilpotent_commutant_dim``: the full commutant
  (``linalg.nullspace``) meets the lowering triangle.
- ``inverse``, the back-substitution of ``linalg._echelon`` on [a | I],
  checks the gauge moves of ``ModelPoint`` in the tests.
- ``adapted_flag_basis`` checks the basis that ``point_model`` writes each
  factor in, y on the columns of ``linalg.full_row_rank``, by eliminating
  y's columns in order (``EchelonAccumulator``) flag step by flag step.
- ``u_tau_candidates_literal`` checks ``hn_types.u_tau_candidates`` (a
  bisection of one sorted list) by enumerating at tau's top slope and
  testing ``first_slope_bound`` on every mu; ``compat_pairs`` checks the
  count of ``strat_report.compat_cross_table`` by re-testing every pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_INDEX_CAP, DegeneratePoint, HiggsStrataError
from .hn_types import (CandidateSet, CurveContext, FlagShape, HNType, Rank3Kind, classify_rank3,
                       enumerate_hn_types, first_slope_bound, general_first_slope_bound)
from .linalg import (
    EchelonAccumulator, Mat, Vec, _echelon, dot, mat, nullspace, rank, solve_unique, transpose, vec,
)
from .minnorm import _as_cloud
from .point_model import ModelPoint, _check_shapes, _factor_values, _lie_upper_positions, _table
from .weight_lattice import enumerate_coordinate_indices


@dataclass(frozen=True)
class Dual:
    """Dual number a + b*eps with eps^2 = 0, over the rationals."""

    a: Fraction
    b: Fraction

    def __add__(self, other: "Dual") -> "Dual":
        return Dual(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Dual") -> "Dual":
        return Dual(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __radd__(self, other) -> "Dual":
        # other is a plain scalar (sum() seeds with int 0)
        return Dual(self.a + other, self.b)

    def __neg__(self) -> "Dual":
        return Dual(-self.a, -self.b)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)


def inverse(a: Mat) -> Mat | None:
    """The inverse of a square matrix; None when it is singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    aug = [[*row, *(1 if i == j else 0 for j in range(n))] for i, row in enumerate(a)]
    red, pivots = _echelon(aug)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def adapted_flag_basis(columns, cuts) -> tuple[Mat, tuple[int, ...]]:
    """Basis of the target space adapted to the flag spanned by column prefixes.

    ``columns`` are vectors in k^r; the flag step gamma is the span of the
    first ``cuts[gamma]`` columns.  Returns (g, dims) where the columns of g
    are a basis of k^r whose first dims[gamma] vectors span flag step gamma.
    Requires the full column list to span k^r.
    """
    r = len(columns[0]) if columns else 0
    acc = EchelonAccumulator(r)
    basis: list[Vec] = []
    dims: list[int] = []
    start = 0
    for cut in cuts:
        for l in range(start, cut):
            if acc.add(columns[l]):
                basis.append(columns[l])
        dims.append(len(basis))
        start = cut
    if len(basis) != r:
        raise ValueError("columns do not span the target space")
    g = transpose(tuple(basis))
    return g, tuple(dims)


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
    pts = list(_as_cloud(points).points)
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


def hull_contains_origin(points) -> bool:
    """Whether the origin lies in the convex hull, by an exact phase-1 simplex.

    Independent of ``min_norm_point``, which vanishes exactly in this case.
    """
    pts = _as_cloud(points).points
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
    rows, rhs = [], []
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
        enter = next((j for j in range(ncols) if cost[j] > 0), None)
        if enter is None:
            break
        ratios = [(tableau[i][width] / tableau[i][enter], i) for i in range(nrows) if tableau[i][enter] > 0]
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
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[pivot_row])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tableau[pivot_row])]
        basis[pivot_row] = enter
    return cost[width] == 0


def _sheared(y: Mat, a: int, l: int) -> tuple:
    """y over dual numbers, moved along the direction column l += eps * column a."""
    return tuple(tuple(Dual(x, row[a] if col == l else 0) for col, x in enumerate(row)) for row in y)


def unipotent_stabilizer_dim_dense_oracle(
    p: ModelPoint,
    flag: FlagShape,
    ctx: CurveContext,
    cap: int = DEFAULT_INDEX_CAP,
) -> int:
    """Independent route: the direction's action on the full coordinate table.

    Exact nullity of the linear system in (direction, scalar) asking the
    first-order action to be a scalar multiple of the table, with all
    C(m,r)^N (1 + r^(2N)) coordinates differentiated through dual numbers;
    ``cap`` counts those coordinate indices.  A test oracle for
    ``unipotent_stabilizer_dim``.
    """
    _check_shapes(p, ctx, flag)
    order = list(enumerate_coordinate_indices(ctx, cap))
    positions = _lie_upper_positions(flag)
    base = _table(order, [_factor_values(f.y, f.c, f.phi, p.m) for f in p.factors], p.r, p.m)
    if not any(base[idx] for idx in order):
        raise DegeneratePoint("all coordinates vanish")
    eps_columns = []
    for (a, l) in positions:
        dual_parts = [
            _factor_values(_sheared(f.y, a, l), Dual(f.c, 0), [[Dual(x, 0) for x in v] for v in f.phi], p.m)
            for f in p.factors
        ]
        dual_table = _table(order, dual_parts, p.r, p.m)
        eps_columns.append([dual_table[idx].b for idx in order])
    acc = EchelonAccumulator(len(positions) + 1)
    for row_i, idx in enumerate(order):
        row = [col[row_i] for col in eps_columns] + [-base[idx]]
        if any(row):
            acc.add(row)
    return acc.nullity


def nilpotent_commutant_dim_dense_oracle(flag: FlagShape, phis) -> int:
    """Independent route: full-space commutant intersected with the lowering triangle."""
    mats = [mat(phi) for phi in phis]
    r = flag.total
    rows = []
    for phi in mats:
        for i in range(r):
            for j in range(r):
                row = [Fraction(0)] * (r * r)
                for b in range(r):
                    row[i * r + b] += phi[b][j]
                for a in range(r):
                    row[a * r + j] -= phi[i][a]
                rows.append(tuple(row))
    def unit(s: int) -> tuple:
        return tuple(Fraction(int(t == s)) for t in range(r * r))

    commutant = nullspace(tuple(rows)) if rows else [unit(s) for s in range(r * r)]
    lowering = [unit(a * r + b) for a, b in _lie_upper_positions(flag)]
    if not lowering or not commutant:
        return 0
    return len(commutant) + len(lowering) - rank(tuple(commutant) + tuple(lowering))


def u_tau_candidates_literal(tau: HNType, ctx: CurveContext) -> CandidateSet:
    """``u_tau_candidates`` by its definition: the degree-0 and rank-2 rules,
    else the types of top slope <= tau's, the rank-3 table, then every mu
    whose ``first_slope_bound`` admits tau."""
    r, d, deg_line = ctx.rank, ctx.degree, ctx.deg_line
    if deg_line == 0 or r == 2 and (tau.is_semistable or Fraction(tau.blocks[0][1]) > Fraction(d + deg_line, 2)):
        return CandidateSet((tau,), sharp=True)
    if r == 2:
        return CandidateSet((HNType.semistable(r, d), tau), sharp=True)
    cands = enumerate_hn_types(ctx, tau.top_slope)
    if r == 3:
        verdicts = [classify_rank3(tau.composition, mu.composition) for mu in cands]
        cands = [mu for mu, v in zip(cands, verdicts) if v.kind is not Rank3Kind.FORBIDDEN
                 and (v.kind is not Rank3Kind.FORCED_EQUAL or mu.blocks == tau.blocks)]
    return CandidateSet(tuple(mu for mu in cands if tau.top_slope <= first_slope_bound(mu, ctx)), sharp=r <= 3)


def compat_pairs(r_max: int, d_range, degL_range) -> tuple[int, tuple]:
    """The pairs ``compat_cross_table`` counts, each tested: their number, and
    the (r, d, deg L, tau, mu) with tau's top slope above mu's bound."""
    checked, violations = 0, []
    for r, d, deg_line in itertools.product(range(1, r_max + 1), d_range, degL_range):
        ctx = CurveContext(r, d, deg_line=deg_line)
        for tau in enumerate_hn_types(ctx, general_first_slope_bound(HNType.semistable(r, d), ctx)):
            for mu in u_tau_candidates_literal(tau, ctx):
                checked += 1
                if tau.top_slope > first_slope_bound(mu, ctx):
                    violations.append((r, d, deg_line, tau, mu))
    return checked, tuple(violations)
