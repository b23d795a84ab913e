"""Explicit matrix models of points in products of extended Grassmannians.

A point has one factor <y, [c : phi]> per evaluation point: y an r x m matrix
of full row rank, c a scalar and phi an r x r matrix with (c, phi) != (0, 0).
Its projective coordinates are

    det family:  prod_k  c_k * det(y_k restricted to columns J_k)
    end family:  prod_k  det(y_k|I_k) * tr(y_k|I_k . sigma_ij . y_k|I_k^(-1) . phi_k^T)

where sigma_ij has a single one in position (i, j).  Both are read off one
table of Laplace cofactors per factor (``_factor_values``): the end value is
the Cramer form det(y_I with column j replaced by phi^T y_{s_i}), polynomial
also where the minor vanishes, and no matrix is inverted.  Note the
transpose: phi is stored in the presentation's convention, i.e. as the
transpose of the endomorphism of the quotient fibre.  Consequently a Higgs
field preserving the subspace flag appears here as a block *lower* triangular
matrix, and the basis-change rule conjugates by the inverse transpose:

    <alpha y, [c / det(alpha) : alpha^-T phi alpha^T / det(alpha)]> = <y, [c : phi]>,

which leaves every coordinate literally unchanged.  Membership in the
instability loci, the coordinate-zeroing retraction, the two verification
predicates for the instability correspondence, and the first-order unipotent
stabiliser dimensions are all computed exactly.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import (
    CapExceeded,
    DegeneratePoint,
    InvariantViolation,
    NotInY,
)
from .hn_types import CurveContext, FlagShape, HNType
from .linalg import (
    Dual,
    EchelonAccumulator,
    Mat,
    Vec,
    adapted_flag_basis,
    det,
    dot,
    frac,
    inverse,
    mat,
    mat_mul,
    nullspace,
    rank,
    transpose,
)
from .minnorm import PointCloud, min_norm_point
from .weight_lattice import (
    DEFAULT_INDEX_CAP,
    BetaVector,
    CoordinateIndex,
    beta_of_type,
    enumerate_coordinate_indices,
    rational_from_json,
    rational_to_json,
    step2_trace_identity,
)


@dataclass(frozen=True)
class Factor:
    """One evaluation-point factor <y, [c : phi]>."""

    y: Mat
    c: Fraction
    phi: Mat

    def __post_init__(self):
        object.__setattr__(self, "y", mat(self.y))
        object.__setattr__(self, "c", frac(self.c))
        object.__setattr__(self, "phi", mat(self.phi))

    def to_json(self) -> dict:
        return {
            "y": [[rational_to_json(x) for x in row] for row in self.y],
            "c": rational_to_json(self.c),
            "phi": [[rational_to_json(x) for x in row] for row in self.phi],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Factor":
        return cls(
            mat([[rational_from_json(x) for x in row] for row in data["y"]]),
            rational_from_json(data["c"]),
            mat([[rational_from_json(x) for x in row] for row in data["phi"]]),
        )


@dataclass(frozen=True)
class ModelPoint:
    """A point of the product of extended Grassmannians, one factor per point."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        factors = tuple(
            f if isinstance(f, Factor) else Factor(*f) for f in self.factors
        )
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("a model point needs at least one factor")
        if not factors[0].y:
            raise ValueError("factor 1: y must have at least one row")
        r, m = self.r, self.m
        for k, f in enumerate(factors, start=1):
            if len(f.y) != r or len(f.y[0]) != m:
                raise ValueError(f"factor {k}: y must be {r}x{m}")
            if len(f.phi) != r or (f.phi and len(f.phi[0]) != r):
                raise ValueError(f"factor {k}: phi must be {r}x{r}")
            if rank(f.y) != r:
                raise ValueError(f"factor {k}: y does not have full row rank")
            if f.c == 0 and all(not x for row in f.phi for x in row):
                raise ValueError(f"factor {k}: (c, phi) must not be (0, 0)")

    @property
    def r(self) -> int:
        return len(self.factors[0].y)

    @property
    def m(self) -> int:
        return len(self.factors[0].y[0])

    @property
    def npoints(self) -> int:
        return len(self.factors)

    @cached_property
    def _values(self) -> tuple[tuple[dict, dict, tuple[dict, dict]], ...]:
        """Per factor: its det values, end values and cofactor tables, evaluated once.

        The full table is the tensor product of the values (see ``_table``);
        the stabiliser reads the cofactor tables.
        """
        return tuple(_factor_values(f.y, f.c, f.phi, self.m) for f in self.factors)

    @cached_property
    def _support(self) -> tuple[tuple[tuple, tuple], ...]:
        """Per factor: its nonzero det subsets and nonzero end keys (s, i, j).

        Independent of any instability vector, so every predicate shares it.
        """
        return tuple(_factor_support(values) for values in self._values)

    def rescale_factor(self, k: int, t) -> "ModelPoint":
        """Projective rescaling (c, phi) -> (t c, t phi) of factor k (0-based)."""
        t = frac(t)
        if t == 0:
            raise ValueError("rescaling must be by a nonzero scalar")
        f = self.factors[k]
        scaled = Factor(f.y, t * f.c, tuple(tuple(t * x for x in row) for row in f.phi))
        return ModelPoint(self.factors[:k] + (scaled,) + self.factors[k + 1:])

    def gauge_factor(self, k: int, alpha) -> "ModelPoint":
        """Basis change of the quotient fibre of factor k by alpha in GL(r)
        (see ``_gauged``); every projective coordinate is unchanged by this move."""
        gauged = _gauged(self.factors[k], mat(alpha))
        return ModelPoint(self.factors[:k] + (gauged,) + self.factors[k + 1:])

    def to_json(self) -> dict:
        return {"factors": [f.to_json() for f in self.factors]}

    @classmethod
    def from_json(cls, data: dict) -> "ModelPoint":
        return cls(tuple(Factor.from_json(f) for f in data["factors"]))


class Membership(Enum):
    IN_Z = "InZ"
    IN_Y_NOT_Z = "InY_not_Z"
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class CoordinateTable:
    """Projective coordinates of a point, defined up to one global scalar."""

    values: dict[CoordinateIndex, Fraction]

    def __post_init__(self):
        if not any(self.values.values()):
            raise DegeneratePoint("all coordinates vanish")

    def support(self) -> list[CoordinateIndex]:
        return [idx for idx, v in self.values.items() if v]

    def __getitem__(self, idx: CoordinateIndex) -> Fraction:
        return self.values[idx]

    def proportional_to(self, other: "CoordinateTable") -> bool:
        """Equality as projective coordinate vectors (one global scalar)."""
        if set(self.values) != set(other.values):
            return False
        scalar = None
        for idx, v in self.values.items():
            w = other.values[idx]
            if (v == 0) != (w == 0):
                return False
            if v != 0:
                ratio = w / v
                if scalar is None:
                    scalar = ratio
                elif ratio != scalar:
                    return False
        return scalar is not None


def _columns(y: Mat) -> list[Vec]:
    return [tuple(row[l] for row in y) for l in range(len(y[0]))]


def _factor_values(y, c, phi, m: int) -> tuple[dict, dict, tuple[dict, dict]]:
    """One factor's det values, end values and cofactor tables (V_y, V_z).

    For each (r-1)-subset K, f_K is the Laplace cofactor vector of [y_K | w]
    along its last column, so det[y_K | w] = f_K . w.  The tables hold
    V_y[K][x-1] = f_K . y_x and V_z[K][x-1] = f_K . z_x, z = phi^T y.  The det
    value at I is c V_y(I minus s_r, s_r); by Cramer's rule on
    B_I = (y^T phi)_I adj(y_I^T) the end value at (I, i, j) is
    det(y_I with column j replaced by z_{s_i}) = (-1)^(r-j) V_z(I minus s_j, s_i).
    Works over any commutative ring.
    """
    r = len(y)
    if r == 0:
        return {(): c}, {}, ({}, {})
    y_cols, z_cols = _columns(y), _columns(mat_mul(transpose(phi), y))
    v_y, v_z = {}, {}
    for K in itertools.combinations(range(1, m + 1), r - 1):
        y_k = tuple(tuple(row[l - 1] for l in K) for row in y)
        f = [(-1) ** (r - 1 - i) * det(y_k[:i] + y_k[i + 1:]) for i in range(r)]
        v_y[K] = [dot(f, col) for col in y_cols]
        v_z[K] = [dot(f, col) for col in z_cols]
    subsets = list(itertools.combinations(range(1, m + 1), r))
    dets = {s: c * v_y[s[:-1]][s[-1] - 1] for s in subsets}
    ends = {}
    for s in subsets:
        for i, j in itertools.product(range(1, r + 1), repeat=2):
            v = v_z[s[:j - 1] + s[j:]][s[i - 1] - 1]
            ends[(s, i, j)] = v if (r - j) % 2 == 0 else -v
    return dets, ends, (v_y, v_z)


def _factor_support(values: tuple[dict, dict, tuple]) -> tuple[tuple, tuple]:
    """Nonzero det subsets and nonzero end keys of one factor, in table order."""
    dets, ends, _ = values
    return tuple(s for s, v in dets.items() if v), tuple(k for k, v in ends.items() if v)


def _table(indices, parts) -> dict[CoordinateIndex, object]:
    """Coordinate values in index order, each the product of per-factor
    ``_factor_values`` entries, over any base ring."""
    table: dict[CoordinateIndex, object] = {}
    for idx in indices:
        if idx.kind == "det":
            vals = [part[0][s] for part, s in zip(parts, idx.subsets)]
        else:
            vals = [part[1][(s, i, j)] for part, s, (i, j) in zip(parts, idx.subsets, idx.ij)]
        val = vals[0]
        for v in vals[1:]:
            val = val * v
        table[idx] = val
    return table


def _check_shapes(p: ModelPoint, ctx: CurveContext) -> None:
    m = ctx.require_positive_sections()
    if p.m != m or p.r != ctx.rank or p.npoints != ctx.npoints:
        raise ValueError(
            f"point shape ({p.r}x{p.m}, {p.npoints} factors) does not match "
            f"context ({ctx.rank}x{m}, {ctx.npoints} factors)"
        )


def coordinates(p: ModelPoint, ctx: CurveContext, cap: int = DEFAULT_INDEX_CAP) -> CoordinateTable:
    """Evaluate every projective coordinate of the point, exactly.

    Every value is a product of per-factor entries of the cofactor tables of
    ``_factor_values``, so vanishing minors are handled without any matrix
    inversion.  Raises CapExceeded when the index count exceeds the cap, and
    DegeneratePoint if every coordinate vanishes.
    """
    _check_shapes(p, ctx)
    indices = enumerate_coordinate_indices(ctx, cap)
    return CoordinateTable(_table(indices, p._values))


def _beta_entries(beta: BetaVector, p: ModelPoint) -> Vec:
    if beta.m != p.m:
        raise ValueError("instability vector length does not match the point")
    return beta.entries


def _factor_weight_supports(p: ModelPoint, beta: BetaVector):
    """Per factor: achievable weights with a witness key, for both families.

    Returns (det_list, end_list) where each entry is a dict
    {weight: witness key} over the factor's nonzero coordinates; the witness
    is the first key of that weight in table order.
    """
    entries = _beta_entries(beta, p)
    det_weights = {
        s: -sum((entries[l - 1] for l in s), Fraction(0))
        for s in itertools.combinations(range(1, p.m + 1), p.r)
    }
    det_list, end_list = [], []
    for det_keys, end_keys in p._support:
        dets, ends = {}, {}
        for s in det_keys:
            dets.setdefault(det_weights[s], s)
        for s, i, j in end_keys:
            w = det_weights[s] + entries[s[j - 1] - 1] - entries[s[i - 1] - 1]
            ends.setdefault(w, (s, i, j))
        det_list.append(dets)
        end_list.append(ends)
    return det_list, end_list


def _family_min_max(p: ModelPoint, beta: BetaVector):
    """Families supported at every factor, their least weight and the verdict.

    Returns ([(per-factor weight dicts, index builder)], lo, membership).
    """
    det_list, end_list = _factor_weight_supports(p, beta)
    families = [
        (fam, make_index)
        for fam, make_index in ((det_list, _det_index), (end_list, _end_index))
        if all(fam)
    ]
    if not families:
        raise DegeneratePoint("all coordinates vanish")
    lo = min(sum((min(d) for d in fam), Fraction(0)) for fam, _ in families)
    if lo != beta.norm_sq:
        return families, lo, Membership.OUTSIDE
    hi = max(sum((max(d) for d in fam), Fraction(0)) for fam, _ in families)
    return families, lo, Membership.IN_Z if hi == lo else Membership.IN_Y_NOT_Z


def _scan(per_factor, target: Fraction, limit: int, want_witness: bool):
    """Tuples of per-factor keys, visited in lexicographic weight order.

    Returns the first ``limit`` tuples whose weights sum below target, with
    their sums, and (when ``want_witness``) the first tuple summing to it.
    Subtrees that can hold neither are pruned on their suffix min and max.
    """
    items = [sorted(d.items()) for d in per_factor]
    n = len(items)
    suffix_min = [Fraction(0)] * (n + 1)
    suffix_max = [Fraction(0)] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix_min[k] = suffix_min[k + 1] + items[k][0][0]
        suffix_max[k] = suffix_max[k + 1] + items[k][-1][0]
    below: list[tuple[tuple, Fraction]] = []
    witness = None

    def dfs(k: int, acc: Fraction, chosen: tuple) -> None:
        nonlocal witness
        lo, hi = acc + suffix_min[k], acc + suffix_max[k]
        wants_below = len(below) < limit and lo < target
        wants_equal = want_witness and witness is None and lo <= target <= hi
        if not (wants_below or wants_equal):
            return
        if k == n:
            if acc < target:
                below.append((chosen, acc))
            else:
                witness = chosen
            return
        for w, key in items[k]:
            dfs(k + 1, acc + w, chosen + (key,))

    dfs(0, Fraction(0), ())
    return below, witness


def _det_index(keys) -> CoordinateIndex:
    return CoordinateIndex("det", tuple(keys))

def _end_index(keys) -> CoordinateIndex:
    return CoordinateIndex(
        "end",
        tuple(k[0] for k in keys),
        tuple((k[1], k[2]) for k in keys),
    )


def membership(p: ModelPoint, beta: BetaVector, ctx: CurveContext) -> Membership:
    """Locate the point relative to the equality and inequality loci of beta.

    IN_Z: every supported coordinate pairs with beta exactly at its squared
    norm.  IN_Y_NOT_Z: no supported coordinate pairs below it, at least one
    pairs at it, and some pairs above.  OUTSIDE otherwise (including the case
    where no equality witness exists).  This is the verdict that
    ``verify_step1`` puts on its report, without that report's violation and
    witness scan; call ``verify_step1`` instead when both are wanted.
    """
    _check_shapes(p, ctx)
    return _family_min_max(p, beta)[2]


@dataclass(frozen=True)
class Step1Report:
    """Outcome of the coordinate-by-coordinate inequality check against beta."""

    membership: Membership
    norm_sq: Fraction
    min_support_weight: Fraction
    violations: tuple[tuple[CoordinateIndex, Fraction], ...]
    equality_witness: CoordinateIndex | None

    @property
    def passed(self) -> bool:
        """No supported coordinate pairs below the norm, and one pairs at it."""
        return self.min_support_weight == self.norm_sq


def verify_step1(
    p: ModelPoint, beta: BetaVector, ctx: CurveContext, max_violations: int = 16
) -> Step1Report:
    """Check that every supported coordinate pairs with beta at or above its
    squared norm, and exhibit one equality witness.

    One pass over the point's weights against beta gives the least weight
    and the ``membership`` verdict; one scan per family then collects the
    first ``max_violations`` violating indices (det family first, each in
    lexicographic weight order) and the first index pairing exactly at the
    norm.  The report never raises on failure: ``passed`` reads the exact
    least weight, never the (possibly cut short) violation list.
    """
    _check_shapes(p, ctx)
    families, lo, verdict = _family_min_max(p, beta)
    target = beta.norm_sq
    violations: list[tuple[CoordinateIndex, Fraction]] = []
    witness = None
    for fam, make_index in families:
        below, keys = _scan(fam, target, max_violations - len(violations), witness is None)
        violations.extend((make_index(chosen), w) for chosen, w in below)
        if keys is not None:
            witness = make_index(keys)
    return Step1Report(verdict, target, lo, tuple(violations), witness)


def _block_filter(matrix: Mat, row_cuts, col_cuts) -> Mat:
    """Zero out every entry outside the aligned diagonal blocks."""
    return tuple(
        tuple(
            x if bisect_right(row_cuts, a) == bisect_right(col_cuts, b) else Fraction(0)
            for b, x in enumerate(row)
        )
        for a, row in enumerate(matrix)
    )


def _gauged(f: Factor, alpha: Mat) -> Factor:
    """The basis change y -> alpha y, c -> c / det(alpha),
    phi -> alpha^-T phi alpha^T / det(alpha) of one factor."""
    d = det(alpha)
    if d == 0:
        raise ValueError("gauge matrix must be invertible")
    alpha_t = transpose(alpha)
    phi = mat_mul(mat_mul(inverse(alpha_t), f.phi), alpha_t)
    return Factor(mat_mul(alpha, f.y), f.c / d, tuple(tuple(x / d for x in row) for row in phi))


def _adapted_factor(f: Factor, cuts) -> tuple[Factor, tuple[int, ...]]:
    """Gauge a factor by g^-1, g the basis adapted to the image flag of the cuts."""
    g, dims = adapted_flag_basis(_columns(f.y), cuts)
    return _gauged(f, inverse(g)), dims


def _adapted_factors(p: ModelPoint, beta: BetaVector, ctx: CurveContext):
    """Every factor gauged into its adapted basis, with its image-block cuts.

    In that basis y and phi are block triangular, and their aligned diagonal
    blocks are the graded point.  Raises NotInY for points outside the
    inequality locus, where the retraction is not defined.
    """
    if membership(p, beta, ctx) is Membership.OUTSIDE:
        raise NotInY("the retraction is defined only on the inequality locus")
    return [_adapted_factor(f, beta.flag.cuts) for f in p.factors]


def _check_flag_adapted(phi: Mat, dims, k: int, tau: HNType) -> None:
    """Raise InvariantViolation naming (block, factor k) unless the image flag
    has dimensions r_1, r_1 + r_2, ... and ``phi``, written in a basis adapted
    to that flag (``dims`` its step dimensions), preserves it."""
    want = 0
    for gamma, ((r_g, _), dim) in enumerate(zip(tau.blocks, dims), start=1):
        want += r_g
        if dim != want:
            raise InvariantViolation(gamma, k, f"image flag has dimension {dim}, expected {want}")
    for a, row in enumerate(phi):
        for b, x in enumerate(row):
            ga, gb = bisect_right(dims, a), bisect_right(dims, b)
            if ga < gb and x != 0:
                raise InvariantViolation(ga + 1, k, "phi does not preserve the image flag")


def retract_p_beta(p: ModelPoint, beta: BetaVector, ctx: CurveContext) -> ModelPoint:
    """Coordinate-zeroing retraction onto the equality locus of beta.

    Matrix-level: each factor is gauged into a basis adapted to the image
    flag, then both y and phi are cut down to their aligned diagonal blocks.
    The resulting table equals the input table with every coordinate pairing
    strictly above the squared norm set to zero.  Raises NotInY for points
    outside the inequality locus, and InvariantViolation, as
    ``from_higgs_data`` does, for a factor that is not flag-adapted (the
    inequality locus alone does not ensure that, e.g. when some c_k = 0 or
    when factors compensate each other), where the cut would break that
    contract.
    """
    cuts = beta.flag.cuts
    adapted = _adapted_factors(p, beta, ctx)
    for k, (f, dims) in enumerate(adapted, start=1):
        _check_flag_adapted(f.phi, dims, k, beta.tau)
    return ModelPoint(tuple(
        Factor(_block_filter(f.y, dims, cuts), f.c, _block_filter(f.phi, dims, dims))
        for f, dims in adapted
    ))


@dataclass(frozen=True)
class HiggsDatum:
    """Flag-adapted matrix data presenting a pair of the given type.

    The flag on the section space is in standard position with block sizes
    d_g + r_g(1 - genus); for every factor the image of the flag's step g
    must have dimension r_1 + ... + r_g, and the stored phi must be block
    lower triangular with respect to that image flag (the presentation of a
    filtration-preserving Higgs field; see the module docstring).
    """

    tau: HNType
    ctx: CurveContext
    factors: tuple[Factor, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "factors",
            tuple(f if isinstance(f, Factor) else Factor(*f) for f in self.factors),
        )


def from_higgs_data(h: HiggsDatum) -> ModelPoint:
    """Validate flag-adapted data and return the model point it presents.

    Raises InvariantViolation naming the failing (block, factor) pair when an
    image-flag dimension is wrong or the Higgs matrix fails to preserve the
    flag; the result is guaranteed to satisfy the step-1 inequalities for the
    instability vector of its type (given an equality witness, e.g. for
    finite points).
    """
    beta = beta_of_type(h.tau, h.ctx)
    cuts = beta.flag.cuts
    r = h.ctx.rank
    if len(h.factors) != h.ctx.npoints:
        raise ValueError("factor count does not match the context")
    for k, f in enumerate(h.factors, start=1):
        if len(f.y) != r or len(f.y[0]) != beta.m:
            raise ValueError(f"factor {k}: y must be {r}x{beta.m}")
        try:
            g, dims = adapted_flag_basis(_columns(f.y), cuts)
        except ValueError:
            raise InvariantViolation(len(cuts), k, "y does not have full row rank")
        g_t = transpose(g)
        _check_flag_adapted(mat_mul(mat_mul(g_t, f.phi), inverse(g_t)), dims, k, h.tau)
    return ModelPoint(h.factors)


@dataclass(frozen=True)
class BlockReport:
    """Torus-semistability verdict for one graded block of a retracted point."""

    index: int
    block_rank: int
    block_sections: int
    semistable: bool
    witness: tuple[int, ...] | None
    vacuous: bool = False


@dataclass(frozen=True)
class Step2Report:
    """Per-block torus checks plus the grading/trace identity."""

    passed: bool
    blocks: tuple[BlockReport, ...]
    trace_classes_checked: int
    trace_identity_ok: bool


def _integer_direction(v: Vec) -> tuple[int, ...]:
    lcm = 1
    for x in v:
        d = frac(x).denominator
        lcm = lcm * d // math.gcd(lcm, d)
    return tuple(int(x * lcm) for x in v)


def _block_weight_set(y_blocks, c_vals, phi_blocks, m_g: int) -> set[Vec]:
    """Distinct supported weights of one graded block across all factors."""
    per_factor: list[set[Vec]] = []
    for y_b, c, phi_b in zip(y_blocks, c_vals, phi_blocks):
        det_keys, end_keys = _factor_support(_factor_values(y_b, c, phi_b, m_g))
        base = {
            s: tuple(
                Fraction(0) if l in s else Fraction(1) for l in range(1, m_g + 1)
            )
            for s in itertools.combinations(range(1, m_g + 1), len(y_b))
        }
        weights = {base[s] for s in det_keys}
        for s, i, j in end_keys:
            w = list(base[s])
            w[s[j - 1] - 1] += 1
            w[s[i - 1] - 1] -= 1
            weights.add(tuple(w))
        per_factor.append(weights)
    if any(not w for w in per_factor):
        return set()
    sums = per_factor[0]
    for nxt in per_factor[1:]:
        sums = {
            tuple(a + b for a, b in zip(w1, w2)) for w1 in sums for w2 in nxt
        }
    return sums


def verify_step2(
    p: ModelPoint,
    beta: BetaVector,
    ctx: CurveContext,
    lambda_bound: int = 2,
) -> Step2Report:
    """Torus-level semistability of the graded point, block by block.

    Each graded block must contain its twisted character (the barycentric
    multiple of the all-ones vector fixed by the trace bookkeeping) in the
    convex hull of its supported weights; failures return the exact
    separating direction found by the minimum-norm computation.  The
    blockwise grading/trace identity is checked exactly over all integer
    trace-zero diagonal subgroups with entries up to ``lambda_bound``, first,
    so its cap (see ``step2_trace_identity``) holds before any other work.
    This is a necessary condition for full semistability, not a decision of it.
    """
    checked, identity_ok, _ = step2_trace_identity(beta, lambda_bound)
    adapted = _adapted_factors(p, beta, ctx)
    cuts = (0,) + beta.flag.cuts
    blocks: list[BlockReport] = []
    all_ok = True
    for gamma in range(1, len(beta.m_blocks) + 1):
        m_g = beta.m_blocks[gamma - 1]
        c_lo, c_hi = cuts[gamma - 1], cuts[gamma]
        y_blocks, c_vals, phi_blocks, r_bs = [], [], [], []
        for f, dims in adapted:
            r_lo, r_hi = ((0,) + dims)[gamma - 1], dims[gamma - 1]
            y_blocks.append(tuple(row[c_lo:c_hi] for row in f.y[r_lo:r_hi]))
            phi_blocks.append(tuple(row[r_lo:r_hi] for row in f.phi[r_lo:r_hi]))
            c_vals.append(f.c)
            r_bs.append(r_hi - r_lo)
        weights = _block_weight_set(y_blocks, c_vals, phi_blocks, m_g)
        if not weights:
            blocks.append(
                BlockReport(gamma, max(r_bs), m_g, True, None, vacuous=True)
            )
            continue
        chi_scale = sum(Fraction(m_g - r_b, m_g) for r_b in r_bs)
        chi = tuple(chi_scale for _ in range(m_g))
        translated = [tuple(a - b for a, b in zip(w, chi)) for w in weights]
        v = min_norm_point(PointCloud.from_points(translated))
        ss = all(x == 0 for x in v)
        witness = None if ss else _integer_direction(v)
        all_ok = all_ok and ss
        blocks.append(BlockReport(gamma, max(r_bs), m_g, ss, witness))
    return Step2Report(
        all_ok and identity_ok, tuple(blocks), checked, identity_ok
    )


def _lie_upper_positions(flag: FlagShape) -> list[tuple[int, int]]:
    """0-based (row, col) positions of the strictly upper block triangle."""
    return [
        (a, b)
        for a in range(flag.total)
        for b in range(flag.total)
        if flag.block_of(a + 1) < flag.block_of(b + 1)
    ]


def unipotent_stabilizer_dim(
    p: ModelPoint,
    flag: FlagShape,
    ctx: CurveContext,
    cap: int = DEFAULT_INDEX_CAP,
) -> int:
    """Dimension of the first-order unipotent stabiliser of the point.

    The unipotent algebra is the strictly upper block triangle of the flag
    (blocks ordered by decreasing instability value); a direction D
    stabilises the point when D T = s T for some scalar s, T being the full
    coordinate table.  T is the sum of the families A = a_1 (x) ... (x) a_N
    and B = b_1 (x) ... (x) b_N, where a_k holds factor k's det values and
    b_k its end values, and D acts on each by the product rule:
    D A = sum_k a_1 (x) .. D a_k .. (x) a_N.

    Here s = 0.  Every value is, up to sign and the factor c, an entry
    V(K, x) = det[y_K | w_x] of a cofactor table of ``_factor_values``
    (w = y for det values and, by Cramer's rule, w = z = phi^T y for end
    values), and every entry is such a value.  The direction p = (a, l),
    column l += eps column a (1-based, a < l), moves w_l along with y_l and
    acts on the entries like gl_m on Plücker coordinates, replacing l by a:
    d_p V(K, x) = [x = l] V(K, a) + [l in K, a not in K] (-1)^e V(K with l -> a, x),
    e = #{k in K : a < k < l}.  So both families carry linear representations
    of y's column operations, on which the strictly upper block triangle acts
    nilpotently, as on their tensor products; D T = s T with T != 0 then
    forces s = 0.  When every a_k is nonzero, contracting D A = 0 in every
    slot but k with functionals f_j, f_j(a_j) = 1, leaves D a_k in the span
    of a_k, hence D a_k = 0; likewise for B.  A family with a zero factor
    (c_k = 0 or phi_k = 0) vanishes along every direction, since D moves only
    y, and gives no condition; DegeneratePoint is raised when both vanish.

    So the unknowns are xi_p, one per upper position p, with one row
    [d_p V(K, x)]_p per value of each factor in each surviving family, read
    off the cached tables; the nullity is the stabiliser dimension.  A det
    value is V_y(I minus max I, max I), so V_y rows are taken for x > max K
    only: the others vanish (x in K) or repeat such a row up to sign.  Every
    V_z entry is an end value.
    ``cap`` bounds N C(m,r) (1 + r^2), the number of values, and is checked
    before any evaluation; ``unipotent_stabilizer_dim_dense_oracle`` is the
    full-table route, which keeps s as an unknown, as a test oracle.
    """
    _check_shapes(p, ctx)
    if flag.total != p.m:
        raise ValueError("flag total must equal the section count")
    rows = p.npoints * math.comb(p.m, p.r) * (1 + p.r ** 2)
    if rows > cap:
        raise CapExceeded(rows, cap)
    families = [fam for fam in (0, 1) if all(sup[fam] for sup in p._support)]
    if not families:
        raise DegeneratePoint("all coordinates vanish")
    positions = [(a + 1, l + 1) for a, l in _lie_upper_positions(flag)]
    moves = {
        K: [
            (tuple(sorted(set(K) - {l} | {a})), (-1) ** sum(a < k < l for k in K))
            if l in K and a not in K else None
            for a, l in positions
        ]
        for K in itertools.combinations(range(1, p.m + 1), p.r - 1)
    }
    acc = EchelonAccumulator(len(positions))
    for _, _, tables in p._values:
        for fam in families:
            table = tables[fam]
            for K, values in table.items():
                first = K[-1] + 1 if fam == 0 and K else 1
                for x in range(first, p.m + 1):
                    row = [
                        (values[a - 1] if x == l else Fraction(0))
                        + (move[1] * table[move[0]][x - 1] if move else 0)
                        for (a, l), move in zip(positions, moves[K])
                    ]
                    if any(row):
                        acc.add(row)
    return acc.nullity


def _sheared(y: Mat, a: int, l: int) -> tuple:
    """y over dual numbers, moved along the direction column l += eps * column a."""
    return tuple(
        tuple(Dual(x, row[a] if col == l else Fraction(0)) for col, x in enumerate(row))
        for row in y
    )


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
    _check_shapes(p, ctx)
    if flag.total != p.m:
        raise ValueError("flag total must equal the section count")
    order = list(enumerate_coordinate_indices(ctx, cap))
    positions = _lie_upper_positions(flag)
    base = _table(order, p._values)
    if not any(base[idx] for idx in order):
        raise DegeneratePoint("all coordinates vanish")
    eps_columns = []
    for (a, l) in positions:
        dual_parts = [
            _factor_values(
                _sheared(f.y, a, l),
                Dual.lift(f.c),
                tuple(tuple(Dual.lift(x) for x in row) for row in f.phi),
                p.m,
            )
            for f in p.factors
        ]
        dual_table = _table(order, dual_parts)
        eps_columns.append([dual_table[idx].b for idx in order])
    acc = EchelonAccumulator(len(positions) + 1)
    for row_i, idx in enumerate(order):
        row = [col[row_i] for col in eps_columns] + [-base[idx]]
        if any(row):
            acc.add(row)
    return acc.nullity


def nilpotent_commutant_dim(flag: FlagShape, phis) -> int:
    """Dimension of flag-lowering endomorphisms commuting with every matrix.

    Matrices here are plain endomorphisms in the column convention (the
    bundle-side convention of the block procedure, not the transposed
    presentation of ``ModelPoint``): a lowering map sends flag step i into
    step i-1 and is strictly upper block triangular.  Exact nullity of the
    commutator system.
    """
    mats = [mat(phi) for phi in phis]
    r = flag.total
    for phi in mats:
        if len(phi) != r or (phi and len(phi[0]) != r):
            raise ValueError(f"matrices must be {r}x{r} for this flag")
    positions = _lie_upper_positions(flag)
    if not positions:
        return 0
    rows = []
    for phi in mats:
        for i in range(r):
            for j in range(r):
                row = []
                for (a, b) in positions:
                    coeff = Fraction(0)
                    if i == a:
                        coeff += phi[b][j]
                    if j == b:
                        coeff -= phi[i][a]
                    row.append(coeff)
                rows.append(tuple(row))
    return len(positions) - rank(tuple(rows))


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
    commutant = nullspace(tuple(rows)) if rows else [
        tuple(Fraction(1) if t == s else Fraction(0) for t in range(r * r))
        for s in range(r * r)
    ]
    lowering = []
    for (a, b) in _lie_upper_positions(flag):
        v = [Fraction(0)] * (r * r)
        v[a * r + b] = Fraction(1)
        lowering.append(tuple(v))
    if not lowering or not commutant:
        return 0
    stacked = tuple(commutant) + tuple(lowering)
    dim_sum_space = rank(stacked)
    return len(commutant) + len(lowering) - dim_sum_space
