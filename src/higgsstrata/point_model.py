"""Explicit matrix models of points in products of extended Grassmannians.

A point has one factor <y, [c : phi]> per evaluation point: y an r x m matrix
of full row rank, c a scalar and phi an r x r matrix with (c, phi) != (0, 0).
Its projective coordinates are

    det family:  prod_k  c_k * det(y_k restricted to columns J_k)
    end family:  prod_k  det(y_k|I_k) * tr(y_k|I_k . sigma_ij . y_k|I_k^(-1) . phi_k^T)

where sigma_ij has a single one in position (i, j).  Each is a product over
factors of one entry V(K, x) = det[y_K | w_x] of the factor's two cofactor
tables (``_factor_values``), w = y for det values and, by Cramer's rule,
w = phi^T y for end values, times c or a sign (``_entry_keys``); the entry
(K, x) has the torus character 1 off K minus e_x in both families.  The
minors come from one ``linalg.minors`` memo, so values are polynomial also
where a minor vanishes, and no matrix is inverted or struck out.  Note the
transpose: phi is stored in the presentation's convention, i.e. as the
transpose of the endomorphism of the quotient fibre.  Consequently a Higgs
field preserving the subspace flag appears here as a block *lower* triangular
matrix, and the basis-change rule (``_gauged``), which writes a factor in a
basis g of the quotient fibre, conjugates by the transpose:

    <g^-1 y, [c det(g) : det(g) g^T phi g^-T]> = <y, [c : phi]>,

which leaves every coordinate literally unchanged; ``_gauged`` returns it in
adjugate form, y times det(g), which divides nowhere.  Membership in the
instability loci, the coordinate-zeroing retraction, the two verification
predicates for the instability correspondence, and the first-order unipotent
stabiliser dimensions are all computed exactly.

The whole path runs over Python int.  A ``Factor`` holds (L y, M c, M phi),
L and M the lcms of the denominators of y and of (c, phi), each input entry
read once as (num, den); y's full row rank is checked by finding one nonzero
r x r minor (``linalg.full_row_rank``).  The values are polynomials of degree r in
y and 1 in (c, phi), so every value of factor k is its exact value times one
nonzero constant s_k = L^r M.  That leaves the support, hence every weight,
and each stabiliser table's row space unchanged; ``coordinates`` divides by
the product of the s_k.  Step 2 and the retraction gauge this integer form
(``_adapted_factors``).  Step 1's weights are pairings with D beta, D the lcm
of beta's denominators, and ``verify_step1`` divides by D.  ``Fraction``
appears only where a value leaves the module, as in a factor's ``y``, ``c``
and ``phi``, which ``to_json`` and ``higgsstrata.oracles`` read.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property, lru_cache, reduce
from operator import mul

from .errors import (
    CapExceeded,
    DegeneratePoint,
    InvariantViolation,
    NotInY,
)
from .hn_types import CurveContext, FlagShape, HNType
from .linalg import (
    EchelonAccumulator,
    Mat,
    adapted_flag_basis,
    adjugate,
    clear_denominators,
    cleared,
    dot,
    full_row_rank,
    listlike,
    lowest_terms,
    mat,
    mat_mul,
    minors,
    rank,
    ratio,
    transpose,
)
from .minnorm import min_norm_point_of_sum
from .weight_lattice import (
    DEFAULT_INDEX_CAP,
    BetaVector,
    CoordinateIndex,
    beta_of_type,
    enumerate_coordinate_indices,
    rational_to_json,
    step2_trace_identity,
)


@dataclass(frozen=True, init=False)
class Factor:
    """One evaluation-point factor <y, [c : phi]>, held in its integer form.

    Each entry is read once, by ``linalg.ratio``, into (Y, L) = (L y, L) and
    (C, Phi, M) = (M c, M phi, M), L and M the lcms of the reduced
    denominators of y and of (c, phi).  The form is canonical, so equality
    and hash are those of (y, c, phi); ``y``, ``c`` and ``phi`` are built as
    ``Fraction`` only when read.
    """

    Y: tuple[tuple[int, ...], ...]
    L: int
    C: int
    Phi: tuple[tuple[int, ...], ...]
    M: int

    def __init__(self, y, c, phi):
        y, c, phi = mat(y, ratio), ratio(c), mat(phi, ratio)
        (Y, L), (((C,), *Phi), M) = cleared(y), cleared(((c,), *phi))
        self.__dict__.update(Y=tuple(Y), L=L, C=C, Phi=tuple(Phi), M=M)

    @classmethod
    def _over(cls, Y, y_den: int, C: int, Phi, den: int) -> "Factor":
        """The factor (Y / y_den, C / den, Phi / den) of int rows over nonzero
        int denominators, with no entry read twice."""
        f = object.__new__(cls)
        (Y, L), (((C,), *Phi), M) = lowest_terms(Y, y_den), lowest_terms(((C,), *Phi), den)
        f.__dict__.update(Y=Y, L=L, C=C, Phi=tuple(Phi), M=M)
        return f

    y = property(lambda f: tuple(tuple(Fraction(x, f.L) for x in row) for row in f.Y))
    c = property(lambda f: Fraction(f.C, f.M))
    phi = property(lambda f: tuple(tuple(Fraction(x, f.M) for x in row) for row in f.Phi))

    def to_json(self) -> dict:
        rows = lambda m: [[rational_to_json(x) for x in row] for row in m]
        return {"y": rows(self.y), "c": rational_to_json(self.c), "phi": rows(self.phi)}

    @classmethod
    def from_json(cls, data: dict) -> "Factor":
        return cls(data["y"], data["c"], data["phi"])


def _as_factors(factors) -> tuple[Factor, ...]:
    return tuple(f if isinstance(f, Factor) else Factor(*f) for f in factors)


def _check_factor_shape(f: Factor, k: int, r: int, m: int) -> None:
    """Raise ValueError naming factor k unless y is r x m and phi is r x r."""
    if len(f.Y) != r or len(f.Y[0]) != m:
        raise ValueError(f"factor {k}: y must be {r}x{m}")
    if len(f.Phi) != r or (f.Phi and len(f.Phi[0]) != r):
        raise ValueError(f"factor {k}: phi must be {r}x{r}")


@dataclass(frozen=True)
class ModelPoint:
    """A point of the product of extended Grassmannians, one factor per point."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        factors = _as_factors(self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ValueError("a model point needs at least one factor")
        if not factors[0].Y:
            raise ValueError("factor 1: y must have at least one row")
        r, m = self.r, self.m
        for k, f in enumerate(factors, start=1):
            _check_factor_shape(f, k, r, m)
            if not full_row_rank(f.Y):
                raise ValueError(f"factor {k}: y does not have full row rank")
            if not f.C and not any(map(any, f.Phi)):
                raise ValueError(f"factor {k}: (c, phi) must not be (0, 0)")

    @property
    def r(self) -> int:
        return len(self.factors[0].Y)

    @property
    def m(self) -> int:
        return len(self.factors[0].Y[0])

    @property
    def npoints(self) -> int:
        return len(self.factors)

    @property
    def _integer_factors(self) -> tuple[tuple[tuple, int], ...]:
        """Per factor: its integer form (Y, C, Phi) and its scale s = L^r M; V_y
        entries scale by L^r, and V_z entries and every value by s."""
        return tuple(((f.Y, f.C, f.Phi), f.L ** len(f.Y) * f.M) for f in self.factors)

    @cached_property
    def _values(self) -> tuple[tuple[int, dict, dict], ...]:
        """Per factor: (c, V_y, V_z) over int, ``_factor_values`` of its
        integer form, evaluated once; each value of the factor is an entry
        times c or a sign, and its exact value times the factor's scale."""
        return tuple(_factor_values(*factor, self.m) for factor, _ in self._integer_factors)

    @cached_property
    def _scale(self) -> int:
        """The product of the factors' scales L^r M."""
        return math.prod(scale for _, scale in self._integer_factors)

    @cached_property
    def _support(self) -> tuple[tuple[dict, dict], ...]:
        """Per factor and family: {(K, x): first key in table order that reads
        it} over the nonzero entries (``_factor_support``).

        Independent of any instability vector, so every predicate shares it.
        """
        return tuple(_factor_support(values, self.r, self.m) for values in self._values)

    @cached_property
    def _live_families(self) -> tuple[int, ...]:
        """The live families, 0 (det) and 1 (end): those with support at every
        factor, since a family's values are products over the factors.  The
        point is degenerate (every coordinate vanishes) when none is live."""
        return tuple(fam for fam in (0, 1) if all(support[fam] for support in self._support))

    def rescale_factor(self, k: int, t) -> "ModelPoint":
        """Projective rescaling (c, phi) -> (t c, t phi) of factor k (0-based)."""
        num, den = ratio(t)
        if not num:
            raise ValueError("rescaling must be by a nonzero scalar")
        f = self.factors[k]
        scaled = Factor._over(f.Y, f.L, num * f.C, [[num * x for x in row] for row in f.Phi], den * f.M)
        return ModelPoint(self.factors[:k] + (scaled,) + self.factors[k + 1:])

    def gauge_factor(self, k: int, alpha) -> "ModelPoint":
        """Basis change y -> alpha y of the quotient fibre of factor k, alpha in
        GL(r): factor k written in the basis alpha^-1 (see ``_gauged``).  Every
        projective coordinate is unchanged by this move."""
        A, D = cleared(mat(alpha, ratio))  # alpha = A / D
        r = len(self.factors[k].Y)
        if len(A) != r or any(len(row) != r for row in A):
            raise ValueError(f"gauge matrix must be {r} x {r}")
        adj = adjugate(A)
        a = dot(A[0], transpose(adj)[0])  # det A
        if not a:
            raise ValueError("gauge matrix must be invertible")
        f = self.factors[k]
        # alpha^-1 = D adj(A) / a.  In the basis adj(A), of determinant d = a^(r-1),
        # alpha y = a y' / (d D), and (c, phi) in the basis alpha^-1 is (c', phi') D^r / (a d).
        (y, c, phi), d = _gauged(f.Y, f.C, f.Phi, adj)
        D_r = D ** r
        gauged = Factor._over([[a * x for x in row] for row in y], d * D * f.L,
                              c * D_r, [[D_r * x for x in row] for row in phi], a * d * f.M)
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
        pairs = [(v, other.values[idx]) for idx, v in self.values.items()]
        if any((v == 0) != (w == 0) for v, w in pairs):
            return False
        return len({w / v for v, w in pairs if v}) == 1


def _factor_values(y, c, phi, m: int) -> tuple:
    """One factor's (c, V_y, V_z): c and its two cofactor tables, of which
    every det and end value of the factor is one entry (``_entry_keys``).

    For each (r-1)-subset K, f_K is the Laplace cofactor vector of [y_K | w]
    along its last column, so det[y_K | w] = f_K . w: f_K[i] is
    (-1)^(r-1-i) times the minor of y on the rows other than i and the
    columns K, all read from one ``minors`` memo per factor.  The tables hold
    V_y[K][x-1] = f_K . y_x and V_z[K][x-1] = f_K . z_x, z = phi^T y, built
    together as the one row combination sum_i f_K[i] (y_i | z_i) of the rows
    of [y | z], which skips zero cofactors and starts from the ring's zero
    row, so every entry is in the ring of the input.  The det
    value at I is c V_y(I minus s_r, s_r); by Cramer's rule on
    B_I = (y^T phi)_I adj(y_I^T) the end value at (I, i, j) is
    det(y_I with column j replaced by z_{s_i}) = (-1)^(r-j) V_z(I minus s_j, s_i).
    Either way the entry (K, x) has the torus character 1 off K minus e_x.
    Works over any commutative ring: the point's own tables are built over
    int (``Factor``'s integer form), the dense stabiliser oracle's over ``Fraction``
    and dual numbers.  y has at least one row.
    """
    r = len(y)
    # Row i of [y | z], times the sign (-1)^(r-1-i) of its cofactor.
    signed = [
        [-x for x in (*y_i, *z_i)] if (r - 1 - i) % 2 else (*y_i, *z_i)
        for i, (y_i, z_i) in enumerate(zip(y, mat_mul(transpose(phi), y)))
    ]
    zero = [x - x for x in signed[0]]
    minor, rows = minors(y), tuple(range(r))
    struck = [rows[:i] + rows[i + 1:] for i in rows]
    v_y, v_z = {}, {}
    for cols in itertools.combinations(range(m), r - 1):
        row = zero
        for i in rows:
            f = minor(struck[i], cols)
            if f:
                row = [a + f * b for a, b in zip(row, signed[i])]
        K = tuple(l + 1 for l in cols)
        v_y[K], v_z[K] = row[:m], row[m:]
    return c, v_y, v_z


@cache
def _entry_keys(r: int, m: int) -> dict:
    """The key -> entry rule (see ``_factor_values``): each det key s and end
    key (s, i, j) of a factor, in table order, mapped to (family, K, x, sign):
    it reads V_y(K, x) times c (family 0) or V_z(K, x) times sign (family 1)."""
    subsets = list(itertools.combinations(range(1, m + 1), r))
    reads = {s: (0, s[:-1], s[-1], 1) for s in subsets}
    for s in subsets:
        for i, j in itertools.product(range(1, r + 1), repeat=2):
            reads[(s, i, j)] = (1, s[:j - 1] + s[j:], s[i - 1], (-1) ** (r - j))
    return reads


@cache
def _first_reads(r: int, m: int) -> tuple[tuple, tuple]:
    """Per family, the ((K, x), first key in table order that reads it)
    pairs of ``_entry_keys``, in the order of those first keys."""
    first = ({}, {})
    for key, (fam, K, x, _) in _entry_keys(r, m).items():
        first[fam].setdefault((K, x), key)
    return tuple(tuple(reads.items()) for reads in first)


def _factor_support(values: tuple, r: int, m: int) -> tuple[dict, dict]:
    """Per family, {(K, x): first key in table order that reads it} over
    one factor's nonzero det and end values (``_first_reads``)."""
    c, *tables = values
    return tuple(
        {Kx: key for Kx, key in reads if table[Kx[0]][Kx[1] - 1]} if fam or c else {}
        for fam, (table, reads) in enumerate(zip(tables, _first_reads(r, m)))
    )


def _table(indices, parts) -> dict[CoordinateIndex, object]:
    """Coordinate values in index order, each the product over factors of the
    entry its key reads (``_entry_keys``), over any base ring."""
    K, row = next(iter(parts[0][1].items()))  # V_y is C(m, r-1) x m
    reads = _entry_keys(len(K) + 1, len(row))
    table: dict[CoordinateIndex, object] = {}
    for idx in indices:
        keys = idx.subsets if idx.kind == "det" else zip(idx.subsets, *zip(*idx.ij))
        vals = []
        for (c, *tables), key in zip(parts, keys):
            fam, K, x, sign = reads[key]
            vals.append((sign if fam else c) * tables[fam][K][x - 1])
        table[idx] = reduce(mul, vals)
    return table


def _check_shapes(p: ModelPoint, ctx: CurveContext, flag: FlagShape | None = None) -> None:
    m = ctx.require_positive_sections()
    if p.m != m or p.r != ctx.rank or p.npoints != ctx.npoints:
        raise ValueError(
            f"point shape ({p.r}x{p.m}, {p.npoints} factors) does not match "
            f"context ({ctx.rank}x{m}, {ctx.npoints} factors)"
        )
    if flag is not None and flag.total != p.m:
        raise ValueError("flag total must equal the section count")


def coordinates(p: ModelPoint, ctx: CurveContext, cap: int = DEFAULT_INDEX_CAP) -> CoordinateTable:
    """Evaluate every projective coordinate of the point, exactly.

    Every value is a product of per-factor entries of the cofactor tables of
    ``_factor_values``, so vanishing minors are handled without any matrix
    inversion.  The tables are built over int from each factor's entries
    with denominators cleared, which scales every value of factor k by s_k =
    L_k^r M_k (see ``ModelPoint._integer_factors``); each product is divided back by the
    product of the s_k, so the values are the exact ``Fraction``s.  Raises
    CapExceeded when the index count exceeds the cap, and DegeneratePoint if
    every coordinate vanishes.
    """
    _check_shapes(p, ctx)
    indices = enumerate_coordinate_indices(ctx, cap)
    scale = p._scale
    return CoordinateTable(
        {idx: Fraction(v, scale) for idx, v in _table(indices, p._values).items()}
    )


def _family_min_max(p: ModelPoint, beta: BetaVector):
    """Families supported at every factor, their least weight and the verdict.

    Returns ([(per-factor {weight: witness key} dicts, index builder)], D, lo,
    membership).  The entry (K, x) pairs with D beta (trace zero, D the lcm of
    its denominators) to -sum_{l in K} D beta_l - D beta_x; the witness is the
    first key in table order of that weight.  Raises ValueError unless beta
    was built for the point's rank, section count and number of points.
    """
    if (beta.m, beta.npoints, beta.tau.rank) != (p.m, p.npoints, p.r):
        raise ValueError(
            f"instability vector shape ({beta.tau.rank}x{beta.m}, {beta.npoints} factors) "
            f"does not match point ({p.r}x{p.m}, {p.npoints} factors)"
        )
    entries, D = clear_denominators(beta.entries)
    off = {
        K: -sum(entries[l - 1] for l in K)
        for K in itertools.combinations(range(1, p.m + 1), p.r - 1)
    }
    families = []
    for fam in p._live_families:
        per_factor = []
        for support in p._support:
            weights = {}
            for (K, x), key in support[fam].items():
                weights.setdefault(off[K] - entries[x - 1], key)
            per_factor.append(weights)
        families.append((per_factor, (_det_index, _end_index)[fam]))
    if not families:
        raise DegeneratePoint("all coordinates vanish")
    lo = min(sum(min(d) for d in fam) for fam, _ in families)
    if lo != beta.norm_sq * D:
        return families, D, lo, Membership.OUTSIDE
    hi = max(sum(max(d) for d in fam) for fam, _ in families)
    return families, D, lo, Membership.IN_Z if hi == lo else Membership.IN_Y_NOT_Z


def _scan(per_factor, target, limit: int, want_witness: bool):
    """Tuples of per-factor keys, visited in lexicographic weight order.

    Returns the first ``limit`` tuples whose weights sum below target, with
    their sums, and (when ``want_witness``) the first tuple summing to it.
    Subtrees that can hold neither are pruned on their suffix min and max.
    """
    items = [sorted(d.items()) for d in per_factor]
    n = len(items)
    suffix_min = [0] * (n + 1)
    suffix_max = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix_min[k] = suffix_min[k + 1] + items[k][0][0]
        suffix_max[k] = suffix_max[k + 1] + items[k][-1][0]
    below: list[tuple[tuple, int]] = []
    witness = None

    def dfs(k: int, acc: int, chosen: tuple) -> None:
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

    dfs(0, 0, ())
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
    return _family_min_max(p, beta)[3]


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
    least weight, never the (possibly cut short) violation list.  The
    weights are int pairings with D beta, divided by D on the report.
    """
    _check_shapes(p, ctx)
    families, D, lo, verdict = _family_min_max(p, beta)
    target = beta.norm_sq * D
    violations: list[tuple[CoordinateIndex, Fraction]] = []
    witness = None
    for fam, make_index in families:
        below, keys = _scan(fam, target, max_violations - len(violations), witness is None)
        violations.extend((make_index(chosen), Fraction(w, D)) for chosen, w in below)
        if keys is not None:
            witness = make_index(keys)
    return Step1Report(verdict, beta.norm_sq, Fraction(lo, D), tuple(violations), witness)


def _block_cut(matrix, row_cuts, col_cuts) -> tuple:
    """The aligned diagonal blocks, every other entry zero."""
    return tuple(
        tuple(x if bisect_right(row_cuts, a) == bisect_right(col_cuts, b) else 0 for b, x in enumerate(row))
        for a, row in enumerate(matrix)
    )


def _gauged(y, c, phi, g) -> tuple:
    """The factor written in the basis g, g invertible, in adjugate form
    (adj(g) y, c det(g), g^T phi adj(g)^T), and det(g), expanded along g's
    first column with the same cofactors: int input gives int output."""
    adj, g_t = adjugate(g), transpose(g)
    d = dot(adj[0], g_t[0])
    return (mat_mul(adj, y), c * d, mat_mul(mat_mul(g_t, phi), transpose(adj))), d


def _adapted(y, c, phi, cuts) -> tuple:
    """((y', c', phi'), dims, det g): the factor gauged into the basis g adapted
    to y's image flag, and that flag's dimensions; ValueError unless y has full rank."""
    g, dims = adapted_flag_basis(transpose(y), cuts)
    factor, d = _gauged(y, c, phi, g)
    return factor, dims, d


def _adapted_factors(p: ModelPoint, beta: BetaVector, ctx: CurveContext):
    """Per factor ((y', c', phi'), dims, det g, s), all int: its integer form
    (Y, C, Phi) = (L y, M c, M phi) gauged into the basis g adapted to its
    image flag (``_adapted``), the image-block cuts, and its scale s = L^r M.

    Block triangular in that basis, y' and phi' have the graded point as
    aligned diagonal blocks.  g is L times y's adapted basis g_0, so
    y' = adj(g) Y = det(g) g_0^-1 y and (c', phi') = s (c det g_0,
    det(g_0) g_0^T phi g_0^-T): each block's values are the exact ones times
    one nonzero constant, which leaves its support and weights unchanged, as
    in ``ModelPoint._integer_factors``.  Raises NotInY outside the inequality locus,
    where the retraction is not defined.
    """
    if membership(p, beta, ctx) is Membership.OUTSIDE:
        raise NotInY("the retraction is defined only on the inequality locus")
    return [(*_adapted(*factor, beta.flag.cuts), s) for factor, s in p._integer_factors]


def _check_flag_adapted(phi: Mat, dims, k: int, tau: HNType) -> None:
    """Raise InvariantViolation naming (block, factor k) unless the image flag
    has dimensions r_1, r_1 + r_2, ... and ``phi``, written in a basis adapted
    to that flag (``dims`` its step dimensions), preserves it."""
    for gamma, (want, dim) in enumerate(zip(FlagShape(tau.composition).cuts, dims), start=1):
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
    flag (``_adapted_factors``), then both y and phi are cut down to their
    aligned diagonal blocks, divided back by det g and s to exact values.
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
    for k, ((_, _, phi), dims, _, _) in enumerate(adapted, start=1):
        _check_flag_adapted(phi, dims, k, beta.tau)
    return ModelPoint(tuple(
        Factor._over(_block_cut(y, dims, cuts), d, c, _block_cut(phi, dims, dims), s)
        for (y, c, phi), dims, d, s in adapted
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
        object.__setattr__(self, "factors", _as_factors(self.factors))


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
    if len(h.factors) != h.ctx.npoints:
        raise ValueError("factor count does not match the context")
    for k, f in enumerate(h.factors, start=1):
        _check_factor_shape(f, k, h.ctx.rank, beta.m)
        try:
            (_, _, phi), dims, _ = _adapted(f.Y, f.C, f.Phi, cuts)
        except ValueError:  # the shape check above leaves only the rank failure
            raise InvariantViolation(len(cuts), k, "y does not have full row rank")
        _check_flag_adapted(phi, dims, k, h.tau)
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


def _block_weight_set(y_blocks, c_vals, phi_blocks, m_g: int) -> list[set[tuple[int, ...]]]:
    """Each factor's distinct supported weights in one graded block, as int
    tuples; an empty list when some factor has none (a vacuous block).

    A factor's weights are the characters 1 off K minus e_x of its block's
    nonzero entries (K, x) (``_factor_support``); a rank-0 block has the one
    det coordinate (), of value c and character 1 everywhere.  The block's
    weights are the Minkowski sum of these sets, which step 2 never builds.
    """
    per_factor: list[set[tuple[int, ...]]] = []
    for y_b, c, phi_b in zip(y_blocks, c_vals, phi_blocks):
        if not y_b:
            weights = {(1,) * m_g} if c else set()
        else:
            support = _factor_support(_factor_values(y_b, c, phi_b, m_g), len(y_b), m_g)
            weights = {
                tuple(int(l not in K) - (l == x) for l in range(1, m_g + 1))
                for family in support for K, x in family
            }
        if not weights:
            return []
        per_factor.append(weights)
    return per_factor


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
    block's weights are the Minkowski sum over factors of each factor's
    weights w, and the character is the sum of chi_k = (m_g - r_k) / m_g
    times the all-ones vector, so factor k's set is scaled to the integer
    points m_g w - (m_g - r_k) and ``min_norm_point_of_sum`` runs Wolfe on
    the sum without building it: the min-norm point is X / (delta m_g), and
    the witness X / gcd(delta m_g, X) its numerators over their least common
    denominator.  The blocks are sliced from the int factors of
    ``_adapted_factors``, so no ``Fraction`` is built.  The blockwise
    grading/trace identity is checked exactly over all integer trace-zero
    diagonal subgroups with entries up to ``lambda_bound``, first, so its
    cap (see ``step2_trace_identity``) holds before any other work.
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
        for (y, c, phi), dims, _, _ in adapted:
            r_lo, r_hi = ((0,) + dims)[gamma - 1], dims[gamma - 1]
            y_blocks.append(tuple(row[c_lo:c_hi] for row in y[r_lo:r_hi]))
            phi_blocks.append(tuple(row[r_lo:r_hi] for row in phi[r_lo:r_hi]))
            c_vals.append(c)
            r_bs.append(r_hi - r_lo)
        weights = _block_weight_set(y_blocks, c_vals, phi_blocks, m_g)
        if not weights:
            blocks.append(
                BlockReport(gamma, max(r_bs), m_g, True, None, vacuous=True)
            )
            continue
        X, delta = min_norm_point_of_sum(
            [tuple(m_g * a - m_g + r_b for a in w) for w in ws] for ws, r_b in zip(weights, r_bs)
        )
        ss, G = not any(X), math.gcd(delta * m_g, *X)
        witness = None if ss else tuple(a // G for a in X)
        all_ok = all_ok and ss
        blocks.append(BlockReport(gamma, max(r_bs), m_g, ss, witness))
    return Step2Report(
        all_ok and identity_ok, tuple(blocks), checked, identity_ok
    )


def _lie_upper_positions(flag: FlagShape) -> list[tuple[int, int]]:
    """0-based (row, col) positions of the strictly upper block triangle."""
    blocks = [flag.block_of(a) for a in range(1, flag.total + 1)]
    pairs = itertools.product(enumerate(blocks), repeat=2)
    return [(a, b) for (a, ga), (b, gb) in pairs if ga < gb]


@lru_cache(maxsize=16)
def _stabilizer_plan(r: int, m: int, flag: FlagShape) -> tuple[int, tuple]:
    """The shape-only half of ``unipotent_stabilizer_dim``: the slot count and,
    per family in table order, the entries (K, x - 1, hits, moves) with a
    nonzero slot.  Slot t is p = (a, l), column l += eps column a (a < l), and
    d_p V(K, x) = [x = l] V(K, a) + [l in K, a not in K] (-1)^e V(K with l -> a, x),
    e = #{k in K : a < k < l}: a hit (t, a - 1), a move (t, K with l -> a, (-1)^e).
    Det entries are the det half of ``_first_reads`` (any other V_y row is 0 or
    +- one of theirs)."""
    slots = list(enumerate((a + 1, l + 1) for a, l in _lie_upper_positions(flag)))
    hits = [tuple((t, a - 1) for t, (a, l) in slots if l == x) for x in range(m + 1)]
    moves = {
        K: tuple((t, tuple(sorted({*K} - {l} | {a})), (-1) ** sum(a < k < l for k in K))
                 for t, (a, l) in slots if l in K and a not in K)
        for K in itertools.combinations(range(1, m + 1), r - 1)
    }
    entries = [Kx for Kx, _ in _first_reads(r, m)[0]], [(K, x) for K in moves for x in range(1, m + 1)]
    return len(slots), tuple(
        tuple((K, x - 1, hits[x], moves[K]) for K, x in fam if hits[x] or moves[K]) for fam in entries
    )


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
    values), and every entry is such a value.  A direction p moves w_l along
    with y_l and acts on the entries like gl_m on Plücker coordinates (the
    rule d_p V(K, x) of ``_stabilizer_plan``).  So both families carry linear
    representations of y's column operations, on which the strictly upper
    block triangle acts nilpotently, as on their tensor products; D T = s T
    with T != 0 then forces s = 0.  When every a_k is nonzero, contracting
    D A = 0 in every slot but k with functionals f_j, f_j(a_j) = 1, leaves
    D a_k in the span of a_k, hence D a_k = 0; likewise for B.  A family with
    a zero factor (c_k = 0 or phi_k = 0) vanishes along every direction,
    since D moves only y, and gives no condition; DegeneratePoint is raised
    when both vanish (no ``ModelPoint._live_families``).

    So the unknowns are xi_p, one per upper position p, with one row
    [d_p V(K, x)]_p per value of each factor in each surviving family; the
    nullity is the stabiliser dimension.  A row fills from the cached tables
    only the slots its entry of ``_stabilizer_plan`` lists, one plan per
    (r, m, flag), built after the cap and shape checks.  The tables are over
    int (``ModelPoint._integer_factors``): a row reads one (factor, table)
    pair only, whose entries all carry the same nonzero scale (L^r for V_y,
    L^r M for V_z), so each row is a nonzero multiple of the exact one and
    the row space, hence the nullity, is unchanged.  ``cap`` bounds
    N C(m,r) (1 + r^2), the number of values, and is checked first;
    ``oracles.unipotent_stabilizer_dim_dense_oracle`` is the full-table route,
    which keeps s as an unknown, as a test oracle.
    """
    _check_shapes(p, ctx, flag)
    rows = p.npoints * math.comb(p.m, p.r) * (1 + p.r ** 2)
    if rows > cap:
        raise CapExceeded(rows, cap)
    families = p._live_families
    if not families:
        raise DegeneratePoint("all coordinates vanish")
    width, plan = _stabilizer_plan(p.r, p.m, flag)
    acc = EchelonAccumulator(width)
    for _, *tables in p._values:
        for fam in families:
            table = tables[fam]
            for K, col, hits, moves in plan[fam]:
                row, values = [0] * width, table[K]
                for t, a in hits:
                    row[t] = values[a]
                for t, moved, sign in moves:
                    row[t] += sign * table[moved][col]
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
    mats = [mat(phi) for phi in listlike(phis, "a list of matrices")]
    r = flag.total
    for phi in mats:
        if len(phi) != r or (phi and len(phi[0]) != r):
            raise ValueError(f"matrices must be {r}x{r} for this flag")
    positions = _lie_upper_positions(flag)
    if not positions:
        return 0
    rows = tuple(
        tuple((phi[b][j] if i == a else 0) - (phi[i][a] if j == b else 0) for a, b in positions)
        for phi in mats for i in range(r) for j in range(r)
    )
    return len(positions) - rank(rows)
