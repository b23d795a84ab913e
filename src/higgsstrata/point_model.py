"""Explicit matrix models of points in products of extended Grassmannians.

A point has one factor <y, [c : phi]> per evaluation point: y an r x m matrix
of full row rank, c a scalar and phi an r x r matrix with (c, phi) != (0, 0).
Its projective coordinates are

    det family:  prod_k  c_k * det(y_k restricted to columns J_k)
    end family:  prod_k  det(y_k|I_k) * tr(y_k|I_k . sigma_ij . y_k|I_k^(-1) . phi_k^T)

where sigma_ij has a single one in position (i, j).  Each is a product over
factors of one entry of the factor's tables (``_factor_values``) times c or
a sign (``_entry_keys``): a maximal minor det y_s for det values, of torus
character 1 off s, and, by Cramer's rule, an entry V_z(K, x) = det[y_K | z_x]
of one flat cofactor table, z = phi^T y, of character 1 off K minus e_x, for
end values.  The minors come from one ``linalg.minors`` memo, so values are
polynomial also where a minor vanishes, and no matrix is inverted or struck
out.  Note the transpose: phi is stored in the presentation's convention,
i.e. as the transpose of the endomorphism of the quotient fibre.
Consequently a Higgs field preserving the subspace flag appears here as a
block *lower* triangular matrix, and the basis-change rule (``_gauged``),
which writes a factor in a basis g of the quotient fibre, conjugates by the
transpose:

    <g^-1 y, [c det(g) : det(g) g^T phi g^-T]> = <y, [c : phi]>,

which leaves every coordinate literally unchanged; ``_gauged`` returns it in
adjugate form, y times det(g), which divides nowhere.  Membership in the
instability loci, the coordinate-zeroing retraction, the two verification
predicates for the instability correspondence, and the first-order unipotent
stabiliser dimensions (read off each y's row space and phi, with no table)
are all computed exactly.

The whole path runs over Python int.  A ``Factor`` holds (L y, M c, M phi),
L and M the lcms of the denominators of y and of (c, phi), each input entry
read once as (num, den); y's full row rank is checked by finding one nonzero
r x r minor (``linalg.full_row_rank``), whose columns also give y's kernel.
The values are polynomials of degree r in y and 1 in (c, phi), so every
value of factor k is its exact value times one nonzero constant s_k = L^r M,
which leaves the support, hence every weight, unchanged; ``coordinates``
divides by the product of the s_k.  Step 2 and the retraction gauge this
integer form (``_adapted_factors``), and step 2 reads each graded block's
nonzero minors and V_z entries, by one (K, x) rule, straight as Wolfe's
integer points (``_block_weight_set``); step 1 walks the tables once per beta,
pairing with D beta, D the lcm of beta's denominators, compares the int
weights with the int T = D |beta|^2, both read off beta's integer form
(``BetaVector.integer_form``), and divides by D on its report.  The point keeps
the walk of the last beta, so step 2's guard after step 1 on it walks nothing.
``Fraction`` appears only where a value leaves the module, as in a factor's
``y``, ``c`` and ``phi``, which ``to_json`` and ``higgsstrata.oracles`` read.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property, reduce
from operator import mul

from .errors import (
    DEFAULT_INDEX_CAP,
    CapExceeded,
    DegeneratePoint,
    InvariantViolation,
    NotInY,
)
from .hn_types import CurveContext, FlagShape, HNType
from .linalg import (
    EchelonAccumulator,
    Mat,
    adjugate,
    cleared,
    dot,
    full_row_rank,
    integer,
    listlike,
    lowest_terms,
    mat,
    mat_mul,
    minors,
    objectlike,
    ratio,
    transpose,
)
from .minnorm import min_norm_point_of_sum
from .weight_lattice import (
    BetaVector,
    CoordinateIndex,
    beta_of_type,
    enumerate_coordinate_indices,
    rational_to_json,
)


@dataclass(frozen=True, init=False)
class Factor:
    """One evaluation-point factor <y, [c : phi]>, held in its integer form.

    Each entry is read once, by ``linalg.ratio``, into (Y, L) = (L y, L) and
    (C, Phi, M) = (M c, M phi, M), L and M the lcms of the reduced
    denominators of y and of (c, phi).  The form is canonical, so equality
    and hash are those of (y, c, phi); ``y``, ``c`` and ``phi`` are built as
    ``Fraction`` only when read.  What the factor alone decides is cached on
    it, so every point that shares the factor works it out once.
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
        data = objectlike(data, "a factor (an object with y, c and phi)")
        return cls(data["y"], data["c"], data["phi"])

    _basis = cached_property(lambda f: full_row_rank(f.Y))  # y's pivot columns B, None below full rank
    _scale = cached_property(lambda f: f.L ** len(f.Y) * f.M)  # s = L^r M: V_z entries and values scale by s

    @cached_property
    def _tables(self) -> tuple[int, list, list]:
        """(C, P, V_z) of the integer form (``_factor_values``): every value is one entry times C or a sign."""
        return _factor_values(self.Y, self.C, self.Phi, len(self.Y[0]))

    @cached_property
    def _adapted(self) -> tuple[tuple, int]:
        """((y', c', phi'), det g): the integer form in the basis g = Y_B of its pivot columns (``_gauged``)."""
        return _gauged(self.Y, self.C, self.Phi, [[row[l] for l in self._basis] for row in self.Y])


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
    """A point of the product of extended Grassmannians, one factor per point;
    it keeps only what spans its factors, each factor's own forms on the ``Factor``."""

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
            if f._basis is None:
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

    @cached_property
    def _live_families(self) -> tuple[int, ...]:
        """The live families, 0 (det) and 1 (end): those with support at every
        factor, as values are products over the factors, read off c and phi;
        none for a degenerate point.  A value is its entry times c or a sign,
        so a live family's support is its nonzero entries (``_family_min_max``)."""
        live = all(f.C for f in self.factors), all(any(map(any, f.Phi)) for f in self.factors)
        return tuple(fam for fam in (0, 1) if live[fam])

    def rescale_factor(self, k: int, t) -> "ModelPoint":
        """Projective rescaling (c, phi) -> (t c, t phi) of factor k (0-based)."""
        num, den = ratio(t)
        if not num:
            raise ValueError("rescaling must be by a nonzero scalar")
        k = range(self.npoints)[k]  # IndexError past either end
        f = self.factors[k]
        scaled = Factor._over(f.Y, f.L, num * f.C, [[num * x for x in row] for row in f.Phi], den * f.M)
        return ModelPoint(self.factors[:k] + (scaled,) + self.factors[k + 1:])

    def gauge_factor(self, k: int, alpha) -> "ModelPoint":
        """Basis change y -> alpha y of the quotient fibre of factor k, alpha in
        GL(r): factor k written in the basis alpha^-1 (see ``_gauged``).  Every
        projective coordinate, and rref(y)'s pivot columns, are unchanged."""
        A, D = cleared(mat(alpha, ratio))  # alpha = A / D
        k, r = range(self.npoints)[k], self.r  # IndexError past either end
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
        factors = objectlike(data, "a point (an object with factors)")["factors"]
        return cls(tuple(map(Factor.from_json, listlike(factors, "a list of factors"))))


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
    """One factor's (c, P, V_z): c, y's maximal minors P and one flat cofactor
    table V_z, of which every det and end value of the factor is one entry
    times c or a sign (``_entry_keys``).

    For each (r-1)-subset K, f_K is the Laplace cofactor vector of [y_K | w]
    along its last column, so det[y_K | w] = f_K . w: f_K[i] is
    (-1)^(r-1-i) times the minor of y on the rows other than i and the
    columns K, all read from one ``minors`` memo per factor.  One row
    combination sum_i f_K[i] (y_i | z_i), z = phi^T y, over y's columns past
    max K and all of z's, which skips zero cofactors and starts from the
    first nonzero one's multiple of its row, or from the ring's zero row when
    every cofactor vanishes, so every entry is in the ring of the input,
    gives K's part of both tables.  f_K . y_x = det y_s for x > max K and
    s = K u {x}; K in lex order and x rising list every r-subset s once, as (s minus s_r,
    s_r), in lex order, so P[n] = det y_s for the n-th s.  Every other f_K .
    y_x is 0 (x in K) or +-det y_{K u {x}}, so P holds all of them that can
    be nonzero.  V_z[kidx(K) m + x - 1] = f_K . z_x = det[y_K | z_x] for
    every x, kidx(K) the place of K in lex order.  The det value at s is c
    det y_s, of torus character 1 off s; by Cramer's rule on B_I = (y^T
    phi)_I adj(y_I^T) the end value at (I, i, j) is det(y_I with column j
    replaced by z_{s_i}) = (-1)^(r-j) V_z(I minus s_j, s_i), and V_z(K, x)
    has the character 1 off K minus e_x.  Works over any commutative ring:
    the point's own tables are built over int (``Factor``'s integer form),
    the dense stabiliser oracle's over ``Fraction`` and dual numbers.  y has
    at least one row.
    """
    r = len(y)
    # Row i of [y | z], times the sign (-1)^(r-1-i) of its cofactor.
    signed = [
        [-x for x in (*y_i, *z_i)] if (r - 1 - i) % 2 else (*y_i, *z_i)
        for i, (y_i, z_i) in enumerate(zip(y, mat_mul(transpose(phi), y)))
    ]
    minor, rows = minors(y), tuple(range(r))
    struck = [rows[:i] + rows[i + 1:] for i in rows]
    dets, v_z = [], []
    for cols in itertools.combinations(range(m), r - 1):
        start = cols[-1] + 1 if cols else 0  # y's columns past max K
        row = None
        for i in rows:
            f = minor(struck[i], cols)
            if f:
                part = signed[i][start:]
                row = [f * b for b in part] if row is None else [a + f * b for a, b in zip(row, part)]
        if row is None:
            row = [x - x for x in signed[0][start:]]
        dets += row[:m - start]
        v_z += row[m - start:]
    return c, dets, v_z


@cache
def _subset_places(r: int, m: int) -> dict[tuple[int, ...], int]:
    """Each r-subset of {1..m} mapped to its place in lex order."""
    return {s: n for n, s in enumerate(itertools.combinations(range(1, m + 1), r))}


@cache
def _entry_keys(r: int, m: int) -> dict:
    """The key -> entry rule (see ``_factor_values``): each det key s and end
    key (s, i, j) of a factor, in table order, mapped to (family, index,
    sign): it reads P[index] times c (family 0), s's place in lex order, or
    V_z[index] times sign (family 1), the entry (K, x) = (s minus s_j, s_i)
    at index kidx(K) m + x - 1."""
    places, kidx = _subset_places(r, m), _subset_places(r - 1, m)
    reads = {s: (0, n, 1) for s, n in places.items()}
    for s in places:
        for i, j in itertools.product(range(1, r + 1), repeat=2):
            reads[(s, i, j)] = (1, kidx[s[:j - 1] + s[j:]] * m + s[i - 1] - 1, (-1) ** (r - j))
    return reads


@cache
def _first_reads(r: int, m: int) -> tuple[tuple, tuple]:
    """Step 1's walk (``_family_min_max``) per family: for each entry (K, x),
    in the order of the first key in table order that reads it, (index,
    kidx(K), x, that key).  The det keys are the r-subsets s in lex order,
    each the one reader of P at its place, so the det walk is P in order,
    with (K, x) = (s minus s_r, s_r)."""
    first = ({}, {})
    for key, (fam, n, _) in _entry_keys(r, m).items():
        first[fam].setdefault(n, key)
    kidx = _subset_places(r - 1, m)
    dets = tuple((n, kidx[s[:-1]], s[-1], s) for n, s in first[0].items())
    ends = tuple((n, n // m, n % m + 1, key) for n, key in first[1].items())
    return dets, ends


def _table(indices, parts, r: int, m: int) -> dict[CoordinateIndex, object]:
    """Coordinate values in index order, each the product over factors of the
    entry its key reads (``_entry_keys``), over any base ring; ``parts`` are
    the factors' (c, P, V_z) from ``_factor_values``."""
    reads = _entry_keys(r, m)
    table: dict[CoordinateIndex, object] = {}
    for idx in indices:
        keys = idx.subsets if idx.kind == "det" else zip(idx.subsets, *zip(*idx.ij))
        vals = []
        for (c, *tables), key in zip(parts, keys):
            fam, n, sign = reads[key]
            vals.append((sign if fam else c) * tables[fam][n])
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
    L_k^r M_k (``Factor._scale``); each product is divided back by the
    product of the s_k, so the values are the exact ``Fraction``s.  Raises
    CapExceeded when the index count exceeds the cap, and DegeneratePoint if
    every coordinate vanishes.
    """
    _check_shapes(p, ctx)
    indices = enumerate_coordinate_indices(ctx, cap)
    scale = math.prod(f._scale for f in p.factors)
    table = _table(indices, [f._tables for f in p.factors], p.r, p.m)
    return CoordinateTable({idx: Fraction(v, scale) for idx, v in table.items()})


def _family_min_max(p: ModelPoint, beta: BetaVector):
    """Families supported at every factor, their least weight and the verdict.

    Returns ([(per-factor {weight: witness key} dicts, index builder)], lo,
    membership).  Per live family and factor, one walk over ``_first_reads``
    keeps the nonzero entries of the factor's cached tables (``Factor._tables``),
    P in order by ``zip`` and V_z by flat index: (K, x) pairs with D beta
    (trace zero, D the lcm of its denominators), read off beta's integer
    form (``BetaVector.integer_form``) as b_g on each column of block g, to
    -sum_{l in K} D beta_l - D beta_x, the K sums taken once per beta, and
    the witness is the first key in table order of that weight; the verdict
    compares them with the int T = D |beta|^2 of that form.  Raises
    ValueError unless beta was built for the point's rank, section count and
    number of points.
    """
    if (beta.m, beta.npoints, beta.tau.rank) != (p.m, p.npoints, p.r):
        raise ValueError(
            f"instability vector shape ({beta.tau.rank}x{beta.m}, {beta.npoints} factors) "
            f"does not match point ({p.r}x{p.m}, {p.npoints} factors)"
        )
    at = [0]  # D beta_l at column l
    for b_g, m_g in zip(beta.integer_form[0], beta.m_blocks):
        at += [b_g] * m_g
    off = [-sum(map(at.__getitem__, K)) for K in _subset_places(p.r - 1, p.m)]
    dets, ends = _first_reads(p.r, p.m)
    families = []
    for fam in p._live_families:
        per_factor = []
        for _, P, V_z in (f._tables for f in p.factors):
            weights = {}
            if fam:
                for n, k, x, key in ends:
                    if V_z[n]:
                        weights.setdefault(off[k] - at[x], key)
            else:
                for v, (_, k, x, key) in zip(P, dets):
                    if v:
                        weights.setdefault(off[k] - at[x], key)
            per_factor.append(weights)
        families.append((per_factor, (_det_index, _end_index)[fam]))
    if not families:
        raise DegeneratePoint("all coordinates vanish")
    lo = min(sum(min(d) for d in fam) for fam, _ in families)
    if lo != beta.integer_form[2]:
        return families, lo, Membership.OUTSIDE
    hi = max(sum(max(d) for d in fam) for fam, _ in families)
    return families, lo, Membership.IN_Z if hi == lo else Membership.IN_Y_NOT_Z


def _step1(p: ModelPoint, beta: BetaVector):
    """``_family_min_max`` of the point and beta, walked once: the point keeps
    the result for the last beta it was asked about, one entry, so that
    ``verify_step2``'s guard after ``verify_step1`` or ``membership`` on the
    same beta reads it again."""
    last = p.__dict__.get("_last_walk")
    if last is None or last[0] != beta:
        last = beta, _family_min_max(p, beta)
        p.__dict__["_last_walk"] = last
    return last[1]


def _scan(per_factor, target: int, limit: int, want_witness: bool):
    """Tuples of per-factor keys, visited in lexicographic weight order.

    Returns the first ``limit`` tuples whose int weights sum below the int
    target (T = D |beta|^2), with their sums, and (when ``want_witness``)
    the first tuple summing to it.  Subtrees that can hold neither are
    pruned on their suffix min and max.
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
    """The det index of per-factor det keys of ``_entry_keys``, valid by
    construction, so built unchecked (``CoordinateIndex._trusted``)."""
    return CoordinateIndex._trusted("det", tuple(keys))

def _end_index(keys) -> CoordinateIndex:
    """The end index of per-factor end keys (s, i, j), as ``_det_index``."""
    return CoordinateIndex._trusted("end", tuple(k[0] for k in keys), tuple((k[1], k[2]) for k in keys))


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
    return _step1(p, beta)[2]


@dataclass(frozen=True)
class Step1Report:
    """Outcome of the coordinate-by-coordinate inequality check against beta."""

    membership: Membership
    min_support_weight: Fraction
    violations: tuple[tuple[CoordinateIndex, Fraction], ...]
    equality_witness: CoordinateIndex | None

    @property
    def passed(self) -> bool:
        """The verdict is not OUTSIDE: no weight below |beta|^2, one at it."""
        return self.membership is not Membership.OUTSIDE


def verify_step1(
    p: ModelPoint, beta: BetaVector, ctx: CurveContext, max_violations: int = 16
) -> Step1Report:
    """Check that every supported coordinate pairs with beta at or above its
    squared norm, and exhibit one equality witness.

    One pass over the point's weights against beta gives the least weight
    and the ``membership`` verdict; one scan per family then collects the
    first ``max_violations`` violating indices (det family first, each in
    lexicographic weight order) and the first index pairing exactly at the
    norm.  The report holds only what the point decides and never raises on
    failure: ``passed`` reads the verdict, never the (possibly cut short)
    violation list.  The weights are int pairings with D beta, compared with
    the int T = D |beta|^2 (``BetaVector.integer_form``), divided by D on
    the report.  A non-int ``max_violations`` raises TypeError, a negative one ValueError.
    """
    if integer(max_violations) < 0:
        raise ValueError(f"max_violations must be >= 0, got {max_violations}")
    _check_shapes(p, ctx)
    families, lo, verdict = _step1(p, beta)
    _, D, T = beta.integer_form
    violations: list[tuple[CoordinateIndex, Fraction]] = []
    witness = None
    for fam, make_index in families:
        below, keys = _scan(fam, T, max_violations - len(violations), witness is None)
        violations.extend((make_index(chosen), Fraction(w, D)) for chosen, w in below)
        if keys is not None:
            witness = make_index(keys)
    return Step1Report(verdict, Fraction(lo, D), tuple(violations), witness)


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


def _image_dims(B, cuts) -> tuple[int, ...]:
    """The image flag's dimensions: per cut, the pivot columns before it."""
    return tuple(bisect_left(B, cut) for cut in cuts)


def _adapted_factors(p: ModelPoint, beta: BetaVector, ctx: CurveContext):
    """Per factor ((y', c', phi'), dims, det g, s), all int: its integer form
    (Y, C, Phi) = (L y, M c, M phi) in the basis g = Y_B of its pivot columns B
    (``Factor._adapted``, once per factor), adapted to the image flag whose
    dimensions beta counts off B (``_image_dims``), and its scale s = L^r M.

    Block triangular in that basis, y' and phi' have the graded point as
    aligned diagonal blocks.  g is L times g_0 = y_B, so y' = adj(g) Y =
    det(g) g_0^-1 y = det(g) rref(y), each graded y-block of full row rank with
    det(g) I on its pivot columns, and (c', phi') = s (c det g_0, det(g_0) g_0^T
    phi g_0^-T): each block's values are the exact ones times one nonzero
    constant, which leaves its support and weights unchanged, as in
    ``Factor._tables``.  Raises NotInY outside the inequality locus.
    """
    if membership(p, beta, ctx) is Membership.OUTSIDE:
        raise NotInY("the retraction is defined only on the inequality locus")
    cuts = beta.flag.cuts
    return [(f._adapted[0], _image_dims(f._basis, cuts), f._adapted[1], f._scale) for f in p.factors]


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

    Matrix-level: each factor is read in the basis of its pivot columns,
    adapted to the image flag (``_adapted_factors``), then both y and phi are
    cut to their aligned diagonal blocks, divided back by det g and s.
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
    finite points).  Flags are checked on each factor's adapted form
    (``Factor._adapted``), which step 2 reuses, after every factor's rank and
    ``ModelPoint``'s refusal of any (c, phi) = (0, 0); each factor searches
    its minors once.
    """
    beta = beta_of_type(h.tau, h.ctx)
    cuts = beta.flag.cuts
    if len(h.factors) != h.ctx.npoints:
        raise ValueError("factor count does not match the context")
    for k, f in enumerate(h.factors, start=1):
        _check_factor_shape(f, k, h.ctx.rank, beta.m)
        if f._basis is None:
            raise InvariantViolation(len(cuts), k, "y does not have full row rank")
    p = ModelPoint(h.factors)
    for k, f in enumerate(p.factors, start=1):
        _check_flag_adapted(f._adapted[0][2], _image_dims(f._basis, cuts), k, h.tau)
    return p


@dataclass(frozen=True)
class BlockReport:
    """Torus-semistability verdict for one graded block of a retracted point."""

    index: int
    semistable: bool
    witness: tuple[int, ...] | None
    vacuous: bool = False


@dataclass(frozen=True)
class Step2Report:
    """Per-block torus checks of the graded point."""

    blocks: tuple[BlockReport, ...]

    @property
    def passed(self) -> bool:
        """Every block is semistable; a vacuous block counts as semistable."""
        return all(b.semistable for b in self.blocks)


@cache
def _block_points(r: int, m: int) -> tuple[tuple, tuple]:
    """Wolfe's integer point of each entry (K, x) of a rank-r block with m
    columns, r >= 1 (see ``_block_weight_set``): one per V_z entry, by flat
    index kidx(K) m + x - 1, and one per P entry, in P's order, the entry
    (K, x) with x > max K.  Per (r-1)-subset K in lex order, one base vector,
    r on every column and r - m on the columns of K, gives base - m e_x."""
    ends, dets = [], []
    for K in _subset_places(r - 1, m):
        base = [r - m if l in K else r for l in range(1, m + 1)]
        for x in range(m):
            base[x] -= m
            ends.append(tuple(base))
            base[x] += m
        dets += ends[len(ends) - m + (K[-1] if K else 0):]  # K's entries x > max K
    return tuple(ends), tuple(dets)


def _block_weight_set(y_blocks, c_vals, phi_blocks, m_g: int) -> list[set[tuple[int, ...]]]:
    """Each factor's distinct supported weights w in one graded block, as
    Wolfe's integer points m_g w - (m_g - r_b), r_b the factor's block rank;
    an empty list when some factor has none (a vacuous block).

    A factor's weights are the characters of the nonzero entries of its
    block's tables (``_factor_values``): 1 off K minus e_x for every V_z
    entry (K, x), and 1 off s for every det y_s in P when c != 0.  These are
    its values' characters (``_entry_keys``): the det key s reads c det y_s,
    and r_b <= m_g leaves some l outside K, so the end key (K u {l}, i, j),
    s_i = x and s_j = l, reads every V_z entry (K, x).  Both families read
    one (K, x) rule: P lists det y_s as the entry (K, x) = (s minus s_r, s_r),
    x > max K, and 1 off s = 1 off (K u {x}) = 1 off K minus e_x, since x is
    not in K.  So the point of either entry (K, x) is m_g (1 off K - e_x) -
    (m_g - r_b), which is r_b on every column, r_b - m_g on the columns of K,
    less m_g at x (``_block_points``).  A rank-0 block has the one det
    coordinate (), of value c and character 1 everywhere, whose point is 0.
    The block's points are the Minkowski sum of these sets, which step 2
    never builds.
    """
    per_factor: list[set[tuple[int, ...]]] = []
    for y_b, c, phi_b in zip(y_blocks, c_vals, phi_blocks):
        if not y_b:
            points = {(0,) * m_g} if c else set()
        else:
            _, dets, v_z = _factor_values(y_b, c, phi_b, m_g)
            ends, det_points = _block_points(len(y_b), m_g)
            points = set(itertools.compress(ends, v_z))
            if c:
                points.update(itertools.compress(det_points, dets))
        if not points:
            return []
        per_factor.append(points)
    return per_factor


def verify_step2(p: ModelPoint, beta: BetaVector, ctx: CurveContext) -> Step2Report:
    """Torus-level semistability of the graded point, block by block.

    Each graded block must contain its twisted character (the barycentric
    multiple of the all-ones vector fixed by the trace bookkeeping) in the
    convex hull of its supported weights; failures return the exact
    separating direction found by the minimum-norm computation.  The
    block's weights are the Minkowski sum over factors of each factor's
    weights w, and the character is the sum of chi_k = (m_g - r_k) / m_g
    times the all-ones vector, so factor k's set is read as the integer
    points m_g w - (m_g - r_k), both families by one (K, x) rule
    (``_block_weight_set``), and ``min_norm_point_of_sum`` runs Wolfe on
    those sets as they are, without building the sum: the min-norm point is
    X / (delta m_g), and the witness X / gcd(delta m_g, X) its numerators
    over their least common denominator.  The blocks are sliced from the int factors of
    ``_adapted_factors``, so no ``Fraction`` is built.  The report holds the
    blocks alone: the grading/trace identity holds for every beta
    (``step2_trace_identity``), so it decides nothing about the point.  This
    is a necessary condition for full semistability, not a decision of it.
    """
    adapted = _adapted_factors(p, beta, ctx)
    cuts = (0,) + beta.flag.cuts
    blocks: list[BlockReport] = []
    for gamma in range(1, len(beta.m_blocks) + 1):
        m_g = beta.m_blocks[gamma - 1]
        c_lo, c_hi = cuts[gamma - 1], cuts[gamma]
        y_blocks, c_vals, phi_blocks = [], [], []
        for (y, c, phi), dims, _, _ in adapted:
            r_lo, r_hi = ((0,) + dims)[gamma - 1], dims[gamma - 1]
            y_blocks.append(tuple(row[c_lo:c_hi] for row in y[r_lo:r_hi]))
            phi_blocks.append(tuple(row[r_lo:r_hi] for row in phi[r_lo:r_hi]))
            c_vals.append(c)
        points = _block_weight_set(y_blocks, c_vals, phi_blocks, m_g)
        if not points:
            blocks.append(BlockReport(gamma, True, None, vacuous=True))
            continue
        X, delta = min_norm_point_of_sum(points)
        ss, G = not any(X), math.gcd(delta * m_g, *X)
        witness = None if ss else tuple(a // G for a in X)
        blocks.append(BlockReport(gamma, ss, witness))
    return Step2Report(tuple(blocks))


def _lie_upper_positions(flag: FlagShape) -> list[tuple[int, int]]:
    """0-based (row, col) positions of the strictly upper block triangle."""
    blocks = [flag.block_of(a) for a in range(1, flag.total + 1)]
    pairs = itertools.product(enumerate(blocks), repeat=2)
    return [(a, b) for (a, ga), (b, gb) in pairs if ga < gb]


def _kernel(y, B) -> tuple:
    """(adj(y_B), N), y_B the nonzero maximal minor of y on the columns B, N the
    kernel basis n_x = d e_x - sum_b (adj(y_B) y_x)_b e_{B_b}, x not in B,
    d = det y_B: y n_x = 0, nothing divided, and n_x alone is nonzero at x."""
    adj = adjugate([[row[l] for l in B] for row in y])
    G = {l: [sum(map(mul, adj_b, col)) for col in zip(*y)] for l, adj_b in zip(B, adj)}  # d e_b on B
    d, cols = G[B[0]][B[0]], range(len(y[0]))
    return adj, [[d * (l == x) - (G[l][x] if l in G else 0) for l in cols] for x in cols if x not in B]


def _invariance_nullity(subspaces, positions) -> int:
    """The nullity, in xi_p for D = sum_p xi_p E_p, p = (a, l) in ``positions``,
    of W D in W (y D N = 0, N from ``_kernel``), W the row space of y, and of
    [A^T, phi] = 0 unless phi is None, for every (y, B, phi), B the columns of a
    nonzero maximal minor y_B: d A = (y D)_B adj(y_B) gets y_a (x) adj(y_B)_b
    from E_p if l = B_b, so commutator row (i, j) holds adj(y_B)_bi z_ja -
    (phi adj(y_B)^T)_ib y_ja at p, z = phi^T y; no division."""
    acc = EchelonAccumulator(len(positions))
    for y, B, phi in subspaces:
        adj, kernel = _kernel(y, B)
        rows = [[y_i[a] * n[l] for a, l in positions] for y_i in y for n in kernel]
        if phi is not None:
            z = [[sum(map(mul, phi_j, col)) for col in zip(*y)] for phi_j in zip(*phi)]
            q = [[sum(map(mul, phi_i, adj_b)) for adj_b in adj] for phi_i in phi]
            slots = [(a, B.index(l) if l in B else None) for a, l in positions]
            rows += [[0 if b is None else adj[b][i] * z[j][a] - q[i][b] * y[j][a] for a, b in slots]
                     for i in range(len(y)) for j in range(len(y))]
        for row in rows:
            if any(row):
                acc.add(row)
    return acc.nullity


def unipotent_stabilizer_dim(
    p: ModelPoint,
    flag: FlagShape,
    ctx: CurveContext,
    cap: int = DEFAULT_INDEX_CAP,
) -> int:
    """Dimension of the first-order unipotent stabiliser of the point.

    The unipotent algebra is the strictly upper block triangle of the flag
    (blocks ordered by decreasing instability value); a direction D moves
    each y to y (1 + eps D) and stabilises the point when D T = s T for some
    scalar s, T the sum of the families A = a_1 (x) ... (x) a_N and
    B = b_1 (x) ... (x) b_N, D acting by the product rule.  With W the span
    of y's rows y_i, p the Pluecker vector and z = phi^T y, a_k = c p(W) and
    b_k = sum_i +-(wedge_{l != i} y_l) (x) z_i, whose entries det[y_K | z_x]
    are the end values.  D acts nilpotently, so s = 0, and when every a_k is
    nonzero, contracting D A = 0 in every slot but k with functionals f_j,
    f_j(a_j) = 1, leaves D a_k in the span of a_k, hence D a_k = 0; likewise
    for B.  A family with a zero factor gives no condition
    (``ModelPoint._live_families``; DegeneratePoint when neither lives).
    Per factor, with y D = A y when W D in W:

    - D p(W) = 0 iff W D in W: then p(W) moves by tr A = 0, A being D on W,
      nilpotent; else D p(W) has the nonzero part D mod W in Hom(W, k^m/W),
      the Grassmannian's tangent space (Harris 1992, Lecture 16).
    - Given W D in W, D b = 0 iff [A^T, phi] = 0: the move is the basis
      change g = 1 - eps A (``_gauged``), det g = 1, taking phi to
      phi + eps [A^T, phi], and b is injective in phi.
    - With h = D mod W, the part of D b in wedge^(r-2) W (x) k^m/W (x) W
      gives phi_.i (x) h(y_s) = +-phi_.s (x) h(y_i) for i != s, so
      rank phi >= 2 forces h = 0.  If phi = u v^T, b = p(W') (x) w for
      W' = {a y : a . v = 0} and w = u^T y, and D b = D p(W') (x) w +
      p(W') (x) w D is 0 iff both terms are (a nilpotent D keeps no line
      through w with w D != 0), i.e. iff W' and <w> are D-invariant.

    So each factor gives the rows of ``_invariance_nullity`` for W, with
    [A^T, phi] when the end family lives, but for W' and <w> when it alone
    lives and rank phi = 1; the integer form's scaling changes no kernel.
    ``cap``, an int (``linalg.integer``), bounds N r m |positions|, both
    checked before any work: each factor gives at most r(m - r) + r^2 = r m
    rows (fewer when rank phi = 1), each with one entry per strictly upper
    position, of which there are (m^2 - sum of the squared block sizes) / 2.
    The test oracle, ``oracles.unipotent_stabilizer_dim_dense_oracle``, differentiates T.
    """
    integer(cap)
    _check_shapes(p, ctx, flag)
    positions = (p.m ** 2 - sum(b * b for b in flag.block_sizes)) // 2
    entries = p.npoints * p.r * p.m * positions
    if entries > cap:
        raise CapExceeded(entries, cap)
    live = p._live_families
    if not live:
        raise DegeneratePoint("all coordinates vanish")
    subspaces = []
    for f in p.factors:
        if live == (1,):
            v = next(row for row in f.Phi if any(row))
            kernel = _kernel([v], full_row_rank([v]))[1]  # {a : a . v = 0}
            if not any(dot(row, n) for row in f.Phi for n in kernel):  # phi = u v^T
                w = next(row for row in mat_mul(transpose(f.Phi), f.Y) if any(row))
                # W' = 0 at r = 1
                subspaces += [(s, full_row_rank(s), None) for s in (mat_mul(kernel, f.Y), (w,)) if s]
                continue
        subspaces.append((f.Y, f._basis, f.Phi if 1 in live else None))
    return _invariance_nullity(subspaces, _lie_upper_positions(flag))


def nilpotent_commutant_dim(flag: FlagShape, phis) -> int:
    """Dimension of flag-lowering endomorphisms commuting with every matrix.

    Matrices here are plain endomorphisms in the column convention (the
    bundle-side convention of the block procedure, not the transposed
    presentation of ``ModelPoint``): a lowering map sends flag step i into
    step i-1 and is strictly upper block triangular.  Exact nullity of the
    commutator rows of ``_invariance_nullity`` at y = I, where A = X and
    [X^T, phi^T] = 0 is [X, phi] = 0.
    """
    mats = [mat(phi) for phi in listlike(phis, "a list of matrices")]
    r = flag.total
    for phi in mats:
        if len(phi) != r or (phi and len(phi[0]) != r):
            raise ValueError(f"matrices must be {r}x{r} for this flag")
    identity = [[int(i == j) for j in range(r)] for i in range(r)]
    return _invariance_nullity(
        [(identity, tuple(range(r)), transpose(phi)) for phi in mats], _lie_upper_positions(flag)
    )
