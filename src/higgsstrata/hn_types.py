"""Harder-Narasimhan type combinatorics.

A type is an ordered list of (rank, degree) blocks with strictly decreasing
slopes; the single-block type is the semistable one.  This module enumerates
types, orders them by their convex polygons, bounds the finitely many types
compatible with a given Higgs (or plain) type, encodes the rank-3
compatibility table, and runs the block procedure that locates the first
filtration-violating component of a Higgs-field matrix.

All slope arithmetic is exact rational; equality cases are meaningful and no
floating point appears anywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .errors import DEFAULT_INDEX_CAP, AmbientMismatch, CapExceeded
from .linalg import Mat, frac, integer, listlike, mat, objectlike


class PolygonOrder(Enum):
    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class CurveContext:
    """Ambient discrete data: rank, degree, genus, twisting degree, evaluation points.

    The derived section count m = d + r(1 - g) must be positive whenever the
    context is used to build weight-lattice data; that check is performed at
    the entry points that need it, not here.
    """

    rank: int
    degree: int
    genus: int = 0
    deg_line: int = 0
    npoints: int = 1

    def __post_init__(self):
        for name in ("rank", "degree", "genus", "deg_line", "npoints"):
            object.__setattr__(self, name, integer(getattr(self, name)))
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.genus < 0:
            raise ValueError("genus must be >= 0")
        if self.deg_line < 0:
            raise ValueError("deg_line must be >= 0")
        if self.npoints < 1:
            raise ValueError("npoints must be >= 1")

    @property
    def sections_dim(self) -> int:
        """m = d + r(1 - g)."""
        return self.degree + self.rank * (1 - self.genus)

    def require_positive_sections(self) -> int:
        m = self.sections_dim
        if m <= 0:
            raise ValueError(
                f"section count m = {m} <= 0; degree too small for this genus"
            )
        return m

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)

    def require_ambient(self, tau: "HNType") -> None:
        """Raise AmbientMismatch unless the type has this context's (rank, degree)."""
        if (tau.rank, tau.degree) != (self.rank, self.degree):
            raise AmbientMismatch("type does not match the context's (rank, degree)")


def _block(b) -> tuple[int, int]:
    """A [rank, degree] block of exactly two int entries, as a tuple."""
    if len(b := tuple(listlike(b, "a [rank, degree] block"))) != 2:
        raise ValueError(f"expected a [rank, degree] block, got {list(b)!r:.40}")
    return integer(b[0]), integer(b[1])


@dataclass(frozen=True)
class HNType:
    """Ordered (rank, degree) blocks with strictly decreasing slopes."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        blocks = tuple(map(_block, listlike(self.blocks, "a type (a list of [rank, degree] blocks)")))
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("a type needs at least one block")
        for r, _ in blocks:
            if r < 1:
                raise ValueError("block ranks must be >= 1")
        for (r1, d1), (r2, d2) in zip(blocks, blocks[1:]):
            # d1/r1 > d2/r2 by integer cross-multiplication
            if d1 * r2 <= d2 * r1:
                raise ValueError("slopes must strictly decrease")

    @property
    def length(self) -> int:
        return len(self.blocks)

    @property
    def rank(self) -> int:
        return sum(r for r, _ in self.blocks)

    @property
    def degree(self) -> int:
        return sum(d for _, d in self.blocks)

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(d, r) for r, d in self.blocks)

    @property
    def top_slope(self) -> Fraction:
        r, d = self.blocks[0]
        return Fraction(d, r)

    @property
    def is_semistable(self) -> bool:
        return len(self.blocks) == 1

    @property
    def composition(self) -> tuple[int, ...]:
        """The rank pattern (r_1, ..., r_s)."""
        return tuple(r for r, _ in self.blocks)

    @cached_property
    def slope_vector(self) -> tuple[Fraction, ...]:
        """Length-rank vector with each slope repeated by its block rank."""
        out = []
        for r, d in self.blocks:
            out.extend([Fraction(d, r)] * r)
        return tuple(out)

    @cached_property
    def polygon_vertices(self) -> tuple[tuple[int, int], ...]:
        verts = [(0, 0)]
        r_acc = d_acc = 0
        for r, d in self.blocks:
            r_acc += r
            d_acc += d
            verts.append((r_acc, d_acc))
        return tuple(verts)

    def polygon_at(self, x: int) -> Fraction:
        """Height of the concave polygon at an int abscissa 0 <= x <= rank (``linalg.integer``)."""
        if integer(x) < 0 or x > self.rank:
            raise ValueError("abscissa outside [0, rank]")
        return self.polygon_heights[x]

    @cached_property
    def polygon_heights(self) -> tuple[Fraction, ...]:
        """Heights at 0..rank: the polygon is linear on each block, of slope
        d_g/r_g, so they are the partial sums of the slope vector."""
        return tuple(accumulate(self.slope_vector, initial=Fraction(0)))

    @classmethod
    def semistable(cls, rank: int, degree: int) -> "HNType":
        return cls(((rank, degree),))

    def to_json(self) -> dict:
        return {"rank_degree_pairs": [[r, d] for r, d in self.blocks]}

    @classmethod
    def from_json(cls, data: dict) -> "HNType":
        return cls(objectlike(data, "a type (an object with rank_degree_pairs)")["rank_degree_pairs"])

    def __repr__(self) -> str:
        body = ",".join(f"({r},{d})" for r, d in self.blocks)
        return f"HNType[{body}]"


@dataclass(frozen=True)
class FlagShape:
    """Block sizes of a full flag of subspaces, in filtration order."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(integer(b) for b in self.block_sizes)
        object.__setattr__(self, "block_sizes", sizes)
        if not sizes or any(b < 1 for b in sizes):
            raise ValueError("flag blocks must all have size >= 1")

    @property
    def length(self) -> int:
        return len(self.block_sizes)

    @property
    def total(self) -> int:
        return sum(self.block_sizes)

    @cached_property
    def cuts(self) -> tuple[int, ...]:
        """Cumulative dimensions B_1 < B_2 < ... < B_s."""
        return tuple(accumulate(self.block_sizes))

    def block_of(self, position: int) -> int:
        """1-based block index of a 1-based position (block 1 for any <= 0)."""
        gamma = bisect_right(self.cuts, position - 1)
        if gamma == self.length:
            raise ValueError(f"position {position} outside flag of total {self.total}")
        return gamma + 1


def _check_ambient(a: HNType, b: HNType) -> None:
    if (a.rank, a.degree) != (b.rank, b.degree):
        raise AmbientMismatch(
            f"ambient mismatch: ({a.rank},{a.degree}) vs ({b.rank},{b.degree})"
        )


def enumerate_hn_types(
    ctx: CurveContext,
    max_first_slope,
    *,
    min_slope_exclusive=None,
) -> list[HNType]:
    """All types with the ambient (rank, degree) and first slope <= the bound.

    Results are sorted lexicographically by the length-rank slope vector.  The
    single-block type is included whenever its slope meets the bound; an empty
    bound region yields an empty list.  ``min_slope_exclusive`` optionally
    restricts every block slope to lie strictly above the given rational,
    which prunes enumeration when only blocks with positive section counts are
    wanted.  Raises CapExceeded once more than DEFAULT_INDEX_CAP types have
    been collected, since a huge bound admits that many.
    """
    r_total, d_total = ctx.rank, ctx.degree
    bound = frac(max_first_slope)
    floor_excl = None if min_slope_exclusive is None else frac(min_slope_exclusive)
    out: list[HNType] = []

    def rec(rem_r: int, rem_d: int, prev: Fraction | None, blocks: list[tuple[int, int]]):
        if rem_r == 0:
            if rem_d == 0:
                out.append(HNType(tuple(blocks)))
                if len(out) > DEFAULT_INDEX_CAP:
                    raise CapExceeded(len(out), DEFAULT_INDEX_CAP)
            return
        avg = Fraction(rem_d, rem_r)
        for r1 in range(1, rem_r + 1):
            # ceiling of avg * r1 (smallest d1 with slope >= remaining average)
            lo_num = rem_d * r1
            lo = -((-lo_num) // rem_r)
            hi_frac = bound * r1 if prev is None else prev * r1
            hi = hi_frac.numerator // hi_frac.denominator
            if prev is not None and hi == hi_frac:
                hi -= 1  # strict decrease against the previous slope
            if r1 == rem_r:
                hi = min(hi, rem_d)  # a final block must absorb the rest exactly
            for d1 in range(lo, hi + 1):
                if floor_excl is not None and r1 < rem_r and rem_d - d1 <= floor_excl * (rem_r - r1):
                    break  # later blocks cannot all stay above the floor
                slope = Fraction(d1, r1)
                if slope == avg and r1 != rem_r:
                    continue  # later blocks could not stay below the average
                if floor_excl is not None and slope <= floor_excl:
                    continue
                blocks.append((r1, d1))
                rec(rem_r - r1, rem_d - d1, slope, blocks)
                blocks.pop()

    rec(r_total, d_total, None, [])
    # the slope vector times L = lcm(1..rank), an int vector in the same lex order
    L = math.lcm(*range(1, r_total + 1))
    out.sort(key=lambda t: [x for r, d in t.blocks for x in [d * (L // r)] * r])
    return out


def compare_polygon(a: HNType, b: HNType) -> PolygonOrder:
    """Pointwise comparison of the concave polygons at integer abscissae.

    GREATER means a's polygon lies above b's everywhere and strictly above
    somewhere; the semistable polygon is the unique minimum.
    """
    _check_ambient(a, b)
    ha, hb = a.polygon_heights, b.polygon_heights
    ge = all(x >= y for x, y in zip(ha, hb))
    le = all(x <= y for x, y in zip(ha, hb))
    if ge and le:
        return PolygonOrder.EQUAL
    if ge:
        return PolygonOrder.GREATER
    if le:
        return PolygonOrder.LESS
    return PolygonOrder.INCOMPARABLE


def pair_weight(mu: HNType, i: int, j: int) -> Fraction:
    """slope_j - slope_i, the ordering key for index pairs of a type."""
    s = mu.length
    if not (1 <= i < j <= s):
        raise ValueError(f"pair ({i},{j}) out of range for a length-{s} type")
    slopes = mu.slopes
    return slopes[j - 1] - slopes[i - 1]


def higgs_index_order(p: tuple[int, int], q: tuple[int, int], mu: HNType) -> PolygonOrder:
    """Compare two index pairs by slope_j - slope_i; ties report Equal."""
    wp = pair_weight(mu, *p)
    wq = pair_weight(mu, *q)
    if wp < wq:
        return PolygonOrder.LESS
    if wp > wq:
        return PolygonOrder.GREATER
    return PolygonOrder.EQUAL


def nsequation_bound(ctx: CurveContext) -> Fraction:
    """First-slope bound for underlying types of a semistable pair:
    d/r + ((r-1)^2/r) * degL."""
    r = ctx.rank
    return ctx.slope + Fraction((r - 1) ** 2, r) * ctx.deg_line


def general_first_slope_bound(mu: HNType, ctx: CurveContext) -> Fraction:
    """First-slope bound for underlying types of an unstable pair of type mu.

    Uses the ambient rank in the quadratic factor, which dominates the
    per-block factor for every block and therefore always yields a valid
    finite superset.
    """
    r = ctx.rank
    return mu.top_slope + (Fraction((r - 1) ** 2, r) + 1) * ctx.deg_line


def first_slope_bound(mu: HNType, ctx: CurveContext) -> Fraction:
    """First-slope bound for underlying types of a pair of Higgs type mu: the
    average-slope bound if mu is semistable, the general bound otherwise."""
    if mu.is_semistable:
        return nsequation_bound(ctx)
    return general_first_slope_bound(mu, ctx)


def t_mu_candidates(mu: HNType, ctx: CurveContext) -> list[HNType]:
    """Finite superset of underlying types compatible with the Higgs type mu.

    These are necessary-condition candidates, not certified realizable types.
    The bound is the sharper average-slope one for the semistable mu and the
    general one otherwise.
    """
    ctx.require_ambient(mu)
    return enumerate_hn_types(ctx, first_slope_bound(mu, ctx))


class Rank3Kind(Enum):
    FORBIDDEN = "Forbidden"
    FORCED_EQUAL = "ForcedEqual"
    ALLOWED = "AllowedWithConstraint"


@dataclass(frozen=True)
class Rank3Verdict:
    kind: Rank3Kind
    constraint: str | None = None


_RANK3_TABLE: dict[tuple[tuple[int, ...], tuple[int, ...]], Rank3Verdict] = {
    ((1, 1, 1), (1, 1, 1)): Rank3Verdict(Rank3Kind.FORCED_EQUAL),
    ((1, 1, 1), (2, 1)): Rank3Verdict(Rank3Kind.ALLOWED, "E^1 contains E'^1"),
    ((1, 1, 1), (1, 2)): Rank3Verdict(Rank3Kind.ALLOWED, "E^1 inside E'^2"),
    ((1, 1, 1), (3,)): Rank3Verdict(Rank3Kind.ALLOWED),
    ((2, 1), (1, 1, 1)): Rank3Verdict(Rank3Kind.FORBIDDEN),
    ((2, 1), (2, 1)): Rank3Verdict(Rank3Kind.FORCED_EQUAL),
    ((2, 1), (1, 2)): Rank3Verdict(Rank3Kind.ALLOWED, "E^1 inside E'^1"),
    ((2, 1), (3,)): Rank3Verdict(Rank3Kind.ALLOWED),
    ((1, 2), (1, 1, 1)): Rank3Verdict(Rank3Kind.FORBIDDEN),
    ((1, 2), (2, 1)): Rank3Verdict(Rank3Kind.FORBIDDEN),
    ((1, 2), (1, 2)): Rank3Verdict(Rank3Kind.FORCED_EQUAL),
    ((1, 2), (3,)): Rank3Verdict(Rank3Kind.ALLOWED),
    ((3,), (3,)): Rank3Verdict(Rank3Kind.FORCED_EQUAL),
    ((3,), (1, 1, 1)): Rank3Verdict(Rank3Kind.FORBIDDEN),
    ((3,), (2, 1)): Rank3Verdict(Rank3Kind.FORBIDDEN),
    ((3,), (1, 2)): Rank3Verdict(Rank3Kind.FORBIDDEN),
}


def classify_rank3(tau_composition, mu_composition) -> Rank3Verdict:
    """Compatibility verdict for a (underlying-type, Higgs-type) rank pattern pair.

    Both arguments are compositions of 3 (rank patterns).  The semistable
    pattern (3,) pairs only with itself.
    """
    tau_c = tuple(integer(x) for x in tau_composition)
    mu_c = tuple(integer(x) for x in mu_composition)
    for name, comp in (("first", tau_c), ("second", mu_c)):
        if sum(comp) != 3 or any(x < 1 for x in comp):
            raise ValueError(f"{name} argument is not a composition of 3: {comp}")
    return _RANK3_TABLE[(tau_c, mu_c)]


@dataclass(frozen=True)
class CandidateSet:
    """Candidate Higgs types for a fixed underlying type.

    ``sharp`` records whether the listed types are exactly the realizable
    ones (proven for ambient rank <= 3 and for twisting degree 0); otherwise
    they are necessary conditions only.
    """

    types: tuple[HNType, ...]
    sharp: bool

    def __iter__(self):
        return iter(self.types)

    def __len__(self):
        return len(self.types)

    def __contains__(self, item):
        return item in self.types


def u_tau_candidates(tau: HNType, ctx: CurveContext) -> CandidateSet:
    """Candidate Higgs types for pairs whose underlying type is tau.

    The slope condition (Higgs top slope <= underlying top slope) is always
    applied, then the proven sharp rules: degree-0 twisting forces equality of
    the two types; rank 2 leaves only the semistable type and tau itself, the
    former dropped when the destabilising degree exceeds (d + degL)/2; rank 3
    filters by the compatibility table.  Every candidate must also admit tau
    among its own underlying-type candidates, which removes semistable (and
    other) candidates whose reverse bound is violated.
    """
    ctx.require_ambient(tau)
    return _u_tau(tau, ctx, lambda: enumerate_hn_types(ctx, tau.top_slope))


def _u_tau(tau: HNType, ctx: CurveContext, types) -> CandidateSet:
    """``u_tau_candidates`` read off ``types()``, the sorted enumeration at any
    bound >= tau's top slope, called only past the degree-0 and rank-2 rules.

    Sorted by slope vector, the list is sorted by top slope: the types of top
    slope <= tau's are its prefix up to ``bisect_right``, headed by the
    semistable type, the only one of top slope d/r, the least.  Past the head,
    ``first_slope_bound(mu, ctx)`` is mu's top slope plus a constant and rises
    along the list, so the mu whose bound admits tau are a suffix of the
    prefix, from ``bisect_left`` on that key; the head is tested on its own.
    The rank-3 table, a filter too, comes last."""
    r, d, deg_line = ctx.rank, ctx.degree, ctx.deg_line
    if deg_line == 0 or r == 2 and (tau.is_semistable or 2 * tau.blocks[0][1] > d + deg_line):
        return CandidateSet((tau,), sharp=True)
    if r == 2:
        return CandidateSet((HNType.semistable(r, d), tau), sharp=True)
    types, top = types(), tau.top_slope
    end = bisect_right(types, top, key=lambda mu: mu.top_slope)
    start = bisect_left(types, top, 1, end, key=lambda mu: first_slope_bound(mu, ctx))
    head = types[:1] if top <= first_slope_bound(types[0], ctx) else []
    cands = head + types[start:end]
    if r == 3:  # FORCED_EQUAL, the table's diagonal verdict, keeps mu = tau alone
        cands = [mu for mu in cands
                 if mu == tau or classify_rank3(tau.composition, mu.composition).kind is Rank3Kind.ALLOWED]
    return CandidateSet(tuple(cands), sharp=r <= 3)


@dataclass(frozen=True)
class PhiBlock:
    """Status of one induced block of a Higgs-field matrix.

    ``defined`` follows the inductive well-definedness bookkeeping; when
    defined, ``entries`` holds the submatrix with rows in the target block and
    columns in the source block.
    """

    defined: bool
    entries: Mat | None = None

    @property
    def is_zero(self) -> bool:
        return self.defined and all(not x for row in self.entries for x in row)


def _submatrix(phi: Mat, flag: FlagShape, i: int, j: int) -> Mat:
    """Block with rows in flag block j and columns in flag block i (1-based)."""
    cuts = (0,) + flag.cuts
    return tuple(
        tuple(phi[a][b] for b in range(cuts[i - 1], cuts[i]))
        for a in range(cuts[j - 1], cuts[j])
    )


def compute_phi_blocks(flag: FlagShape, phi) -> dict[tuple[int, int], PhiBlock]:
    """Induced blocks of a square matrix against a flag, with well-definedness.

    The block (i, j) maps the i-th graded piece to the j-th and is defined
    only when the blocks (i-1, j) and (i, j+1) are (inductively) defined and
    zero; the extreme block (1, s) is always defined.  Returned for all pairs
    i < j.
    """
    phi_m = mat(phi)
    n = flag.total
    if len(phi_m) != n or (phi_m and len(phi_m[0]) != n):
        raise ValueError(f"matrix must be {n}x{n} for this flag")
    s = flag.length
    status: dict[tuple[int, int], PhiBlock] = {}
    for i in range(1, s + 1):
        for j in range(s, i, -1):
            left_ok = i == 1 or status[(i - 1, j)].is_zero
            up_ok = j == s or status[(i, j + 1)].is_zero
            if left_ok and up_ok:
                status[(i, j)] = PhiBlock(True, _submatrix(phi_m, flag, i, j))
            else:
                status[(i, j)] = PhiBlock(False)
    return status


def higgs_stratum_index(flag: FlagShape, phi, mu: HNType | None = None) -> tuple[int, int] | None:
    """Stratum pair of a Higgs-field matrix against a flag, or None if invariant.

    A pair (i, j) qualifies when its block (see ``compute_phi_blocks``) is
    defined and nonzero; by induction, defined means every block (i', j')
    with i' <= i, j' >= j other than (i, j) itself vanishes.  When several
    pairs qualify, the pair minimising the slope-difference weight is returned
    if ``mu`` is supplied, else the first in the (i ascending, j descending)
    scan order; None means the matrix preserves the flag.
    """
    found = [
        pair for pair, block in compute_phi_blocks(flag, phi).items()
        if block.defined and not block.is_zero
    ]
    if not found:
        return None
    if mu is not None:
        return min(found, key=lambda p: (pair_weight(mu, *p), p))
    return found[0]
