"""Torus weights of the Grassmannian-product embedding and instability vectors.

Weights live in the ambient coordinates of the diagonal torus (one coordinate
per section, m in total); pairings against trace-zero vectors are independent
of the trace-zero projection, so weights are stored unprojected.  The
instability vector of a type has one constant value per block, k_g/m_g - k/m,
where k_g = N(d_g - r_g * genus) and m_g = d_g + r_g(1 - genus).  The positive
Weyl chamber convention throughout is weakly decreasing coordinates.  A beta's
zero trace and its grading/trace identity are proved, not returned as values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .errors import DEFAULT_INDEX_CAP, CapExceeded, NonPositiveBlockDimension
from .hn_types import CurveContext, FlagShape, HNType
from .linalg import Vec, dot, frac, integer, listlike, objectlike


@dataclass(frozen=True)
class BetaVector:
    """Trace-zero instability vector of the type tau at a genus and point
    count, which alone fix it, so equality and hash read those three.

    Building it raises TypeError unless the genus and point count are ints
    (``linalg.integer``), then ValueError for a genus below 0 or a point
    count below 1, with ``CurveContext``'s messages, before any other check;
    then NonPositiveBlockDimension for the first block with m_g <= 0.

    Every beta lies in the chamber, its block values strictly decreasing,
    with no check: for int g >= 0 and N >= 1, m_g = r_g (mu_g + 1 - g) > 0
    and k_g = N r_g (mu_g - g) give k_g / m_g = N (1 - 1 / (mu_g + 1 - g)),
    strictly increasing in the block slope mu_g, which strictly decreases
    along a type.  Every value is read off the integer form
    (``integer_form``); the full coordinate vector is materialised lazily.
    """

    tau: HNType
    genus: int
    npoints: int
    k_blocks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    m_blocks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g, n = integer(self.genus), integer(self.npoints)
        if g < 0:
            raise ValueError("genus must be >= 0")
        if n < 1:
            raise ValueError("npoints must be >= 1")
        k_blocks, m_blocks = [], []
        for idx, (r_g, d_g) in enumerate(self.tau.blocks, start=1):
            m_g = d_g + r_g * (1 - g)
            if m_g <= 0:
                raise NonPositiveBlockDimension(idx, m_g)
            k_blocks.append(n * (d_g - r_g * g))
            m_blocks.append(m_g)
        object.__setattr__(self, "k_blocks", tuple(k_blocks))
        object.__setattr__(self, "m_blocks", tuple(m_blocks))

    @property
    def k(self) -> int:
        return sum(self.k_blocks)

    @property
    def m(self) -> int:
        return sum(self.m_blocks)

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int, int]:
        """(b, D, T) over int: the block ints b_g = D beta_g, D the lcm of the
        reduced denominators of beta_g = (k_g m - k m_g) / (m_g m), and
        T = sum_g k_g b_g = D |beta|^2, all built from ints.

        T is exact because the values have trace zero: sum_g m_g beta_g =
        sum_g k_g - (k/m) sum_g m_g = 0, so |beta|^2 = sum_g m_g beta_g^2 =
        sum_g m_g beta_g (k_g/m_g - k/m) = sum_g k_g beta_g, and D |beta|^2 =
        sum_g k_g b_g, a sum of products of ints.
        """
        k, m = self.k, self.m
        nums = [k_g * m - k * m_g for k_g, m_g in zip(self.k_blocks, self.m_blocks)]
        dens = [m_g * m for m_g in self.m_blocks]
        D = math.lcm(*(d // math.gcd(x, d) for x, d in zip(nums, dens)))
        b = tuple(x * D // d for x, d in zip(nums, dens))
        return b, D, sum(k_g * b_g for k_g, b_g in zip(self.k_blocks, b))

    @cached_property
    def block_values(self) -> tuple[Fraction, ...]:
        b, D, _ = self.integer_form
        return tuple(Fraction(b_g, D) for b_g in b)

    @cached_property
    def entries(self) -> Vec:
        out: list[Fraction] = []
        for v, size in zip(self.block_values, self.m_blocks):
            out.extend([v] * size)
        return tuple(out)

    @cached_property
    def norm_sq(self) -> Fraction:
        _, D, T = self.integer_form
        return Fraction(T, D)

    @property
    def is_zero(self) -> bool:
        return not any(self.integer_form[0])

    @cached_property
    def flag(self) -> FlagShape:
        return FlagShape(self.m_blocks)

    def to_json(self) -> dict:
        return {
            "entries": [rational_to_json(v) for v in self.entries],
            "block_values": [rational_to_json(v) for v in self.block_values],
            "k_blocks": list(self.k_blocks),
            "m_blocks": list(self.m_blocks),
            "npoints": self.npoints,
            "norm_sq": rational_to_json(self.norm_sq),
            "tau": self.tau.to_json(),
        }


def rational_to_json(x: Fraction) -> dict:
    f = frac(x)
    return {"num": f.numerator, "den": f.denominator}


def beta_of_type(tau: HNType, ctx: CurveContext) -> BetaVector:
    """Instability vector of a type: blockwise k_g/m_g - k/m, trace zero.

    Raises AmbientMismatch unless the type has the context's (rank, degree),
    and NonPositiveBlockDimension when some block has d_g + r_g(1-g) <= 0,
    i.e. when the degree is too small for this construction.
    """
    ctx.require_ambient(tau)
    return BetaVector(tau, ctx.genus, ctx.npoints)


@dataclass(frozen=True)
class CoordinateIndex:
    """Name of one projective coordinate of the product embedding.

    ``kind`` is "det" or "end"; ``subsets`` holds one strictly increasing
    r-element subset of {1..m} per evaluation point (an unsorted one is
    refused), and for the "end" kind ``ij`` holds one (i, j) pair of 1-based
    positions into the corresponding subset.
    """

    kind: str
    subsets: tuple[tuple[int, ...], ...]
    ij: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("det", "end"):
            raise ValueError("kind must be 'det' or 'end'")
        subsets = tuple(tuple(integer(x) for x in s) for s in self.subsets)
        if any(a >= b for sub in subsets for a, b in zip(sub, sub[1:])):
            raise ValueError(f"subsets must be strictly increasing, got {subsets}")
        object.__setattr__(self, "subsets", subsets)
        if self.kind == "end":
            if self.ij is None or len(self.ij) != len(subsets):
                raise ValueError("'end' indices need one (i, j) pair per point")
            object.__setattr__(
                self, "ij", tuple((integer(i), integer(j)) for i, j in self.ij)
            )
        elif self.ij is not None:
            raise ValueError("'det' indices carry no (i, j) data")

    @classmethod
    def _trusted(cls, kind: str, subsets, ij=None) -> "CoordinateIndex":
        """The index of parts already valid, int tuples in the form
        ``__post_init__`` leaves them, built with no check: step 1's witness
        and violation indices, whose keys come from ``point_model._entry_keys``."""
        idx = object.__new__(cls)
        idx.__dict__.update(kind=kind, subsets=subsets, ij=ij)
        return idx

    def to_json(self) -> dict:
        data = {"kind": self.kind, "subsets": [list(s) for s in self.subsets]}
        if self.kind == "end":
            data["ij"] = [list(p) for p in self.ij]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CoordinateIndex":
        data = objectlike(data, "a coordinate index (an object with kind and subsets)")
        subsets = listlike(data["subsets"], "a list of subsets")
        ij = data.get("ij")
        if ij is not None:
            ij = tuple(tuple(listlike(p, "an (i, j) pair")) for p in listlike(ij, "a list of (i, j) pairs"))
        return cls(data["kind"], tuple(tuple(listlike(s, "a subset (a list of indices)")) for s in subsets), ij)


def _validate_index(idx: CoordinateIndex, ctx: CurveContext) -> int:
    m = ctx.require_positive_sections()
    r, n = ctx.rank, ctx.npoints
    if len(idx.subsets) != n:
        raise ValueError(f"index carries {len(idx.subsets)} subsets, expected {n}")
    for s in idx.subsets:
        if len(s) != r or len(set(s)) != r:
            raise ValueError(f"subset {s} is not an r-element subset")
        if s[0] < 1 or s[-1] > m:
            raise ValueError(f"subset {s} out of range 1..{m}")
    if idx.kind == "end":
        for i, j in idx.ij:
            if not (1 <= i <= r and 1 <= j <= r):
                raise ValueError(f"(i, j) = ({i},{j}) out of range 1..{r}")
    return m


def alpha_of_index(idx: CoordinateIndex, ctx: CurveContext) -> Vec:
    """Ambient torus weight of a coordinate, in the trace-compatible form.

    det: sum over points of the characters outside the subset; end: the same
    plus the character at the subset's j-th position minus the one at its
    i-th position.
    """
    m = _validate_index(idx, ctx)
    w = [Fraction(0)] * m
    for point, subset in enumerate(idx.subsets):
        inside = set(subset)
        for l in range(1, m + 1):
            if l not in inside:
                w[l - 1] += 1
        if idx.kind == "end":
            i, j = idx.ij[point]
            w[subset[j - 1] - 1] += 1
            w[subset[i - 1] - 1] -= 1
    return tuple(w)


def pairing(a, b) -> Fraction:
    """Euclidean dot product on ambient coordinates."""
    av = a.entries if isinstance(a, BetaVector) else a
    bv = b.entries if isinstance(b, BetaVector) else b
    return dot(tuple(av), tuple(bv))


def norm_sq(v) -> Fraction:
    if isinstance(v, BetaVector):
        return v.norm_sq
    return dot(tuple(v), tuple(v))


@dataclass(frozen=True)
class BBWeights:
    """Weights of the grading subgroup on the Higgs-field fibre, with multiplicity."""

    weights: tuple[Fraction, ...]
    min_weight: Fraction


def bb_weights(tau: HNType, ctx: CurveContext) -> BBWeights:
    """The multiset {0} plus all pairwise ratio differences k_j/m_j - k_i/m_i.

    Sorted ascending; the minimum always equals the last ratio minus the
    first.
    """
    beta = beta_of_type(tau, ctx)
    ratios = [Fraction(k_g, m_g) for k_g, m_g in zip(beta.k_blocks, beta.m_blocks)]
    weights = [Fraction(0)]
    s = len(ratios)
    for i in range(s):
        for j in range(s):
            if i != j:
                weights.append(ratios[j] - ratios[i])
    weights.sort()
    return BBWeights(tuple(weights), weights[0])


def coordinate_index_count(ctx: CurveContext) -> int:
    """Exact number of coordinate indices: C(m,r)^N * (1 + r^(2N))."""
    m = ctx.require_positive_sections()
    r, n = ctx.rank, ctx.npoints
    base = math.comb(m, r) ** n
    return base + base * r ** (2 * n)


def enumerate_coordinate_indices(
    ctx: CurveContext, cap: int = DEFAULT_INDEX_CAP
) -> Iterator[CoordinateIndex]:
    """Yield every det and end coordinate index exactly once, det family first.

    Raises TypeError for a cap that is not an int (``linalg.integer``), then
    CapExceeded (with the exact count) if the total would exceed the cap, both
    before any work.  The stream is restartable: call again for a fresh iterator.
    """
    integer(cap)
    total = coordinate_index_count(ctx)
    if total > cap:
        raise CapExceeded(total, cap)
    m, r, n = ctx.sections_dim, ctx.rank, ctx.npoints
    subsets = list(itertools.combinations(range(1, m + 1), r))

    def gen() -> Iterator[CoordinateIndex]:
        for combo in itertools.product(subsets, repeat=n):
            yield CoordinateIndex("det", combo)
        pairs = list(itertools.product(range(1, r + 1), repeat=2))
        for combo in itertools.product(subsets, repeat=n):
            for ij in itertools.product(pairs, repeat=n):
                yield CoordinateIndex("end", combo, ij)

    return gen()


def grading_one_parameter_subgroup(beta: BetaVector) -> tuple[int, ...] | None:
    """Integer weight vector q*beta for the smallest positive rational q,
    read off beta's integer form.  None for the zero vector, which grades
    nothing.
    """
    if beta.is_zero:
        return None
    b = beta.integer_form[0]
    g = math.gcd(*b)
    return tuple(b_g // g for b_g, m_g in zip(b, beta.m_blocks) for _ in range(m_g))


def step2_trace_identity(beta: BetaVector, bound: int = 2) -> int:
    """Count the classes of the grading/trace identity over all integer
    trace-zero diagonals, on each of which it holds.

    For every integer diagonal one-parameter subgroup with entries in
    [-bound, bound] and zero trace, sum_g(-N r_g/m_g * t_g) must equal the
    pairing sum_g v_g t_g with beta, t_g its trace on block g.  Both sides
    depend only on these traces, whose tuples (the classes) are the integer
    t with sum t = 0 and |t_g| <= bound m_g.  Returns the number of classes:
    the identity holds on every class of every beta, so no verdict is returned.

    The difference of the two sides is sum_g c_g t_g, c_g = -N r_g/m_g - v_g.
    A beta is built from its type (``BetaVector``), so k_g/N = d_g - r_g
    genus gives r_g = m_g - k_g/N, and v_g = k_g/m_g - k/m; hence c_g =
    -N + k_g/m_g - k_g/m_g + k/m = -N + k/m, one constant c on every block,
    and sum_g c_g t_g = c sum_g t_g = 0 on every class.  With u = t + bound m,
    the classes are the u with 0 <= u_g <= 2 bound m_g summing to A = bound
    sum m_g, counted by inclusion-exclusion as sum_S (-1)^|S| C(A - w_S + s - 1, s - 1)
    over the block sets S with w_S = sum_{g in S}(2 bound m_g + 1) <= A, in
    O(2^s).  A bound that is not an int raises TypeError, a negative one
    ValueError.
    """
    if integer(bound) < 0:
        raise ValueError(f"the trace bound must be >= 0, got {bound}")
    m_blocks = beta.m_blocks
    s, total = len(m_blocks), bound * sum(m_blocks)
    checked = 0
    for size in range(s + 1):
        for widths in itertools.combinations([2 * bound * m_g + 1 for m_g in m_blocks], size):
            if sum(widths) <= total:
                checked += (-1) ** size * math.comb(total - sum(widths) + s - 1, s - 1)
    return checked
