"""Shared builders for flag-adapted test corpora.

Points are generated in standard flag position: y is block upper triangular
over (image blocks) x (section blocks) with full-row-rank diagonal blocks,
and the stored Higgs matrix is block lower triangular (diagonal plus strictly
lower blocks), which presents a filtration-preserving Higgs field.  Graded
points keep only the diagonal blocks on both sides.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction

from higgsstrata import (
    CurveContext,
    Factor,
    HiggsDatum,
    HNType,
    ModelPoint,
    alpha_of_index,
    beta_of_type,
    enumerate_coordinate_indices,
    from_higgs_data,
)
from higgsstrata.linalg import rank


def count_calls(run, *functions) -> list[int]:
    """How often each of the plain Python ``functions`` is entered while
    ``run()`` runs.  Calls are matched on the code object through
    ``sys.setprofile``, so calls through another name or a default argument
    count too."""
    codes = [f.__code__ for f in functions]
    counts = [0] * len(codes)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes.index(frame.f_code)] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


# (r, d, npoints) of a full genus-0 weight lattice and whether the index set
# is restricted to the chamber -> the length of index_set_B's answer and the
# sha256 of the JSON of [[str(x) for x in v] for v in it]; the (2,2,1) and
# (2,1,2) entries were recorded from the one-solve-per-subset route, the
# (2,3,1) and (2,2,2) entries from the walk over every affinely independent
# subset, before it left the full-dimensional level to one Wolfe call
INDEX_SET_LATTICE_GOLDEN = {
    ((2, 2, 1), True): (7, "a51233729ef88bd4cfcdece3212336caabb965802c9f4e8061603eea735163b0"),
    ((2, 2, 1), False): (43, "0622148602e7379474eb43a08a8accdadceac579fd59f5fb4f859e4535274d2c"),
    ((2, 1, 2), True): (13, "4575e5bccfb029c8682c0e58cffcbef2131ad700ae6a6df1200b153f64c243a1"),
    ((2, 1, 2), False): (58, "afbc96331f2f2ac47bddc8da2944225e10fc6e761ed4f7ee295730c1c3243af4"),
    ((2, 3, 1), True): (12, "0375b60fc066bb9d6e09f0dbb1d21a78bb18274d4c4615da959aa30d3aa643a6"),
    ((2, 3, 1), False): (206, "a1d6671c3058efa3685af4a89c1ee950afadb45ded076ee94f253dfbb84a3599"),
    ((2, 2, 2), True): (70, "caed647f5c36b5606741134aaff96dc43510efc78b525f1990dedcd2e0716041"),
    ((2, 2, 2), False): (1289, "1fa14a97448742f6922716b76a116d9780a257727340c9e07b68af208fa08f4e"),
}


def genus0_lattice_weights(r: int, d: int, npoints: int) -> list:
    """The distinct weights of every coordinate of the genus-0 context, sorted."""
    ctx = CurveContext(r, d, genus=0, npoints=npoints)
    return sorted({alpha_of_index(idx, ctx) for idx in enumerate_coordinate_indices(ctx)})


def rank_prefixes(tau: HNType) -> list[int]:
    out, acc = [], 0
    for r_g, _ in tau.blocks:
        acc += r_g
        out.append(acc)
    return out


def model_supported(tau: HNType, ctx: CurveContext) -> bool:
    """Whether every block has at least as many sections as its rank.

    The standard-position evaluation map of a block is surjective, which
    needs m_g >= r_g; bundle data at sufficiently large degree always
    satisfies this.
    """
    g = ctx.genus
    return all(d_g + r_g * (1 - g) >= r_g for r_g, d_g in tau.blocks)


def _all_maximal_minors_nonzero(block, rows: int) -> bool:
    cols = len(block[0]) if block else 0
    from higgsstrata.linalg import det

    for subset in itertools.combinations(range(cols), rows):
        sub = tuple(tuple(row[c] for c in subset) for row in block)
        if not det(sub):
            return False
    return True


def random_block(rng: random.Random, rows: int, cols: int, general_position: bool = False):
    """Random full-row-rank rows x cols block over small integers."""
    assert rows <= cols
    while True:
        block = tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(cols))
            for _ in range(rows)
        )
        if rank(block) != rows:
            continue
        if general_position and not _all_maximal_minors_nonzero(block, rows):
            continue
        return block


def build_flagged_factor(
    tau: HNType,
    ctx: CurveContext,
    rng: random.Random,
    graded: bool = False,
    general_position: bool = False,
    off_diagonal_y: bool = True,
):
    """One factor of a flag-adapted point of the given type."""
    beta = beta_of_type(tau, ctx)
    m_blocks = beta.m_blocks
    r_blocks = tau.composition
    r, m = ctx.rank, beta.m
    y = [[Fraction(0)] * m for _ in range(r)]
    row0 = 0
    col0 = 0
    blocks = []
    for r_g, m_g in zip(r_blocks, m_blocks):
        blocks.append((row0, col0, r_g, m_g))
        row0 += r_g
        col0 += m_g
    for bi, (row0, col0, r_g, m_g) in enumerate(blocks):
        diag = random_block(rng, r_g, m_g, general_position)
        for a in range(r_g):
            for b in range(m_g):
                y[row0 + a][col0 + b] = diag[a][b]
        if off_diagonal_y and not graded:
            # strictly upper y-blocks keep the image flag dimensions
            for bj in range(bi + 1, len(blocks)):
                r2, c2, _, m2 = blocks[bj]
                for a in range(r_g):
                    for b in range(m2):
                        y[row0 + a][c2 + b] = Fraction(rng.randint(-2, 2))
    phi = [[Fraction(0)] * r for _ in range(r)]
    for bi, (row0, _, r_g, _) in enumerate(blocks):
        for a in range(r_g):
            for b in range(r_g):
                phi[row0 + a][row0 + b] = Fraction(rng.randint(-2, 2))
        if not graded:
            for bj in range(bi + 1, len(blocks)):
                r2 = blocks[bj][0]
                r2_size = blocks[bj][2]
                # stored strictly lower blocks: rows in the later image block
                for a in range(r2_size):
                    for b in range(r_g):
                        phi[r2 + a][row0 + b] = Fraction(rng.randint(-2, 2))
    return Factor(tuple(tuple(row) for row in y), Fraction(1), tuple(tuple(row) for row in phi))


def build_flagged_point(
    tau: HNType,
    ctx: CurveContext,
    rng: random.Random,
    graded: bool = False,
    general_position: bool = False,
    off_diagonal_y: bool = True,
) -> ModelPoint:
    factors = tuple(
        build_flagged_factor(tau, ctx, rng, graded, general_position, off_diagonal_y)
        for _ in range(ctx.npoints)
    )
    return from_higgs_data(HiggsDatum(tau, ctx, factors))


def fresh_factors(factors) -> tuple[Factor, ...]:
    """The factors rebuilt from their entries, with none of the forms a
    ``Factor`` caches (pivot columns, tables, adapted form) worked out yet,
    for a test that counts that work."""
    return tuple(Factor(f.y, f.c, f.phi) for f in factors)


def mutate_break_flag(point: ModelPoint, tau: HNType, ctx: CurveContext) -> ModelPoint:
    """Break flag invariance detectably: one stored-upper Higgs entry per factor.

    Every factor is mutated; a component visible at only some evaluation
    points can be annihilated in the product coordinates by a vanishing
    Higgs matrix elsewhere, which would model a different point entirely.
    """
    prefixes = [0] + rank_prefixes(tau)
    a, b = 0, prefixes[1]
    broken = []
    for f in point.factors:
        phi = [list(row) for row in f.phi]
        phi[a][b] = phi[a][b] + 1
        broken.append(Factor(f.y, f.c, tuple(tuple(row) for row in phi)))
    return ModelPoint(tuple(broken))


