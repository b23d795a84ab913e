"""Acceptance criteria, one test per criterion with a printed pass/fail line.

Every check is exact (zero tolerance) and runs at desk scale within the stated
time budget.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from conftest import build_flagged_point, model_supported, mutate_break_flag
from higgsstrata import (
    CurveContext,
    Factor,
    FlagShape,
    HNType,
    Membership,
    ModelPoint,
    NotInY,
    assemble,
    beta_of_type,
    bb_weights,
    classify_rank3,
    compat_cross_table,
    enumerate_hn_types,
    enumerate_coordinate_indices,
    index_set_B,
    membership,
    min_norm_point,
    min_norm_point_by_faces,
    nilpotent_commutant_dim,
    nilpotent_commutant_dim_dense_oracle,
    retract_p_beta,
    step2_trace_identity,
    u_tau_candidates,
    verify_step1,
    verify_step2,
)
from higgsstrata.hn_types import Rank3Kind
from higgsstrata.minnorm import PointCloud
from higgsstrata.oracles import compat_pairs
from higgsstrata.weight_lattice import alpha_of_index, pairing


def _report(number: int, name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"acceptance {number:2d} {name}: {status} in {elapsed:.2f}s (budget {budget:.0f}s){extra}")
    assert ok, f"criterion {number} ({name}) failed{extra}"
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.2f}s"


def test_ac01_beta_well_formedness():
    start = time.monotonic()
    checked = 0
    ok = True
    for r in (1, 2, 3, 4):
        for g in (0, 2, 3):
            for d in range(r * (2 * g - 1) + 1, 31):
                ctx1 = CurveContext(r, d, genus=g, npoints=1)
                taus = enumerate_hn_types(ctx1, d + r, min_slope_exclusive=g - 1)
                for n in (1, 2):
                    ctx = CurveContext(r, d, genus=g, npoints=n)
                    for tau in taus:
                        beta = beta_of_type(tau, ctx)
                        vals = beta.block_values
                        ok = ok and sum(beta.entries) == 0
                        ok = ok and all(a > b for a, b in zip(vals, vals[1:]))
                        got = bb_weights(tau, ctx)
                        want = F(beta.k_blocks[-1], beta.m_blocks[-1]) - F(
                            beta.k_blocks[0], beta.m_blocks[0]
                        )
                        ok = ok and got.min_weight == want
                        checked += 1
                        if not ok:
                            break
    _report(1, "beta well-formedness", ok, time.monotonic() - start, 10.0,
            f"{checked} (type, context) pairs")


def test_ac02_min_norm_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        dim = rng.randint(1, 4)
        npts = rng.randint(1, 7)
        pts = [
            [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
            for _ in range(npts)
        ]
        cloud = PointCloud.from_points(pts)
        if min_norm_point(cloud) != min_norm_point_by_faces(cloud):
            ok = False
            break
    _report(2, "min-norm oracle equivalence", ok, time.monotonic() - start, 30.0,
            "200 random clouds, exact equality")


def _step1_corpus():
    """Deterministic corpus of flag-adapted points, r in {2,3}, m <= 8, N <= 2."""
    rng = random.Random(77)
    combos = [
        (2, 0, d, n) for d in range(1, 7) for n in (1, 2)
    ] + [
        (3, 0, d, n) for d in range(1, 6) for n in (1, 2)
    ] + [
        (2, 2, d, 1) for d in range(7, 11)
    ] + [
        (3, 2, d, 1) for d in (10, 11)
    ]
    corpus = []
    for r, g, d, n in combos:
        ctx = CurveContext(r, d, genus=g, npoints=n)
        if ctx.sections_dim > 8 or ctx.sections_dim < r:
            continue
        taus = [
            t
            for t in enumerate_hn_types(ctx, d + r, min_slope_exclusive=g - 1)
            if not t.is_semistable and model_supported(t, ctx)
        ]
        for tau in taus[:3]:
            for _ in range(2):
                corpus.append((tau, ctx, build_flagged_point(tau, ctx, rng)))
    return corpus


def test_ac03_step1_reproduction_and_mutation_detection():
    start = time.monotonic()
    corpus = _step1_corpus()
    assert len(corpus) >= 100, f"corpus too small: {len(corpus)}"
    passed = 0
    detected = 0
    for tau, ctx, point in corpus:
        beta = beta_of_type(tau, ctx)
        report = verify_step1(point, beta, ctx)
        if report.passed:
            passed += 1
        broken = mutate_break_flag(point, tau, ctx)
        broken_report = verify_step1(broken, beta, ctx)
        if not broken_report.passed and broken_report.violations:
            idx, weight = broken_report.violations[0]
            # the named index is a concrete violation
            if weight < beta.norm_sq:
                detected += 1
    ok = passed == len(corpus) and detected == len(corpus)
    _report(3, "step-1 reproduction", ok, time.monotonic() - start, 120.0,
            f"{passed}/{len(corpus)} pass, {detected}/{len(corpus)} mutations detected")


def test_ac04_step2_trace_identity():
    start = time.monotonic()
    ok = True
    types_checked = 0
    rng = random.Random(4)
    for r in (1, 2, 3):
        for g in (0, 2):
            for m in range(2, 8):
                d = m - r * (1 - g)
                ctx = CurveContext(r, d, genus=g, npoints=1)
                if ctx.sections_dim != m:
                    continue
                for tau in enumerate_hn_types(ctx, d + r, min_slope_exclusive=g - 1):
                    beta = beta_of_type(tau, ctx)
                    # the count against a walk of every class (zero-sum block
                    # traces |t_g| <= 3 m_g), each tested by two Fraction sums
                    held = 0
                    for head in itertools.product(*(range(-3 * m_g, 3 * m_g + 1) for m_g in beta.m_blocks[:-1])):
                        traces = (*head, -sum(head))
                        if abs(traces[-1]) <= 3 * beta.m_blocks[-1]:
                            lhs = sum(-F(beta.npoints * r_g, m_g) * t
                                      for r_g, m_g, t in zip(tau.composition, beta.m_blocks, traces))
                            held += lhs == sum(v * t for v, t in zip(beta.block_values, traces))
                    ok = ok and step2_trace_identity(beta, 3) == held > 0
                    types_checked += 1
                    # spot-check explicit diagonals against the blockwise form
                    for _ in range(3):
                        lam = [rng.randint(-3, 3) for _ in range(m - 1)]
                        last = -sum(lam)
                        if not -3 <= last <= 3:
                            continue
                        lam.append(last)
                        cuts = [0]
                        for size in beta.m_blocks:
                            cuts.append(cuts[-1] + size)
                        traces = [
                            sum(lam[cuts[i]:cuts[i + 1]])
                            for i in range(len(beta.m_blocks))
                        ]
                        lhs = sum(
                            -F(beta.npoints * r_g, m_g) * t
                            for r_g, m_g, t in zip(
                                tau.composition, beta.m_blocks, traces
                            )
                        )
                        ok = ok and lhs == pairing(beta, tuple(F(x) for x in lam))
    _report(4, "step-2 trace identity", ok, time.monotonic() - start, 30.0,
            f"{types_checked} types, bound 3, exact")


def test_ac05_rank2_classification():
    start = time.monotonic()
    ok = True
    checked = 0
    for d in range(1, 21):
        for deg_line in (0, 1, 2):
            ctx = CurveContext(2, d, genus=0, deg_line=deg_line)
            mu0 = HNType.semistable(2, d)
            d1_min = d // 2 + 1
            for d1 in range(d1_min, d + 11):
                tau = HNType(((1, d1), (1, d - d1)))
                got = set(u_tau_candidates(tau, ctx))
                want = {tau}
                if not F(d1) > F(d + deg_line, 2):
                    want.add(mu0)
                ok = ok and got == want
                checked += 1
            # the semistable underlying type admits only the semistable pair
            ok = ok and set(u_tau_candidates(HNType.semistable(2, d), ctx)) == {mu0}
    _report(5, "rank-2 classification", ok, time.monotonic() - start, 5.0,
            f"{checked} types, exhaustive")


def test_ac06_degl_zero_forces_equality():
    start = time.monotonic()
    ok = True
    checked = 0
    for r in (1, 2, 3, 4):
        for d in range(1, 21):
            ctx = CurveContext(r, d, genus=0, deg_line=0)
            for tau in enumerate_hn_types(ctx, d):
                got = u_tau_candidates(tau, ctx)
                ok = ok and list(got) == [tau]
                ok = ok and got.sharp
                checked += 1
    _report(6, "degree-0 twisting equality", ok, time.monotonic() - start, 5.0,
            f"{checked} types")


def test_ac07_rank3_table():
    start = time.monotonic()
    expected = {
        ((1, 1, 1), (1, 1, 1)): Rank3Kind.FORCED_EQUAL,
        ((1, 1, 1), (2, 1)): Rank3Kind.ALLOWED,
        ((1, 1, 1), (1, 2)): Rank3Kind.ALLOWED,
        ((2, 1), (1, 1, 1)): Rank3Kind.FORBIDDEN,
        ((2, 1), (2, 1)): Rank3Kind.FORCED_EQUAL,
        ((2, 1), (1, 2)): Rank3Kind.ALLOWED,
        ((1, 2), (1, 1, 1)): Rank3Kind.FORBIDDEN,
        ((1, 2), (2, 1)): Rank3Kind.FORBIDDEN,
        ((1, 2), (1, 2)): Rank3Kind.FORCED_EQUAL,
    }
    ok = all(classify_rank3(t, m).kind is kind for (t, m), kind in expected.items())
    _report(7, "rank-3 verdict table", ok, time.monotonic() - start, 1.0,
            "all nine verdicts")


def test_ac08_stabilizer_dimensions():
    start = time.monotonic()
    ok = True
    # distinct-scalar block-diagonal fields commute with no lowering map
    for sizes, scalars in [((1, 1), (2, 3)), ((2, 1), (1, -1)), ((2, 2, 1), (0, 1, 2))]:
        flag = FlagShape(sizes)
        r = flag.total
        phi = [[F(0)] * r for _ in range(r)]
        pos = 0
        for size, c in zip(sizes, scalars):
            for a in range(pos, pos + size):
                phi[a][a] = F(c)
            pos += size
        ok = ok and nilpotent_commutant_dim(flag, [phi]) == 0
    # rank-2 fields with a nonzero lower-left block
    rng = random.Random(8)
    for _ in range(20):
        phi = [
            [rng.randint(-3, 3), rng.randint(-3, 3)],
            [rng.randint(1, 3), rng.randint(-3, 3)],
        ]
        ok = ok and nilpotent_commutant_dim(FlagShape((1, 1)), [phi]) == 0
    # dense-nullspace oracle agreement, 100 random instances up to rank 5
    for _ in range(100):
        r = rng.randint(2, 5)
        sizes = []
        left = r
        while left:
            b = rng.randint(1, left)
            sizes.append(b)
            left -= b
        flag = FlagShape(tuple(sizes))
        phis = [
            [[F(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
            for _ in range(rng.randint(1, 2))
        ]
        if nilpotent_commutant_dim(flag, phis) != nilpotent_commutant_dim_dense_oracle(flag, phis):
            ok = False
            break
    _report(8, "stabiliser dimensions", ok, time.monotonic() - start, 30.0,
            "forced zeros + 100 oracle instances")


def _retraction_corpus():
    rng = random.Random(99)
    corpus = []
    combos = [(2, 2, 7, 1), (2, 2, 8, 1), (2, 0, 4, 2), (3, 2, 10, 1), (3, 0, 4, 1)]
    for r, g, d, n in combos:
        ctx = CurveContext(r, d, genus=g, npoints=n)
        taus = [
            t
            for t in enumerate_hn_types(ctx, d + r, min_slope_exclusive=g - 1)
            if not t.is_semistable and model_supported(t, ctx)
        ]
        for tau in taus[:3]:
            beta = beta_of_type(tau, ctx)
            for graded in (False, True):
                point = build_flagged_point(tau, ctx, rng, graded=graded)
                corpus.append((beta, ctx, point))
    return corpus


def test_ac09_retraction_contract():
    start = time.monotonic()
    corpus = _retraction_corpus()
    ok = True
    count = 0
    for beta, ctx, point in corpus:
        if membership(point, beta, ctx) is Membership.OUTSIDE:
            continue
        retracted = retract_p_beta(point, beta, ctx)
        ok = ok and membership(retracted, beta, ctx) is Membership.IN_Z
        ok = ok and retract_p_beta(retracted, beta, ctx) == retracted
        count += 1
        if not ok:
            break
    ok = ok and count == len(corpus)  # every corpus point was retraction-eligible
    _report(9, "retraction contract", ok, time.monotonic() - start, 30.0,
            f"{count} points, idempotent and graded")


def test_ac10_partition_and_cross_table():
    start = time.monotonic()
    ok = True
    # partition property over a mixed two-type corpus plus semistable points
    ctx = CurveContext(2, 7, genus=2, npoints=1)
    rng = random.Random(55)
    tau_a = HNType(((1, 4), (1, 3)))
    tau_b = HNType(((1, 5), (1, 2)))
    corpus = [
        (f"{i}-{j}", build_flagged_point(tau, ctx, rng, graded=j == 2, general_position=True))
        for i, tau in enumerate([tau_a, tau_b])
        for j in range(3)
    ]
    corpus.append(("ss", ModelPoint((Factor([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], 1, [[1, 2], [3, 4]]),))))
    records = assemble(corpus, ctx, max_first_slope=5)
    ids = [x for rec in records for x in rec.member_ids]
    ok = ok and sorted(ids) == sorted(c[0] for c in corpus) and len(ids) == len(set(ids))
    # exhaustive candidate cross-table
    report = compat_cross_table(3, range(1, 13), range(0, 3))
    checked, violations = compat_pairs(3, range(1, 13), range(0, 3))
    ok = ok and violations == () and report.checked == checked > 0
    _report(10, "partition and cross-table", ok, time.monotonic() - start, 60.0,
            f"{len(records)} records, {report.checked} table pairs, 0 violations")


def test_ac11_index_set_sanity():
    start = time.monotonic()
    got = index_set_B([[-1], [1]])
    ok = got == [(F(0),), (F(1),)]
    # the m=3, r=2, N=1 weight lattice against an independent support oracle
    ctx = CurveContext(2, 1, genus=0, npoints=1)
    weights = sorted(
        {alpha_of_index(idx, ctx) for idx in enumerate_coordinate_indices(ctx)}
    )
    fast = index_set_B(weights)
    brute = set()
    for size in range(1, len(weights) + 1):
        for support in itertools.combinations(weights, size):
            v = min_norm_point_by_faces(support)
            rep = tuple(sorted(v, reverse=True))
            if rep[0] < 0:
                continue
            brute.add(rep)
    ok = ok and fast == sorted(brute)
    _report(11, "index set sanity", ok, time.monotonic() - start, 30.0,
            f"{len(weights)} distinct weights, {len(fast)} representatives")


# Per (r, d, genus, N) and supported type: the step-2 verdict of each graded
# block for four points drawn in turn from random.Random(12) (generic, graded,
# generic with c_1 = 0, generic with every y's first column zeroed): "ss",
# "vacuous" or the failing block's witness, or "NotInY" for a point outside
# the inequality locus.  Recorded with the route that built each block's
# Minkowski sum explicitly and ran Wolfe over ``Fraction``; that route took
# about 14 s here, 12 s of it on the three points of type ((3, 10),) that
# keep every factor's weights.
STEP2_N3_GOLDEN = {
    (3, 10, 2, 3): {
        ((3, 10),): (("ss",), ("ss",), ("ss",), ((18, -3, -3, -3, -3, -3, -3),)),
        ((2, 7), (1, 3)): (("ss", "ss"), ("ss", "ss"), ("ss", "ss"), ((12, -3, -3, -3, -3), "ss")),
        ((1, 4), (2, 6)): (("ss", "ss"), ("ss", "ss"), ("ss", "ss"), ((1, 0, -1), "ss")),
        ((2, 8), (1, 2)): (("ss", "ss"), ("ss", "ss"), ("ss", "vacuous"), ((5, -1, -1, -1, -1, -1), "ss")),
        ((1, 5), (2, 5)): (("ss", "ss"), ("ss", "ss"), ("vacuous", "ss"), ((3, -1, -1, -1), "ss")),
        ((1, 5), (1, 3), (1, 2)): (
            ("ss", "ss", "ss"), ("ss", "ss", "ss"), ("ss", "ss", "ss"), ((3, -1, -1, -1), "ss", "ss"),
        ),
        ((1, 6), (2, 4)): (("ss", "ss"), ("ss", "ss"), ("ss", "ss"), ((12, -3, -3, -3, -3), "ss")),
    },
    (2, 7, 2, 3): {
        ((2, 7),): (("ss",), ("ss",), ("ss",), ((12, -3, -3, -3, -3),)),
        ((1, 4), (1, 3)): (("ss", "ss"), ("ss", "ss"), "NotInY", ((2, -1, -1), "ss")),
        ((1, 5), (1, 2)): (("ss", "ss"), ("ss", "ss"), ("ss", "ss"), ((3, -1, -1, -1), "ss")),
    },
}


def _step2_n3_variants(tau, ctx, rng):
    """The four points of ``STEP2_N3_GOLDEN``'s corpus for one type, in order."""
    for variant in ("generic", "graded", "c_zero", "column_zero"):
        point = build_flagged_point(tau, ctx, rng, graded=variant == "graded")
        if variant == "c_zero":
            f = point.factors[0]
            point = ModelPoint((Factor(f.y, 0, f.phi),) + point.factors[1:])
        elif variant == "column_zero":
            point = ModelPoint(tuple(
                Factor(tuple((0,) + row[1:] for row in f.y), f.c, f.phi) for f in point.factors
            ))
        yield point


def test_ac12_step2_at_three_points():
    start = time.monotonic()
    ok = True
    points = failing = 0
    for (r, d, g, n), per_type in STEP2_N3_GOLDEN.items():
        ctx = CurveContext(r, d, genus=g, npoints=n)
        rng = random.Random(12)
        taus = [
            t for t in enumerate_hn_types(ctx, d + r, min_slope_exclusive=g - 1) if model_supported(t, ctx)
        ]
        ok = ok and [t.blocks for t in taus] == list(per_type)
        for tau in taus:
            beta = beta_of_type(tau, ctx)
            got = []
            for point in _step2_n3_variants(tau, ctx, rng):
                try:
                    report = verify_step2(point, beta, ctx)
                except NotInY:
                    got.append("NotInY")
                    continue
                got.append(tuple(
                    "vacuous" if b.vacuous else "ss" if b.semistable else b.witness for b in report.blocks
                ))
                ok = ok and report.passed == all(b.semistable for b in report.blocks)
                failing += sum(not b.semistable for b in report.blocks)
            points += len(got)
            ok = ok and tuple(got) == per_type[tau.blocks]
    _report(12, "step 2 at N = 3", ok, time.monotonic() - start, 5.0,
            f"{points} points at (3,10,2,3) and (2,7,2,3), {failing} failing blocks")
