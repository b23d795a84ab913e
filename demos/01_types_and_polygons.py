"""Types, their convex polygons, and the finiteness tables.

A type is a list of (rank, degree) blocks with strictly decreasing slopes;
the single-block type is the semistable one.  This walk-through enumerates
the types of a small ambient, orders them by their polygons, and shows the
two candidate constructions that bound how the plain and Higgs-field
filtration types of one object can differ.
"""

import os
import tempfile
from fractions import Fraction

from higgsstrata import (
    CurveContext,
    HNType,
    compare_polygon,
    emit_polygon_svg,
    enumerate_hn_types,
    t_mu_candidates,
    u_tau_candidates,
)

# Every type of rank 2, degree 1 whose destabilising slope is at most 2.
ctx = CurveContext(rank=2, degree=1)
types = enumerate_hn_types(ctx, max_first_slope=2)
print("rank 2, degree 1, slope bound 2:")
for t in types:
    print("   ", t, "slopes", [str(s) for s in t.slopes])

# The semistable polygon is the straight segment and sits below every other.
t0 = HNType.semistable(2, 1)
for t in types:
    if t != t0:
        print(f"semistable vs {t}:", compare_polygon(t0, t).value)

# Polygons are concave; comparing them pointwise gives a partial order.
a = HNType(((1, 2), (1, -1)))
b = HNType(((1, 1), (1, 0)))
print(f"{a} vs {b}:", compare_polygon(a, b).value, "(vertex heights 2 vs 1 at rank 1)")

# With a twisting line bundle of degree 2 the underlying type of a semistable
# pair is constrained to a finite window (the average-slope bound)...
ctx = CurveContext(rank=2, degree=3, deg_line=2)
mu0 = HNType.semistable(2, 3)
print("underlying-type candidates of the semistable pair:", t_mu_candidates(mu0, ctx))

# ...and conversely a fixed underlying type leaves at most two possibilities
# for the pair's own type at rank 2: semistable, or equal to it.
tau = HNType(((1, 2), (1, 1)))
print(f"pair-type candidates over {tau}:", list(u_tau_candidates(tau, ctx)))
tau_steep = HNType(((1, 3), (1, 0)))
print(
    f"pair-type candidates over {tau_steep} (destabilising degree beyond (d+degL)/2):",
    list(u_tau_candidates(tau_steep, ctx)),
)

# Overlaid polygons, first type black, the rest grey.
path = os.path.join(tempfile.gettempdir(), "higgsstrata_polygons.svg")
emit_polygon_svg([HNType(((1, 2), (1, 1))), HNType.semistable(2, 3)], path)
print("wrote", path)
