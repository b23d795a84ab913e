"""Exact closest points of convex hulls, and the index set they generate.

The solver is Wolfe's method over rationals; a brute-force projection onto
every affine face double-checks it, and an exact simplex settles hull
membership independently.  Collecting the closest points over all supports of
a weight set yields the finite index set that labels instability strata.
"""

import random
from fractions import Fraction

from higgsstrata import (
    CoordinateIndex,
    CurveContext,
    PointCloud,
    alpha_of_index,
    enumerate_coordinate_indices,
    hull_contains_origin,
    index_set_B,
    min_norm_point,
    min_norm_point_by_faces,
)

# The closest point of a segment missing the origin is its midpoint foot.
cloud = PointCloud.from_points([[1, 0], [0, 1]])
print("segment:", min_norm_point(cloud))

# Both routes agree exactly, no tolerance anywhere.
rng = random.Random(0)
for trial in range(3):
    pts = [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        for _ in range(5)
    ]
    fast = min_norm_point(pts)
    slow = min_norm_point_by_faces(pts)
    assert fast == slow
    print(f"random cloud {trial}: both routes give", tuple(str(x) for x in fast))

# Membership of the origin, by exact simplex feasibility.
print("origin in hull of {(1,1),(-1,-1)}:", hull_contains_origin([[1, 1], [-1, -1]]))

# The one-dimensional toy: supports {1}, {-1,1} give 1 and 0; the negative
# representative reflects out of the chamber.
print("index set of {-1, +1}:", index_set_B([[-1], [1]]))

# The full weight lattice of the smallest interesting embedding (three
# sections, rank two, one evaluation point) has six distinct weights.
ctx = CurveContext(2, 1)
weights = sorted({alpha_of_index(i, ctx) for i in enumerate_coordinate_indices(ctx)})
print(f"{len(weights)} distinct weights; index set:")
for v in index_set_B(weights):
    print("   ", tuple(str(x) for x in v))
