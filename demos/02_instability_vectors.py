"""From a type to its instability vector and grading weights.

Each block contributes k_g = N(d_g - r_g * genus) sections-minus-twists and
m_g = d_g + r_g(1 - genus) sections; the instability vector repeats
k_g/m_g - k/m along each block, summing to zero.  Its pairing against the
torus weights of the embedding decides which coordinates a point of that
type can carry.
"""

from higgsstrata import (
    CoordinateIndex,
    CurveContext,
    HNType,
    alpha_of_index,
    bb_weights,
    beta_of_type,
    coordinate_index_count,
    grading_one_parameter_subgroup,
    pairing,
)

ctx = CurveContext(rank=2, degree=7, genus=2, npoints=1)
tau = HNType(((1, 4), (1, 3)))
beta = beta_of_type(tau, ctx)
print("type", tau, "on a genus-2 curve, one evaluation point")
print("  section blocks m_g:", beta.m_blocks, " k_g:", beta.k_blocks)
print("  vector:", [str(v) for v in beta.entries])
print("  trace:", sum(beta.entries), " squared norm:", beta.norm_sq)  # the trace is 0 for every type

# The smallest integer multiple generates the grading one-parameter subgroup.
print("  grading subgroup weights:", grading_one_parameter_subgroup(beta))

# A determinant coordinate picking one section per block pairs exactly at the
# squared norm (the equality case); picking both from the low block overshoots.
split = CoordinateIndex("det", ((1, 4),))
low = CoordinateIndex("det", ((4, 5),))
print("  split-selection pairing:", pairing(alpha_of_index(split, ctx), beta))
print("  low-selection pairing:  ", pairing(alpha_of_index(low, ctx), beta))

# Fibre weights of the grading action: zero plus all ratio differences;
# the minimum is last ratio minus first.
w = bb_weights(tau, ctx)
print("  fibre weights:", [str(x) for x in w.weights], " min:", w.min_weight)

# The embedding has finitely many coordinates; their count grows fast.
for n in (1, 2):
    c = CurveContext(2, 7, genus=2, npoints=n)
    print(f"  coordinates with {n} evaluation point(s):", coordinate_index_count(c))
