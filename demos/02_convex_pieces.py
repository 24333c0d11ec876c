"""Per-interval convex interpolants: the explicit parabola versus the
pieces of higher degree.

All of them interpolate f at the interval ends and sandwich the end slopes
against f', so gluing them preserves convexity across knots.  The degree-2
piece (r = 1) minimizes the sampled maximal error over all such convex
parabolas, with its weight found in closed form, so it can only improve on
the explicit one.  A
piece of degree d >= 3 is the Hermite row: it matches f and f' at both ends
and f at d - 3 interior Chebyshev-Lobatto nodes, so its slope slacks are 0.
Each comes back as (spline, sources, slacks): a one-row spline, where the
row came from, and its two slope slacks.
"""

import numpy as np

from convexlab import (
    build_sigma,
    chebyshev_partition,
    convex_parabola,
    convex_piece,
    exp_oracle,
    f0_oracle,
)

f = exp_oracle(1.0)
interval = (0.1, 0.9)
xs = np.linspace(*interval, 500)

par, _, slacks = convex_parabola(f, interval)
print("convex parabola on [0.1, 0.9] for exp:")
print(f"  max error = {np.max(np.abs(f(xs) - par(xs))):.3e}")
print(f"  slope slack at ends: {slacks[0, 0]:.3e}, {slacks[0, 1]:.3e}")

for degree in (2, 3, 4):
    S, sources, slacks = convex_piece(f, interval, degree)
    err = np.max(np.abs(f(xs) - S(xs)))
    convex, minimum, _ = S.piece_certificates()
    print(f"piece of degree {degree} ({sources[0]}): max error = {err:.3e}, "
          f"min p'' = {minimum[0]:.3e} (convex: {convex[0]}), "
          f"slacks {slacks[0, 0]:.1e}, {slacks[0, 1]:.1e}")

print("\nglobal interpolant sigma for the square-root-cusp family, n = 16, r = 2:")
g = f0_oracle(2)
sigma = build_sigma(g, chebyshev_partition(16), 2)
grid = np.linspace(-1, 1, 2001)
print(f"  max |f - sigma| = {np.max(np.abs(g(grid) - sigma(grid))):.3e}")
print(f"  convex certified: {sigma.convex_certified}")
slopes = [s for pair in sigma.knot_slopes() for s in pair]
print(f"  one-sided knot slopes nondecreasing: "
      f"{all(b >= a - 1e-9 for a, b in zip(slopes, slopes[1:]))}")
