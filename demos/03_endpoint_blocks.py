"""Endpoint Hermite blocks and the convexity threshold search.

The left block is f's Taylor row of order r at the endpoint plus one more
term that makes its slope meet f' again at the inner knot, so it reproduces
all of f's derivatives at the endpoint.  It does NOT interpolate f at the
inner knot; that value defect (delta) is the quantity the gluing later
absorbs.  Convexity of the blocks only holds for widths below a
function-dependent threshold, searched on a halving ladder.  Each block is one coefficient row ascending in u = (x - center)/halfwidth.
"""

from convexlab import exp_oracle, find_H, integrated_L, mirrored_L, truncpow_oracle
from convexlab.polynomial import derivative_rows, horner_rows


def derivative(block, x, nu=1):
    """The nu-th derivative of the block's row at x."""
    row = derivative_rows(block.coeffs, block.halfwidth, nu)
    return float(horner_rows(row, (x - block.center) / block.halfwidth))


f = exp_oracle(1.0)
print("left block for exp at -1, r = 2:")
for h in (0.4, 0.2, 0.1):
    blk = integrated_L(f, -1.0, h, 2)
    print(f"  h = {h:.1f}: delta = {blk.delta:+.3e}, "
          f"block'(a+h) - f'(a+h) = "
          f"{derivative(blk, -1 + h) - float(f.deriv(1, -1 + h)):+.1e}")

print("\nmirror block at +1, the same kernel at the right end:")
right = mirrored_L(f, 1.0, 0.2, 2)
print(f"  delta~ = {right.delta:+.3e}; "
      f"derivatives at 1 match f up to order 2: "
      f"{[round(derivative(right, 1.0, nu) - float(f.deriv(nu, 1.0)), 12) for nu in range(3)]}")

print("\nconvexity threshold H on the halving ladder (h_max = 0.5):")
print(f"  exp, r = 1: H = {find_H(exp_oracle(1.0), (-1, 1), 1, 0.5)}")
print(f"  exp, r = 3: H = {find_H(exp_oracle(1.0), (-1, 1), 3, 0.5)}")
for eps in (0.2, 0.05, 0.0125):
    H = find_H(truncpow_oracle(2, eps), (-1, 1), 2, 0.5)
    print(f"  corner family eps = {eps:6.4f}, r = 2: H = {H:.6f}")
print("the sharper the corner, the narrower the admissible blocks;")
print("this is the mechanism that makes the minimal n depend on the function.")
