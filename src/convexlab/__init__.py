"""convexlab: convex piecewise-polynomial approximation with certified bounds.

The library builds convex splines on Chebyshev partitions that interpolate a
convex function and its derivatives at the interval endpoints, certifies the
pointwise error estimates numerically, and reproduces the arithmetic
impossibility witnesses that show the admissible partition size must depend
on the function.
"""

from convexlab.certify import (
    BOUND_IDS,
    BoundReport,
    ConvexityReport,
    CounterexampleWitness,
    MismatchedInputs,
    SweepTable,
    counterexample_witness,
    pointwise_bound_report,
    polynomial_counterexample,
    sweep,
    threshold_growth,
    verify_convexity,
)
from convexlab.domain import (
    AffineMap,
    ConvexOracle,
    InvalidN,
    Partition,
    chebyshev_partition,
    cosh_oracle,
    even_power_oracle,
    exp_oracle,
    f0_oracle,
    normalize_to_unit,
    parse_function,
    phi,
    poly_oracle,
    read_partition,
    reflect,
    rho,
    tangent_line,
    truncpow_oracle,
    uniform_partition,
)
from convexlab.endblocks import (
    EndpointBlock,
    NoConvexityThreshold,
    find_H,
    integrated_L,
    lagrange_hermite_L,
    mirrored_L,
)
from convexlab.glue import (
    GlueTrace,
    NBelowThreshold,
    NotConvexOutput,
    PartitionTooCoarse,
    chebyshev_threshold,
    construct_chebyshev,
    construct_spline,
    polygonal_baseline,
)
from convexlab.localconvex import (
    ConvexPiece,
    NotConvexInput,
    build_sigma,
    convex_parabola,
    convex_piece,
)
from convexlab.piecewise import PiecewisePoly
from convexlab.polynomial import (
    ConvexityCertificate,
    DegenerateNodes,
    IllConditioned,
    Poly,
    convexity_certificate,
    hermite_interpolant,
)
from convexlab.smoothness import (
    InvalidOrder,
    ModulusProfile,
    ModulusResult,
    finite_difference,
    modulus,
    modulus_lower_bound,
    modulus_lower_bounds,
    one_sided_modulus,
)

__version__ = "0.1.0"
