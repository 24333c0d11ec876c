"""convexlab: convex piecewise-polynomial approximation with certified bounds.

The library builds convex splines on Chebyshev partitions that interpolate a
convex function and its derivatives at the interval endpoints, certifies the
pointwise error estimates numerically, and reproduces the arithmetic
impossibility witnesses that show the admissible partition size must depend
on the function.

The package exports the names the demos and README use; every other name is
imported from its module.
"""

from convexlab.certify import (
    BOUND_IDS,
    BoundReport,
    ConvexityReport,
    CounterexampleWitness,
    counterexample_witness,
    polynomial_counterexample,
    sweep,
    threshold_growth,
    verify_convexity,
)
from convexlab.domain import (
    chebyshev_partition,
    exp_oracle,
    f0_oracle,
    rho,
    truncpow_oracle,
)
from convexlab.endblocks import EndpointBlock, find_H, integrated_L, mirrored_L
from convexlab.glue import (
    GlueTrace,
    NBelowThreshold,
    chebyshev_threshold,
    construct_chebyshev,
    polygonal_baseline,
)
from convexlab.localconvex import (
    SolverStall,
    build_sigma,
    convex_parabola,
    convex_piece,
    convex_pieces,
)
from convexlab.piecewise import PiecewisePoly, record_json_dict
from convexlab.polynomial import convexity_certificate, hermite_interpolant
from convexlab.smoothness import (
    ModulusProfile,
    ModulusResult,
    modulus,
    modulus_lower_bound,
    modulus_lower_bounds,
    one_sided_modulus,
)

__version__ = "0.1.0"
