"""hypflow: locally constrained curvature flows of h-convex hypersurfaces
in hyperbolic space, with the quermassintegral bookkeeping that drives them.

Layers, bottom to top:

- ``symfunc``       normalized elementary symmetric functions and quotients
- ``grids``         spherical grids and their spectral derivatives (full lat-long, axisymmetric)
- ``hypersurface``  radial-graph geometry, quermassintegrals, shape generators
- ``conformal``     conformal image in the Euclidean ball model and its identities
- ``flow``          the constrained-flow integrator and its monitors
- ``stability``     deficit / sphere-distance experiments and the proof-trace check
- ``checks``        consolidated verification suite and the evolution-identity checks
- ``svgplot``       dependency-free SVG plots
- ``cli``           ``hypflow`` command-line entry point
"""

from .symfunc import (
    ConeViolationError,
    esym_all,
    esym_grad,
    quotient_eval,
    quotient_from_esym,
)
from .grids import AxisymGrid, FullSphereGrid
from .hypersurface import (
    DiscretizationError,
    EUCLIDEAN,
    GeometryFields,
    HYPERBOLIC,
    InradiusResult,
    RadialGraph,
    ShapeRejectionError,
    Warp,
    ball_profile,
    ball_profile_inverse,
    distance_range,
    generate_shape,
    geodesic_distances,
    geometry_fields,
    hconvexity_margin,
    inradius,
    integrate,
    quermassintegrals,
    random_hconvex_shape,
    traceless_measures,
)
from .conformal import (
    AreaIdentityReport,
    ConformalImage,
    area_identity_check,
    conf_relation_residual,
    image_convexity_margin,
    radius_to_ball,
    to_ball,
)
from .flow import (
    FlowState,
    FlowTrace,
    StepFailureError,
    cfl_dt,
    run,
    step,
)
from .stability import (
    DeficitResult,
    InsufficientDataError,
    ProofTraceReport,
    SphereFit,
    SweepRecord,
    SweepResult,
    deficit,
    exponent_fit,
    proof_trace_check,
    sphere_fit,
    stability_sweep,
)
from .checks import (
    CheckResult,
    VariationalReport,
    pointwise_F_check,
    run_verify,
    variational_check,
)

__version__ = "0.1.0"
