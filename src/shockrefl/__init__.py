"""Self-similar regular shock reflection off a wedge for potential flow.

Reflection-state algebra (incident shock, weak/strong states, transition
angles), a free-boundary solver for the subsonic region, and numerical
certification of computed solutions against the admissibility,
monotonicity, and shock-convexity conditions.
"""

from .admissibility import AdmissibilityReport, full_report
from .distance import c1_family_distance, hausdorff_distance
from .errors import (
    AttachedShockDetected,
    BracketingFailure,
    DetachedWedgeAngle,
    EllipticityLost,
    EmptyOverlap,
    FoldedMesh,
    GraphPropertyLost,
    NoCompression,
    NoConvergence,
    NonpositiveDensity,
    RootSeparationFailure,
    ShockReflError,
    TooFewSamples,
    VacuumReached,
    ValidationError,
    ZeroVector,
)
from .gas import GasParams, UniformState, density, ellipticity_margin, make_uniform_state, sound_speed
from .geometry import (
    ReflectionConfiguration,
    ShockCurve,
    build_configuration,
    initial_shock,
    interior_cone_directions,
    lambda_contains,
)
from .mesh import SquareMap, build_square_map, quad_map
from .relations import (
    AngleDiagram,
    IncidentData,
    Regime,
    State2Pair,
    angle_diagram,
    attachment_possible,
    classify_regime,
    critical_density,
    detachment_angle,
    entropy_satisfied,
    incident_state,
    normal_reflection_state,
    rh_residual,
    sonic_angle,
    state2_residuals,
    state2_solve,
)
from .solver import (
    IterationParams,
    MMSProblem,
    SolutionField,
    SweepResult,
    continuation_sweep,
    fixed_point_solve,
    solve_bvp,
    update_shock,
)

__version__ = "0.1.0"
