"""Desk-scale reconstruction of the cusped expanding soliton on R x T^2.

The metric ansatz g = dr^2 + e^{2h(r)}(dx^2 + dy^2) with a radial potential
f(r) reduces the gradient-soliton equation to a planar autonomous system in
(H, F) = (h', f').  This package computes the distinguished bounded-curvature
orbit of that system, converts it into metric and curvature data, checks the
trapping-region and pinching claims, analyses the scalar-curvature growth
under the induced flow, and runs the exact blow-up computation at infinity.

Modules
-------
phase_core   vector field, critical points, linearization, adaptive integrator
separatrix   shooting for the bounded orbit, isoclines, barrier certificates
geometry     profiles h and f, curvature tables, soliton identities, asymptotics
evolution    dR/dt analysis: the zero-set curve, crossings, barrier scans
blowup       exact-arithmetic projective chart and iterated blow-ups
cli          reproducible command-line runs emitting CSV/JSON tables
"""

from .phase_core import (
    PhasePoint,
    PhaseVelocity,
    Jacobian2,
    IntegratorControls,
    Trajectory,
    CriticalSet,
    IntegrationError,
    OrbitRangeError,
    vector_field,
    critical_points,
    linearize,
    eigen_saddle,
    integrate,
    SADDLE,
    EIGENVALUE_UNSTABLE,
    EIGENVALUE_STABLE,
    SLOPE_UNSTABLE,
    SLOPE_STABLE,
)
from .separatrix import (
    ShootConfig,
    BarrierReport,
    ShootError,
    isocline_F,
    isocline_slopes_at_saddle,
    oblique_barrier_margin,
    shoot_separatrix,
    certify_barriers,
)
from .geometry import (
    MetricProfile,
    CurvatureTable,
    SolitonResiduals,
    RatioEntry,
    AsymptoticsReport,
    reconstruct_profiles,
    curvatures,
    soliton_residuals,
    check_asymptotics,
)
from .evolution import (
    CrossingReport,
    PsiScan,
    DeltaScan,
    RHistory,
    dRdt,
    Ct,
    grad_Ct,
    ct_branch_x,
    psi,
    psi_tail,
    scan_psi,
    crossing_scan,
    find_crossings,
    scan_delta_threshold,
    pointwise_R_history,
)
from .blowup import (
    CoeffAffine,
    ExactPoly,
    SRational,
    BlowupState,
    BlowupReport,
    DivisorPoint,
    BlowupError,
    RingDegreeError,
    chart_to_infinity,
    blowup_once,
    translate,
    divisor_critical_points,
    curve_divisor_intersection,
    run_sequence,
    project_to_infinity,
    CURVE_XY,
)

__version__ = "0.1.0"
