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

# each module's __all__ is its public API; the package re-exports all of them
from .phase_core import *  # noqa: F401,F403
from .separatrix import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .evolution import *  # noqa: F401,F403
from .blowup import *  # noqa: F401,F403

__version__ = "0.1.0"
