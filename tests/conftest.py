import math

import numpy as np
import pytest

import cuspsoliton as cs


@pytest.fixture(scope="session")
def sep():
    """The default separatrix shoot, shared across the suite."""
    return cs.shoot_separatrix()


@pytest.fixture(scope="session")
def profile(sep):
    return cs.reconstruct_profiles(sep)


@pytest.fixture(scope="session")
def curvature_table(sep):
    return cs.curvatures(sep)


@pytest.fixture(scope="session")
def short_orbit():
    """The separatrix cut at r = 10: it ends on the Taylor leg, not on the germ."""
    return cs.shoot_separatrix(cs.ShootConfig(controls=cs.IntegratorControls(
        r_max=10.0, h_floor=1e-6)))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


def _gauss6(states, fn, a, b):
    """Six-point Gauss-Legendre integrals of ``fn(states(r))`` over each
    [a_i, b_i]: ``states`` takes an array of r to the rows (3, n), ``fn``
    those rows to the integrand.  The package's Chebyshev tables are
    checked against it, a quadrature that shares no code with theirs."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    half = 0.5 * (b - a)
    pts = (a + half)[..., None] + half[..., None] * _GL_NODES
    return half * (fn(states(pts.ravel())).reshape(pts.shape) @ _GL_WEIGHTS)


@pytest.fixture(scope="session")
def gauss6():
    """The six-point Gauss-Legendre reference quadrature (see ``_gauss6``)."""
    return _gauss6


@pytest.fixture(scope="session")
def blowup_generic():
    return cs.run_sequence("generic")


@pytest.fixture(scope="session")
def blowup_t0():
    return cs.run_sequence("t0")


class DenseCounts:
    """Dense evaluations seen since the last ``reset``: the points of each
    ``Trajectory.state_at`` call, a one-point call counting one, and the
    number of ``_SStar.__call__`` evaluations of s*."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.state_at, self.sstar = [], 0

    @property
    def points(self) -> int:
        return sum(self.state_at)


@pytest.fixture
def dense_counts(monkeypatch):
    """Count dense evaluations for the rest of the test (see ``DenseCounts``)."""
    from cuspsoliton.evolution import _SStar
    counts = DenseCounts()
    state_at, sstar = cs.Trajectory.state_at, _SStar.__call__

    def counted_state_at(self, r):
        counts.state_at.append(int(np.size(r)))
        return state_at(self, r)

    def counted_sstar(self, traj, r):
        counts.sstar += 1
        return sstar(self, traj, r)
    monkeypatch.setattr(cs.Trajectory, "state_at", counted_state_at)
    monkeypatch.setattr(_SStar, "__call__", counted_sstar)
    return counts


def _field(H, F):
    c = -2.0 * H * H + 0.5
    return H * F + c, 2.0 * H * F + c


@pytest.fixture(scope="session")
def scipy_shot():
    """S shot with scipy's ``solve_ivp``, a reference that shares no code
    with the package's stepper: a probe leg to F = -1 at raw r*, DOP853
    forward to r* + 25 and backward into the 1e-9 saddle ball, at rtol
    1e-13 and atol (1e-16, 1e-16, 1e-24).  Returns a function giving the
    states (3, n) at calibrated r in [r_lo, 25]."""
    from scipy.integrate import solve_ivp

    def rhs(r, y):
        H, F, sig = y.tolist()
        dH, dF = _field(H, F)
        return dH, dF, (F - H) * sig - H ** 3

    def solve(span, event=None):
        if event:
            event.terminal, event.direction = True, -1
        return solve_ivp(rhs, span, y0, method="DOP853", dense_output=True,
                         rtol=1e-13, atol=[1e-16, 1e-16, 1e-24], events=event)

    u = np.array([1.0, 3.0 + math.sqrt(5.0)])
    H0, F0 = np.array([0.5, 0.0]) - 1e-8 * u / np.linalg.norm(u)
    y0 = [H0, F0, -((H0 * F0 - 2.0 * H0 * H0 + 0.5) + H0 * H0)]
    r_star = solve((0.0, 1e4), lambda r, y: y[1] + 1.0).t_events[0][0]
    fwd = solve((0.0, r_star + 25.0))
    span_back = math.log(10.0) / cs.EIGENVALUE_UNSTABLE + 20.0
    bwd = solve((0.0, -span_back), lambda r, y: math.hypot(y[0] - 0.5, y[1]) - 1e-9)

    def states(r):
        raw = np.asarray(r, dtype=float) + r_star
        assert raw.min() >= bwd.t[-1] and raw.max() <= fwd.t[-1]
        return np.where(raw >= 0.0, fwd.sol(raw), bwd.sol(raw))
    return states


@pytest.fixture(scope="session")
def graph_orbit():
    """S as the graph F = phi(H), independent of the package: scipy's DOP853
    on dF/dH = F'/H' from H = 1/2 - 1e-7 on the unstable manifold's
    quadratic germ F = m x + k x^2 (x = H - 1/2, m = 3 + sqrt5), down to
    H = 0.02; on (1/2 - 1e-7, 1/2) phi is that germ.  Returns phi, which
    takes an array of H."""
    from scipy.integrate import solve_ivp

    m = 3.0 + math.sqrt(5.0)
    k = (m * m - 4.0 * m + 2.0) / (5.0 - 1.5 * m)
    H0 = 0.5 - 1e-7

    def slope(H, y):
        dH, dF = _field(H, y[0])
        return [dF / dH]
    sol = solve_ivp(slope, (H0, 0.02), [m * (H0 - 0.5) + k * (H0 - 0.5) ** 2],
                    method="DOP853", dense_output=True, rtol=1e-13, atol=1e-16)

    def phi(H):
        H = np.asarray(H, dtype=float)
        assert H.min() >= 0.02 and H.max() < 0.5
        x = H - 0.5
        return np.where(H > H0, m * x + k * x * x, sol.sol(np.minimum(H, H0))[0])
    return phi
