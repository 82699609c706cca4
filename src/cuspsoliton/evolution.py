"""Scalar-curvature growth along the induced flow.

The soliton generates the flow g(t) = (t+1) phi_t^*(g0) on t in (-1, inf),
where phi_t moves points radially with rdot = F(r).  Pointwise,

    R[g(t)] = R[g0](r(t)) / (t+1)

and differentiating in t gives

    dR/dt = (2/(t+1)^2) [ (2HF - H^2 + 1) + (t+1) F^2 (-2HF + 2H^2 - 1) ]

evaluated at (H, F)(r(t)).  The bracket, read as a polynomial C_t(x, y) in
the phase coordinates, is an algebraic curve whose zero set separates the
regions of growing and decaying curvature; whether {C_t = 0} meets the
bounded orbit S decides the pointwise monotonicity of R.  For t near -1 a
barrier argument applies: on the branch x = x(y) of {C_t = 0} with x > 0,
y < 0, the scalar product of the curve normal with the vector field is

    Psi_t(y) = -y [ x^2 + (t+1)(6x^2y^2 - 12x^3y + 5xy + 8x^4 - 6x^2 + 1) ]

and strict positivity over the whole branch certifies that S never crosses.
As y -> -inf, Psi_t(y) = t/(4y) - 3t/(8y^3) + O(y^-5), which settles the
unbounded part of the domain analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .phase_core import Trajectory, IntegrationError, _solve

__all__ = [
    "CrossingReport", "PsiScan", "DeltaScan", "RHistory",
    "dRdt", "Ct", "grad_Ct", "ct_branch_x", "psi", "psi_tail",
    "scan_psi", "find_crossings", "scan_delta_threshold",
    "pointwise_R_history",
]


def _check_t(t: float) -> float:
    t = float(t)
    if not t > -1.0:
        raise ValueError(f"flow time must satisfy t > -1, got {t}")
    return t


def dRdt(H, F, t: float):
    """Pointwise time derivative of the scalar curvature at phase state (H, F)."""
    t = _check_t(t)
    return 2.0 / (t + 1.0) ** 2 * Ct(H, F, t)


def Ct(x, y, t: float):
    """The curvature-growth polynomial (2xy - x^2 + 1) + (t+1)y^2(-2xy + 2x^2 - 1).

    Its sign equals the sign of dR/dt at the phase state (x, y) = (H, F).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = t + 1.0
    val = (2.0 * x * y - x ** 2 + 1.0) + s * y ** 2 * (-2.0 * x * y + 2.0 * x ** 2 - 1.0)
    return float(val) if val.ndim == 0 else val


def grad_Ct(x, y, t: float):
    """Gradient of C_t: (2y - 2x + (t+1)y^2(-2y + 4x), 2x + 2(t+1)y(-3xy + 2x^2 - 1))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = t + 1.0
    gx = 2.0 * y - 2.0 * x + s * y ** 2 * (-2.0 * y + 4.0 * x)
    gy = 2.0 * x + 2.0 * s * y * (-3.0 * x * y + 2.0 * x ** 2 - 1.0)
    if gx.ndim == 0:
        return float(gx), float(gy)
    return gx, gy


def _branch_domain_end(t: float) -> float:
    return -1.0 / math.sqrt(t + 1.0)


def ct_branch_x(y, t: float):
    """The x > 0 branch x(y) of {C_t = 0} for y <= -1/sqrt(t+1).

    Equals the quadratic-formula root
    (-y + (t+1)y^3 + sqrt(...)) / (2(t+1)y^2 - 1) but is evaluated in the
    cancellation-free form and polished by one Newton step so that
    C_t(x(y), y) vanishes to full precision across the whole ray.
    """
    t = _check_t(t)
    s = t + 1.0
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    end = _branch_domain_end(t)
    if np.any(y > end + 1e-12):
        raise ValueError(f"branch domain is y <= {end}")
    A = 2.0 * s * y ** 2 - 1.0
    halfB = y * (1.0 - s * y ** 2)         # >= 0 on the domain
    C0 = 1.0 - s * y ** 2                  # <= 0 on the domain
    rad = np.sqrt(np.maximum(halfB ** 2 - A * C0, 0.0))
    q = -(halfB + rad)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(q != 0.0, C0 / np.where(q != 0.0, q, 1.0), 0.0)
    for _ in range(2):
        val = Ct(x, y, t)
        dv = grad_Ct(x, y, t)[0]
        step = np.where(dv != 0.0, val / np.where(dv != 0.0, dv, 1.0), 0.0)
        x = x - step
    return float(x[0]) if scalar else x


def psi(y, t: float):
    """Normal-times-field product Psi_t(y) on the branch x = x(y) of {C_t = 0}."""
    t = _check_t(t)
    s = t + 1.0
    y = np.asarray(y, dtype=float)
    x = np.asarray(ct_branch_x(y, t))
    val = -y * (x ** 2 + s * (6.0 * x ** 2 * y ** 2 - 12.0 * x ** 3 * y
                              + 5.0 * x * y + 8.0 * x ** 4 - 6.0 * x ** 2 + 1.0))
    return float(val) if val.ndim == 0 else val


def psi_tail(y, t: float):
    """Leading tail of Psi_t as y -> -inf: t/(4y) - 3t/(8y^3)."""
    y = np.asarray(y, dtype=float)
    val = t / (4.0 * y) - 3.0 * t / (8.0 * y ** 3)
    return float(val) if val.ndim == 0 else val


@dataclass
class PsiScan:
    """Sign scan of Psi_t over the branch domain.

    The grid is log-spaced from the domain endpoint -1/sqrt(t+1) down to
    ``y_floor``; the unbounded rest of the ray is settled by the analytic
    tail t/(4y), whose sign for y < 0 is the sign of -t.  Verdict
    "positive" certifies the barrier property of {C_t = 0}.
    """

    t: float
    y: np.ndarray
    values: np.ndarray
    min_value: float
    argmin_y: float
    tail_sign: int
    tail_match: float            # relative agreement of psi with the tail at y_floor
    verdict: str                 # "positive" | "sign-changing"


def scan_psi(t: float, y_floor: float = -1e3, n: int = 1200) -> PsiScan:
    """Scan Psi_t on a log grid over (y_floor, -1/sqrt(t+1)]."""
    t = _check_t(t)
    end = _branch_domain_end(t)
    if y_floor >= end:
        raise ValueError("y_floor must lie below the branch endpoint")
    y = -np.geomspace(-end, -y_floor, int(n))
    vals = psi(y, t)
    i = int(np.argmin(vals))
    tail_sign = int(np.sign(-t)) if t != 0 else int(np.sign(psi(y_floor * 100, t)))
    tail_ref = psi_tail(y_floor, t)
    tail_match = abs(vals[-1] - tail_ref) / max(abs(tail_ref), 1e-300)
    positive = vals[i] > 0.0 and tail_sign > 0
    return PsiScan(t=t, y=y, values=vals, min_value=float(vals[i]),
                   argmin_y=float(y[i]), tail_sign=tail_sign,
                   tail_match=float(tail_match),
                   verdict="positive" if positive else "sign-changing")


# ---------------------------------------------------------------------------
# crossings of {C_t = 0} with the bounded orbit

def _ct_along(traj: Trajectory, rg: np.ndarray, s):
    """C_t and R[g0] on the orbit, C_t in the cancellation-free split form.

    With p = HF + 1/2 and sigma = H^2 - p (the transported curvature state),
    C_t = (2p - H^2) + 2 s F^2 sigma, where s = t + 1 is a scalar or an
    array matching ``rg``, and R[g0] = -2H^2 + 4 sigma.  Returns
    (C_t, scale, R0) where scale bounds the magnitudes of the two
    constituents of C_t; sign changes are only trusted where |C_t| clears a
    small fraction of the scale, since beyond that the difference is below
    the accuracy of the orbit itself.
    """
    H, F, sig = traj.state_at(rg)
    H2 = H ** 2
    part1 = 2.0 * (H * F + 0.5) - H2
    part2 = 2.0 * s * F ** 2 * sig
    return part1 + part2, np.abs(part1) + np.abs(part2), -2.0 * H2 + 4.0 * sig


@dataclass
class CrossingReport:
    """Sign changes of C_t along the bounded orbit."""

    t: float
    crossings: list[tuple[float, float, float]]   # (r, H, F), ordered in r
    sign_pattern: str                              # signs of the significant segments
    n_grid: int
    significance: float

    @property
    def count(self) -> int:
        return len(self.crossings)


def find_crossings(traj: Trajectory, t: float, n_grid: int = 400001,
                   significance: float = 3e-4, xtol: float = 1e-9) -> CrossingReport:
    """Locate sign changes of C_t along ``traj`` by dense scan plus bisection.

    A sign change is counted only when C_t exceeds ``significance`` times
    the local constituent scale on both flanks; this suppresses spurious
    flips in the far region where C_t itself decays below the orbit's
    attainable accuracy (for t = 0 the curve has ninth-order contact with
    the orbit at infinity, so its values there genuinely drown).
    Accepted crossings are refined to r-resolution ``xtol``.
    """
    t = _check_t(t)
    rg = traj.dense_grid(n_grid)
    vals, scale, _ = _ct_along(traj, rg, t + 1.0)
    thresh = significance * scale + 1e-300

    sig_idx = np.nonzero(np.abs(vals) >= thresh)[0]
    crossings = []
    pattern = []
    prev_i = None
    for i in sig_idx:
        sgn = 1 if vals[i] > 0 else -1
        if not pattern:
            pattern.append(sgn)
            prev_i = i
            continue
        if sgn != pattern[-1]:
            lo, hi = rg[prev_i], rg[i]
            f = lambda rr: float(_ct_along(traj, np.atleast_1d(rr), t + 1.0)[0][0])
            try:
                rc = float(brentq(f, lo, hi, xtol=xtol, rtol=1e-15))
            except ValueError:
                rc = 0.5 * (lo + hi)
            Hc, Fc = (float(v) for v in traj.state_at(rc)[:2])
            crossings.append((rc, Hc, Fc))
            pattern.append(sgn)
        prev_i = i
    return CrossingReport(
        t=t, crossings=crossings,
        sign_pattern="".join("+" if s > 0 else "-" for s in pattern),
        n_grid=int(n_grid), significance=significance,
    )


@dataclass
class DeltaScan:
    """Brackets for the two thresholds in t near the birth of the flow.

    ``crossing_bracket`` encloses the transition from zero to >= 1 sign
    changes of C_t along the orbit; ``barrier_bracket`` encloses the loss
    of the Psi-positivity certificate.  The two notions are reported
    separately and need not coincide.
    """

    t_grid: np.ndarray
    crossing_counts: list[int]
    crossing_bracket: tuple[float, float]
    barrier_bracket: tuple[float, float]
    psi_verdicts: dict[float, str]


def _bisect_transition(pred, lo: float, hi: float, width: float) -> tuple[float, float]:
    """Shrink [lo, hi] with pred(lo) False, pred(hi) True to the given width."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def scan_delta_threshold(traj: Trajectory, t_grid=None,
                         width: float = 1e-4) -> DeltaScan:
    """Scan t in (-1, 0) for the crossing and barrier-failure thresholds."""
    if t_grid is None:
        t_grid = np.linspace(-0.9, -0.01, 24)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= -1.0) or np.any(t_grid >= 0.0):
        raise ValueError("t_grid must lie in (-1, 0)")

    counts = [find_crossings(traj, t, n_grid=120001).count for t in t_grid]
    has = [c > 0 for c in counts]
    if not any(has) or all(has):
        raise IntegrationError("crossing transition not bracketed by t_grid")
    i_hi = next(i for i, b in enumerate(has) if b)
    lo = t_grid[i_hi - 1] if i_hi > 0 else t_grid[0]
    crossing_bracket = _bisect_transition(
        lambda tt: find_crossings(traj, tt, n_grid=120001).count > 0,
        lo, t_grid[i_hi], width)

    verdicts = {float(t): scan_psi(t).verdict for t in t_grid}
    pos = [verdicts[float(t)] == "positive" for t in t_grid]
    if not any(pos) or all(pos):
        raise IntegrationError("barrier transition not bracketed by t_grid")
    j = next(i for i, b in enumerate(pos) if not b)
    barrier_bracket = _bisect_transition(
        lambda tt: scan_psi(tt).verdict != "positive",
        t_grid[j - 1] if j > 0 else t_grid[0], t_grid[j], width)

    return DeltaScan(t_grid=t_grid, crossing_counts=counts,
                     crossing_bracket=crossing_bracket,
                     barrier_bracket=barrier_bracket,
                     psi_verdicts=verdicts)


# ---------------------------------------------------------------------------
# pointwise history of R under the flow

@dataclass
class RHistory:
    """R and dR/dt at a fixed manifold point as functions of flow time."""

    r0: float
    t: np.ndarray
    r_of_t: np.ndarray
    R: np.ndarray
    dRdt: np.ndarray
    truncated: bool
    sign_change_times: list[float]

    @property
    def last_sign_change(self) -> float | None:
        return self.sign_change_times[-1] if self.sign_change_times else None


def pointwise_R_history(r0: float, t_grid, traj: Trajectory) -> RHistory:
    """Track R[g(t)] at the point anchored at r(0) = r0.

    Solves rdot = F(r) with F interpolated along the computed orbit, then
    evaluates R[g(t)] = R[g0](r(t))/(t+1) and the dR/dt formula from the
    phase states.  If r(t) would leave the computed range the history is
    truncated and flagged.
    """
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if t_grid[0] <= -1.0:
        raise ValueError("flow times must satisfy t > -1")
    if not (traj.r_lo <= r0 <= traj.r_hi):
        raise ValueError("r0 outside the computed orbit range")

    lo, hi = traj.r_lo, traj.r_hi

    def rhs(tt, y):
        return [float(traj.state_at(min(max(y[0], lo), hi))[1])]

    def hit_edge(tt, y):
        return min(y[0] - lo, hi - y[0])
    hit_edge.terminal = True

    r_of_t = np.full(t_grid.size, np.nan)
    truncated = False
    for span_mask, direction in ((t_grid >= 0.0, 1), (t_grid < 0.0, -1)):
        ts = t_grid[span_mask]
        if ts.size == 0:
            continue
        t_end = ts[-1] if direction > 0 else ts[0]
        sol = _solve(rhs, [r0], (0.0, t_end), 1e-10, 1e-12, events=hit_edge)
        if sol.status == 1:
            truncated = True
        t_ok = ts[(ts >= min(0.0, sol.t[-1])) & (ts <= max(0.0, sol.t[-1]))]
        r_of_t[np.isin(t_grid, t_ok)] = sol.sol(t_ok)[0]

    valid = ~np.isnan(r_of_t)
    tv = t_grid[valid]
    ct, _, R0 = _ct_along(traj, r_of_t[valid], tv + 1.0)
    R = R0 / (tv + 1.0)
    dR = 2.0 / (tv + 1.0) ** 2 * ct

    sign_changes = []
    sgn = np.sign(dR)
    for i in np.nonzero(np.diff(sgn) != 0)[0]:
        sign_changes.append(float(0.5 * (tv[i] + tv[i + 1])))
    return RHistory(r0=float(r0), t=tv, r_of_t=r_of_t[valid], R=R, dRdt=dR,
                    truncated=truncated, sign_change_times=sign_changes)
