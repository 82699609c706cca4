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
unbounded part of the domain analytically.  Psi_t is not affine in t, so
its loss is bisected in t; but along S, C_t = A(r) + (t+1) B(r) with A > 0
> B, so {C_t = 0} first meets S at the closed form t* = min_r A/|B| - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .phase_core import Trajectory, IntegrationError, OrbitRangeError, _solve

__all__ = [
    "CrossingReport", "PsiScan", "DeltaScan", "RHistory",
    "dRdt", "Ct", "grad_Ct", "ct_branch_x", "psi", "psi_tail",
    "scan_psi", "crossing_scan", "find_crossings", "scan_delta_threshold",
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

def _ct_split(H, F, sig, s):
    """C_t and R[g0] at orbit states, C_t in the cancellation-free split form.

    With p = HF + 1/2 and sigma = H^2 - p (the transported curvature state),
    C_t = A + s B with A = 2p - H^2 and B = 2F^2 sigma, where s = t + 1 is a
    scalar or an array matching the states, and R[g0] = -2H^2 + 4 sigma.
    Returns (C_t, scale, R0) where scale bounds the magnitudes of the two
    constituents of C_t.
    """
    H2 = H ** 2
    part1 = 2.0 * (H * F + 0.5) - H2
    part2 = 2.0 * s * F ** 2 * sig
    return part1 + part2, np.abs(part1) + np.abs(part2), -2.0 * H2 + 4.0 * sig


def _ab(H, F, sig):
    """The A and B of ``_ct_split``: C_t = A + (t+1) B."""
    return 2.0 * (H * F + 0.5) - H ** 2, 2.0 * F ** 2 * sig


_SIGNIFICANCE = 3e-4


def _significant_flips(vals, scale, significance):
    """Indices idx of the samples with |C_t| >= significance x scale (the
    only signs trusted, see ``find_crossings``), their signs (> 0), and the
    positions k at which the sign flips from idx[k] to idx[k + 1]."""
    idx = np.nonzero(np.abs(vals) >= significance * scale + 1e-300)[0]
    positive = vals[idx] > 0
    return idx, positive, np.nonzero(positive[1:] != positive[:-1])[0]


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


def crossing_scan(traj: Trajectory, t_values, n_grid: int = 400001,
                  significance: float = _SIGNIFICANCE,
                  xtol: float = 1e-9) -> list[CrossingReport]:
    """Sign changes of C_t along ``traj`` at each of ``t_values``.

    One dense evaluation of the orbit on ``n_grid`` points serves every t
    (the states do not depend on t); C_t is formed per t by ``_ct_split``.
    A sign change is counted only when C_t exceeds ``significance`` times
    the local constituent scale on both flanks; this suppresses spurious
    flips in the far region where C_t itself decays below the orbit's
    attainable accuracy (for t = 0 the curve has ninth-order contact with
    the orbit at infinity, so its values there genuinely drown).  It also
    hides genuine crossings whose dip stays below that fraction: on
    (t*, t* + 5.4e-4) after the first crossing time t* the default reports
    none where ``significance=0`` finds two.  Accepted crossings are
    refined by ``brentq`` to r-resolution ``xtol``; a bracket it cannot
    resolve raises ``IntegrationError``.
    """
    t_values = [_check_t(t) for t in t_values]
    rg = traj.dense_grid(n_grid)
    states = traj.state_at(rg)
    reports = []
    for t in t_values:
        vals, scale, _ = _ct_split(*states, t + 1.0)
        idx, positive, flips = _significant_flips(vals, scale, significance)
        f = lambda rr, s=t + 1.0: float(_ct_split(*traj.state_at(np.atleast_1d(rr)), s)[0][0])
        crossings = []
        for lo, hi in zip(rg[idx[flips]], rg[idx[flips + 1]]):
            try:
                rc = float(brentq(f, lo, hi, xtol=xtol, rtol=1e-15))
            except ValueError as exc:
                raise IntegrationError(f"C_t at t = {t} changes sign on "
                                       f"[{lo!r}, {hi!r}] but brentq failed: {exc}") from exc
            Hc, Fc = (float(v) for v in traj.state_at(rc)[:2])
            crossings.append((rc, Hc, Fc))
        pattern = positive[np.concatenate([[0], flips + 1])] if idx.size else []
        reports.append(CrossingReport(t, crossings, "".join("+" if p else "-" for p in pattern),
                                      int(n_grid), significance))
    return reports


def find_crossings(traj: Trajectory, t: float, n_grid: int = 400001,
                   significance: float = _SIGNIFICANCE,
                   xtol: float = 1e-9) -> CrossingReport:
    """Sign changes of C_t along ``traj`` at one t (see ``crossing_scan``)."""
    return crossing_scan(traj, [t], n_grid, significance, xtol)[0]


@dataclass
class DeltaScan:
    """The two thresholds in t near the birth of the flow.

    ``crossing_threshold`` is the first t at which {C_t = 0} meets the
    orbit, at r = ``crossing_r``; ``crossing_bracket`` is it plus or minus
    the disagreement of its grid and refined estimates.  ``barrier_bracket``
    encloses the loss of the Psi-positivity certificate, bisected.  The two
    notions are reported separately and need not coincide.
    """

    t_grid: np.ndarray
    crossing_counts: list[int]          # find_crossings counts on t_grid
    crossing_threshold: float
    crossing_r: float
    crossing_bracket: tuple[float, float]
    barrier_bracket: tuple[float, float]
    psi_verdicts: dict[float, str]


def scan_delta_threshold(traj: Trajectory, t_grid=None,
                         width: float = 1e-4) -> DeltaScan:
    """The crossing threshold in closed form and the barrier threshold bisected.

    Where A > 0 and B < 0 (see ``_ct_split``) on the whole 120 001-point
    dense grid, t* = min_r A/|B| - 1: the grid minimum, refined by a bounded
    minimisation between the argmin's neighbours.  The barrier bracket is
    bisected from ``t_grid`` to ``width``.
    """
    if t_grid is None:
        t_grid = np.linspace(-0.9, -0.01, 24)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= -1.0) or np.any(t_grid >= 0.0):
        raise ValueError("t_grid must lie in (-1, 0)")

    rg = traj.dense_grid(120001)
    H, F, sig = traj.state_at(rg)
    counts = [len(_significant_flips(*_ct_split(H, F, sig, t + 1.0)[:2], _SIGNIFICANCE)[2])
              for t in t_grid]
    A, B = _ab(H, F, sig)
    for name, bad in (("A = 2HF + 1 - H^2 > 0", A <= 0.0), ("B = 2F^2 sigma < 0", B >= 0.0)):
        if np.any(bad):
            raise IntegrationError(f"closed-form crossing threshold needs {name} on "
                                   f"the orbit; it fails at r = {rg[np.argmax(bad)]:.6g}")
    s_grid = -A / B
    i = int(np.argmin(s_grid))

    def s_at(r):
        a, b = _ab(*traj.state_at(r))
        return -a / b

    res = minimize_scalar(s_at, bounds=(rg[max(i - 1, 0)], rg[min(i + 1, rg.size - 1)]),
                          method="bounded")
    t_star = float(res.fun) - 1.0
    if not -1.0 < t_star < 0.0:
        raise IntegrationError(f"crossing threshold t* = {t_star:.6g} not in (-1, 0)")
    e = max(abs(float(s_grid[i]) - float(res.fun)), traj.rel_tol)

    verdicts = {float(t): scan_psi(t).verdict for t in t_grid}
    pos = [verdicts[float(t)] == "positive" for t in t_grid]
    if not any(pos) or all(pos):
        raise IntegrationError("barrier transition not bracketed by t_grid")
    j = next(i for i, b in enumerate(pos) if not b)
    lo, hi = t_grid[j - 1] if j > 0 else t_grid[0], t_grid[j]
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if scan_psi(mid).verdict != "positive":
            hi = mid
        else:
            lo = mid

    return DeltaScan(t_grid=t_grid, crossing_counts=counts,
                     crossing_threshold=t_star, crossing_r=float(res.x),
                     crossing_bracket=(t_star - e, t_star + e),
                     barrier_bracket=(lo, hi), psi_verdicts=verdicts)


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
        raise OrbitRangeError("r0 outside the computed orbit range")

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
    ct, _, R0 = _ct_split(*traj.state_at(r_of_t[valid]), tv + 1.0)
    R = R0 / (tv + 1.0)
    dR = 2.0 / (tv + 1.0) ** 2 * ct

    sign_changes = []
    sgn = np.sign(dR)
    for i in np.nonzero(np.diff(sgn) != 0)[0]:
        sign_changes.append(float(0.5 * (tv[i] + tv[i + 1])))
    return RHistory(r0=float(r0), t=tv, r_of_t=r_of_t[valid], R=R, dRdt=dR,
                    truncated=truncated, sign_change_times=sign_changes)
