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
unbounded part of the domain analytically.  Psi_t loses positivity at an
algebraic t_b, a root of one factor of a discriminant in t (see
``scan_delta_threshold``).  Along S, C_t = A(r) + (t+1) B(r) with A > 0 > B,
so {C_t = 0} first meets S at t* = min_r A/|B| - 1.  Every crossing is a
level set s* = t + 1 of s* = A/|B|, which is certified to fall to that one
minimum and then rise toward 1: one root per branch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._numerics import brent
from .blowup import _poly_eval, _real_roots
from .geometry import _Cumulative
from .phase_core import (
    Trajectory, IntegrationError, OrbitRangeError, _GermLeg, _field, _horner,
)

__all__ = [
    "CrossingReport", "PsiScan", "DeltaScan", "RHistory",
    "dRdt", "Ct", "grad_Ct", "ct_branch_x", "psi", "psi_tail",
    "scan_psi", "crossing_scan", "find_crossings", "scan_delta_threshold",
    "pointwise_R_history",
]


def _check_t(t: float) -> float:
    t = float(t)
    if not -1.0 < t < math.inf:
        raise ValueError(f"flow time must be finite with t > -1, got {t}")
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
    sy2 = s * y ** 2
    A = 2.0 * s * y ** 2 - 1.0
    halfB = y * (1.0 - sy2)                # >= 0 on the domain
    C0 = 1.0 - sy2                         # <= 0 on the domain
    rad = np.sqrt(np.maximum(halfB ** 2 - A * C0, 0.0))
    q = -(halfB + rad)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(q != 0.0, C0 / np.where(q != 0.0, q, 1.0), 0.0)
    for _ in range(2):
        # Ct and the x-component of grad_Ct, in their operations
        val = (2.0 * x * y - x ** 2 + 1.0) + sy2 * (-2.0 * x * y + 2.0 * x ** 2 - 1.0)
        dv = 2.0 * y - 2.0 * x + sy2 * (-2.0 * y + 4.0 * x)
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

def _ab(H, F, sig):
    """C_t = A + (t+1) B at orbit states, in the cancellation-free split form.

    With p = HF + 1/2 and sigma = H^2 - p (the transported curvature state),
    A = 2p - H^2 and B = 2F^2 sigma.
    """
    return 2.0 * (H * F + 0.5) - H ** 2, 2.0 * F ** 2 * sig


def _check_ab(r, A, B):
    for name, bad in (("A = 2HF + 1 - H^2 > 0", A <= 0.0), ("B = 2F^2 sigma < 0", B >= 0.0)):
        if np.any(bad):
            raise IntegrationError(f"s* = A/|B| needs {name} on the orbit; "
                                   f"it fails at r = {r[np.argmax(bad)]:.6g}")


def _sstar_slope(H, F, sig):
    """A B' - A' B, of the sign of ds*/dr (s* = -A/B), with H', F' from the
    field and sigma' = (F - H) sigma - H^3."""
    dH, dF = _field(H, F, 0.5)
    A, B = _ab(H, F, sig)
    dA = 2.0 * (dH * F + H * dF - H * dH)
    dB = 4.0 * F * dF * sig + 2.0 * F ** 2 * ((F - H) * sig - H ** 3)
    return A * dB - dA * B


@dataclass
class CrossingReport:
    """Sign changes of C_t along the bounded orbit; ``n_grid`` counts the
    points of the s* certificate they rest on."""

    t: float
    crossings: list[tuple[float, float, float]]   # (r, H, F), ordered in r
    sign_pattern: str                              # signs of C_t between the crossings
    n_grid: int

    @property
    def count(self) -> int:
        return len(self.crossings)


_CERT_STEP = 5e-3         # grid step of the slope certificate on integrated legs
_CROSSING_XTOL = 1e-9     # r-resolution of each crossing's Brent root


class _SStar:
    """s* = A/|B| along an orbit, certified to fall to ``r_min``, then rise.

    On the integrated legs A > 0 > B and the sign of ds*/dr are read at the
    sample nodes and every ``_CERT_STEP`` (``points`` in all); the sign may
    turn from - to + once, at r_min.  Past the germ join 1 - s* = Y^4 q(Y^2)
    with Y = -1/F falling, so every kept coefficient of the exact q must be
    positive: then s* < 1 rises there.  Anything else raises IntegrationError.
    Built once per orbit (``Trajectory._per_orbit``), it keeps no reference
    to the trajectory; each evaluation is handed it.
    """

    def __init__(self, traj: Trajectory):
        germ = traj.legs[-1]
        self.q = germ.series[3] if isinstance(germ, _GermLeg) else None
        r_end = germ.r_lo if self.q else traj.r_hi
        r = np.union1d(traj.r[traj.r <= r_end], np.arange(traj.r_lo, r_end, _CERT_STEP))
        states = traj.state_at(r)
        _check_ab(r, *_ab(*states))
        _check_ab(traj.r, *_ab(traj.H, traj.F, traj.sigma))
        if self.q and min(self.q) <= 0.0:
            raise IntegrationError(f"s* rises past r = {r_end:.6g} only if (1 - s*)/Y^4 "
                                   f"has positive coefficients; the germ's do not")
        up = _sstar_slope(*states) > 0.0
        turns = np.nonzero(up[1:] != up[:-1])[0]
        if turns.size > 1 or (turns.size and up[0]):
            raise IntegrationError(f"s* = A/|B| must fall, then rise: ds*/dr turns from + to "
                                   f"- at r = {r[turns[0 if up[0] else 1] + 1]:.6g}")
        if turns.size:
            slope = lambda rr: _sstar_slope(*traj.state_at(rr).tolist())
            self.r_min = brent(slope, r[turns[0]].item(), r[turns[0] + 1].item(), xtol=1e-12)
        else:
            self.r_min = float(r[0] if up[0] else r_end)
        self.points, self.r_join = int(r.size), r_end
        # the branch ends and s* there, which every report starts from
        self.ends = (traj.r_lo, self.r_min, traj.r_hi)
        self.at_ends = [self(traj, e) for e in self.ends]

    def __call__(self, traj: Trajectory, r: float) -> float:
        H, F, sig = traj.state_at(r).tolist()
        if self.q and r > self.r_join:          # exact where A/|B| cancels near 1
            return 1.0 - _horner(self.q, F ** -2) / F ** 4
        a, b = _ab(H, F, sig)
        return -a / b

    def report(self, traj: Trajectory, t: float) -> CrossingReport:
        """One Brent root of s* - (t+1) on each monotone branch straddling it."""
        s, ends = t + 1.0, self.ends
        gaps = [v - s for v in self.at_ends]
        crossings, pattern = [], "+" if gaps[0] > 0.0 else "-"
        for lo, hi, g_lo, g_hi in zip(ends, ends[1:], gaps, gaps[1:]):
            if g_lo * g_hi < 0.0:
                try:
                    rc = brent(lambda rr: self(traj, rr) - s, lo, hi, xtol=_CROSSING_XTOL,
                               rtol=1e-15)
                except ValueError as exc:
                    raise IntegrationError(f"C_t at t = {t} changes sign on "
                                           f"[{lo!r}, {hi!r}] but the root search failed: "
                                           f"{exc}") from exc
                crossings.append((rc, *traj.state_at(rc)[:2].tolist()))
                pattern += "+" if g_hi > 0.0 else "-"
        return CrossingReport(t, crossings, pattern, self.points)


def crossing_scan(traj: Trajectory, t_values) -> list[CrossingReport]:
    """Sign changes of C_t along ``traj`` at each of ``t_values``.

    On the orbit C_t = |B| (s* - (t+1)) with s* = A/|B| free of t, so one
    certificate (``_SStar``), built once per orbit, serves every t, and
    each crossing is one Brent root of s* = t + 1 to r-resolution 1e-9
    on a monotone branch: none for t < t*, two for t* < t < 0
    (one if the orbit ends before the second), one for t >= 0.  A failed
    certificate or refinement raises ``IntegrationError``.
    """
    t_values = [_check_t(t) for t in t_values]
    sstar = traj._per_orbit(_SStar)
    return [sstar.report(traj, t) for t in t_values]


def find_crossings(traj: Trajectory, t: float) -> CrossingReport:
    """Sign changes of C_t along ``traj`` at one t (see ``crossing_scan``)."""
    return crossing_scan(traj, [t])[0]


@dataclass
class DeltaScan:
    """The two thresholds in t near the birth of the flow.

    ``crossing_threshold`` t* is the first t at which {C_t = 0} meets the
    orbit, at r = ``crossing_r``, the minimum of the certified s*;
    ``crossing_bracket`` is t* plus or minus the orbit's ``rel_tol``, and
    ``crossing_counts`` are the exact counts on ``t_grid``.
    ``barrier_bracket`` brackets the exact t_b at which the Psi-positivity
    certificate is lost, isolated by Sturm sequence and rounded outward to
    floats, and ``psi_verdicts`` are its exact verdicts on ``t_grid``.  The
    two notions are reported separately and need not coincide.
    """

    t_grid: np.ndarray
    crossing_counts: list[int]          # find_crossings counts on t_grid
    crossing_threshold: float
    crossing_r: float
    crossing_bracket: tuple[float, float]
    barrier_bracket: tuple[float, float]
    psi_verdicts: dict[float, str]
    certificate_points: int


# P(s), ascending powers of s = t + 1: Psi_t's zero count changes only at its root in (0, 1)
_PSI_DISC = [Fraction(c) for c in (4263, -6061, 17214, -29568, 648)]


@functools.cache
def _t_b_bracket() -> tuple[float, float]:
    """t_b = s_b - 1, isolated once by Sturm sequence and rounded outward by one ulp."""
    lo, hi = next(p.interval for p in _real_roots(_PSI_DISC) if 0 < p.approx < 1)
    return math.nextafter(float(lo - 1), -math.inf), math.nextafter(float(hi - 1), math.inf)


def scan_delta_threshold(traj: Trajectory, t_grid=None) -> DeltaScan:
    """Both thresholds in closed form.

    With A > 0 > B certified along the orbit (``_SStar``), t* = s*(r_min)
    - 1.  On the branch Psi_t has the sign of G = x^2 + s(6x^2y^2 - 12x^3y
    + 5xy + 8x^4 - 6x^2 + 1), s = t + 1, and Res_x(C_t, G) is a quintic Q in
    u = y^2 whose discriminant is -1024 s^22 (s-1)(4s^2+1)(4s^2-6s+3)^2 P(s).
    For 0 < s < 1 the leading coefficient 8s^5(1-s) of Q is nonzero,
    Q(1/s) = s^2 keeps zeros off the branch end and the two x-branches meet
    only at u = 1/s, so the zero count changes only at P's one root s_b in
    (0, 1): Psi_t > 0 iff P(s) > 0 (P(0) > 0 > P(1)), and t_b = s_b - 1 is
    isolated by Sturm sequence.
    """
    if t_grid is None:
        t_grid = np.linspace(-0.9, -0.01, 24)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= -1.0) or np.any(t_grid >= 0.0):
        raise ValueError("t_grid must lie in (-1, 0)")
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")

    sstar = traj._per_orbit(_SStar)
    counts = [sstar.report(traj, t).count for t in t_grid]
    t_star = sstar.at_ends[1] - 1.0
    if not -1.0 < t_star < 0.0:
        raise IntegrationError(f"crossing threshold t* = {t_star:.6g} not in (-1, 0)")

    verdicts = {float(t): "positive" if _poly_eval(_PSI_DISC, Fraction(t) + 1) > 0
                else "sign-changing" for t in t_grid}

    return DeltaScan(t_grid=t_grid, crossing_counts=counts,
                     crossing_threshold=t_star, crossing_r=sstar.r_min,
                     crossing_bracket=(t_star - traj.rel_tol, t_star + traj.rel_tol),
                     barrier_bracket=_t_b_bracket(),
                     psi_verdicts=verdicts, certificate_points=sstar.points)


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


def _flow_time(traj: Trajectory):
    """T(r) = int_{r_hi}^r dr/F, tabulated once per orbit from the flat end,
    and its inverse r(tau), tau = log(1 + T), as quintic Hermite pieces.

    The node derivatives come from the field: dr/dtau = (1 + T) F and
    d2r/dtau2 = (1 + T) F + (1 + T)^2 F F'.  The pieces are Taylor
    coefficients in the unit variable of each tau interval, highest first.
    """
    if np.any(traj.F >= 0.0):
        raise IntegrationError(f"the flow time int dr/F needs F < 0 on the orbit; "
                               f"it fails at r = {traj.r[np.argmax(traj.F >= 0.0)]:.6g}")
    T = _Cumulative(traj, 1, lambda F: 1.0 / F, from_hi=True)
    # tau rises as r falls: reversed, the nodes increase
    w, F = 1.0 + T.cum[::-1], traj.F[::-1]
    tau, r = np.log1p(T.cum[::-1]), traj.r[::-1]
    d1 = w * F
    d2 = d1 + w * d1 * _field(traj.H[::-1], F, 0.5)[1]
    h = np.diff(tau)
    c1, c2 = h * d1[:-1], 0.5 * h * h * d2[:-1]
    # p(u) = sum c_k u^k on [0, 1] matches r, r', r'' at both ends
    gap = r[1:] - r[:-1] - c1 - c2
    slope = h * d1[1:] - c1 - 2.0 * c2
    curve = h * h * d2[1:] - 2.0 * c2
    c3 = 10.0 * gap - 4.0 * slope + 0.5 * curve
    c4 = -15.0 * gap + 7.0 * slope - curve
    c5 = 6.0 * gap - 3.0 * slope + 0.5 * curve
    return T, (tau, np.stack([c5, c4, c3, c2, c1, r[:-1]]))


def _r_start(inverse, target: np.ndarray) -> np.ndarray:
    """r at flow times ``target`` from ``_flow_time``'s Hermite pieces of T^-1.

    T is exponential in r at the cusp end and near linear at the flat end,
    so r is smooth in log(1 + T): on the default orbit the start is within
    7.3e-6 of T^-1 over T's whole range.
    """
    tau, coef = inverse
    x = np.log1p(target)
    i = np.minimum(np.maximum(np.searchsorted(tau, x) - 1, 0), tau.size - 2)
    return _horner(coef[:, i], (x - tau[i]) / (tau[i + 1] - tau[i]))


def pointwise_R_history(r0: float, t_grid, traj: Trajectory) -> RHistory:
    """Track R[g(t)] at the point anchored at r(0) = r0.

    F < 0 on the orbit, so the flow time T(r) = int_{r_hi}^r dr/F is
    strictly monotone and r(t) = T^{-1}(T(r0) + t).  T is tabulated by the
    quadrature of the metric profiles, accumulated from the flat end, and
    inverted by two Newton steps from a quintic Hermite start in log(1 + T).
    T(r0) and each step are one ``state_at`` call of F alone; then R[g(t)] =
    R[g0](r(t))/(t+1) and dR/dt follow from the final phase states, the one
    call of all three rows.  A t whose target T(r0) + t leaves T's range
    [0, T(r_lo)] is dropped and the history flagged truncated; an empty
    grid, or a t that is not finite and above -1, is a ValueError.
    """
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if not t_grid.size:
        raise ValueError("the flow time grid is empty")
    if not (t_grid[0] > -1.0 and np.isfinite(t_grid[-1])):   # sorted: a NaN is last
        raise ValueError("flow times must be finite with t > -1")
    if not (traj.r_lo <= r0 <= traj.r_hi):
        raise OrbitRangeError("r0 outside the computed orbit range")

    flow_time, inverse = traj._per_orbit(_flow_time)
    target = flow_time.value_at(traj, r0) + t_grid
    kept = (target >= 0.0) & (target <= flow_time.cum[0])
    tv, target = t_grid[kept], target[kept]
    r = _r_start(inverse, target)
    for _ in range(2):      # measured corrections 7e-6, 1.5e-11 (the next, 1e-15)
        value, F = flow_time.value_and_row(traj, r)
        r = r - (value - target) * F

    s = tv + 1.0
    H, F, sig = traj.state_at(r)
    A, B = _ab(H, F, sig)
    R = (-2.0 * H ** 2 + 4.0 * sig) / s          # R[g0] = curvatures(traj, r).scalar
    dR = 2.0 / s ** 2 * (A + s * B)
    sign_changes = [float(0.5 * (tv[i] + tv[i + 1]))
                    for i in np.nonzero(np.diff(np.sign(dR)) != 0)[0]]
    return RHistory(r0=float(r0), t=tv, r_of_t=r, R=R, dRdt=dR,
                    truncated=not kept.all(), sign_change_times=sign_changes)
