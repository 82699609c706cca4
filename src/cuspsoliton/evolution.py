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
    Trajectory, IntegrationError, OrbitRangeError, _GermLeg, _horner, _jet,
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
    val = _ct_and_dx(np.asarray(x, dtype=float), np.asarray(y, dtype=float), t + 1.0)[0]
    return float(val) if val.ndim == 0 else val


def grad_Ct(x, y, t: float):
    """Gradient of C_t: (2y - 2x + (t+1)y^2(-2y + 4x), 2x + 2(t+1)y(-3xy + 2x^2 - 1))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = t + 1.0
    gx = _ct_and_dx(x, y, s)[1]
    gy = 2.0 * x + 2.0 * s * y * (-3.0 * x * y + 2.0 * x ** 2 - 1.0)
    if gx.ndim == 0:
        return float(gx), float(gy)
    return gx, gy


def _ct_and_dx(x, y, s):
    """C_t and dC_t/dx with s = t + 1, for arrays, from one x^2, xy and s y^2:
    doubling is exact, so these are the bits of the spelled-out forms."""
    xx, two_xy, sy2 = x * x, 2.0 * (x * y), s * (y * y)
    ct = (two_xy - xx + 1.0) + sy2 * (-two_xy + 2.0 * xx - 1.0)
    return ct, 2.0 * y - 2.0 * x + sy2 * (-2.0 * y + 4.0 * x)


def _branch_domain_end(t: float) -> float:
    return -1.0 / math.sqrt(t + 1.0)


def ct_branch_x(y, t: float):
    """The x > 0 branch x(y) of {C_t = 0} for y <= -1/sqrt(t+1).

    Equals the quadratic-formula root
    (-y + (t+1)y^3 + sqrt(...)) / (2(t+1)y^2 - 1) but is evaluated in the
    cancellation-free form and polished by two Newton steps on C_t in x, so
    that C_t(x(y), y) vanishes to full precision across the whole ray.
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
    A = 2.0 * sy2 - 1.0
    halfB = y * (1.0 - sy2)                # >= 0 on the domain
    C0 = 1.0 - sy2                         # <= 0 on the domain
    rad = np.sqrt(np.maximum(halfB ** 2 - A * C0, 0.0))
    q = -(halfB + rad)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(q != 0.0, C0 / np.where(q != 0.0, q, 1.0), 0.0)
    for _ in range(2):
        val, dv = _ct_and_dx(x, y, s)
        step = np.where(dv != 0.0, val / np.where(dv != 0.0, dv, 1.0), 0.0)
        x = x - step
    return float(x[0]) if scalar else x


def psi(y, t: float):
    """Normal-times-field product Psi_t(y) on the branch x = x(y) of {C_t = 0}."""
    t = _check_t(t)
    s = t + 1.0
    y = np.asarray(y, dtype=float)
    x = np.asarray(ct_branch_x(y, t))
    xx = x * x
    val = -y * (xx + s * (6.0 * xx * y ** 2 - 12.0 * x ** 3 * y
                          + 5.0 * x * y + 8.0 * x ** 4 - 6.0 * xx + 1.0))
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
    tail t/(4y), whose sign for y < 0 is the sign of -t, and at t = 0 by
    Psi_0 = 1/(4y^5) - 5/(16y^7) + O(y^-9), negative.  Verdict
    "positive" certifies the barrier property of {C_t = 0}.  For t in
    (-1, 0) the verdict is exact, the sign of P(t + 1) (see
    ``scan_delta_threshold``): far out the float Psi_t cancels, so its
    minimum is kept as data only.  For t >= 0 the tail's sign settles it:
    t/(4y) < 0 for t > 0 and Psi_0 ~ 1/(4y^5) < 0 at t = 0, so the verdict
    is "sign-changing".
    """

    t: float
    y: np.ndarray
    values: np.ndarray
    min_value: float
    argmin_y: float
    tail_sign: int
    tail_match: float            # relative agreement of psi with the tail at y_floor; NaN at t = 0
    verdict: str                 # "positive" | "sign-changing"


# P(s), ascending powers of s = t + 1: Psi_t's zero count changes only at its root in (0, 1)
_PSI_DISC = [Fraction(c) for c in (4263, -6061, 17214, -29568, 648)]


def _psi_positive(t: float) -> bool:
    """Psi_t > 0 on the whole branch, exactly, for t in (-1, 0): P(t + 1) > 0,
    true below t_b and false above; only a t inside the cached bracket of
    t_b evaluates P in Fractions."""
    lo, hi = _t_b_bracket()
    if lo < t < hi:
        return _poly_eval(_PSI_DISC, Fraction(t) + 1) > 0
    return t <= lo


def _check_y_floor(t: float, y_floor: float) -> None:
    """A ValueError unless ``y_floor`` lies below the branch end, with |y| and
    (t+1)|y|^3 at most 1e150 down to it: the float range of Psi_t, past
    which ``ct_branch_x`` overflows."""
    end = _branch_domain_end(t)
    if y_floor >= end:
        raise ValueError(f"y_floor = {y_floor:g} must lie below the Psi branch end "
                         f"-1/sqrt(t+1) = {end:.6g} at t = {t:g}")
    low = -min(1e150, (1e150 / (t + 1.0)) ** (1.0 / 3.0))
    if y_floor < low:
        raise ValueError(f"y_floor = {y_floor:g} is past the float range of Psi_t at t = {t:g}: "
                         f"it must lie in [{low!r}, {end:.6g})")


def scan_psi(t: float, y_floor: float = -1e3, n: int = 1200) -> PsiScan:
    """Scan Psi_t on a log grid over (y_floor, -1/sqrt(t+1)]; a ``y_floor``
    outside the branch or past the float range of Psi_t is a ValueError.
    The verdict is exact (see ``PsiScan``): the scan does not decide it."""
    t = _check_t(t)
    _check_y_floor(t, y_floor)
    end = _branch_domain_end(t)
    y = -np.geomspace(-end, -y_floor, int(n))
    vals = psi(y, t)
    i = int(np.argmin(vals))
    tail_sign = 1 if t < 0.0 else -1          # the sign of t/(4y), or of 1/(4y^5) at t = 0
    tail_ref = psi_tail(y_floor, t)
    # at t = 0 the tail vanishes identically: no relative agreement with it
    tail_match = abs(vals[-1] - tail_ref) / max(abs(tail_ref), 1e-300) if t else math.nan
    positive = t < 0.0 and _psi_positive(t)
    return PsiScan(t=t, y=y, values=vals, min_value=float(vals[i]),
                   argmin_y=float(y[i]), tail_sign=tail_sign,
                   tail_match=float(tail_match),
                   verdict="positive" if positive else "sign-changing")


# ---------------------------------------------------------------------------
# crossings of {C_t = 0} with the bounded orbit

def _ab(H, F, sig):
    """C_t = A + (t+1) B at orbit states, in the cancellation-free split form.

    With p = HF + 1/2 and sigma = H^2 - p (the transported curvature state),
    A = 2p - H^2 and B = 2F^2 sigma.  Squares are products, so floats and
    arrays take the same IEEE operations (a float's ``** 2`` is libm's pow).
    """
    return 2.0 * (H * F + 0.5) - H * H, 2.0 * F * F * sig


def _check_ab(r, A, B):
    for name, bad in (("A = 2HF + 1 - H^2 > 0", A <= 0.0), ("B = 2F^2 sigma < 0", B >= 0.0)):
        if np.any(bad):
            raise IntegrationError(f"s* = A/|B| needs {name} on the orbit; "
                                   f"it fails at r = {r[np.argmax(bad)]:.6g}")


def _sstar_slope(H, F, sig):
    """A B' - A' B, of the sign of ds*/dr (s* = -A/B), with H', F' and
    sigma' from the field's jet."""
    (_, dH), (_, dF), (_, dsig) = _jet((H, F, sig), 1)
    A, B = _ab(H, F, sig)
    dA = 2.0 * (dH * F + H * dF - H * dH)
    dB = 4.0 * F * dF * sig + 2.0 * F ** 2 * dsig
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
    The values of s* on that grid, bit for bit those of ``__call__``, are
    kept as two branch tables that bracket each crossing between adjacent
    grid points.  Built once per orbit (``Trajectory._per_orbit``), it keeps
    no reference to the trajectory; each evaluation is handed it.
    """

    def __init__(self, traj: Trajectory):
        germ = traj.legs[-1]
        self.q = germ.series[3] if isinstance(germ, _GermLeg) else None
        r_end = germ.r_lo if self.q else traj.r_hi
        r = np.union1d(traj.r[traj.r <= r_end], np.arange(traj.r_lo, r_end, _CERT_STEP))
        states = traj.state_at(r)
        A, B = _ab(*states)
        _check_ab(r, A, B)
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
        ends = [traj.r_lo, self.r_min, traj.r_hi]
        self.at_ends = [self(traj, e) for e in ends]
        # s* on the grid as two branch tables: nodes rising in r, and the
        # running maximum of sign * s* (sign -1 on the falling branch), whose
        # first key above sign * (t + 1) ends a node interval across which
        # s* - (t + 1) changes sign.  Past a germ join the next node is r_hi.
        fall, rise = r < self.r_min, r > self.r_min
        k, s_grid, tail = np.count_nonzero(fall), -A / B, slice(2, 3 if self.q else 2)
        nodes = np.concatenate([r[fall], ends[1:2], r[rise], ends[tail]])
        vals = np.concatenate([s_grid[fall], self.at_ends[1:2], s_grid[rise], self.at_ends[tail]])
        self.branches = [(nodes[:k + 1], np.maximum.accumulate(-vals[:k + 1]), -1.0),
                         (nodes[k:], np.maximum.accumulate(vals[k:]), 1.0)]

    def __call__(self, traj: Trajectory, r: float) -> float:
        H, F, sig = traj.state_at(r).tolist()
        if self.q and r > self.r_join:          # exact where A/|B| cancels near 1
            return 1.0 - _horner(self.q, F ** -2) / F ** 4
        a, b = _ab(H, F, sig)
        return -a / b

    def report(self, traj: Trajectory, t: float) -> CrossingReport:
        """One Brent root of s* - (t+1) on each monotone branch straddling it,
        between the adjacent grid points (or the germ join and r_hi) where
        the tabulated s* crosses t + 1."""
        s = t + 1.0
        gaps = [v - s for v in self.at_ends]
        crossings, pattern = [], "+" if gaps[0] > 0.0 else "-"
        for (nodes, key, sign), g_lo, g_hi in zip(self.branches, gaps, gaps[1:]):
            if g_lo * g_hi < 0.0:
                j = int(np.searchsorted(key, sign * s, side="right"))
                lo, hi = nodes[j - 1].item(), nodes[j].item()
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
    (one if the orbit ends before the second), one for t >= 0.  The
    certificate's table of s* on its grid brackets each root between
    adjacent grid points, so a root costs about five evaluations of s*.
    A failed certificate or refinement raises ``IntegrationError``.
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

    verdicts = {float(t): "positive" if _psi_positive(t) else "sign-changing" for t in t_grid}

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
    newton_steps: int            # Newton steps that inverted the flow time

    @property
    def last_sign_change(self) -> float | None:
        return self.sign_change_times[-1] if self.sign_change_times else None


def _horner_slope(coeffs, x):
    """p(x) and p'(x) in one Horner pass, coefficients highest first."""
    p, dp = coeffs[0] * x + coeffs[1], coeffs[0]
    for a in coeffs[2:]:
        dp = dp * x + p
        p = p * x + a
    return p, dp


_TABLE_CHECK = 1e-12       # relative: how far the flow-time table's slope may miss 1/F at a node


def _flow_time(traj: Trajectory) -> _Cumulative:
    """T(r) = int_{r_hi}^r dr/F, tabulated once per orbit from the flat end
    (``_Cumulative`` of 1/F).

    The table interpolates 1/F at 12 points inside each sample interval,
    not at its ends: its slope there must meet 1/F at the sample nodes to
    1e-12 relative, else ``IntegrationError``; the table's ``error`` is the
    largest mismatch.
    """
    if np.any(traj.F >= 0.0):
        raise IntegrationError(f"the flow time int dr/F needs F < 0 on the orbit; "
                               f"it fails at r = {traj.r[np.argmax(traj.F >= 0.0)]:.6g}")
    T = _Cumulative(traj, 1, lambda F: 1.0 / F, from_hi=True)
    # 12 points resolve 1/F on an interval if the slope meets it at the ends
    g = 1.0 / traj.F
    lo, hi = (_horner_slope(T.coef, end)[1] for end in (-1.0, 1.0))
    mismatch = np.maximum(np.abs(lo - g[:-1]) / np.abs(g[:-1]), np.abs(hi - g[1:]) / np.abs(g[1:]))
    i = int(np.argmax(mismatch))
    T.error = float(mismatch[i])
    if not T.error <= _TABLE_CHECK:
        raise IntegrationError(f"the flow-time table's slope misses 1/F at the ends of "
                               f"[{traj.r[i]:.6g}, {traj.r[i + 1]:.6g}] by {T.error:.3g} relative")
    return T


_NEWTON_STOP = 1e-7        # a correction below this, relative to max(|r|, 1), ends the loop
_NEWTON_MAX_STEPS = 4


def _interval_start(T: _Cumulative, F: np.ndarray, target: np.ndarray):
    """The sample interval i whose T values bracket each target, and the
    cubic Hermite guess of T^-1 there in the interval's variable v: it
    meets r and dr/dT = F at both nodes, v = -1 and 1."""
    cum = T.cum
    i = np.minimum(np.maximum(np.searchsorted(-cum, -target) - 1, 0), cum.size - 2)
    dT = cum[i + 1] - cum[i]
    s = (target - cum[i]) / dT
    a, b = dT * F[i] / T.half[i] - 2.0, dT * F[i + 1] / T.half[i] - 2.0
    return i, 2.0 * s - 1.0 + s * (1.0 - s) * (a * (1.0 - s) - b * s)


def pointwise_R_history(r0: float, t_grid, traj: Trajectory) -> RHistory:
    """Track R[g(t)] at the point anchored at r(0) = r0.

    F < 0 on the orbit, so the flow time T(r) = int_{r_hi}^r dr/F is
    strictly monotone and r(t) = T^{-1}(T(r0) + t).  T is tabulated by the
    one quadrature of the metric profiles (``_Cumulative``), accumulated
    from the flat end: one polynomial per sample interval.  Each target
    is inverted on the interval that holds it, from the cubic Hermite
    start there, by Newton steps on that interval's polynomial and slope
    1/F, until every correction is at most 1e-7 of max(|r|, 1) (two steps
    on the CLI's grid, at most three over T's whole range on the default
    orbit; ``newton_steps`` records how many).  No convergence in four
    steps raises ``IntegrationError``.  Then R[g(t)] = R[g0](r(t))/(t+1)
    and dR/dt follow from the final phase states, the history's one
    ``state_at`` call.  A
    t whose target T(r0) + t leaves T's range [0, T(r_lo)] is dropped and
    the history flagged truncated; a ``t_grid`` that is not 1-D or is
    empty, or a t that is not finite and above -1, is a ValueError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1:
        raise ValueError(f"t_grid must be one-dimensional, got shape {t_grid.shape}")
    t_grid = np.sort(t_grid)
    if not t_grid.size:
        raise ValueError("the flow time grid is empty")
    if not (t_grid[0] > -1.0 and np.isfinite(t_grid[-1])):   # sorted: a NaN is last
        raise ValueError("flow times must be finite with t > -1")
    if not (traj.r_lo <= r0 <= traj.r_hi):
        raise OrbitRangeError("r0 outside the computed orbit range")

    T = traj._per_orbit(_flow_time)
    target = T(r0) + t_grid
    kept = (target >= 0.0) & (target <= T.cum[0])
    tv, target = t_grid[kept], target[kept]
    i, v = _interval_start(T, traj.F, target)
    cum, mid, half, coef = T.cum[i], T.mid[i], T.half[i], T.coef[:, i]
    for steps in range(1, _NEWTON_MAX_STEPS + 1):
        q, slope = _horner_slope(coef, v)
        step = (cum + half * q - target) / slope
        v = v - step / half
        r = mid + half * v
        # the next correction is about 0.28 step^2: at most 3e-15 of the scale
        if np.all(np.abs(step) <= _NEWTON_STOP * np.maximum(np.abs(r), 1.0)):
            break
    else:
        raise IntegrationError(f"r(t) from r0 = {r0!r}: Newton corrections still exceed "
                               f"{_NEWTON_STOP:g} of max(|r|, 1) after {steps} steps")

    s = tv + 1.0
    H, F, sig = traj.state_at(r)
    A, B = _ab(H, F, sig)
    R = (-2.0 * H ** 2 + 4.0 * sig) / s          # R[g0] at r, as in curvatures
    dR = 2.0 / s ** 2 * (A + s * B)
    sign_changes = [float(0.5 * (tv[i] + tv[i + 1]))
                    for i in np.nonzero(np.diff(np.sign(dR)) != 0)[0]]
    return RHistory(r0=float(r0), t=tv, r_of_t=r, R=R, dRdt=dR,
                    truncated=not kept.all(), sign_change_times=sign_changes,
                    newton_steps=steps)
