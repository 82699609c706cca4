"""Metric profiles, curvature data, soliton identities and asymptotics.

For an orbit (H(r), F(r)) of the expanding system the metric data are

    h(r) = h_anchor + int_0^r H,      f(r) = f0 + int_{-inf}^r F,

and all curvatures are rational in (H, H'):

    sec_xy = -H^2                 R       = -4H' - 6H^2
    sec_rx = -(H^2 + H')          Ric_rr  = -2(H^2 + H')
    Ric_tangential = -(H' + 2H^2) (tangential coefficient over e^{2h})
    laplace f = 2HF + F'          |grad f|^2 = F^2

Derivatives are always taken from the vector field, never from finite
differences, so the identities

    R + laplace f + 3/2 = 0
    R' = 2 Ric_rr F
    d/dr (R + F^2 + f) = 0

hold exactly up to arithmetic rounding and integration drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .phase_core import EIGENVALUE_UNSTABLE, SLOPE_UNSTABLE, Trajectory, _CuspLeg, vector_field

__all__ = [
    "MetricProfile", "CurvatureTable", "SolitonResiduals",
    "RatioEntry", "AsymptoticsReport",
    "reconstruct_profiles", "curvatures", "soliton_residuals",
    "check_asymptotics",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


class _Cumulative:
    """Cumulative integral of a function of one state row of a trajectory.

    The integrand is ``fn`` of state row ``row`` (0, 1, 2 for H, F, sigma),
    and only that row is evaluated; the integral is taken from the first
    sample node, or from the last if ``from_hi``.  Gauss-Legendre on each
    accepted step integrates the dense interpolant essentially exactly, so
    the result carries the integrator's accuracy.  The table keeps no
    reference to the trajectory (it may live in the trajectory's per-orbit
    memo); ``value_at`` is handed it.
    """

    def __init__(self, traj: Trajectory, row: int, fn=None, from_hi: bool = False):
        self.row, self._fn = row, fn or (lambda v: v)
        r = traj.r
        mid = 0.5 * (r[:-1] + r[1:])
        half = 0.5 * np.diff(r)
        nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        vals = self._fn(traj.state_at(nodes, row=row)).reshape(-1, len(_GL_NODES))
        steps = half * (vals @ _GL_WEIGHTS)
        self.nodes = r
        if from_hi:     # summed from the anchor, so the far end loses no digits
            self.cum = np.concatenate([-np.cumsum(steps[::-1])[::-1], [0.0]])
        else:
            self.cum = np.concatenate([[0.0], np.cumsum(steps)])

    def value_at(self, traj: Trajectory, r) -> np.ndarray:
        """Integral from the anchor node to each query point of ``traj``."""
        out = self.value_and_row(traj, np.atleast_1d(np.asarray(r, dtype=float)))[0]
        return out if np.ndim(r) else float(out[0])

    def value_and_row(self, traj: Trajectory, r: np.ndarray):
        """``value_at`` the points ``r`` and the table's state row there, from
        one ``state_at`` call of that row over the Gauss points and ``r``."""
        idx = np.minimum(np.maximum(np.searchsorted(self.nodes, r) - 1, 0), len(self.nodes) - 2)
        a = self.nodes[idx]
        half = 0.5 * (r - a)
        pts = (a + half)[:, None] + half[:, None] * _GL_NODES
        row = traj.state_at(np.concatenate([pts.ravel(), r]), row=self.row)
        vals = self._fn(row[:pts.size]).reshape(pts.shape)
        return self.cum[idx] + half * (vals @ _GL_WEIGHTS), row[pts.size:]


@dataclass
class MetricProfile:
    """Co-sampled (r, h, f) for a trajectory, plus the gauge anchors.

    ``f0`` is the prescribed limit of f at the cusp end (free additive
    gauge); ``f_tail`` is the integral of F below the first sample and
    ``cusp_h_offset`` the limit of h - r/2, both from the cusp series.  For
    non-separatrix orbits there is no cusp end: f is anchored directly at
    the first sample and the cusp fields are None.
    """

    r: np.ndarray
    h: np.ndarray
    f: np.ndarray
    h_anchor: float
    f0: float
    f_tail: float | None
    cusp_h_offset: float | None
    _traj: Trajectory = field(repr=False, default=None)
    _h_cum: _Cumulative = field(repr=False, default=None)
    _f_cum: _Cumulative = field(repr=False, default=None)
    _h_base: float = field(repr=False, default=0.0)
    _f_base: float = field(repr=False, default=0.0)

    def h_at(self, r):
        return self._h_base + self._h_cum.value_at(self._traj, r)

    def f_at(self, r):
        return self._f_base + self._f_cum.value_at(self._traj, r)


def reconstruct_profiles(traj: Trajectory, h_anchor: float = 0.0,
                         f0: float = 0.0) -> MetricProfile:
    """Quadrature of H and F along ``traj`` into the profile functions.

    h is anchored by h(0) = h_anchor.  For a separatrix trajectory, f is
    anchored through the cusp limit: f(r_lo) = f0 + tail, where the tail
    int_{-inf}^{r_lo} F = sum_k F_k theta^k / (k lambda) is exact on the
    cusp series.  The same tail of H - 1/2 yields the cusp offset
    c1 = lim (h - r/2).
    """
    if np.any(np.diff(traj.r) <= 0):
        raise ValueError("trajectory must be strictly monotone in r")
    h_cum = _Cumulative(traj, 0)
    f_cum = _Cumulative(traj, 1)

    r = traj.r
    if r[0] <= 0.0 <= r[-1]:
        h_base = h_anchor - h_cum.value_at(traj, 0.0)
    else:
        h_base = h_anchor - h_cum.value_at(traj, r[0])
    h = h_base + h_cum.cum

    cusp = traj.legs[0]
    h_tail, f_tail = cusp.tails(r[0]) if isinstance(cusp, _CuspLeg) else (None, None)
    f_base = f0 if f_tail is None else f0 + f_tail
    cusp_h_offset = None if f_tail is None else float(h[0] - r[0] / 2.0 - h_tail)
    f = f_base + f_cum.cum

    return MetricProfile(
        r=r, h=h, f=f, h_anchor=h_anchor, f0=f0,
        f_tail=f_tail, cusp_h_offset=cusp_h_offset,
        _traj=traj, _h_cum=h_cum, _f_cum=f_cum, _h_base=h_base, _f_base=f_base,
    )


@dataclass
class CurvatureTable:
    """Curvature data along a trajectory, one row per sample."""

    r: np.ndarray
    sec_xy: np.ndarray
    sec_rx: np.ndarray
    scalar: np.ndarray          # scalar curvature R
    ric_rr: np.ndarray
    ric_tangential: np.ndarray
    laplace_f: np.ndarray
    grad_f_sq: np.ndarray

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "r": self.r, "sec_xy": self.sec_xy, "sec_rx": self.sec_rx,
            "R": self.scalar, "Ric_rr": self.ric_rr,
            "Ric_tangential": self.ric_tangential,
            "laplace_f": self.laplace_f, "grad_f_sq": self.grad_f_sq,
        }


def curvatures(traj: Trajectory, r=None) -> CurvatureTable:
    """Curvatures along ``traj`` (at its samples, or at a given r grid).

    The mixed curvature and everything derived from it come from the
    transported curvature state, which keeps full relative accuracy where
    the direct expressions in (H, H') cancel.
    """
    if r is None:
        rr, H, F, sig = traj.r, traj.H, traj.F, traj.sigma
    else:
        rr = np.asarray(r, dtype=float)
        H, F, sig = traj.state_at(rr)
    dF = vector_field((H, F)).dF
    return CurvatureTable(
        r=rr,
        sec_xy=-H ** 2,
        sec_rx=sig,
        scalar=-2.0 * H ** 2 + 4.0 * sig,
        ric_rr=2.0 * sig,
        ric_tangential=sig - H ** 2,
        laplace_f=2.0 * H * F + dF,
        grad_f_sq=F ** 2,
    )


@dataclass
class SolitonResiduals:
    """Pointwise residuals of the three soliton identities along an orbit.

    ``identity_scalar`` and ``identity_gradient`` are algebraic in (H, F)
    and vanish identically; ``conserved`` is Q = R + F^2 + f, whose drift
    relative to Q(0) measures integration plus quadrature error.
    """

    r: np.ndarray
    identity_scalar: np.ndarray      # R + laplace f + 3/2
    identity_gradient: np.ndarray    # R' - 2 Ric_rr F
    conserved: np.ndarray            # Q = R + F^2 + f
    q_reference: float

    @property
    def q_drift(self) -> np.ndarray:
        return self.conserved - self.q_reference


def soliton_residuals(traj: Trajectory, profile: MetricProfile) -> SolitonResiduals:
    """Evaluate the identity residuals on the trajectory samples.

    The first two residuals use the direct field expressions, so they test
    the algebra of the implemented formulas independently of the
    integration; the conserved quantity uses the transported curvature for
    R so its drift reflects only integration and quadrature error.
    """
    if profile.r is not traj.r and not np.array_equal(profile.r, traj.r):
        raise ValueError("profile must be co-sampled with the trajectory")
    H, F = traj.H, traj.F
    dH, dF = vector_field((H, F))
    ddH = dH * F + H * dF - 4.0 * H * dH
    R_direct = -4.0 * dH - 6.0 * H ** 2
    res1 = R_direct + (2.0 * H * F + dF) + 1.5
    Rp = -4.0 * ddH - 12.0 * H * dH
    res2 = Rp - 2.0 * (-2.0 * (H ** 2 + dH)) * F

    R_acc = -2.0 * H ** 2 + 4.0 * traj.sigma
    Q = R_acc + F ** 2 + profile.f
    if traj.r[0] <= 0.0 <= traj.r[-1]:
        q_ref = float(np.interp(0.0, traj.r, Q))
    else:
        q_ref = float(Q[0])
    return SolitonResiduals(r=traj.r, identity_scalar=res1,
                            identity_gradient=res2, conserved=Q,
                            q_reference=q_ref)


@dataclass
class RatioEntry:
    """One measured asymptotic ratio with its named target."""

    name: str
    r_at: float
    measured: float
    target: float
    ok: bool = True
    note: str = ""

    @property
    def residual(self) -> float:
        return self.measured - self.target


@dataclass
class AsymptoticsReport:
    """Measured asymptotic laws at one end of the manifold."""

    end: str                       # "cusp" (r -> -inf) or "flat" (r -> +inf)
    entries: list[RatioEntry]
    alpha_fit: float | None = None
    extras: dict = field(default_factory=dict)

    def entry(self, name: str) -> RatioEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def check_asymptotics(traj: Trajectory, profile: MetricProfile,
                      r_cusp: float = -30.0, r_flat: float = 500.0
                      ) -> tuple[AsymptoticsReport, AsymptoticsReport]:
    """Measure the asymptotic laws at both ends of the separatrix.

    Cusp end: h ~ r/2, f -> f0, and the deviations decay along the saddle
    eigendirection, so (f - f0)/(h - r/2 - c1) tends to the eigenvector
    slope 3 + sqrt5 (its reciprocal is reported as well); |F| decays like
    e^{alpha r}.  Flat end: H ~ 1/r, F ~ -r/2, HF -> -1/2, F' -> -1/2,
    h ~ ln r, f ~ -r^2/4, H/F -> 0; the H r trend is read at 9 points of
    [r_hi/10, r_hi].  A probe outside [r_lo, r_hi] marks that end's probed
    entries not ok, "insufficient range"; a probe at r = 0 marks the entry
    that divides by it not ok, "probe at r = 0".
    """
    if profile.cusp_h_offset is None:
        raise ValueError("asymptotics need a separatrix profile")
    entries_c: list[RatioEntry] = []

    def cusp_entry(name, r_at, measured, target, ok=True, note=""):
        entries_c.append(RatioEntry(name, r_at, measured, target, ok, note))

    if not traj.r_lo <= r_cusp <= traj.r_hi:
        for name, tgt in (("h_over_half_r", 1.0),
                          ("f_dev_over_h_dev", SLOPE_UNSTABLE),
                          ("h_dev_over_f_dev", 1.0 / SLOPE_UNSTABLE)):
            cusp_entry(name, r_cusp, math.nan, tgt, ok=False,
                       note="insufficient range")
        alpha_report = None
    else:
        h_c = float(profile.h_at(r_cusp))
        f_c = float(profile.f_at(r_cusp))
        h_dev = h_c - r_cusp / 2.0 - profile.cusp_h_offset
        f_dev = f_c - profile.f0
        cusp_entry("h_over_half_r", r_cusp, h_c / (r_cusp / 2.0) if r_cusp else math.nan, 1.0,
                   ok=bool(r_cusp), note="" if r_cusp else "probe at r = 0")
        cusp_entry("f_dev_over_h_dev", r_cusp, f_dev / h_dev, SLOPE_UNSTABLE)
        cusp_entry("h_dev_over_f_dev", r_cusp, h_dev / f_dev, 1.0 / SLOPE_UNSTABLE)
        m = (traj.r >= r_cusp) & (traj.r <= r_cusp + 20.0) & (traj.F < 0)
        alpha_report = float(np.polyfit(traj.r[m],
                                        np.log(-traj.F[m]), 1)[0]) if m.sum() > 2 else None
        if alpha_report is not None:
            cusp_entry("log_F_slope", r_cusp, alpha_report, EIGENVALUE_UNSTABLE)

    cusp = AsymptoticsReport("cusp", entries_c, alpha_fit=alpha_report,
                             extras={"f0": profile.f0,
                                     "cusp_h_offset": profile.cusp_h_offset})

    entries_f: list[RatioEntry] = []

    def flat_entry(name, r_at, measured, target, ok=True, note=""):
        entries_f.append(RatioEntry(name, r_at, measured, target, ok, note))

    r_hi = traj.r_hi
    if not traj.r_lo <= r_flat <= r_hi:
        for name, tgt in (("H_times_r", 1.0), ("HF", -0.5), ("F_prime", -0.5),
                          ("F_over_neg_half_r", 1.0)):
            flat_entry(name, r_flat, math.nan, tgt, ok=False,
                       note="insufficient range")
        trend = {}
    else:
        Hp, Fp = traj.state_at(r_flat)[:2]
        flat_entry("H_times_r", r_flat, float(Hp * r_flat), 1.0)
        flat_entry("HF", r_flat, float(Hp * Fp), -0.5)
        flat_entry("F_prime", r_flat, float(vector_field((Hp, Fp)).dF), -0.5)
        flat_entry("F_over_neg_half_r", r_flat,
                   float(Fp / (-r_flat / 2.0)) if r_flat else math.nan, 1.0,
                   ok=bool(r_flat), note="" if r_flat else "probe at r = 0")
        rg = np.geomspace(r_hi / 10.0, r_hi, 9)
        Hg = traj.state_at(rg, row=0)
        trend = {"trend_r": rg, "trend_H_times_r_minus_1": np.abs(Hg * rg - 1.0)}

    Ht, Ft = float(traj.H[-1]), float(traj.F[-1])
    flat_entry("H_over_F", r_hi, Ht / Ft, 0.0)
    if r_hi > 1.0:
        flat_entry("h_over_log_r", r_hi,
                   float(profile.h[-1] / math.log(r_hi)), 1.0)
        flat_entry("f_over_neg_quarter_r2", r_hi,
                   float(profile.f[-1] / (-r_hi ** 2 / 4.0)), 1.0)

    flat = AsymptoticsReport("flat", entries_f, extras=trend)
    return cusp, flat
