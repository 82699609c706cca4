"""Shooting for the bounded-curvature orbit and its barrier certificates.

The orbit S leaves the saddle (1/2, 0) along the unstable eigendirection
(1, 3+sqrt5) into the region {H < 1/2, F < 0} and ends on the vertical
asymptote H -> 0.  It is trapped between a family of explicit hyperbolas:
the isoclines where the field is vertical, horizontal or of fixed oblique
direction, plus the two curvature-sign curves {F' = 0} and
{H^2 - H F - 1/2 = 0}.  Each curve comes with a closed-form signed normal
product that certifies one-way crossing; scanning it along S at dense
resolution is the numerical counterpart of the trapping argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._numerics import brent
from .phase_core import (
    EIGENVALUE_UNSTABLE, SLOPE_UNSTABLE, IntegratorControls, Trajectory,
    _CuspLeg, _GermLeg, _Leg, _Taylor,
)

# The transversal contraction rate along the orbit grows like r/2, which
# limits an explicit method's steps far out; past the join the orbit is its
# exact germ at infinity, matched to the integrated state there.
_GERM_JOIN = 25.0          # calibrated r at which the germ takes over
_GERM_NODE_STEP = 5.0
_CUSP_NODE_STEP = 1.0      # r between the series' table nodes below the start

__all__ = [
    "ShootConfig", "BarrierReport", "ShootError",
    "isocline_F", "isocline_slopes_at_saddle", "oblique_barrier_margin",
    "shoot_separatrix", "certify_barriers", "BARRIER_CURVES",
]

ISOCLINE_KINDS = ("vertical", "horizontal", "oblique")

#: factor multiplying the base hyperbola 2H - 1/(2H) for each isocline
_ISOCLINE_FACTOR = {"vertical": 1.0, "horizontal": 0.5, "oblique": 2.0}


class ShootError(RuntimeError):
    """The shot failed: an offset past the cusp series, or S left 0 < H < 1/2."""


def isocline_F(kind: str, H):
    """F-value of the named isocline at H (H != 0).

    vertical {H'=0}:    F = 2H - 1/(2H)
    horizontal {F'=0}:  F = (1/2)(2H - 1/(2H))
    oblique (field parallel to (1,3)): F = 2(2H - 1/(2H))
    """
    if kind not in ISOCLINE_KINDS:
        raise ValueError(f"unknown isocline kind {kind!r}")
    H = np.asarray(H, dtype=float)
    if np.any(H == 0.0):
        raise ValueError("isoclines are undefined at H = 0")
    val = _ISOCLINE_FACTOR[kind] * (2.0 * H - 1.0 / (2.0 * H))
    return float(val) if val.ndim == 0 else val


def isocline_slopes_at_saddle() -> dict[str, float]:
    """Tangent slopes dF/dH of the three isoclines at the saddle (1/2, 0):
    the slope of 2H - 1/(2H) there is 2 + 1/(2H^2) = 4, times each factor."""
    return {kind: 4.0 * factor for kind, factor in _ISOCLINE_FACTOR.items()}


def oblique_barrier_margin(H):
    """Signed normal product on the oblique isocline: -2H^2 + 1/(2H^2) - 3/2.

    Positive for 0 < H < 1/2, which makes the oblique isocline a one-way
    barrier below the orbit.
    """
    H = np.asarray(H, dtype=float)
    if np.any(H == 0.0):
        raise ValueError("margin undefined at H = 0")
    val = -2.0 * H ** 2 + 1.0 / (2.0 * H ** 2) - 1.5
    return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class ShootConfig:
    """Parameters of the saddle shot.

    Stepping starts on S at distance ``offset`` from (1/2, 0), and the tables
    at distance ``saddle_ball``, both on the unstable manifold's series.
    The shot reads ``rel_tol``, ``abs_tol``, ``r_max`` (the calibrated
    forward extent, r = 0 at F = -1) and ``h_floor`` of ``controls``, not
    ``r_min``; it has no use for ``f_ceiling``, which must be unset.
    """

    offset: float = 1e-8
    controls: IntegratorControls = field(default_factory=lambda: IntegratorControls(
        r_max=2000.0, h_floor=1e-6))
    saddle_ball: float = 1e-9

    def __post_init__(self):
        if not 0 < self.saddle_ball < self.offset:
            raise ValueError("offset and saddle_ball must satisfy 0 < saddle_ball < offset")
        if self.controls.f_ceiling is not None:
            raise ValueError("the shot reads no f_ceiling; leave it unset")


def shoot_separatrix(cfg: ShootConfig | None = None) -> Trajectory:
    """Compute the bounded orbit S by shooting from the saddle.

    S is the unstable manifold of (1/2, 0), a series in theta ~ e^{lambda r}
    (``_CuspLeg``).  One Taylor leg starts on it at theta = -offset/|p_1|
    and runs until H drops below the floor or the forward extent is
    reached, sampled every 0.2 or less; below the start the series is
    tabulated every 1.0 in r from where theta is saddle_ball/offset of its
    start value.  r = 0 at the one point with F = -1 (F is monotone along
    S), which the leg locates on its step polynomials while it steps.  Past
    r = 25 S is its exact germ at infinity, sampled every 5.0.  ``meta``
    records the join and its mismatch, and each leg's method and range.
    """
    cfg = cfg or ShootConfig()
    ctl = cfg.controls
    cusp = _CuspLeg.at(-cfg.offset / math.hypot(1.0, SLOPE_UNSTABLE))
    if (cut := cusp.stats["truncation"]) > 1e-16:
        raise ShootError(f"the cusp series is truncated by {cut:.1e} at the start; check offset")
    h_floor = 0.0 if ctl.h_floor is None else ctl.h_floor
    r_star = None

    def leave_band(t):
        raise ShootError("orbit left the band H < 1/2; check offset")

    def anchor(t):
        # until F = -1 at raw r*, the bound is a search limit; then it is
        # the calibrated extent or the germ join
        nonlocal r_star
        if r_star is None:
            r_star, fwd.t_bound = t, t + min(_GERM_JOIN, ctl.r_max)

    fwd = _Taylor(0.0, cusp(0.0).tolist(), 1e4, ctl.rel_tol, ctl.abs_tol)
    termination = fwd.advance([(lambda t, y: y[0] - 0.5, 1, leave_band),
                               (lambda t, y: y[1] + 1.0, -1, anchor),
                               (lambda t, y: y[0] - h_floor, -1, lambda t: "h_floor")]) or "r_max"
    if r_star is None:
        raise ShootError("orbit never reached the calibration anchor F = -1")

    cusp = replace(cusp, r_hi=-r_star, r_lo=math.log(cfg.saddle_ball / cfg.offset)
                   / EIGENVALUE_UNSTABLE - r_star)
    nodes = np.arange(cusp.r_lo, cusp.r_hi, _CUSP_NODE_STEP)
    nodes = nodes[nodes < cusp.r_hi]
    step = _Leg.from_run(fwd, r_star)
    r_step, y_step = step.samples()
    legs = [cusp, step]
    r = np.concatenate([nodes, r_step])
    y = np.concatenate([cusp(nodes), y_step], axis=1)
    meta = dict(kind="separatrix", offset=cfg.offset, saddle_ball=cfg.saddle_ball, r_star_raw=r_star)
    if termination != "h_floor" and ctl.r_max > _GERM_JOIN:
        r_join = float(r[-1])
        germ = _GermLeg.matched(r_join, float(y_step[1, -1]), float(ctl.r_max))
        if ctl.h_floor is not None and germ(germ.r_hi)[0] < ctl.h_floor:
            germ = replace(germ, r_hi=brent(lambda rr: germ(rr)[0].item() - ctl.h_floor, r_join,
                                            germ.r_hi, xtol=1e-12, rtol=1e-15))
            termination = "h_floor"
        nodes = np.arange(r_join, germ.r_hi, _GERM_NODE_STEP)[1:]
        nodes = np.append(nodes[nodes < germ.r_hi], germ.r_hi)
        dev = np.abs(germ(r_join) / y_step[:, -1] - 1.0)
        meta.update(germ_join_r=r_join, germ_c=germ.c, germ_join_mismatch_H=float(dev[0]),
                    germ_join_mismatch_sigma=float(dev[2]))
        legs.append(germ)
        r, y = np.append(r, nodes), np.concatenate([y, germ(nodes)], axis=1)
    meta["legs"] = [dict(leg.stats, r_lo=leg.r_lo, r_hi=leg.r_hi) for leg in legs]
    traj = Trajectory(
        r=r, H=y[0].copy(), F=y[1].copy(), sigma=y[2].copy(),
        rel_tol=ctl.rel_tol, termination=termination, legs=tuple(legs), meta=meta,
    )
    if np.any(traj.H <= 0.0) or np.any(traj.H >= 0.5):
        raise ShootError("computed samples left the band 0 < H < 1/2")
    return traj


# ---------------------------------------------------------------------------
# barrier certificates
#
# Each named curve is written as a graph F = g(H) over 0 < H < 1/2.  The
# signed product <nu, (H', F')> is evaluated *on the curve* at the H-values
# visited by S, with the normal nu oriented toward the side S occupies, so
# a positive product certifies that the flow never crosses toward S's side
# boundary:  the curve is a one-way barrier.

def _product_vertical(H):
    # nu = (g', -1); on {H'=0} this reduces to -F' = 1/2 - 2H^2
    return 0.5 - 2.0 * H ** 2


def _product_horizontal(H):
    # nu = (g', -1); on {F'=0}: g' * H' = (1 + 1/(4H^2)) (1/4 - H^2)
    return (1.0 + 1.0 / (4.0 * H ** 2)) * (0.25 - H ** 2)


def _product_fprime_zero(H):
    # gradient form of the horizontal certificate: <-grad F', V> on {F'=0}
    return (2.0 * H + 1.0 / (2.0 * H)) * (0.25 - H ** 2)


def _product_sec_mixed_zero(H):
    # on {H^2 - HF - 1/2 = 0}: <-grad, V> = H^3
    return H ** 3


BARRIER_CURVES = {
    "vertical_isocline": _product_vertical,
    "horizontal_isocline": _product_horizontal,
    "oblique_isocline": oblique_barrier_margin,
    "f_prime_zero": _product_fprime_zero,
    "sec_mixed_zero": _product_sec_mixed_zero,
}

#: the side of each curve that S occupies
_SIDE = {
    "vertical_isocline": "below",
    "horizontal_isocline": "below",
    "oblique_isocline": "above",
    "f_prime_zero": "below",
    "sec_mixed_zero": "above",
}

#: the isocline each curve lies on (sec_mixed_zero, F = H - 1/(2H), is none)
_ISOCLINE = {
    "vertical_isocline": "vertical",
    "horizontal_isocline": "horizontal",
    "oblique_isocline": "oblique",
    "f_prime_zero": "horizontal",
}


@dataclass
class BarrierReport:
    """Signed normal product of one named curve scanned along S."""

    curve_id: str
    r: np.ndarray
    min_product: float
    argmin_r: float
    side: str
    min_separation: float
    verdict: str

    @property
    def is_barrier(self) -> bool:
        return self.verdict == "barrier"


def _separation(curve_id: str, H, F, sigma):
    """Signed separation of S from the curve, positive on S's side."""
    if curve_id == "sec_mixed_zero":
        # F - (H - 1/(2H)) = -sigma/H; the direct difference cancels to
        # below the orbit's accuracy at the flat end
        return -sigma / H
    g = isocline_F(_ISOCLINE[curve_id], H)
    return (g - F) if _SIDE[curve_id] == "below" else (F - g)


def certify_barriers(traj: Trajectory, n_samples: int = 20001) -> list[BarrierReport]:
    """Scan every named curve along ``traj`` at >= n_samples dense points.

    Verdict is "barrier" iff the minimum signed normal product is strictly
    positive over the scan.  The report also carries the minimum signed
    separation between S and the curve (positive means S never touches it).
    """
    rg = traj.dense_grid(max(int(n_samples), 10001))
    H, F, sigma = traj.state_at(rg)
    reports = []
    for cid, prod_fn in BARRIER_CURVES.items():
        prod = np.asarray(prod_fn(H))
        i = int(np.argmin(prod))
        sep = _separation(cid, H, F, sigma)
        reports.append(BarrierReport(
            curve_id=cid,
            r=rg,
            min_product=float(prod[i]),
            argmin_r=float(rg[i]),
            side=_SIDE[cid],
            min_separation=float(np.min(sep)),
            verdict="barrier" if prod[i] > 0.0 else "violated",
        ))
    return reports
