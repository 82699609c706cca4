"""Phase-plane core for the soliton profile equations.

With H = h' and F = f', the gradient-soliton equations for the metric
g = dr^2 + e^{2h(r)}(dx^2 + dy^2) reduce to the planar autonomous system

    H' = H F - 2 H^2 + eps/2
    F' = 2 H F - 2 H^2 + eps/2

where eps in {-1, 0, +1} is the shrinking / steady / expanding
normalization.  Only eps = +1 admits critical points, the saddles
(+-1/2, 0); the orbit structure around (1/2, 0) carries the whole
geometry downstream.

Besides the state (H, F), the integrator transports

    sigma = -(H' + H^2),    sigma' = (F - H) sigma - H^3

which is the mixed sectional curvature of the reconstructed metric.  The
transport equation is an exact consequence of the system; integrating it
keeps sigma at full relative accuracy where the direct expression
-(H' + H^2) loses every digit to cancellation (along the bounded orbit
sigma decays like r^-4 while H', H^2 decay like r^-2).

The legs are stepped by ``_numerics.Dop853``.  The bounded orbit's two
ends are exact series: the saddle's unstable manifold (``_CuspLeg``) and,
instead of stiff stepping far out, the germ at infinity (``_GermLeg``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, reduce
from typing import NamedTuple

import numpy as np

from ._numerics import Dop853, IntegrationError, brent, eval_piece

__all__ = [
    "PhasePoint", "PhaseVelocity", "Jacobian2", "IntegratorControls",
    "Trajectory", "CriticalSet", "IntegrationError", "OrbitRangeError",
    "vector_field", "critical_points", "linearize", "eigen_saddle",
    "integrate", "SADDLE",
    "EIGENVALUE_UNSTABLE", "EIGENVALUE_STABLE", "SLOPE_UNSTABLE", "SLOPE_STABLE",
]

_VALID_EPS = (-1, 0, 1)

_SQRT5 = math.sqrt(5.0)
#: positive and negative eigenvalues of the linearization at (1/2, 0)
EIGENVALUE_UNSTABLE = (-1.0 + _SQRT5) / 2.0
EIGENVALUE_STABLE = (-1.0 - _SQRT5) / 2.0
#: slopes dF/dH of the corresponding eigendirections
SLOPE_UNSTABLE = 3.0 + _SQRT5
SLOPE_STABLE = 3.0 - _SQRT5


class OrbitRangeError(ValueError):
    """A query asks for more than the computed orbit covers."""


class PhasePoint(NamedTuple):
    """A point of the (H, F) phase plane; H = h', F = f'."""

    H: float
    F: float


class PhaseVelocity(NamedTuple):
    """Value of the vector field (dH/dr, dF/dr) at a phase point."""

    dH: float
    dF: float


SADDLE = PhasePoint(0.5, 0.0)


def _check_eps(eps: int) -> int:
    if eps not in _VALID_EPS:
        raise ValueError(f"eps must be one of {_VALID_EPS}, got {eps!r}")
    return eps


def _field(H, F, half):
    # the one spelling of (H', F'); the integrator calls it on every step
    c = -2.0 * H * H + half
    return H * F + c, 2.0 * H * F + c


def vector_field(p, eps: int = 1) -> PhaseVelocity:
    """Right-hand side (H', F') of the system at ``p``.

    ``p`` may be a PhasePoint, a pair of floats, or a pair of arrays; the
    components are returned as a PhaseVelocity (array-valued components are
    allowed and broadcast).
    """
    _check_eps(eps)
    H, F = p
    return PhaseVelocity(*_field(H, F, 0.5 * eps))


@dataclass(frozen=True)
class CriticalSet:
    """Critical points of the system; ``continuum`` flags a degenerate line."""

    points: tuple[PhasePoint, ...]
    continuum: str | None = None


def critical_points(eps: int = 1) -> CriticalSet:
    """Stationary solutions for the given normalization.

    eps=+1 gives the two saddles (+-1/2, 0); eps=-1 has no critical points;
    eps=0 degenerates to the whole line {H=0}, reported as a continuum.
    """
    _check_eps(eps)
    if eps == 1:
        return CriticalSet((PhasePoint(0.5, 0.0), PhasePoint(-0.5, 0.0)))
    if eps == -1:
        return CriticalSet(())
    return CriticalSet((), continuum="line H=0")


@dataclass(frozen=True)
class Jacobian2:
    """2x2 Jacobian of the vector field."""

    a11: float
    a12: float
    a21: float
    a22: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])

    def determinant(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> float:
        return self.a11 + self.a22


def linearize(p) -> Jacobian2:
    """Jacobian [[F-4H, H], [2F-4H, 2H]] at ``p``.

    Its determinant is -4H^2 <= 0 identically, so every critical point of
    the eps=+1 system is a saddle.
    """
    H, F = p
    return Jacobian2(F - 4.0 * H, H, 2.0 * F - 4.0 * H, 2.0 * H)


class EigenPair(NamedTuple):
    value: float
    vector: np.ndarray


def eigen_saddle(j: Jacobian2) -> tuple[EigenPair, EigenPair]:
    """Eigenvalue/eigenvector pairs of ``j``, sorted by descending eigenvalue.

    Requires real, distinct eigenvalues.  Eigenvectors are normalized to
    first component 1 when possible, otherwise to second component 1.
    """
    tr = j.trace()
    det = j.determinant()
    disc = tr * tr - 4.0 * det
    if disc <= 0.0:
        raise ValueError("eigenvalues are complex or repeated")
    root = math.sqrt(disc)
    pairs = []
    for lam in ((tr + root) / 2.0, (tr - root) / 2.0):
        # rows of (A - lam I) are proportional; use the better-conditioned one
        rows = [(j.a11 - lam, j.a12), (j.a21, j.a22 - lam)]
        a, b = max(rows, key=lambda row: math.hypot(*row))
        v = np.array([b, -a])  # solves a*v0 + b*v1 = 0
        if abs(v[0]) >= 1e-300:
            v = v / v[0]
        else:
            v = v / v[1]
        pairs.append(EigenPair(lam, v))
    return pairs[0], pairs[1]


@dataclass(frozen=True)
class IntegratorControls:
    """Tolerances, range and stop predicates for the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    r_min: float = -50.0
    r_max: float = 50.0
    h_floor: float | None = None       # stop when H drops below this
    f_ceiling: float | None = None     # stop when |F| exceeds this

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not self.r_min < self.r_max:
            raise ValueError("require r_min < r_max")


@dataclass(frozen=True, eq=False)
class _Leg:
    """One DOP853 leg; raw solver time = r + shift.

    ``ts`` are the step ends in stepping order; step i is the degree-7
    polynomial ``(t_old[i], h[i], y_old[:, i], F[:, :, i])`` that scipy's
    ``Dop853DenseOutput`` evaluates.  ``stats`` are the run's method,
    tolerances and counters.
    """

    r_lo: float
    r_hi: float
    shift: float
    ts: np.ndarray
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    F: np.ndarray
    stats: dict

    @classmethod
    def from_run(cls, run: Dop853, shift: float = 0.0) -> "_Leg":
        ts = np.array(run.ts)
        return cls(float(min(ts[0], ts[-1]) - shift), float(max(ts[0], ts[-1]) - shift),
                   shift, ts, *run.dense_arrays(), run.stats())

    @cached_property
    def _sorted(self):
        # ascending nodes and OdeSolution's segment rule: at a node the lower
        # index wins, so a descending leg searches from the right
        ascending = bool(self.ts[-1] >= self.ts[0])
        ts = self.ts if ascending else self.ts[::-1]
        return ts, ts.tolist(), ascending

    def __call__(self, t) -> np.ndarray:
        """States (3, n) at raw solver times ``t``, or (3,) at one time,
        bit-identical to scipy's ``OdeSolution`` over the same pieces."""
        if isinstance(t, float) or np.ndim(t) == 0:
            return self._point(float(t))
        ts, _, ascending = self._sorted
        t_old, h, y_old, F = self.t_old, self.h, self.y_old, self.F
        seg = np.searchsorted(ts, t, side="left" if ascending else "right") - 1
        seg = np.minimum(np.maximum(seg, 0), h.size - 1)
        if not ascending:
            seg = h.size - 1 - seg
        x = (t - t_old[seg]) / h[seg]
        u = 1 - x
        y = np.zeros((3, t.size))
        # Dop853DenseOutput's Horner loop, in its order; one row of
        # coefficients gathered per step, not the whole (7, 3, n) block
        for k in range(F.shape[0] - 1, -1, -1):
            y += F[k].take(seg, axis=1)
            y *= x if k % 2 == 0 else u
        y += y_old.take(seg, axis=1)
        return y

    def _point(self, t: float) -> np.ndarray:
        # __call__ at one time in Python floats, from one segment's
        # coefficients: the same IEEE operations without numpy's per-call cost
        _, ts, ascending = self._sorted
        n = self.h.size
        seg = min(max((bisect_left if ascending else bisect_right)(ts, t) - 1, 0), n - 1)
        if not ascending:
            seg = n - 1 - seg
        return np.array(eval_piece(t, self.t_old[seg].item(), self.h[seg].item(),
                                   self.y_old[:, seg].tolist(), self.F[:, :, seg].tolist()))


@cache
def _germ_series(n: int):
    """Exact series in Y^2 of H/Y, sigma/Y^4, Y R(Y) and (1 - s*)/Y^4 along the germ.

    In the chart X = -H/F, Y = -1/F the flat end of the bounded orbit is the
    germ X = g(Y) = Y^2/2 - Y^4/4 + ... invariant under X' = -X - 4X^2 - 2X^3
    + Y^2/2 + XY^2/2, Y' = Y D, D = -2X - 2X^2 + Y^2/2 = dY/dr: g'(Y) Y D = X'
    order by order.  sigma = (g + g^2 - Y^2/2)/Y^2 is expanded exactly; r = c
    + R(Y), dR/dY = 1/D even, so no 1/Y or log term.  s* = A/|B| with A =
    2HF + 1 - H^2 = (Y^2 - 2g - g^2)/Y^2 and |B| = -2F^2 sigma = (Y^2 - 2g -
    2g^2)/Y^4, so 1 - s* is a quotient of exact series, free of the float
    cancellation of A/|B| near 1.  Divergent: small Y only.
    """
    a, a2, d = ([Fraction(0)] * n for _ in range(3))     # g, g^2, D
    for k in range(1, n):
        a2[k] = sum(a[i] * a[k - i] for i in range(1, k))
        lin = Fraction(1, 2) if k == 1 else 0
        a[k] = (lin + a[k - 1] / 2 - 4 * a2[k] - 2 * sum(a2[i] * a[k - i] for i in range(2, k))
                - sum(2 * j * a[j] * d[k - j] for j in range(1, k)))
        d[k] = lin - 2 * a[k] - 2 * a2[k]
    e = [1 / d[1]]                                        # 1/D = Y^-2 sum e[k] Y^2k
    for k in range(1, n - 1):
        e.append(-sum(d[j + 1] * e[k - j] for j in range(1, k + 1)) / d[1])
    # Y^4 |B| = Y^6 sum d[k + 3] Y^2k, Y^4 (|B| - A) = Y^10 sum p Y^2k (its Y^6, Y^8 terms vanish)
    q = []
    for k in range(n - 5):
        p = d[k + 5] + 2 * a[k + 4] + a2[k + 4]
        q.append((p - sum(q[i] * d[k - i + 3] for i in range(k))) / d[3])
    return (a[1:], [a[k] + a2[k] for k in range(3, n)],
            [ek / (2 * k - 1) for k, ek in enumerate(e)], q)


def _horner(coeffs, x):
    return reduce(lambda acc, a: acc * x + a, coeffs)


@dataclass(frozen=True)
class _CuspLeg:
    """The cusp end of S, the unstable manifold of (1/2, 0); takes calibrated r.

    (H - 1/2, F) = sum_k p_k theta^k, theta = theta_hi e^{lambda (r - r_hi)},
    p_1 = (1, 3 + sqrt5), (k lambda - J) p_k = N_k with N_k the order-k part
    of the field's quadratic terms and det(k lambda - J) = (k - 1)(k + 1 -
    k lambda): the parametrization method (Cabré, Fontich & de la Llave,
    Indiana Univ. Math. J. 52, 2003).  sigma = -(H' + H^2) is near -1/4 here.
    """

    r_lo: float
    r_hi: float
    theta: float            # theta at r_hi
    series: tuple           # p_k of H - 1/2 and of F, highest power first
    stats: dict
    shift: float = 0.0

    @classmethod
    def at(cls, theta: float) -> "_CuspLeg":
        """12 terms through theta at r = 0; stats has the first omitted term."""
        n = 12
        xs, ys = [0.0, 1.0], [0.0, SLOPE_UNSTABLE]
        for k in range(2, n + 2):
            xy, xx = (sum(xs[i] * v[k - i] for i in range(1, k)) for v in (ys, xs))
            a, b, kl = xy - 2.0 * xx, 2.0 * (xy - xx), k * EIGENVALUE_UNSTABLE
            det = (k - 1) * (k + 1 - kl)
            xs.append(((kl - 1.0) * a + 0.5 * b) / det)
            ys.append(((kl + 2.0) * b - 2.0 * a) / det)
        est = math.hypot(xs[-1], ys[-1]) / math.hypot(1.0, SLOPE_UNSTABLE) * abs(theta) ** n
        return cls(0.0, 0.0, theta, (xs[n:0:-1], ys[n:0:-1]),
                   {"method": "series", "terms": n, "theta_start": theta, "truncation": est})

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """States (3, ...) at calibrated ``r``, one point as the array pass."""
        th = self.theta * np.exp(EIGENVALUE_UNSTABLE * (np.asarray(r, dtype=float) - self.r_hi))
        x, y = (th * _horner(ser, th) for ser in self.series)
        return np.array(_start(0.5 + x, y))

    def tails(self, r: float) -> tuple:
        """int_{-inf}^r of H - 1/2 and of F: sum_k p_k theta^k / (k lambda)."""
        th = self.theta * math.exp(EIGENVALUE_UNSTABLE * (r - self.r_hi))
        return tuple(sum(p * th ** k / k for k, p in enumerate(ser[::-1], 1)) / EIGENVALUE_UNSTABLE
                     for ser in self.series)


@dataclass(frozen=True)
class _GermLeg:
    """The flat end of S from its germ, r = c + R(-1/F); takes calibrated r.

    Orbits entering the flat end share the germ up to terms of order
    exp(-O(r^2)) (the transversal contraction rate is r/2): S is only c.
    """

    r_lo: float
    r_hi: float
    c: float
    series: tuple           # H/Y, sigma/Y^4, Y R(Y), (1 - s*)/Y^4 in Y^2, highest power first
    shift: float = 0.0

    @classmethod
    def matched(cls, r_join: float, F_join: float, r_hi: float) -> "_GermLeg":
        """The germ through F_join at r_join; a series ends before its first
        nonzero term below 1e-17 of its partial sum there."""
        y, cut = -1.0 / F_join, []
        for ser in _germ_series(20):
            t = [float(a) * (y * y) ** k for k, a in enumerate(ser)]
            n = next(k for k in range(1, len(t)) if t[k] and abs(t[k]) < 1e-17 * abs(sum(t[:k])))
            cut.append([float(a) for a in ser[n - 1::-1]])
        return cls(r_join, r_hi, r_join - _horner(cut[2], y * y) / y, tuple(cut))

    def r_at_F(self, F: float) -> float:
        """The r at which F = ``F`` on the germ, r = c + R(Y) with Y = -1/F."""
        y = -1.0 / F
        return self.c + _horner(self.series[2], y * y) / y

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """States (3, n) at calibrated ``r``; one point is evaluated in Python
        floats, the same IEEE operations without numpy's per-call overhead."""
        r = np.asarray(r, dtype=float)
        d = (r.item() if r.size == 1 else r) - self.c
        h, sigma, ry = self.series[:3]
        # Y = Y R(Y) / (r - c) by fixed point; each pass shrinks the error
        # by about Y^4, so three passes from Y = 2/(r - c) reach rounding
        y = 2.0 / d
        for _ in range(3):
            y = _horner(ry, y * y) / d
        x = y * y
        out = np.array([y * _horner(h, x), -1.0 / y, x * x * _horner(sigma, x)])
        return out.reshape(3, *r.shape)


@dataclass(eq=False)
class Trajectory:
    """A computed orbit: samples at the accepted steps plus dense output.

    ``r`` is strictly increasing.  ``sigma`` is the transported curvature
    state -(H' + H^2).  Trajectories compare by identity: a copy made by
    ``dataclasses.replace`` is another orbit, with a per-orbit memo of its own.
    """

    r: np.ndarray
    H: np.ndarray
    F: np.ndarray
    sigma: np.ndarray
    rel_tol: float
    termination: str
    legs: tuple[_CuspLeg | _Leg | _GermLeg, ...]
    meta: dict = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if np.any(np.diff(self.r) <= 0):
            raise ValueError("trajectory samples must be strictly increasing in r")
        for arr in (self.r, self.H, self.F, self.sigma):
            arr.setflags(write=False)

    @property
    def r_lo(self) -> float:
        return float(self.r[0])

    @property
    def r_hi(self) -> float:
        return float(self.r[-1])

    def _per_orbit(self, build):
        """``build(self)``, built on first use and kept for this orbit.

        The value must not hold the trajectory: the memo would then keep
        the orbit alive in a reference cycle.
        """
        memo = self._memo
        if build not in memo:
            memo[build] = build(self)
        return memo[build]

    def state_at(self, r) -> np.ndarray:
        """Dense-output states (H, F, sigma) at ``r``; shape (3, n) or (3,).

        A point goes to the first leg with r <= its r_hi, the last leg takes
        the rest; a NaN or infinite r raises ``OrbitRangeError``.  An array
        whose min and max share a leg is one call of that leg, one that
        straddles a join is split by leg.  DOP853 legs are evaluated in one
        pass over their gathered pieces, bit-identical to ``OdeSolution``;
        series legs sum their series.  One point takes the array pass's
        operations, in floats.
        """
        if isinstance(r, float) or np.ndim(r) == 0:
            return self._state_at_point(float(r))
        rq = np.atleast_1d(np.asarray(r, dtype=float))
        if not rq.size:
            return np.empty((3, 0))
        lo, hi = rq.min(), rq.max()          # NaN if any point is NaN
        if not (self.r_lo - 1e-9 <= lo and hi <= self.r_hi + 1e-9):
            raise OrbitRangeError(
                f"r range [{lo}, {hi}] outside computed [{self.r_lo}, {self.r_hi}]")
        ends = [leg.r_hi for leg in self.legs[:-1]]
        i = bisect_left(ends, lo)
        if i == bisect_left(ends, hi):
            leg = self.legs[i]
            return leg(rq + leg.shift)
        out = np.empty((3, rq.size))
        which = np.searchsorted(ends, rq)
        for i, leg in enumerate(self.legs):
            m = which == i
            if np.any(m):
                out[:, m] = leg(rq[m] + leg.shift)
        return out

    def _state_at_point(self, r: float) -> np.ndarray:
        # the array pass's range check and leg choice, by comparison
        r_lo, r_hi = self.r_lo, self.r_hi
        if not r_lo - 1e-9 <= r <= r_hi + 1e-9:
            raise OrbitRangeError(f"r range [{r}, {r}] outside computed [{r_lo}, {r_hi}]")
        leg = next((leg for leg in self.legs[:-1] if r <= leg.r_hi), self.legs[-1])
        return leg(r + leg.shift)

    def dense_grid(self, n: int) -> np.ndarray:
        """Uniform r-grid over the computed range (endpoints included)."""
        return np.linspace(self.r_lo, self.r_hi, int(n))

    def r_at_F(self, target: float) -> float:
        """First r at which F crosses ``target``: Brent's method on the dense
        output of a DOP853 leg, the closed form on the germ."""
        g = self.F - target
        idx = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) <= 0)[0]
        if len(idx) == 0:
            raise OrbitRangeError(f"F never reaches {target} on the computed range")
        i = idx[0]
        if g[i] == 0.0:
            return float(self.r[i])
        germ = self.legs[-1]
        if isinstance(germ, _GermLeg) and self.r[i] >= germ.r_lo:
            return germ.r_at_F(target)       # the germ inverts in closed form
        return brent(lambda rr: self.state_at(rr)[1].item() - target,
                     self.r[i].item(), self.r[i + 1].item(), xtol=1e-12, rtol=1e-15)


def _start(H: float, F: float) -> tuple:
    """(H, F, sigma) at a phase point, sigma = -(H' + H^2) with _field's H'."""
    return H, F, -(_field(H, F, 0.5)[0] + H * H)


def _cube(H):
    # libm's pow, also per element of an array: numpy's power can differ
    # from it in the last bit
    return H ** 3 if isinstance(H, float) else np.array([x ** 3 for x in H.tolist()])


def _rhs(r, y):
    """(H', F', sigma') of the expanding system, the integrator's right-hand side."""
    H, F, sig = y
    dH, dF = _field(H, F, 0.5)
    return dH, dF, (F - H) * sig - _cube(H)


def _atol(abs_tol: float) -> tuple:
    # sigma decays like r^-4 along the bounded orbit, so its absolute
    # control is far below the state's
    return abs_tol, abs_tol, 1e-21


def integrate(start, r0: float, controls: IntegratorControls,
              direction: str = "forward") -> Trajectory:
    """Integrate the expanding (eps = +1) system from ``start`` at r = r0.

    ``start`` is (H, F, sigma), or (H, F) with sigma = -(H' + H^2) from
    them.  Forward runs extend to ``controls.r_max``, backward runs to
    ``controls.r_min``; a stop predicate (H floor, |F| ceiling) may end the
    run earlier, and the reason is recorded in ``termination``.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    r_end = controls.r_max if direction == "forward" else controls.r_min
    if not math.isfinite(r_end):
        raise ValueError("integration endpoint must be finite")
    if r_end == r0:
        raise ValueError("integration span is empty")

    events = []
    if controls.h_floor is not None:
        events.append(("h_floor", lambda r, y: y[0] - controls.h_floor, -1))
    if controls.f_ceiling is not None:
        events.append(("f_ceiling", lambda r, y: abs(y[1]) - controls.f_ceiling, 1))

    start = tuple(map(float, start))
    run = Dop853(_rhs, r0, start if len(start) == 3 else _start(*start), r_end,
                 controls.rel_tol, _atol(controls.abs_tol))
    termination = None
    while termination is None:
        run.step()
        hits = [(te, name) for name, g, d in events if (te := run.root(g, d)) is not None]
        if hits:
            te, termination = min(hits, key=lambda hit: hit[0] * run.direction)
            run.stop(te)
        elif run.done:
            termination = "r_end"

    leg = _Leg.from_run(run)
    ts, ys = run.samples()
    if direction == "backward":
        ts, ys = ts[::-1], ys[:, ::-1]
    return Trajectory(
        r=ts.copy(), H=ys[0].copy(), F=ys[1].copy(), sigma=ys[2].copy(),
        rel_tol=controls.rel_tol, termination=termination, legs=(leg,),
        meta={"r0": r0, "direction": direction},
    )
