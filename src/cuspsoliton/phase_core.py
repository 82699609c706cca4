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

Every leg takes calibrated r.  ``_numerics.Dop853`` steps forward only; a
backward run steps the negated field in t = -r.  The bounded orbit's two
ends are exact series: the saddle's unstable manifold (``_CuspLeg``) and,
instead of stiff stepping far out, the germ at infinity (``_GermLeg``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
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
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if not -math.inf < self.r_min < self.r_max < math.inf:
            raise ValueError("require finite r_min < r_max")
        if any(v is not None and not math.isfinite(v) for v in (self.h_floor, self.f_ceiling)):
            raise ValueError("h_floor and f_ceiling must be finite when set")


@dataclass(frozen=True, eq=False)
class _Leg:
    """One forward DOP853 leg; takes calibrated r, at solver time shift + sign r.

    ``ts`` are the ascending step ends in solver time, so ``ts[:-1]`` are the
    step starts; step i is the degree-7 polynomial ``(ts[i], h[i], y_old[:, i],
    F[:, :, i])`` that scipy's ``Dop853DenseOutput`` evaluates.  A backward run
    has sign -1.  ``stats`` are the run's method, tolerances and counters.
    """

    r_lo: float
    r_hi: float
    shift: float
    sign: float
    ts: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    F: np.ndarray
    stats: dict

    @classmethod
    def from_run(cls, run: Dop853, shift: float = 0.0, sign: float = 1.0) -> "_Leg":
        ts, h, y_old, F = run.dense_arrays()
        r_lo, r_hi = sorted(sign * (t - shift) for t in (ts[0].item(), ts[-1].item()))
        return cls(r_lo, r_hi, shift, sign, ts, h, y_old, F, run.stats())

    def __call__(self, r, row=None) -> np.ndarray:
        """States (3, n) at calibrated ``r``, or (3,) at one r, bit-identical
        to scipy's ``OdeSolution`` over the same pieces; with a ``row``, that
        state alone: (n,), or a float at one r."""
        if isinstance(r, float) or np.ndim(r) == 0:
            return self._point(float(r), row)
        t = self.shift + self.sign * r
        ts, h = self.ts, self.h
        rows = slice(None) if row is None else row
        y_old, F = self.y_old[rows], self.F[:, rows]
        seg = np.minimum(np.maximum(np.searchsorted(ts, t) - 1, 0), h.size - 1)
        x = (t - ts[seg]) / h[seg]
        u = 1 - x
        y = np.zeros(y_old.shape[:-1] + t.shape)
        # Dop853DenseOutput's Horner loop, in its order, on the rows asked
        # for; one row of coefficients gathered per step, not the whole block
        for k in range(F.shape[0] - 1, -1, -1):
            y += F[k].take(seg, axis=-1)
            y *= x if k % 2 == 0 else u
        y += y_old.take(seg, axis=-1)
        return y

    def _point(self, r: float, row=None):
        # __call__ at one r in Python floats, from one segment's
        # coefficients: the same IEEE operations without numpy's per-call cost
        t = self.shift + self.sign * r
        seg = min(max(bisect_left(self.ts, t) - 1, 0), self.h.size - 1)
        y = eval_piece(t, self.ts[seg].item(), self.h[seg].item(),
                       self.y_old[:, seg].tolist(), self.F[:, :, seg].tolist())
        return np.array(y) if row is None else y[row]


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

    def __call__(self, r: np.ndarray, row=None) -> np.ndarray:
        """States (3, ...) at calibrated ``r``, one point as the array pass;
        with a ``row``, that state alone.  F alone skips H and sigma."""
        th = self.theta * np.exp(EIGENVALUE_UNSTABLE * (np.asarray(r, dtype=float) - self.r_hi))
        if row == 1:
            return th * _horner(self.series[1], th)
        x, y = (th * _horner(ser, th) for ser in self.series)
        out = np.array(_start(0.5 + x, y))
        return out if row is None else out[row]

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

    def __call__(self, r: np.ndarray, row=None) -> np.ndarray:
        """States (3, n) at calibrated ``r``, or with a ``row`` that state
        alone; one point is evaluated in Python floats, the same IEEE
        operations without numpy's per-call overhead.  F alone skips the H
        and sigma series."""
        r = np.asarray(r, dtype=float)
        d = (r.item() if r.size == 1 else r) - self.c
        h, sigma, ry = self.series[:3]
        # Y = Y R(Y) / (r - c) by fixed point; each pass shrinks the error
        # by about Y^4, so three passes from Y = 2/(r - c) reach rounding
        y = 2.0 / d
        for _ in range(3):
            y = _horner(ry, y * y) / d
        if row == 1:
            return -1.0 / y if r.ndim == 0 else np.reshape(-1.0 / y, r.shape)
        x = y * y
        out = np.array([y * _horner(h, x), -1.0 / y, x * x * _horner(sigma, x)])
        out = out.reshape(3, *r.shape)
        return out if row is None else out[row]


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

    def state_at(self, r, row=None) -> np.ndarray:
        """Dense-output states (H, F, sigma) at ``r``; shape (3, n) or (3,).

        With ``row`` (0, 1 or 2 for H, F, sigma) only that state is
        evaluated, shape (n,) or a float, bit-identical to the same row of
        the full evaluation.  A point goes to the first leg with r <= its
        r_hi, the last leg takes the rest; a NaN or infinite r raises
        ``OrbitRangeError``.  An array whose min and max share a leg is one
        call of that leg, one that straddles a join is split by leg.  DOP853
        legs are evaluated in one pass over their gathered pieces,
        bit-identical to ``OdeSolution``; series legs sum their series.  One
        point takes the array pass's operations, in floats.
        """
        if isinstance(r, float) or np.ndim(r) == 0:
            return self._state_at_point(float(r), row)
        rq = np.atleast_1d(np.asarray(r, dtype=float))
        shape = (3, rq.size) if row is None else (rq.size,)
        if not rq.size:
            return np.empty(shape)
        lo, hi = rq.min(), rq.max()          # NaN if any point is NaN
        if not (self.r_lo - 1e-9 <= lo and hi <= self.r_hi + 1e-9):
            raise OrbitRangeError(
                f"r range [{lo}, {hi}] outside computed [{self.r_lo}, {self.r_hi}]")
        ends = [leg.r_hi for leg in self.legs[:-1]]
        i = bisect_left(ends, lo)
        if i == bisect_left(ends, hi):
            return self.legs[i](rq, row)
        out = np.empty(shape)
        which = np.searchsorted(ends, rq)
        for i, leg in enumerate(self.legs):
            m = which == i
            if np.any(m):
                out[..., m] = leg(rq[m], row)
        return out

    def _state_at_point(self, r: float, row=None):
        # the array pass's range check and leg choice, by comparison
        r_lo, r_hi = self.r_lo, self.r_hi
        if not r_lo - 1e-9 <= r <= r_hi + 1e-9:
            raise OrbitRangeError(f"r range [{r}, {r}] outside computed [{r_lo}, {r_hi}]")
        return next((leg for leg in self.legs[:-1] if r <= leg.r_hi), self.legs[-1])(r, row)

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
        return brent(lambda rr: self.state_at(rr, row=1) - target,
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
    run earlier, and the reason is recorded in ``termination``.  A backward
    run steps the negated field in t = -r.  A non-finite r0 is a ValueError;
    a non-finite start or field, or a failed step, an ``IntegrationError``
    at the orbit's r.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    sign = 1.0 if direction == "forward" else -1.0
    r_end = controls.r_max if sign > 0 else controls.r_min
    if not (math.isfinite(r0) and sign * (r_end - r0) > 0):
        raise ValueError(f"r0 = {r0!r} must be finite and short of the endpoint {r_end!r}")

    events = []
    if controls.h_floor is not None:
        events.append((lambda t, y: y[0] - controls.h_floor, -1, lambda t: "h_floor"))
    if controls.f_ceiling is not None:
        events.append((lambda t, y: abs(y[1]) - controls.f_ceiling, 1, lambda t: "f_ceiling"))

    rhs = _rhs if sign > 0 else lambda t, y: tuple(-v for v in _rhs(t, y))
    start = tuple(map(float, start))
    try:
        run = Dop853(rhs, sign * r0, start if len(start) == 3 else _start(*start),
                     sign * r_end, controls.rel_tol, _atol(controls.abs_tol))
        termination = run.advance(events) or "r_end"
    except IntegrationError as exc:
        raise IntegrationError(f"{exc.msg} at r = {sign * exc.t!r}") from None

    ts, ys = (a[..., ::int(sign)] for a in run.samples())     # ascending in r
    return Trajectory(
        r=sign * ts, H=ys[0].copy(), F=ys[1].copy(), sigma=ys[2].copy(),
        rel_tol=controls.rel_tol, termination=termination, legs=(_Leg.from_run(run, sign=sign),),
        meta={"r0": r0, "direction": direction},
    )
