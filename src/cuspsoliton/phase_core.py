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

The field is polynomial, so its Taylor series at any state follows from
Cauchy products: ``_Taylor`` steps (H, F, sigma) by that series, forward
only (a backward run steps the negated field in t = -r), and keeps each
step as its polynomial piece.  Every leg takes calibrated r.  The bounded
orbit's two ends are exact series too: the saddle's unstable manifold
(``_CuspLeg``) and, instead of stiff stepping far out, the germ at
infinity (``_GermLeg``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from operator import mul
from typing import NamedTuple

import numpy as np

from ._numerics import EPS, IntegrationError, brent

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


def _check_range(lo, hi, r_lo: float, r_hi: float) -> None:
    """The range rule of dense queries: a query spanning [lo, hi] must lie
    in [r_lo - 1e-9, r_hi + 1e-9], else ``OrbitRangeError`` (also for a NaN)."""
    if not (r_lo - 1e-9 <= lo and hi <= r_hi + 1e-9):
        raise OrbitRangeError(f"r range [{lo}, {hi}] outside computed [{r_lo}, {r_hi}]")


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


def vector_field(p, eps: int = 1) -> PhaseVelocity:
    """Right-hand side (H', F') of the system at ``p``.

    ``p`` may be a PhasePoint, a pair of floats, or a pair of arrays; the
    components are returned as a PhaseVelocity (array-valued components are
    allowed and broadcast).
    """
    _check_eps(eps)
    H, F = p
    rows = _jet((H, F, 0.0), 1, half=0.5 * eps)
    return PhaseVelocity(rows[0][1], rows[1][1])


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
    """Tolerances, range and stop predicates for the adaptive integrator.

    ``rel_tol`` sets the Taylor order and bounds each step's last two
    terms relative to each state's size over the step; ``abs_tol`` is the
    floor of that bound for H and F, not for sigma, which decays like r^-4
    and is held relative to itself.
    """

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


_SAMPLE_STEP = 0.2          # r between the samples taken within one step


def _cauchy(a, b) -> float:
    # sum_i a_i b_(n-1-i) over lists of length n: the order n - 1 part of a product
    return sum(map(mul, a, reversed(b)))


def _jet(y, order: int, sign=1, half=0.5) -> tuple:
    """c_0 .. c_order of H, F and sigma through the state ``y``, c_k = y^(k)/k!.

    The one spelling of the field: (k + 1) c_(k+1) is the order-k part of
    (HF - 2H^2 + 1/2, 2HF - 2H^2 + 1/2, (F - H) sigma - H H^2), by Cauchy
    products, times ``sign`` (-1 steps the negated field).  Floats, arrays
    and Fractions alike (integer constants keep Fractions exact); ``half``
    is eps/2 for ``vector_field``.
    """
    H, F, S = ([v] for v in y)
    HH, D = [], []              # H^2, F - H
    for k in range(order):
        HH.append(_cauchy(H, H))
        D.append(F[k] - H[k])
        hf, hhh, ds = _cauchy(H, F), _cauchy(H, HH), _cauchy(D, S)
        c, n = -2 * HH[k] + (half if k == 0 else 0), sign * (k + 1)
        H.append((hf + c) / n)
        F.append((2 * hf + c) / n)
        S.append((ds - hhh) / n)
    return H, F, S


class _Taylor:
    """One forward Taylor run of (H, F, sigma) in solver time t, by ``advance``.

    ``sign`` -1 steps the negated field, a backward run in t = -r; ``t_bound``
    lies above ``t0`` and may be moved between steps.  The coefficients c_k
    of y = sum c_k (t - t_i)^k are the field's ``_jet``.  The order is p =
    ceil(-ln(rel_tol)/2) + 1, at least 3, and the step h the longest for
    which the terms |c_jk| h^k, k in {p - 1, p}, of each state j are within
    rel_tol of its size over the step, max(|c_j0|, |c_j1| h), or within
    ``abs_tol`` for H and F (Jorba & Zou, Exp. Math. 14, 2005): sigma
    decays like r^-4, so it is held relative to its own size.  No step is
    rejected.  Step i is kept as its piece, the terms c_k h_i^k of u = (t -
    ts[i])/h_i for each state, highest power first.  A non-finite start,
    coefficient or state, or a step below the float spacing, raises
    ``IntegrationError``.
    """

    def __init__(self, t0: float, y0, t_bound: float, rel_tol: float, abs_tol: float,
                 sign: float = 1.0):
        self.t, self.y, self.t_bound, self.sign = t0, tuple(y0), t_bound, sign
        self.rel_tol, self.abs_tol = rel_tol, abs_tol
        self.order = max(3, math.ceil(-0.5 * math.log(rel_tol)) + 1)
        if not all(map(math.isfinite, self.y)):
            raise IntegrationError("Taylor start state not finite", t0)
        self.ts, self.h, self.pieces = [t0], [], []

    def step(self) -> None:
        """One step toward ``t_bound``."""
        t, p, rtol = self.t, self.order, self.rel_tol
        rows = _jet(self.y, p, self.sign)
        if not all(map(math.isfinite, rows[0] + rows[1] + rows[2])):
            raise IntegrationError("Taylor coefficients not finite", t)
        tols = [rtol * abs(c[0]) for c in rows]
        tols[:2] = (max(self.abs_tol, tol) for tol in tols[:2])
        # |c_k| h^k <= tol or <= rel_tol |c_1| h: the longer of the two bounds
        h = min([max((tol / abs(c[k])) ** (1.0 / k), (rtol * abs(c[1] / c[k])) ** (1.0 / (k - 1)))
                 for tol, c in zip(tols, rows) for k in (p - 1, p) if c[k]] or [math.inf])
        if not h >= 10 * (math.nextafter(t, math.inf) - t):      # also a NaN step
            raise IntegrationError("Taylor step size fell below the float spacing", t)
        t_new = min(t + h, self.t_bound)
        h = t_new - t
        piece = tuple([c * h ** k for k, c in enumerate(row)][::-1] for row in rows)
        y_new = tuple(_horner(row, 1.0) for row in piece)
        if not all(map(math.isfinite, y_new)):
            raise IntegrationError("Taylor state not finite", t_new)
        self.ts.append(t_new)
        self.h.append(h)
        self.pieces.append(piece)
        self.t, self.y = t_new, y_new

    def at(self, t: float) -> tuple:
        """The last step's piece at ``t``."""
        u = (t - self.ts[-2]) / self.h[-1]
        return tuple(_horner(row, u) for row in self.pieces[-1])

    def root(self, g, direction: int) -> float | None:
        """Where g(t, y(t)) crosses zero upward (``direction`` > 0) or
        downward (< 0) on the last step, or None."""
        t0 = self.ts[-2]
        g0, g1 = g(t0, tuple(row[-1] for row in self.pieces[-1])), g(self.t, self.y)
        if not (g0 <= 0.0 <= g1 if direction > 0 else g0 >= 0.0 >= g1):
            return None
        return brent(lambda t: g(t, self.at(t)), t0, self.t, xtol=4 * EPS, rtol=4 * EPS)

    def stop(self, t: float) -> None:
        """End the run at ``t``; the steps that start at or past it are dropped."""
        while len(self.pieces) > 1 and t <= self.ts[-2]:
            del self.ts[-1], self.h[-1], self.pieces[-1]
        self.ts[-1] = self.t = self.t_bound = t
        self.y = self.at(t)

    def advance(self, events) -> str | None:
        """Step to ``t_bound`` through ``events``, a list of ``(g, direction, action)``.

        After each step the roots of the events on it (see ``root``) are taken
        in time order up to ``t_bound``: ``action(t)`` may raise, move
        ``t_bound`` or return a name, which ends the run at ``t`` and is
        returned.  A run that reaches ``t_bound`` returns None.
        """
        while self.t < self.t_bound:
            self.step()
            hits = [(t, i) for i, (g, direction, _) in enumerate(events)
                    if (t := self.root(g, direction)) is not None]
            for t, i in sorted(hits):
                if t <= self.t_bound and (name := events[i][2](t)) is not None:
                    self.stop(t)
                    return name
            if self.t > self.t_bound:
                self.stop(self.t_bound)
        return None

    def stats(self) -> dict:
        return {"method": "taylor", "order": self.order, "rel_tol": self.rel_tol,
                "abs_tol": self.abs_tol, "n_steps": len(self.pieces)}


@dataclass(frozen=True, eq=False)
class _Leg:
    """One Taylor run; takes calibrated r, at solver time shift + sign r.

    ``ts`` are the ascending step ends in solver time, so ``ts[:-1]`` are the
    step starts; step i is the polynomial in u = (t - ts[i])/h[i] with the
    coefficients ``coef[:, :, i]`` of (H, F, sigma), highest power first,
    and ``pieces[i]`` the same in Python floats.  A backward run has sign -1.
    ``stats`` are the run's method, order, tolerances and step count.
    """

    r_lo: float
    r_hi: float
    shift: float
    sign: float
    ts: np.ndarray
    h: np.ndarray
    coef: np.ndarray
    pieces: tuple
    stats: dict

    @classmethod
    def from_run(cls, run: _Taylor, shift: float = 0.0, sign: float = 1.0) -> "_Leg":
        ts, pieces = np.array(run.ts), tuple(run.pieces)
        r_lo, r_hi = sorted(sign * (t - shift) for t in (run.ts[0], run.ts[-1]))
        coef = np.ascontiguousarray(np.array(pieces).transpose(2, 1, 0))
        return cls(r_lo, r_hi, shift, sign, ts, np.array(run.h), coef, pieces, run.stats())

    def __call__(self, r) -> np.ndarray:
        """States (3, n) at calibrated ``r``, or (3,) at one r."""
        if isinstance(r, float) or np.ndim(r) == 0:
            return self._point(float(r))
        t = self.shift + self.sign * r
        seg = np.minimum(np.maximum(np.searchsorted(self.ts, t) - 1, 0), self.h.size - 1)
        u = (t - self.ts[seg]) / self.h[seg]
        # _horner's operations in place, one coefficient row gathered at a time
        coef = iter(self.coef)
        y = next(coef).take(seg, axis=-1)
        for c in coef:
            y *= u
            y += c.take(seg, axis=-1)
        return y

    def _point(self, r: float) -> np.ndarray:
        # __call__ at one r in Python floats, from one step's piece: the
        # same IEEE operations without numpy's per-call cost
        t = self.shift + self.sign * r
        seg = min(max(bisect_left(self.ts, t) - 1, 0), self.h.size - 1)
        u = (t - self.ts[seg].item()) / self.h[seg].item()
        return np.array([_horner(c, u) for c in self.pieces[seg]])

    def samples(self):
        """Ascending r at every step's start, ``_SAMPLE_STEP`` or less apart
        within each step, and at the run's end; the states there (3, n)."""
        ts = self.ts.tolist()
        t = [a + (b - a) * j / n for a, b in zip(ts, ts[1:])
             for n in [math.ceil((b - a) / _SAMPLE_STEP)] for j in range(n)]
        r = self.sign * (np.array(t + ts[-1:]) - self.shift)
        r = r[::int(self.sign)]
        return r, self(r)


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
    # highest power first
    it = iter(coeffs)
    acc = next(it)
    for a in it:
        acc = acc * x + a
    return acc


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
            xy, xx = (_cauchy(xs[1:], v[1:]) for v in (ys, xs))
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

    @property
    def stats(self) -> dict:
        return {"method": "germ", "c": self.c, "terms": [len(ser) for ser in self.series]}

    def r_at_F(self, F: float) -> float:
        """The r at which F = ``F`` on the germ, r = c + R(Y) with Y = -1/F."""
        y = -1.0 / F
        return self.c + _horner(self.series[2], y * y) / y

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """States (3, n) at calibrated ``r``; one point is evaluated in
        Python floats, the same IEEE operations without numpy's per-call
        overhead."""
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
    """A computed orbit: samples along its legs plus dense output.

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

        A point goes to the first leg with r <= its r_hi, the last leg
        takes the rest; a NaN or infinite r raises ``OrbitRangeError``.  An
        array whose min and max share a leg is one call of that leg, one
        that straddles a join is split by leg.  A Taylor leg is evaluated
        by Horner over its gathered pieces; series legs sum their series.
        One point takes the array pass's operations, in floats, bit for bit.
        """
        if isinstance(r, float) or np.ndim(r) == 0:
            return self._state_at_point(float(r))
        rq = np.atleast_1d(np.asarray(r, dtype=float))
        if not rq.size:
            return np.empty((3, 0))
        lo, hi = rq.min(), rq.max()          # NaN if any point is NaN
        _check_range(lo, hi, self.r_lo, self.r_hi)
        ends = [leg.r_hi for leg in self.legs[:-1]]
        i = bisect_left(ends, lo)
        if i == bisect_left(ends, hi):
            return self.legs[i](rq)
        out = np.empty((3, rq.size))
        which = np.searchsorted(ends, rq)
        for i, leg in enumerate(self.legs):
            m = which == i
            if np.any(m):
                out[:, m] = leg(rq[m])
        return out

    def _state_at_point(self, r: float) -> np.ndarray:
        # the array pass's range check and leg choice, by comparison
        _check_range(r, r, self.r_lo, self.r_hi)
        return next((leg for leg in self.legs[:-1] if r <= leg.r_hi), self.legs[-1])(r)

    def dense_grid(self, n: int) -> np.ndarray:
        """Uniform r-grid over the computed range (endpoints included)."""
        return np.linspace(self.r_lo, self.r_hi, int(n))

    def r_at_F(self, target: float) -> float:
        """First r at which F crosses ``target``: Brent's method on the dense
        output of a Taylor leg, the closed form on the germ."""
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
        return brent(lambda rr: self.state_at(rr)[1] - target,
                     self.r[i].item(), self.r[i + 1].item(), xtol=1e-12, rtol=1e-15)


def _start(H: float, F: float) -> tuple:
    """(H, F, sigma) at a phase point, sigma = -(H' + H^2) with the jet's H'."""
    return H, F, -(_jet((H, F, 0.0), 1)[0][1] + H * H)


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

    start = tuple(map(float, start))
    try:
        run = _Taylor(sign * r0, start if len(start) == 3 else _start(*start), sign * r_end,
                      controls.rel_tol, controls.abs_tol, sign)
        termination = run.advance(events) or "r_end"
    except IntegrationError as exc:
        raise IntegrationError(f"{exc.msg} at r = {sign * exc.t!r}") from None

    leg = _Leg.from_run(run, sign=sign)
    r, ys = leg.samples()
    return Trajectory(
        r=r, H=ys[0], F=ys[1], sigma=ys[2],
        rel_tol=controls.rel_tol, termination=termination, legs=(leg,),
        meta={"r0": r0, "direction": direction},
    )
