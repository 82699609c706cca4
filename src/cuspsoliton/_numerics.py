"""DOP853 stepping and Brent's bracketed root finder, in Python floats.

``Dop853`` is the explicit Runge-Kutta pair of order 8(5,3) with its
degree-7 dense output (Hairer, Nørsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., §II.10; the coefficients of Hairer's
``dop853.f``), for three states.  Its initial-step rule, error norm and step
control (safety 0.9, step factors between 0.2 and 10) are those of scipy's
``DOP853``, and each accepted step has the seven coefficient rows ``F``
that scipy's ``Dop853DenseOutput`` evaluates.  The stage sums run left to
right over the nonzero weights, as straight-line code generated from the
tableau, so the steps agree with scipy's to rounding, not bit for bit.

``brent`` is Brent's method (Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) in the form of scipy's ``brentq``: the same
iterates, evaluations and stopping rule.
"""

from __future__ import annotations

import math
import sys

import numpy as np

EPS = sys.float_info.epsilon

# nodes; the weights of each stage as (index, weight), nonzero ones only:
# stages 1-11, the order-8 solution, the order-5 and order-3 error
# estimates, the three extra stages and the four rows of the dense output
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
      0.7777777777777778)
_A = (
    (),
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
     (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
    ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
     (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
     (10, 0.20136540080403034), (11, 0.04471061572777259)),
    ((0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
     (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
     (11, 0.007567897660545699), (12, -0.008298)),
    ((0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
     (7, -0.05492374857139099), (10, -0.00010834732869724932),
     (11, 0.0003825710908356584), (12, -0.00034046500868740456),
     (13, 0.1413124436746325)),
    ((0, -0.42889630158379194), (5, -4.697621415361164), (6, 7.683421196062599),
     (7, 4.06898981839711), (8, 0.3567271874552811), (12, -0.0013990241651590145),
     (13, 2.9475147891527724), (14, -9.15095847217987)),
)
_B = _A[12]
_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
       (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
       (10, 0.08192320648511571), (11, -0.022355307863886294))
_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
       (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
       (10, 0.20136540080403034), (11, 0.02265179219836082))
_D = (
    ((0, -8.428938276109013), (5, 0.5667149535193777), (6, -3.0689499459498917),
     (7, 2.38466765651207), (8, 2.117034582445028), (9, -0.871391583777973),
     (10, 2.2404374302607883), (11, 0.6315787787694688), (12, -0.08899033645133331),
     (13, 18.148505520854727), (14, -9.194632392478356), (15, -4.436036387594894)),
    ((0, 10.427508642579134), (5, 242.28349177525817), (6, 165.20045171727028),
     (7, -374.5467547226902), (8, -22.113666853125306), (9, 7.733432668472264),
     (10, -30.674084731089398), (11, -9.332130526430229), (12, 15.697238121770845),
     (13, -31.139403219565178), (14, -9.35292435884448), (15, 35.81684148639408)),
    ((0, 19.985053242002433), (5, -387.0373087493518), (6, -189.17813819516758),
     (7, 527.8081592054236), (8, -11.57390253995963), (9, 6.8812326946963),
     (10, -1.0006050966910838), (11, 0.7777137798053443), (12, -2.778205752353508),
     (13, -60.19669523126412), (14, 84.32040550667716), (15, 11.99229113618279)),
    ((0, -25.69393346270375), (5, -154.18974869023643), (6, -231.5293791760455),
     (7, 357.6391179106141), (8, 93.40532418362432), (9, -37.45832313645163),
     (10, 104.0996495089623), (11, 29.8402934266605), (12, -43.53345659001114),
     (13, 96.32455395918828), (14, -39.17726167561544), (15, -149.72683625798564)),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0          # the error estimate is of order 7


class IntegrationError(RuntimeError):
    """Adaptive stepping failed (step-size underflow or non-finite state);
    ``t`` is the solver time of the failure, when there is one."""

    def __init__(self, msg: str, t: float | None = None):
        super().__init__(msg if t is None else f"{msg} at t = {t!r}")
        self.msg, self.t = msg, t


# The stage, solution, error and dense sums as straight-line code, generated
# from the tableau.  ``_dense_piece`` runs on Python floats (one step) and on
# arrays (all steps of a run at once): the same operations in the same order.
def _sum(row):
    # weight * k summed over a row left to right from 0.0, as a loop would;
    # {c} stands for the state component
    return " + ".join(["0.0", *(f"{a!r} * k{j}_{{c}}" for j, a in row)])


def _vec(expr):
    return "(" + ", ".join(expr.format(c=c) for c in range(3)) + ")"


def _stage(i):
    y = _vec(f"y{{c}} + ({_sum(_A[i])}) * h")
    return f"    k{i}_0, k{i}_1, k{i}_2 = rhs(t + {_C[i]!r} * h, {y})"


_KS = ", ".join(f"k{i}_{c}" for i in range(13) for c in range(3))
_SOURCE = "\n".join([
    "def _stages(rhs, t, y0, y1, y2, k0_0, k0_1, k0_2, h):",
    *(_stage(i) for i in range(1, 12)),
    "    y_new = " + _vec(f"y{{c}} + h * ({_sum(_B)})"),
    "    k12_0, k12_1, k12_2 = rhs(t + h, y_new)",
    f"    return y_new, ({_KS}), {_vec(_sum(_E5))}, {_vec(_sum(_E3))}",
    f"def _dense_piece(rhs, t, h, y0, y1, y2, n0, n1, n2, {_KS}):",
    *(_stage(i) for i in (13, 14, 15)),
    "    dy0, dy1, dy2 = " + _vec("n{c} - y{c}"),
    "    return (" + ", ".join(_vec(e) for e in (
        "dy{c}", "h * k0_{c} - dy{c}", "2 * dy{c} - h * (k12_{c} + k0_{c})",
        *(f"h * ({_sum(row)})" for row in _D))) + ")",
])
_generated: dict = {}
exec(compile(_SOURCE, "<dop853 tableau>", "exec"), _generated)
_stages, _dense_piece = _generated["_stages"], _generated["_dense_piece"]


def _rms(v):
    return math.sqrt(sum(x * x for x in v)) / math.sqrt(len(v))


def eval_piece(t: float, t_old: float, h: float, y_old, F) -> tuple:
    """One degree-7 dense piece at ``t``, in Python floats: the Horner loop
    of scipy's ``Dop853DenseOutput``, in its order."""
    x = (t - t_old) / h
    u = 1 - x
    y0 = y1 = y2 = 0.0
    for k in range(len(F) - 1, -1, -1):
        m = x if k % 2 == 0 else u
        a0, a1, a2 = F[k]
        y0, y1, y2 = (y0 + a0) * m, (y1 + a1) * m, (y2 + a2) * m
    b0, b1, b2 = y_old
    return y0 + b0, y1 + b1, y2 + b2


class Dop853:
    """One forward DOP853 run of y' = rhs(t, y) for three states, by ``step`` or ``advance``.

    ``rhs(t, y)`` takes and returns 3-tuples of floats, or of arrays for
    ``dense_arrays``; ``atol`` holds one tolerance per state; ``t_bound`` lies
    above ``t0`` (a backward run steps the negated field) and may be moved
    between steps.  Every accepted step keeps its stages; its dense
    polynomial ``(t_old, h, y_old, F)`` is built for all steps at once by
    ``dense_arrays``, and for the last step alone by ``at``, ``root`` and
    ``stop``, which evaluate it, locate an event on it and end the run inside
    it.  A non-finite start state or field raises ``IntegrationError``.
    """

    def __init__(self, rhs, t0: float, y0, t_bound: float, rtol: float, atol):
        self.rhs, self.rtol, self.atol = rhs, rtol, tuple(atol)
        self.t_bound = t_bound
        self.t, self.y = t0, tuple(y0)
        self.f = rhs(t0, self.y)
        if not all(map(math.isfinite, self.y + self.f)):
            raise IntegrationError("DOP853 start state or field not finite", t0)
        self.nfev, self.n_steps, self.n_rejected = 1, 0, 0
        self.h_abs = self._initial_step()
        self._steps = []        # per step: t_old, h, y_old, y_new, the 13 stages
        self._piece = (None, None)

    def _initial_step(self) -> float:
        # Hairer, Nørsett & Wanner §II.4, as scipy's select_initial_step
        t0, y0, f0 = self.t, self.y, self.f
        span = self.t_bound - t0
        scale = [a + abs(y) * self.rtol for a, y in zip(self.atol, y0)]
        d0 = _rms([y / s for y, s in zip(y0, scale)])
        d1 = _rms([f / s for f, s in zip(f0, scale)])
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
        f1 = self.rhs(t0 + h0, tuple(y + h0 * f for y, f in zip(y0, f0)))
        self.nfev += 1
        d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
        return min(100 * h0, h1, span)

    def _error_norm(self, e5, e3, h, y, y_new) -> float:
        rtol = self.rtol
        scale = [a + max(abs(p), abs(q)) * rtol for a, p, q in zip(self.atol, y, y_new)]
        e5 = sum((v / s) ** 2 for v, s in zip(e5, scale))
        e3 = sum((v / s) ** 2 for v, s in zip(e3, scale))
        if e5 == 0.0 and e3 == 0.0:
            return 0.0
        return h * e5 / math.sqrt((e5 + 0.01 * e3) * 3)

    def step(self) -> None:
        """One accepted step toward ``t_bound``."""
        t, y, f = self.t, self.y, self.f
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h, rejected = max(self.h_abs, min_step), False
        while True:
            if not h >= min_step:           # also a NaN step
                raise IntegrationError("DOP853 step size fell below the float spacing", t)
            t_new = min(t + h, self.t_bound)
            h = t_new - t
            y_new, K, e5, e3 = _stages(self.rhs, t, *y, *f, h)
            self.nfev += 12
            err = self._error_norm(e5, e3, h, y, y_new)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                self.h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
            self.n_rejected += 1
        if not all(map(math.isfinite, y_new)):
            raise IntegrationError("DOP853 state not finite", t_new)
        self.n_steps += 1
        self.nfev += 3          # the dense stages, evaluated when a piece is built
        self._steps.append((t, h, *y, *y_new, *K))
        self.t, self.y, self.f = t_new, y_new, K[36:39]

    def at(self, t: float) -> tuple:
        """The last step's dense polynomial at ``t``, in Dop853DenseOutput's order."""
        step = self._steps[-1]
        if self._piece[0] is not step:
            self._piece = step, _dense_piece(self.rhs, *step)
        return eval_piece(t, step[0], step[1], step[2:5], self._piece[1])

    def root(self, g, direction: int) -> float | None:
        """Where g(t, y(t)) crosses zero upward (``direction`` > 0) or
        downward (< 0) on the last step, or None."""
        step = self._steps[-1]
        g0, g1 = g(step[0], step[2:5]), g(self.t, self.y)
        if not (g0 <= 0.0 <= g1 if direction > 0 else g0 >= 0.0 >= g1):
            return None
        return brent(lambda t: g(t, self.at(t)), step[0], self.t, xtol=4 * EPS, rtol=4 * EPS)

    def stop(self, t: float) -> None:
        """End the run at ``t``; the steps that start at or past it are dropped."""
        while len(self._steps) > 1 and t <= self._steps[-1][0]:
            self._steps.pop()
        self.t = self.t_bound = t
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
        return {"method": "DOP853", "rtol": self.rtol, "atol": list(self.atol),
                "n_steps": self.n_steps, "n_rejected": self.n_rejected, "nfev": self.nfev}

    def samples(self):
        """Step ends ``ts`` (n + 1,) and the states there (3, n + 1)."""
        cols = np.array([s[:1] + s[2:5] for s in self._steps] + [(self.t, *self.y)]).T
        return cols[0], cols[1:]

    def dense_arrays(self):
        """The step ends ``ts`` (n + 1,), so ``ts[:-1]`` are the starts, and the
        pieces' ``h`` (n,), ``y_old`` (3, n), ``F`` (7, 3, n), built in one
        elementwise pass over all steps."""
        cols = np.array(self._steps).T
        F = np.array(_dense_piece(self.rhs, *cols))
        return np.append(cols[0], self.t), cols[1].copy(), cols[2:5].copy(), F


def brent(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * EPS,
          maxiter: int = 100) -> float:
    """A zero of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Brent's method with the iterates and stopping rule of scipy's
    ``brentq``: it returns once the bracket is below xtol + rtol |x|.
    A NaN value or a bracket without a sign change raises ValueError.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if not (fpre < 0.0) != (fcur < 0.0) or math.isnan(fpre) or math.isnan(fcur):
        raise ValueError(f"f(a) and f(b) must have different signs: f({a!r}) = {fpre!r}, "
                         f"f({b!r}) = {fcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"f({xcur!r}) is NaN")
    raise RuntimeError(f"brent: no convergence in {maxiter} iterations")
