"""Brent's bracketed root finder, in Python floats, and the stepping error.

``brent`` is Brent's method (Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) in the form of scipy's ``brentq``: the same
iterates, evaluations and stopping rule.
"""

from __future__ import annotations

import math
import sys

EPS = sys.float_info.epsilon


class IntegrationError(RuntimeError):
    """Stepping failed (step-size underflow or non-finite state);
    ``t`` is the solver time of the failure, when there is one."""

    def __init__(self, msg: str, t: float | None = None):
        super().__init__(msg if t is None else f"{msg} at t = {t!r}")
        self.msg, self.t = msg, t


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
