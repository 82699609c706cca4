"""Exact-arithmetic analysis of the tangency at infinity.

The vertical asymptote of the bounded orbit is brought to the origin by
the projective chart (x, y) -> (-x/y, -1/y).  In the new coordinates the
system, rescaled by y to an orbit-equivalent polynomial field, reads

    xdot = -4x^2 - 2x^3 + (1/2)xy^2 - x + (1/2)y^2
    ydot = -2xy - 2x^2y + (1/2)y^3

and the curvature-growth curve clears its y^4 denominator to

    C = -2xy^2 - x^2y^2 + y^4 + s (2x + 2x^2 - y^2),      s = t + 1.

Both the orbit and the curve pass through the origin tangent to the
exceptional direction, and iterated algebraic blow-ups x -> x y separate
them after finitely many steps.  After every blow-up the divisor carries
exactly one critical point, a rational one, so the point the orbit germ
follows is forced and no orbit is needed: exact translations recenter it
at the origin.  Everything here is exact: the coefficient ring is pairs
(c0, c1) representing c0 + c1 s with rational entries, and no operation
may leave it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

import numpy as np

__all__ = [
    "CoeffAffine", "ExactPoly", "SRational", "DivisorPoint",
    "BlowupState", "BlowupReport", "BlowupError", "RingDegreeError",
    "chart_to_infinity", "blowup_once", "translate",
    "divisor_critical_points", "curve_divisor_intersection", "run_sequence",
    "project_to_infinity", "BASE_P", "BASE_Q", "CURVE_XY",
]


class BlowupError(RuntimeError):
    """The sequence hit a configuration the exact engine cannot handle."""


class RingDegreeError(BlowupError):
    """An operation would raise the s-degree of a coefficient above one."""


def _frac(v) -> Fraction:
    if isinstance(v, float):
        raise TypeError("coefficients must be exact (int, Fraction, str)")
    return Fraction(v)


@dataclass(frozen=True)
class CoeffAffine:
    """Exact coefficient c0 + c1*s, with s the flow-time shift t + 1."""

    c0: Fraction
    c1: Fraction = Fraction(0)

    @staticmethod
    def of(c0, c1=0) -> "CoeffAffine":
        return CoeffAffine(_frac(c0), _frac(c1))

    def __bool__(self) -> bool:
        return bool(self.c0) or bool(self.c1)

    def __add__(self, o: "CoeffAffine") -> "CoeffAffine":
        return CoeffAffine(self.c0 + o.c0, self.c1 + o.c1)

    def __neg__(self) -> "CoeffAffine":
        return CoeffAffine(-self.c0, -self.c1)

    def __sub__(self, o: "CoeffAffine") -> "CoeffAffine":
        return CoeffAffine(self.c0 - o.c0, self.c1 - o.c1)

    def __mul__(self, o) -> "CoeffAffine":
        if isinstance(o, CoeffAffine):
            if self.c1 and o.c1:
                raise RingDegreeError("product would carry s^2")
            return CoeffAffine(self.c0 * o.c0, self.c0 * o.c1 + self.c1 * o.c0)
        f = _frac(o)
        return CoeffAffine(self.c0 * f, self.c1 * f)

    __rmul__ = __mul__

    def subs_s(self, s: Fraction) -> "CoeffAffine":
        return CoeffAffine(self.c0 + self.c1 * s)

    def eval(self, s: float) -> float:
        return float(self.c0) + float(self.c1) * s

    def text(self) -> str:
        if not self.c1:
            return str(self.c0)
        st = "s" if self.c1 == 1 else ("-s" if self.c1 == -1 else f"{self.c1}*s")
        if not self.c0:
            return st
        return f"{self.c0} + {st}" if self.c1 > 0 else f"{self.c0} - {st.lstrip('-')}"


_ZERO = CoeffAffine(Fraction(0))


class ExactPoly:
    """Bivariate polynomial over the affine-in-s rational coefficient ring.

    Stored sparsely as {(i, j): CoeffAffine} for monomials x^i y^j; the
    constructor drops zero coefficients, so the arithmetic need not.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], CoeffAffine] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def from_terms(entries: dict[tuple[int, int], tuple]) -> "ExactPoly":
        return ExactPoly({k: CoeffAffine.of(*v) if isinstance(v, tuple) else
                          CoeffAffine.of(v) for k, v in entries.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, o) -> bool:
        return isinstance(o, ExactPoly) and self.terms == o.terms

    def __add__(self, o: "ExactPoly") -> "ExactPoly":
        out = dict(self.terms)
        for k, v in o.terms.items():
            out[k] = out.get(k, _ZERO) + v
        return ExactPoly(out)

    def __neg__(self) -> "ExactPoly":
        return ExactPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, o: "ExactPoly") -> "ExactPoly":
        return self + (-o)

    def __mul__(self, o) -> "ExactPoly":
        if isinstance(o, ExactPoly):
            out: dict[tuple[int, int], CoeffAffine] = {}
            for (i1, j1), a in self.terms.items():
                for (i2, j2), b in o.terms.items():
                    k = (i1 + i2, j1 + j2)
                    out[k] = out.get(k, _ZERO) + a * b
            return ExactPoly(out)
        c = o if isinstance(o, CoeffAffine) else CoeffAffine.of(o)
        return ExactPoly({k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def shift_degrees(self, di: int, dj: int) -> "ExactPoly":
        return ExactPoly({(i + di, j + dj): v for (i, j), v in self.terms.items()})

    def subs_x_times_y(self) -> "ExactPoly":
        """Blow-up substitution x -> x*y (monomial x^i y^j -> x^i y^{i+j})."""
        out: dict[tuple[int, int], CoeffAffine] = {}
        for (i, j), v in self.terms.items():
            out[i, i + j] = out.get((i, i + j), _ZERO) + v
        return ExactPoly(out)

    def translate_x(self, a: Fraction) -> "ExactPoly":
        """Substitute x -> x + a with exact binomial expansion."""
        a = _frac(a)
        out: dict[tuple[int, int], CoeffAffine] = {}
        for (i, j), v in self.terms.items():
            for k in range(i + 1):
                out[k, j] = out.get((k, j), _ZERO) + v * (comb(i, k) * a ** (i - k))
        return ExactPoly(out)

    def min_y_degree(self) -> int:
        return min((j for (_, j) in self.terms), default=0)

    def divide_y_power(self, m: int) -> "ExactPoly":
        if m == 0 or not self.terms:
            return ExactPoly(dict(self.terms))
        if any(j < m for (_, j) in self.terms):
            raise BlowupError(f"not divisible by y^{m}")
        return ExactPoly({(i, j - m): v for (i, j), v in self.terms.items()})

    def restrict_y0(self) -> dict[int, CoeffAffine]:
        """Coefficients of the restriction to the divisor {y = 0}."""
        return {i: v for (i, j), v in self.terms.items() if j == 0}

    def subs_s(self, s: Fraction) -> "ExactPoly":
        return ExactPoly({k: v.subs_s(s) for k, v in self.terms.items()})

    def eval_exact(self, x: Fraction, y: Fraction, s: Fraction) -> Fraction:
        x, y, s = _frac(x), _frac(y), _frac(s)
        total = Fraction(0)
        for (i, j), v in self.terms.items():
            total += (v.c0 + v.c1 * s) * x ** i * y ** j
        return total

    def eval_float(self, x: float, y: float, s: float) -> float:
        total = 0.0
        for (i, j), v in self.terms.items():
            total += v.eval(s) * x ** i * y ** j
        return total

    def max_s_degree(self) -> int:
        return 1 if any(v.c1 for v in self.terms.values()) else 0

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            mono = "*".join(p for p in (
                ("x" if i == 1 else f"x^{i}") if i else "",
                ("y" if j == 1 else f"y^{j}") if j else "") if p) or "1"
            parts.append(f"({self.terms[(i, j)].text()})*{mono}")
        return " + ".join(parts)


# the phase system renamed (x, y) = (H, F), and the growth curve C_t
BASE_P = ExactPoly.from_terms({(1, 1): 1, (2, 0): -2, (0, 0): Fraction(1, 2)})
BASE_Q = ExactPoly.from_terms({(1, 1): 2, (2, 0): -2, (0, 0): Fraction(1, 2)})
CURVE_XY = ExactPoly.from_terms({
    (1, 1): 2, (2, 0): -1, (0, 0): 1,                       # 2xy - x^2 + 1
    (1, 3): (0, -2), (2, 2): (0, 2), (0, 2): (0, -1),       # s y^2 (-2xy + 2x^2 - 1)
})


def project_to_infinity(poly: ExactPoly, degree: int | None = None) -> ExactPoly:
    """Apply the chart (x, y) -> (x/y_new ...) clearing denominators.

    Under x = X/Y, y = -1/Y a monomial x^i y^j becomes (-1)^j X^i Y^{-i-j};
    multiplying by Y^D with D the total degree clears all denominators.
    """
    if not poly:
        return ExactPoly()
    D = degree if degree is not None else max(i + j for (i, j) in poly.terms)
    out: dict[tuple[int, int], CoeffAffine] = {}
    for (i, j), v in poly.terms.items():
        k = (i, D - i - j)
        if k[1] < 0:
            raise BlowupError("degree too small to clear denominators")
        out[k] = out.get(k, _ZERO) + v * ((-1) ** j)
    return ExactPoly(out)


@dataclass(frozen=True)
class BlowupState:
    """Vector field (P, Q), curve, and the replayable operation log."""

    P: ExactPoly
    Q: ExactPoly
    curve: ExactPoly
    log: tuple = ()
    curve_multiplicities: tuple[int, ...] = ()
    field_cancellations: tuple[int, ...] = ()
    s_value: Fraction | None = None

    def map_point(self, H: float, F: float) -> tuple[float, float]:
        """Push a numeric phase point through the accumulated transforms."""
        x, y = H, F
        for op in self.log:
            if op[0] == "chart":
                x, y = -x / y, -1.0 / y
            elif op[0] == "blowup":
                x, y = x / y, y
            elif op[0] == "translate":
                x = x - float(op[1])
        return x, y

    def replay(self) -> "BlowupState":
        """Re-execute the log from scratch; the result must be identical."""
        st = None
        for op in self.log:
            if op[0] == "chart":
                st = chart_to_infinity(self.s_value, curve=op[1])
            elif op[0] == "blowup":
                st = blowup_once(st)
            elif op[0] == "translate":
                st = translate(st, op[1])
            elif op[0] == "cancel_y":
                if st.field_cancellations[-1] != op[1]:
                    raise BlowupError("replay cancellation mismatch")
        return st

    def to_text(self) -> str:
        lines = [f"s_value: {'generic' if self.s_value is None else self.s_value}"]
        lines.append("log: " + ", ".join(
            op[0] if len(op) == 1 else f"{op[0]}({op[1]})"
            for op in self.log if op[0] != "chart"))
        lines.append(f"P: {self.P.text()}")
        lines.append(f"Q: {self.Q.text()}")
        lines.append(f"curve: {self.curve.text()}")
        return "\n".join(lines)


def chart_to_infinity(s_value: Fraction | None = None,
                      curve: ExactPoly | None = None) -> BlowupState:
    """Transform the system and curve into the chart at the vertical asymptote.

    The field picks up a 1/(2y) factor which is cleared by an
    orbit-equivalent rescaling; the curve clears its y^4 denominator.  With
    ``s_value`` the curve coefficients are specialized exactly (s = t + 1);
    otherwise they stay affine in s.  A different ``curve`` (a polynomial
    in the original phase coordinates) may be substituted for sanity runs.
    """
    base_curve = CURVE_XY if curve is None else curve
    # field: under the chart, Xdot = Y (xdot + X ydot), Ydot = Y^2 ydot;
    # with P2 = xdot*Y^2, Q2 = ydot*Y^2 polynomial, rescaling by Y gives
    # (P2 + X Q2, Y Q2).
    P2 = project_to_infinity(BASE_P, 2)
    Q2 = project_to_infinity(BASE_Q, 2)
    P_new = P2 + Q2.shift_degrees(1, 0)
    Q_new = Q2.shift_degrees(0, 1)
    C_new = project_to_infinity(base_curve)
    if s_value is not None:
        s_value = _frac(s_value)
        C_new = C_new.subs_s(s_value)
    if C_new.max_s_degree() > 1:
        raise RingDegreeError("curve coefficients must stay affine in s")
    return BlowupState(P=P_new, Q=Q_new, curve=C_new,
                       log=(("chart", curve),), s_value=s_value)


def blowup_once(st: BlowupState) -> BlowupState:
    """One blow-up x -> x*y of the state at the origin.

    The field transforms as (P, Q) -> ((P o phi - x Q o phi)/y, Q o phi)
    followed by cancellation of the largest common y power (an
    orbit-equivalent rescaling, recorded in the log); the curve transform
    extracts its full y multiplicity separately, leaving the strict
    transform.
    """
    Ps = st.P.subs_x_times_y()
    Qs = st.Q.subs_x_times_y()
    num = Ps - Qs.shift_degrees(1, 0)
    if num and num.min_y_degree() < 1:
        raise BlowupError("vector field does not vanish at the blow-up point")
    P_raw = num.divide_y_power(1)
    m_field = min(P_raw.min_y_degree() if P_raw else 0,
                  Qs.min_y_degree() if Qs else 0)
    P_new = P_raw.divide_y_power(m_field)
    Q_new = Qs.divide_y_power(m_field)

    Cs = st.curve.subs_x_times_y()
    m_curve = Cs.min_y_degree() if Cs else 0
    C_new = Cs.divide_y_power(m_curve)
    if C_new.max_s_degree() > 1:
        raise RingDegreeError("curve coefficients must stay affine in s")
    return replace(
        st, P=P_new, Q=Q_new, curve=C_new,
        log=st.log + (("blowup",), ("cancel_y", m_field)),
        curve_multiplicities=st.curve_multiplicities + (m_curve,),
        field_cancellations=st.field_cancellations + (m_field,),
    )


def translate(st: BlowupState, a: Fraction) -> BlowupState:
    """Exact translation x -> x + a of field and curve."""
    a = _frac(a)
    if a == 0:
        return st
    return replace(
        st, P=st.P.translate_x(a), Q=st.Q.translate_x(a),
        curve=st.curve.translate_x(a),
        log=st.log + (("translate", a),),
    )


# ---------------------------------------------------------------------------
# locating points on the divisor

@dataclass(frozen=True)
class DivisorPoint:
    """A critical point abscissa on {y = 0}: exact rational or isolated."""

    value: Fraction | None
    interval: tuple[Fraction, Fraction] | None
    approx: float

    @property
    def is_rational(self) -> bool:
        return self.value is not None

    def text(self) -> str:
        if self.is_rational:
            return str(self.value)
        return f"irrational ~ {self.approx:.9f} (exactly isolated)"


def _uni_coeffs(d: dict[int, CoeffAffine]) -> list[Fraction]:
    if any(v.c1 for v in d.values()):
        raise BlowupError("expected s-free univariate restriction")
    n = max(d)
    return [d.get(i, _ZERO).c0 for i in range(n + 1)]


def _poly_eval(cs: list[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(cs):
        total = total * x + c
    return total


def _poly_div_root(cs: list[Fraction], r: Fraction) -> list[Fraction]:
    out = [Fraction(0)] * (len(cs) - 1)
    acc = Fraction(0)
    for i in range(len(cs) - 1, 0, -1):
        acc = cs[i] + acc * r
        out[i - 1] = acc
    return out


def _rational_roots(cs: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """All rational roots (with deflation); returns (roots, remaining poly)."""
    roots: list[Fraction] = []
    while len(cs) > 1:
        while len(cs) > 1 and cs[0] == 0:
            roots.append(Fraction(0))
            cs = cs[1:]
        if len(cs) <= 1:
            break
        den = math.lcm(*(c.denominator for c in cs))
        ics = [int(c * den) for c in cs]
        g = math.gcd(*(abs(c) for c in ics if c)) or 1
        ics = [c // g for c in ics]
        a0, an = abs(ics[0]), abs(ics[-1])
        found = next((cand for p in _divisors(a0) for q in _divisors(an)
                      for cand in (Fraction(p, q), Fraction(-p, q))
                      if _poly_eval(cs, cand) == 0), None)
        if found is None:
            break
        roots.append(found)
        cs = _poly_div_root(cs, found)
    return roots, cs


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _isolate_real_roots(cs: list[Fraction]) -> list[DivisorPoint]:
    """Isolate real roots of an s-free polynomial with exact sign bisection."""
    deg = len(cs) - 1
    if deg <= 0:
        return []
    seeds = np.roots([float(c) for c in reversed(cs)])
    points = []
    for z in seeds:
        if abs(z.imag) > 1e-9:
            continue
        x0 = z.real
        lo, hi = Fraction(x0 - 1e-5).limit_denominator(10 ** 12), \
            Fraction(x0 + 1e-5).limit_denominator(10 ** 12)
        flo, fhi = _poly_eval(cs, lo), _poly_eval(cs, hi)
        if flo == 0 or fhi == 0 or (flo < 0) == (fhi < 0):
            continue  # even multiplicity or spurious
        for _ in range(30):
            mid = (lo + hi) / 2
            fm = _poly_eval(cs, mid)
            if fm == 0:
                lo = hi = mid
                break
            if (fm < 0) == (flo < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        points.append(DivisorPoint(value=None, interval=(lo, hi),
                                   approx=float((lo + hi) / 2)))
    return points


def divisor_critical_points(st: BlowupState) -> list[DivisorPoint]:
    """Common zeros of P and Q restricted to the divisor {y = 0}.

    Rational roots are exact; irrational ones carry an isolating interval.
    The field is s-independent throughout the sequence, so the
    restrictions are honest rational univariate polynomials.
    """
    P0 = st.P.restrict_y0()
    Q0 = st.Q.restrict_y0()
    if not P0 and not Q0:
        raise BlowupError("whole divisor is critical; cannot isolate points")
    polys = [_uni_coeffs(d) for d in (P0, Q0) if d]

    def roots_of(cs):
        rational, rest = _rational_roots(list(cs))
        return rational, _isolate_real_roots(rest)

    rats0, irrs0 = roots_of(polys[0])
    if len(polys) == 1:
        rats, irrs = rats0, irrs0
    else:
        rats1, irrs1 = roots_of(polys[1])
        rats = [r for r in rats0 if r in rats1]
        irrs = [p for p in irrs0
                if any(abs(p.approx - q.approx) < 1e-7 for q in irrs1)]
    out = [DivisorPoint(value=r, interval=None, approx=float(r)) for r in set(rats)]
    return sorted(out + irrs, key=lambda p: p.approx)


@dataclass(frozen=True)
class SRational:
    """A rational function (n0 + n1 s)/(d0 + d1 s) in canonical form."""

    num: tuple[Fraction, Fraction]
    den: tuple[Fraction, Fraction]

    @staticmethod
    def make(n0, n1, d0, d1) -> "SRational | Fraction":
        n0, n1, d0, d1 = map(_frac, (n0, n1, d0, d1))
        if d0 == 0 and d1 == 0:
            raise ZeroDivisionError("zero denominator")
        # constant when num is proportional to den
        if n0 * d1 == n1 * d0:
            return n0 / d0 if d0 else n1 / d1
        scale = None
        for v in (d1, d0):
            if v:
                scale = v
        n0, n1, d0, d1 = (v / scale for v in (n0, n1, d0, d1))
        den_lcm = math.lcm(n0.denominator, n1.denominator,
                           d0.denominator, d1.denominator)
        n0, n1, d0, d1 = (v * den_lcm for v in (n0, n1, d0, d1))
        g = math.gcd(int(n0), int(n1), int(d0), int(d1)) or 1
        return SRational((Fraction(n0, g), Fraction(n1, g)),
                         (Fraction(d0, g), Fraction(d1, g)))

    def eval(self, s: float) -> float:
        return (float(self.num[0]) + float(self.num[1]) * s) / \
            (float(self.den[0]) + float(self.den[1]) * s)

    def __eq__(self, o) -> bool:
        if isinstance(o, SRational):
            return self.num == o.num and self.den == o.den
        if isinstance(o, (Fraction, int)):
            return self.num[0] == o * self.den[0] and self.num[1] == o * self.den[1]
        return NotImplemented

    def text(self) -> str:
        def lin(c0, c1):
            if not c1:
                return str(c0)
            st = "s" if c1 == 1 else ("-s" if c1 == -1 else f"{c1}*s")
            if not c0:
                return st
            return f"{st} + {c0}" if c0 > 0 else f"{st} - {-c0}"
        return f"({lin(*self.num)})/({lin(*self.den)})"


def curve_divisor_intersection(st: BlowupState) -> list:
    """Abscissas where the strict transform of the curve meets {y = 0}.

    Returns Fractions for exact rational roots and SRational objects for
    roots depending on s.  A zero restriction or an s-dependent higher
    degree factor is an engine limit and raises.
    """
    d = st.curve.restrict_y0()
    if not d:
        return []
    roots: list = []
    k = min(d)
    if k > 0:
        roots.append(Fraction(0))
        d = {i - k: v for i, v in d.items()}
    deg = max(d)
    if deg == 0:
        return roots
    if deg == 1:
        a0 = d.get(0, _ZERO)
        a1 = d[1]
        r = SRational.make(-a0.c0, -a0.c1, a1.c0, a1.c1)
        roots.append(r)
        return roots
    if all(not v.c1 for v in d.values()):
        rats, rest = _rational_roots(_uni_coeffs(d))
        roots.extend(rats)
        roots.extend(p for p in _isolate_real_roots(rest))
        return roots
    raise BlowupError("cannot solve s-dependent restriction of degree >= 2 exactly")


# ---------------------------------------------------------------------------
# the full sequence

@dataclass
class BlowupReport:
    """Outcome of one separation run."""

    mode: str
    n_blowups: int
    contact_order: int
    critical_abscissa: Fraction
    curve_abscissa: object           # Fraction or SRational
    translations: list[tuple[int, Fraction]]
    curve_multiplicities: list[int]
    state: BlowupState

    def to_text(self) -> str:
        lines = [
            f"mode: {self.mode}",
            f"blowups: {self.n_blowups}",
            f"contact_order: {self.contact_order}",
            f"critical_abscissa: {self.critical_abscissa}",
            "curve_abscissa: " + (self.curve_abscissa.text()
                                  if isinstance(self.curve_abscissa, SRational)
                                  else str(self.curve_abscissa)),
            "translations: " + ", ".join(
                f"after blowup {k}: {a}" for k, a in self.translations),
            f"curve_multiplicities: {self.curve_multiplicities}",
            self.state.to_text(),
        ]
        return "\n".join(lines)


def run_sequence(t_mode: str, *, curve: ExactPoly | None = None,
                 max_steps: int = 24) -> BlowupReport:
    """Blow up until the followed critical point separates from the curve.

    ``t_mode`` is "generic" (coefficients affine in s) or "t0" (exact
    specialization s = 1).  After each blow-up the divisor must carry
    exactly one critical point, and a rational one, else BlowupError; the
    orbit germ has nowhere else to go, so no orbit is consulted.  A
    nonzero abscissa is translated to the origin, so the reported curve
    abscissa is measured relative to the critical point.  The field holds
    neither s nor the curve, so the translations are the germ digits
    1/2, -1/4, 1/8, ... whatever the curve.  Contact order is the number
    of blow-ups needed to separate, minus one.
    """
    if t_mode not in ("generic", "t0"):
        raise ValueError("t_mode must be 'generic' or 't0'")
    s_value = None if t_mode == "generic" else Fraction(1)
    st = chart_to_infinity(s_value, curve=curve)
    if st.curve and (0, 0) in st.curve.terms:
        raise BlowupError("curve does not pass through the blow-up point")
    translations: list[tuple[int, Fraction]] = []

    for step in range(1, max_steps + 1):
        st = blowup_once(st)
        cps = divisor_critical_points(st)
        if len(cps) != 1 or not cps[0].is_rational:
            raise BlowupError(f"blow-up {step}: expected one rational critical point "
                              f"on the divisor, found {[c.text() for c in cps]}")
        a = cps[0].value
        roots = curve_divisor_intersection(st)
        if a != 0:
            st = translate(st, a)
            translations.append((step, a))
        if not any(r == a for r in roots):
            shifted = [r - a if isinstance(r, Fraction) else SRational.make(
                r.num[0] - a * r.den[0], r.num[1] - a * r.den[1], r.den[0], r.den[1])
                for r in roots if isinstance(r, (Fraction, SRational))]
            main = min(shifted, key=lambda r: abs(float(r) if isinstance(r, Fraction)
                                                  else r.eval(11.0)))
            return BlowupReport(
                mode=t_mode, n_blowups=step, contact_order=step - 1,
                critical_abscissa=Fraction(0), curve_abscissa=main,
                translations=translations,
                curve_multiplicities=list(st.curve_multiplicities),
                state=st,
            )
    raise BlowupError(f"no separation within {max_steps} blow-ups")
