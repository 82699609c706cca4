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
may leave it.  Real roots on the divisor are isolated by Sturm sequences
over the rationals (``_real_roots``), a rational root as its exact value;
no floating-point root finder is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

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

    Stored sparsely as integers: the coefficient of x^i y^j is
    (n0 + n1 s)/den for ``num[i, j] = (n0, n1)``, over one positive ``den``.
    The form is canonical (no zero pair, den coprime to every numerator), so
    equal polynomials have equal fields.  ``terms`` gives the coefficients
    as {(i, j): CoeffAffine}, and the constructor takes that form.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms: dict[tuple[int, int], CoeffAffine] | None = None):
        terms = terms or {}
        den = math.lcm(*(Fraction(c).denominator for v in terms.values() for c in (v.c0, v.c1)))
        self._set({k: (int(v.c0 * den), int(v.c1 * den)) for k, v in terms.items()}, den)

    def _set(self, num: dict, den: int) -> None:
        num = {k: v for k, v in num.items() if v[0] or v[1]}
        g = math.gcd(den, *(n for v in num.values() for n in v))
        self.num = {k: (a // g, b // g) for k, (a, b) in num.items()} if g > 1 else num
        self.den = den // g

    @staticmethod
    def _of(num: dict, den: int, canonical: bool = False) -> "ExactPoly":
        # ``canonical``: num and den are already in canonical form
        p = ExactPoly.__new__(ExactPoly)
        if canonical:
            p.num, p.den = num, den
        else:
            p._set(num, den)
        return p

    @staticmethod
    def from_terms(entries: dict[tuple[int, int], tuple]) -> "ExactPoly":
        return ExactPoly({k: CoeffAffine.of(*v) if isinstance(v, tuple) else
                          CoeffAffine.of(v) for k, v in entries.items()})

    @property
    def terms(self) -> dict[tuple[int, int], CoeffAffine]:
        d = self.den
        return {k: CoeffAffine(Fraction(n0, d), Fraction(n1, d))
                for k, (n0, n1) in self.num.items()}

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, o) -> bool:
        return isinstance(o, ExactPoly) and self.den == o.den and self.num == o.num

    def __add__(self, o: "ExactPoly") -> "ExactPoly":
        den = math.lcm(self.den, o.den)
        m, mo = den // self.den, den // o.den
        out = {k: (a * m, b * m) for k, (a, b) in self.num.items()}
        for k, (a, b) in o.num.items():
            c0, c1 = out.get(k, (0, 0))
            out[k] = (c0 + a * mo, c1 + b * mo)
        return ExactPoly._of(out, den)

    def __neg__(self) -> "ExactPoly":
        return ExactPoly._of({k: (-a, -b) for k, (a, b) in self.num.items()}, self.den, True)

    def __sub__(self, o: "ExactPoly") -> "ExactPoly":
        return self + (-o)

    def __mul__(self, o) -> "ExactPoly":
        if not isinstance(o, ExactPoly):
            c = o if isinstance(o, CoeffAffine) else CoeffAffine.of(o)
            o = ExactPoly({(0, 0): c})
        out: dict[tuple[int, int], tuple[int, int]] = {}
        for (i1, j1), (a0, a1) in self.num.items():
            for (i2, j2), (b0, b1) in o.num.items():
                if a1 and b1:
                    raise RingDegreeError("product would carry s^2")
                k = (i1 + i2, j1 + j2)
                c0, c1 = out.get(k, (0, 0))
                out[k] = (c0 + a0 * b0, c1 + a0 * b1 + a1 * b0)
        return ExactPoly._of(out, self.den * o.den)

    __rmul__ = __mul__

    def shift_degrees(self, di: int, dj: int) -> "ExactPoly":
        return ExactPoly._of({(i + di, j + dj): v for (i, j), v in self.num.items()}, self.den,
                             True)

    def subs_x_times_y(self) -> "ExactPoly":
        """Blow-up substitution x -> x*y (monomial x^i y^j -> x^i y^{i+j})."""
        return ExactPoly._of({(i, i + j): v for (i, j), v in self.num.items()}, self.den, True)

    def translate_x(self, a: Fraction) -> "ExactPoly":
        """Substitute x -> x + a, a = p/q, exactly: with n the x-degree, each
        y-row c(x) becomes q^-n T(q x + p) for T(z) = q^n c(z/q), and the
        Taylor shift T(z + p) runs by Horner in integers."""
        a = _frac(a)
        p, q = a.numerator, a.denominator
        n = max((i for i, _ in self.num), default=0)
        rows: dict[int, list] = {}
        for (i, j), (c0, c1) in self.num.items():
            w = q ** (n - i)
            rows.setdefault(j, [[0, 0] for _ in range(n + 1)])[i] = [c0 * w, c1 * w]
        out = {}
        for j, t in rows.items():
            for lo in range(n):
                for k in range(n - 1, lo - 1, -1):
                    t[k][0] += p * t[k + 1][0]
                    t[k][1] += p * t[k + 1][1]
            out.update({(k, j): (c0 * q ** k, c1 * q ** k) for k, (c0, c1) in enumerate(t)})
        return ExactPoly._of(out, self.den * q ** n)

    def min_y_degree(self) -> int:
        return min((j for (_, j) in self.num), default=0)

    def divide_y_power(self, m: int) -> "ExactPoly":
        if any(j < m for (_, j) in self.num):
            raise BlowupError(f"not divisible by y^{m}")
        return self.shift_degrees(0, -m)

    def restrict_y0(self) -> dict[int, CoeffAffine]:
        """Coefficients of the restriction to the divisor {y = 0}."""
        d = self.den
        return {i: CoeffAffine(Fraction(a, d), Fraction(b, d))
                for (i, j), (a, b) in self.num.items() if j == 0}

    def subs_s(self, s: Fraction) -> "ExactPoly":
        s = _frac(s)
        p, q = s.numerator, s.denominator
        return ExactPoly._of({k: (a * q + b * p, 0) for k, (a, b) in self.num.items()},
                             self.den * q)

    def eval_exact(self, x: Fraction, y: Fraction, s: Fraction) -> Fraction:
        x, y, s = _frac(x), _frac(y), _frac(s)
        return sum(((a + b * s) * x ** i * y ** j for (i, j), (a, b) in self.num.items()),
                   Fraction(0)) / self.den

    def eval_float(self, x: float, y: float, s: float) -> float:
        total, d = 0.0, self.den
        for (i, j), (a, b) in self.num.items():
            total += (a / d + b / d * s) * x ** i * y ** j
        return total

    def max_s_degree(self) -> int:
        return 1 if any(b for _, b in self.num.values()) else 0

    def text(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for (i, j) in sorted(terms):
            mono = "*".join(p for p in (
                ("x" if i == 1 else f"x^{i}") if i else "",
                ("y" if j == 1 else f"y^{j}") if j else "") if p) or "1"
            parts.append(f"({terms[(i, j)].text()})*{mono}")
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
    D = degree if degree is not None else max(i + j for (i, j) in poly.num)
    if any(i + j > D for (i, j) in poly.num):
        raise BlowupError("degree too small to clear denominators")
    return ExactPoly._of({(i, D - i - j): (a, b) if j % 2 == 0 else (-a, -b)
                          for (i, j), (a, b) in poly.num.items()}, poly.den, True)


@dataclass(frozen=True)
class BlowupState:
    """Vector field (P, Q), curve, and the replayable operation log."""

    P: ExactPoly
    Q: ExactPoly
    curve: ExactPoly
    log: tuple = ()
    curve_multiplicities: tuple[int, ...] = ()
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
                if st.log[-1] != op:
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
# locating points on the divisor: a univariate polynomial over Q is its list
# of coefficients in ascending powers, with a nonzero last entry ([] for 0)

@dataclass(frozen=True)
class DivisorPoint:
    """A real root on {y = 0}: its exact value if rational, else an
    isolating interval (lo, hi] narrower than 2^-46 around it."""

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
    return [d.get(i, _ZERO).c0 for i in range(max(d, default=-1) + 1)]


def _poly_eval(cs: list[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(cs):
        total = total * x + c
    return total


def _divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by b != 0."""
    q, r = [Fraction(0)] * max(len(a) - len(b) + 1, 0), list(a)
    while len(r) >= len(b):
        k, c = len(r) - len(b), r[-1] / b[-1]
        q[k] = c
        for i, bi in enumerate(b):
            r[k + i] -= c * bi
        while r and not r[-1]:
            r.pop()
    return q, r


def _gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic greatest common divisor, by Euclid."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _real_roots(cs: list[Fraction]) -> list[DivisorPoint]:
    """The distinct real roots of a nonzero polynomial over Q, in increasing order.

    They are the simple roots of the square-free part p = cs/gcd(cs, cs'),
    and a linear p gives its root in closed form.  Otherwise Sturm's theorem
    (Basu, Pollack & Roy, *Algorithms in Real Algebraic Geometry*, sec. 2.2)
    counts p's roots in (lo, hi] as V(lo) - V(hi), V the sign variations of
    the chain p, p', -rem(p, p'), ..., and bisection from a power of two
    above the Cauchy bound isolates each root.  Sign bisection of p narrows
    it below 2^-46 and 1/(2 lead^2), lead the leading coefficient of p in
    primitive integer form.  A rational root's denominator divides lead, and
    such rationals lie 1/lead^2 apart, so the root is rational iff the
    fraction nearest the midpoint with denominator at most lead is a zero.
    """
    p = _divmod(cs, _gcd(cs, [i * c for i, c in enumerate(cs)][1:]))[0]
    if len(p) < 2:
        return []
    if len(p) == 2:
        x = -p[0] / p[1]
        return [DivisorPoint(value=x, interval=None, approx=float(x))]
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])

    def variations(x: Fraction) -> int:
        signs = [v > 0 for v in (_poly_eval(q, x) for q in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = Fraction(2 ** math.ceil(1 + max(abs(c / p[-1]) for c in p)).bit_length())
    todo, isolated = [(-bound, bound, variations(-bound), variations(bound))], []
    while todo:  # depth first, left half on top: the intervals come out in order
        lo, hi, vlo, vhi = todo.pop()
        if vlo - vhi == 1:
            isolated.append((lo, hi))
        elif vlo - vhi > 1:
            mid = (lo + hi) / 2
            vmid = variations(mid)
            todo += [(mid, hi, vmid, vhi), (lo, mid, vlo, vmid)]

    den = math.lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    lead = abs(ints[-1]) // math.gcd(*ints)
    width = min(Fraction(1, 2 ** 46), Fraction(1, 2 * lead * lead + 1))
    out = []
    for lo, hi in isolated:
        fhi = _poly_eval(p, hi)
        while fhi and hi - lo > width:
            mid = (lo + hi) / 2
            fmid = _poly_eval(p, mid)
            if not fmid or (fmid > 0) == (fhi > 0):
                hi, fhi = mid, fmid
            else:
                lo = mid
        mid = (lo + hi) / 2 if fhi else hi
        x = mid.limit_denominator(lead)
        if lo < x <= hi and not _poly_eval(p, x):
            out.append(DivisorPoint(value=x, interval=None, approx=float(x)))
        else:
            out.append(DivisorPoint(value=None, interval=(lo, hi), approx=float(mid)))
    return out


def divisor_critical_points(st: BlowupState) -> list[DivisorPoint]:
    """Common zeros of P and Q restricted to the divisor {y = 0}: the real
    roots of the gcd of the two restrictions, in increasing order.

    The field is s-independent throughout the sequence, so the
    restrictions are honest rational univariate polynomials.
    """
    P0, Q0 = st.P.restrict_y0(), st.Q.restrict_y0()
    if not P0 and not Q0:
        raise BlowupError("whole divisor is critical; cannot isolate points")
    return _real_roots(_gcd(_uni_coeffs(P0), _uni_coeffs(Q0)))


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

    __str__ = text


def curve_divisor_intersection(st: BlowupState) -> list:
    """Abscissas where the strict transform of the curve meets {y = 0}.

    Returns Fractions for exact rational roots, SRational objects for
    roots depending on s and DivisorPoints for irrational roots.  A zero
    restriction or an s-dependent higher degree factor is an engine limit
    and raises.
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
        roots.extend(p.value if p.is_rational else p for p in _real_roots(_uni_coeffs(d)))
        return roots
    raise BlowupError("cannot solve s-dependent restriction of degree >= 2 exactly")


# ---------------------------------------------------------------------------
# the full sequence

_MAX_BLOWUPS = 24         # the t = 0 run separates after 10, the generic one after 6


@dataclass
class BlowupReport:
    """Outcome of one separation run."""

    mode: str
    n_blowups: int
    contact_order: int
    critical_abscissa: Fraction
    curve_abscissa: object           # Fraction or SRational; str() is its text
    translations: list[tuple[int, Fraction]]
    curve_multiplicities: list[int]
    state: BlowupState

    def to_text(self) -> str:
        lines = [
            f"mode: {self.mode}",
            f"blowups: {self.n_blowups}",
            f"contact_order: {self.contact_order}",
            f"critical_abscissa: {self.critical_abscissa}",
            f"curve_abscissa: {self.curve_abscissa}",
            "translations: " + ", ".join(
                f"after blowup {k}: {a}" for k, a in self.translations),
            f"curve_multiplicities: {self.curve_multiplicities}",
            self.state.to_text(),
        ]
        return "\n".join(lines)


def run_sequence(t_mode: str, *, curve: ExactPoly | None = None) -> BlowupReport:
    """Blow up until the followed critical point separates from the curve.

    ``t_mode`` is "generic" (coefficients affine in s) or "t0" (exact
    specialization s = 1).  After each blow-up the divisor must carry
    exactly one critical point, and a rational one, else BlowupError; the
    orbit germ has nowhere else to go, so no orbit is consulted.  A
    nonzero abscissa is translated to the origin, so the reported curve
    abscissa is measured relative to the critical point; no separation
    within 24 blow-ups raises BlowupError.  The field holds
    neither s nor the curve, so the translations are the germ digits
    1/2, -1/4, 1/8, ... whatever the curve.  Contact order is the number
    of blow-ups needed to separate, minus one.
    """
    if t_mode not in ("generic", "t0"):
        raise ValueError("t_mode must be 'generic' or 't0'")
    s_value = None if t_mode == "generic" else Fraction(1)
    st = chart_to_infinity(s_value, curve=curve)
    if (0, 0) in st.curve.num:
        raise BlowupError("curve does not pass through the blow-up point")
    translations: list[tuple[int, Fraction]] = []

    for step in range(1, _MAX_BLOWUPS + 1):
        st = blowup_once(st)
        cps = divisor_critical_points(st)
        if len(cps) != 1 or not cps[0].is_rational:
            raise BlowupError(f"blow-up {step}: expected one rational critical point "
                              f"on the divisor, found {[c.text() for c in cps]}")
        a = cps[0].value
        if a != 0:
            st = translate(st, a)
            translations.append((step, a))
        roots = curve_divisor_intersection(st)
        if not any(r == 0 for r in roots):
            main = min((r for r in roots if isinstance(r, (Fraction, SRational))),
                       key=lambda r: abs(float(r) if isinstance(r, Fraction) else r.eval(11.0)))
            return BlowupReport(
                mode=t_mode, n_blowups=step, contact_order=step - 1,
                critical_abscissa=Fraction(0), curve_abscissa=main,
                translations=translations,
                curve_multiplicities=list(st.curve_multiplicities),
                state=st,
            )
    raise BlowupError(f"no separation within {_MAX_BLOWUPS} blow-ups")
