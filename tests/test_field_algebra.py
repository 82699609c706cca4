"""The field algebra that the package writes out, derived with sympy.

Everything starts from the exact field of ``blowup`` (``BASE_P``,
``BASE_Q``), sigma := -(H' + H^2) and the scalar curvature R0 = -2H^2 +
4 sigma.  The jet, the saddle's eigendata and the cusp recursion, the
isoclines and their slopes, the barrier products, the growth curve C_t,
Psi_t and its tail, the discriminant P(s) and the germ series are derived from these and
compared with the package's constants and float functions, so a
transcription error fails here instead of moving a verdict.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import cuspsoliton as cs
from cuspsoliton.blowup import BASE_P, BASE_Q, CURVE_XY
from cuspsoliton.evolution import _PSI_DISC, _ab
from cuspsoliton.phase_core import _germ_series, _jet
from cuspsoliton.separatrix import _SIDE

sp = pytest.importorskip("sympy")

H, F, s, lam, k, u, Y = sp.symbols("H F s lam k u Y")
HALF = sp.Rational(1, 2)


def _rational(v):
    return sp.Rational(v.numerator, v.denominator)


def _fraction(v) -> Fraction:
    return Fraction(int(v.p), int(v.q))


def _sym(poly):
    """A ``blowup.ExactPoly`` in (x, y) = (H, F) as a sympy expression, s = t + 1."""
    return sum((_rational(c.c0) + _rational(c.c1) * s) * H ** i * F ** j
               for (i, j), c in poly.terms.items())


P, Q = _sym(BASE_P), _sym(BASE_Q)
SIGMA = -(P + H ** 2)


def _lie(f):
    """The derivative of f(H, F) along the field (P, Q)."""
    return sp.expand(sp.diff(f, H) * P + sp.diff(f, F) * Q)


def _solve_F(eq):
    """The one root F = g(H) of ``eq``, linear in F."""
    slope = sp.diff(eq, F)
    assert sp.diff(slope, F) == 0
    return sp.cancel(-eq.subs(F, 0) / slope)


def _in_fractions(expr):
    """A rational function of H, evaluated exactly at a float or Fraction."""
    num, den = (sp.Poly(part, H).all_coeffs() for part in sp.fraction(sp.cancel(expr)))

    def horner(coeffs, h):
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * h + _fraction(c)
        return acc
    return lambda h: horner(num, Fraction(h)) / horner(den, Fraction(h))


def _exact(expr):
    """``expr``, a polynomial in (H, F, s), evaluated in Fractions; with
    ``absolute`` the sum of its terms' absolute values, the rounding scale."""
    terms = [(m, _fraction(c)) for m, c in sp.Poly(expr, H, F, s).terms()]

    def at(h, f, sv=0, absolute=False):
        total = Fraction(0)
        for (i, j, l), c in terms:
            term = c * Fraction(h) ** i * Fraction(f) ** j * Fraction(sv) ** l
            total += abs(term) if absolute else term
        return total
    return at


def _close(got, exact, scale, ulps=8):
    # |got - exact| within ``ulps`` float spacings of the rounding scale
    return abs(Fraction(got) - exact) <= ulps * Fraction(math.ulp(float(scale)))


@pytest.mark.parametrize("h, f", [(Fraction(1, 3), Fraction(-5, 2)),
                                  (Fraction(9, 20), Fraction(-1, 7)),
                                  (Fraction(-2), Fraction(3, 4))])
def test_jet_is_the_lie_series_of_the_field(h, f):
    # in exact arithmetic, c_k of H, F and sigma is the k-th derivative
    # along (P, Q) over k!, with sigma := -(P + H^2): sigma' = (F - H)
    # sigma - H^3 is derived, not assumed
    rows = _jet((h, f, _exact(SIGMA)(h, f)), 4, half=Fraction(1, 2))
    for row, fun in zip(rows, (H, F, SIGMA)):
        for order, c in enumerate(row):
            assert isinstance(c, Fraction) and c == _exact(fun)(h, f) / math.factorial(order)
            fun = _lie(fun)


def test_saddle_eigendata_and_the_cusp_recursion():
    J = sp.Matrix([P, Q]).jacobian([H, F])
    for h, f in ((0.375, -1.25), (0.5, 0.0), (-2.0, 3.5)):      # linearize is exact here
        got = cs.linearize((h, f)).as_array()
        assert got.tolist() == [[float(v) for v in row] for row in J.subs({H: h, F: f}).tolist()]
    J0 = J.subs({H: HALF, F: 0})
    (up, v_up), (down, v_down) = sorted(((val, vec[0]) for val, _, vec in J0.eigenvects()),
                                        key=lambda e: -float(e[0]))
    for got, exact in ((cs.EIGENVALUE_UNSTABLE, up), (cs.EIGENVALUE_STABLE, down),
                       (cs.SLOPE_UNSTABLE, v_up[1] / v_up[0]),
                       (cs.SLOPE_STABLE, v_down[1] / v_down[0])):
        exact = float(sp.N(exact, 30))
        assert abs(got - exact) <= math.ulp(exact)
    # _CuspLeg.at: (k lam - J) p_k = N_k with lam^2 = 1 - lam, the
    # characteristic polynomial; det and the adjugate's two rows as written there
    charpoly = J0.charpoly(lam).as_expr()
    assert sp.expand(charpoly - (lam ** 2 - 1 + lam)) == 0
    M = k * lam * sp.eye(2) - J0
    det = (k - 1) * (k + 1 - k * lam)
    assert sp.rem(sp.expand(M.det() - det), charpoly, lam) == 0
    a, b = sp.symbols("a b")
    numerators = sp.Matrix([(k * lam - 1) * a + HALF * b, (k * lam + 2) * b - 2 * a])
    for row in M * numerators - det * sp.Matrix([a, b]):
        assert sp.rem(sp.expand(row), charpoly, lam) == 0
    # N_k is the order-k part of the quadratic terms: a = xy - 2x^2, b = 2(xy - x^2)
    x, y = sp.symbols("x y")
    quad = [sp.expand(fun.subs({H: HALF + x, F: y}, simultaneous=True)
                      - (J0 * sp.Matrix([x, y]))[i]) for i, fun in enumerate((P, Q))]
    assert quad == [sp.expand(x * y - 2 * x * x), sp.expand(2 * (x * y - x * x))]


ISOCLINE_EQUATIONS = {"vertical": P, "horizontal": Q, "oblique": Q - 3 * P}


def test_isoclines_and_their_slopes_at_the_saddle():
    # vertical {H' = 0}, horizontal {F' = 0}, oblique {F' = 3H'}
    slopes = {}
    for kind, eq in ISOCLINE_EQUATIONS.items():
        g = _solve_F(eq)
        exact = _in_fractions(g)
        for h in (0.05, 0.2, 0.31, 0.4999, 1.3, -0.7):
            scale = abs(Fraction(h)) * 4 + 1 / abs(Fraction(h))
            assert _close(cs.isocline_F(kind, h), exact(h), scale)
        slopes[kind] = sp.diff(g, H).subs(H, HALF)
    assert slopes == {"vertical": 4, "horizontal": 2, "oblique": 8}
    assert cs.isocline_slopes_at_saddle() == {kind: float(v) for kind, v in slopes.items()}


#: each barrier as the zero set of a function of (H, F): the three
#: isoclines as graphs g(H) - F, the curvature curves by their polynomials
BARRIERS = {"vertical_isocline": (P, True), "horizontal_isocline": (Q, True),
            "oblique_isocline": (Q - 3 * P, True), "f_prime_zero": (Q, False),
            "sec_mixed_zero": (SIGMA, False)}
#: each product's factors, all positive on 0 < H < 1/2
FACTORS = {
    "vertical_isocline": [2, sp.Rational(1, 4) - H ** 2],
    "horizontal_isocline": [1 + 1 / (4 * H ** 2), sp.Rational(1, 4) - H ** 2],
    "oblique_isocline": [1 - 4 * H ** 2, 1 + H ** 2, 1 / (2 * H ** 2)],
    "f_prime_zero": [2 * H + 1 / (2 * H), sp.Rational(1, 4) - H ** 2],
    "sec_mixed_zero": [H ** 3],
}


@pytest.mark.parametrize("curve_id", sorted(BARRIERS))
def test_barrier_products_are_the_oriented_normal_products(curve_id):
    eq, graph = BARRIERS[curve_id]
    g = _solve_F(eq)
    G = g - F if graph else eq
    # the normal points to S's side: down (nu_F < 0) below the curve, up above
    grad = sp.Matrix([sp.diff(G, H), sp.diff(G, F)])
    up = bool(grad[1].subs(F, g).subs(H, sp.Rational(1, 4)) > 0)
    nu = grad if up == (_SIDE[curve_id] == "above") else -grad
    product = sp.cancel((nu[0] * P + nu[1] * Q).subs(F, g))
    assert sp.cancel(product - sp.Mul(*FACTORS[curve_id])) == 0
    for factor in map(sp.sympify, FACTORS[curve_id]):
        assert factor.subs(H, sp.Rational(1, 4)) > 0
        for part in sp.fraction(sp.together(factor)):
            assert not any(0 < root < HALF for root in sp.real_roots(sp.Poly(part, H)))
    fn, exact = cs.BARRIER_CURVES[curve_id], _in_fractions(product)
    for h in np.linspace(0.01, 0.49, 25).tolist():
        assert abs(Fraction(float(fn(h))) / exact(h) - 1) < 1e-13


R0 = sp.expand(-2 * H ** 2 + 4 * SIGMA)             # the scalar curvature, as ``curvatures``
#: dR/dt of R0(r(t))/s along rdot = F, and C_t = s^2 dR/dt / 2
DRDT = -R0 / s ** 2 + F * _lie(R0) / s
CT = sp.expand(s ** 2 * DRDT / 2)
#: the bracket of ``psi``: Psi_t = -y G on the branch
G = H ** 2 + s * (6 * H ** 2 * F ** 2 - 12 * H ** 3 * F + 5 * H * F + 8 * H ** 4
                  - 6 * H ** 2 + 1)


def test_growth_curve_is_the_scaled_curvature_rate():
    assert sp.expand(R0 - (-4 * P - 6 * H ** 2)) == 0
    assert sp.expand(CT - (-R0 / 2 + s * F * _lie(R0) / 2)) == 0
    assert sp.expand(CT - _sym(CURVE_XY)) == 0
    A, B = CT.coeff(s, 0), CT.coeff(s, 1)
    assert sp.expand(B - 2 * F ** 2 * SIGMA) == 0
    exact = {name: _exact(e) for name, e in (("ct", CT), ("gx", sp.diff(CT, H)),
                                              ("gy", sp.diff(CT, F)), ("A", A), ("B", B),
                                              ("sigma", SIGMA))}
    rng = np.random.default_rng(28)
    for _ in range(40):
        h, f = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-30.0, 2.0))
        t = float(rng.uniform(-0.95, 11.0))
        sv = Fraction(t + 1.0)                       # the s the float code forms
        for name, got in (("ct", cs.Ct(h, f, t)), ("gx", cs.grad_Ct(h, f, t)[0]),
                          ("gy", cs.grad_Ct(h, f, t)[1])):
            fun = exact[name]
            assert _close(got, fun(h, f, sv), fun(abs(h), abs(f), sv, absolute=True))
        ct = exact["ct"]
        assert _close(cs.dRdt(h, f, t), 2 * ct(h, f, sv) / sv ** 2,
                      2 * ct(abs(h), abs(f), sv, absolute=True) / sv ** 2, ulps=16)
        sigma = float(exact["sigma"](h, f))
        for got, name in zip(_ab(h, f, sigma), "AB"):
            fun = exact[name]
            assert _close(got, fun(h, f), fun(abs(h), abs(f), absolute=True))


def test_psi_is_the_normal_product_on_the_branch():
    # grad C_t . V = -y G modulo C_t in x: Psi_t on {C_t = 0}
    assert sp.prem(_lie(CT) + F * G, CT, H) == 0
    neg_yg = _exact(sp.expand(-F * G))
    for t in (-0.7, -0.2, 0.0, 1.0, 10.0):
        ys = -np.geomspace(1.0 / math.sqrt(t + 1.0), 50.0, 30)
        xs = cs.ct_branch_x(ys, t)
        for y, x, got in zip(ys.tolist(), xs.tolist(), cs.psi(ys, t).tolist()):
            sv = Fraction(t + 1.0)
            assert _close(got, neg_yg(x, y, sv), neg_yg(abs(x), abs(y), sv, absolute=True), 16)


def test_psi_tail_from_the_branch_series():
    # the branch of {C_t = 0} as a series in w = 1/y, solved order by order:
    # x = -w/2 + ..., so x > 0 for y < 0, ct_branch_x's branch.  Along it
    # Psi_t = -y G starts with psi_tail's t(w/4 - 3w^3/8), which vanishes at
    # t = 0; there Psi_0 = w^5/4 - 5w^7/16 + O(w^9), negative for y < 0: the
    # tail_sign that scan_psi reports at t = 0
    w, c = sp.symbols("w c")
    ct = sp.expand(CT.subs(F, 1 / w) * w ** 3)          # a polynomial in H, w and s

    def psi_series(ct, order):
        x = 0
        for k in range(1, order):
            x += sp.solve(sp.expand(ct.subs(H, x + c * w ** k)).coeff(w, k), c)[0] * w ** k
        assert x.coeff(w, 1) == -HALF
        return sp.expand(-G.subs({H: x, F: 1 / w}) / w)
    general = psi_series(ct, 8)
    for k, term in enumerate([0, (s - 1) / 4, 0, -3 * (s - 1) / 8]):
        assert sp.expand(general.coeff(w, k) - term) == 0
    at_zero = psi_series(ct.subs(s, 1), 12).subs(s, 1)
    assert [at_zero.coeff(w, k) for k in range(8)] == [0] * 5 + [sp.Rational(1, 4), 0,
                                                                 sp.Rational(-5, 16)]
    y = -30.0
    assert cs.psi(y, 0.0) == pytest.approx(1 / (4 * y ** 5) - 5 / (16 * y ** 7), rel=1e-5)


def test_psi_discriminant_factors_through_P():
    # Res_x(C_t, G) is even in y: a quintic in u = y^2, whose discriminant
    # carries P(s), the polynomial whose one root in (0, 1) is t_b + 1
    res = sp.Poly(sp.resultant(CT, G, H), F)
    assert all(i % 2 == 0 for (i,) in res.monoms())
    quintic = sp.Poly(sum(c * u ** (i // 2) for (i,), c in res.terms()), u)
    assert quintic.degree() == 5
    p_s = sum(_rational(c) * s ** i for i, c in enumerate(_PSI_DISC))
    expected = -1024 * s ** 22 * (s - 1) * (4 * s ** 2 + 1) * (4 * s ** 2 - 6 * s + 3) ** 2 * p_s
    assert sp.expand(sp.discriminant(quintic.as_expr(), u) - expected) == 0


def test_germ_series_follow_from_the_chart():
    # the chart X = -H/F, Y = -1/F: H = X/Y, F = -1/Y.  The germ X = g(Y),
    # g even, is invariant: Y (g'(Y) dY/dr - dX/dr) = 0 on X = g(Y), whose
    # order Y^2j term fixes the term of g at Y^2j; solved through Y^20 in
    # truncated series over QQ
    from sympy.polys.domains import QQ
    from sympy.polys.ring_series import rs_series_inversion, rs_trunc
    from sympy.polys.rings import ring

    X = sp.Symbol("X")
    ring_y, y = ring("Y", QQ)
    n = 22                                           # series kept below Y^22

    def chart(f, power):
        # Y^power f(H, F) in the chart: a polynomial in X over QQ[Y], highest power first
        poly = sp.Poly(sp.cancel(Y ** power * f.subs({H: X / Y, F: -1 / Y})), X)
        return [ring_y.from_expr(c) for c in poly.all_coeffs()]

    def at(rows, g):
        # by Horner in X
        acc = ring_y(0)
        for row in rows:
            acc = rs_trunc(acc * g + row, y, n)
        return acc

    def coeff(p, i):
        c = p.get((i,), QQ(0))
        return Fraction(int(c.numerator), int(c.denominator))
    yd_x = chart(sp.diff(-H / F, H) * P + sp.diff(-H / F, F) * Q, 1)     # Y dX/dr
    d_y = chart(sp.diff(-1 / F, F) * Q, 0)                                # D = dY/dr

    def residual(g):
        return rs_trunc(y * g.diff(y) * at(d_y, g), y, n) - at(yd_x, g)
    g = ring_y(0)
    for j in range(1, n // 2):
        r0, r1 = (coeff(residual(g + c * y ** (2 * j)), 2 * j) for c in (0, 1))
        a = -r0 / (r1 - r0)
        g += ring_y(QQ(a.numerator, a.denominator)) * y ** (2 * j)
    assert residual(g) == 0
    germ = [list(ser[:6]) for ser in _germ_series(20)]
    # H/Y = g/Y^2, and sigma/Y^4 with sigma := -(H' + H^2)
    assert germ[0] == [coeff(g, 2 * i + 2) for i in range(6)]
    assert germ[1] == [coeff(at(chart(SIGMA, 2), g), 2 * i + 6) for i in range(6)]
    # Y R(Y) with dR/dY = 1/D: D = Y^2 d(Y) is even, so R has no 1/Y or log term
    e = rs_series_inversion(at(d_y, g).exquo(y ** 2), y, 12)
    assert all(coeff(e, i) == 0 for i in range(1, 12, 2))
    assert germ[2] == [coeff(e, 2 * i) / (2 * i - 1) for i in range(6)]
    # (1 - s*)/Y^4 = (A + B)/(Y^4 B), s* = -A/B with C_t = A + s B
    A, B = CT.coeff(s, 0), CT.coeff(s, 1)
    num, den = at(chart(A + B, 4), g), at(chart(B, 4), g)
    low = y ** min(m for (m,) in den.monoms())
    q = rs_trunc(num.exquo(low) * rs_series_inversion(den.exquo(low), y, 16), y, 16)
    assert germ[3] == [coeff(q, 2 * i + 4) for i in range(6)]
