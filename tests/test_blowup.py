import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cuspsoliton as cs
from cuspsoliton.blowup import BASE_P, BASE_Q, _poly_eval, _real_roots

GOLDEN_DIR = Path(__file__).parent / "goldens"

F = Fraction


def poly(entries):
    return cs.ExactPoly.from_terms(entries)


# ---------------------------------------------------------------------------
# coefficient ring

def test_coeff_ring_arithmetic():
    a = cs.CoeffAffine.of(F(1, 2), 3)
    b = cs.CoeffAffine.of(2)
    assert (a + b).c0 == F(5, 2) and (a + b).c1 == 3
    assert (a * b).c0 == 1 and (a * b).c1 == 6
    assert (-a).c1 == -3


def test_coeff_ring_guards_s_degree():
    a = cs.CoeffAffine.of(0, 1)
    with pytest.raises(cs.RingDegreeError):
        a * a


def test_coeff_ring_rejects_floats():
    with pytest.raises(TypeError):
        cs.CoeffAffine.of(0.5)


# ---------------------------------------------------------------------------
# polynomial operations

def test_translate_group_property():
    p = poly({(2, 1): 3, (1, 0): (0, 2), (0, 3): F(1, 2)})
    a = F(3, 7)
    assert p.translate_x(a).translate_x(-a) == p
    assert p.translate_x(F(0)) == p


# the Fraction arithmetic of the ring, as a reference: {(i, j): (c0, c1)}
# for the coefficient c0 + c1 s of x^i y^j, without zero pairs

def _ref_of(p):
    return {k: (v.c0, v.c1) for k, v in p.terms.items()}


def _ref_clean(d):
    return {k: v for k, v in d.items() if v[0] or v[1]}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for k, (b0, b1) in b.items():
        c0, c1 = out.get(k, (0, 0))
        out[k] = (c0 + sign * b0, c1 + sign * b1)
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for (i1, j1), (a0, a1) in a.items():
        for (i2, j2), (b0, b1) in b.items():
            c0, c1 = out.get((i1 + i2, j1 + j2), (0, 0))
            out[i1 + i2, j1 + j2] = (c0 + a0 * b0, c1 + a0 * b1 + a1 * b0)
    return _ref_clean(out)


def _ref_translate(a, t):
    out = {}
    for (i, j), (c0, c1) in a.items():
        for k in range(i + 1):
            w = math.comb(i, k) * t ** (i - k)
            d0, d1 = out.get((k, j), (0, 0))
            out[k, j] = (d0 + c0 * w, d1 + c1 * w)
    return _ref_clean(out)


def _canonical(p):
    nums = [n for pair in p.num.values() for n in pair]
    return (p.den > 0 and math.gcd(p.den, *nums) == 1
            and all(a or b for a, b in p.num.values()))


def test_integer_ring_matches_the_fraction_reference():
    rng = random.Random(4513)

    def rational():
        return F(rng.randint(-40, 40), rng.randint(1, 24))

    def sparse(s_free):
        return _ref_clean({(rng.randint(0, 6), rng.randint(0, 6)):
                           (rational(), F(0) if s_free else rational())
                           for _ in range(rng.randint(0, 7))})

    def exact(d):
        return cs.ExactPoly({k: cs.CoeffAffine(*v) for k, v in d.items()})

    for _ in range(200):
        a, b = sparse(rng.random() < 0.3), sparse(True)
        pa, pb = exact(a), exact(b)
        m = pa.min_y_degree()
        shifts = (rng.randint(0, 3), rng.randint(0, 3))
        t = (F(rng.randint(-9, 9), 2 ** rng.randint(0, 5)) if rng.random() < 0.5
             else F(rng.randint(-9, 9), rng.choice([3, 5, 7, 9, 15, 21])))
        s = rational()
        pairs = [
            (pa + pb, _ref_add(a, b)),
            (pa - pb, _ref_add(a, b, -1)),
            (pa * pb, _ref_mul(a, b)),
            (pb * pa, _ref_mul(b, a)),
            (pa * s, _ref_mul(a, {(0, 0): (s, F(0))})),
            (pa.shift_degrees(*shifts),
             {(i + shifts[0], j + shifts[1]): v for (i, j), v in a.items()}),
            (pa.subs_x_times_y(), {(i, i + j): v for (i, j), v in a.items()}),
            (pa.divide_y_power(m), {(i, j - m): v for (i, j), v in a.items()}),
            (pa.translate_x(t), _ref_translate(a, t)),
            (pa.subs_s(s), _ref_clean({k: (c0 + c1 * s, F(0)) for k, (c0, c1) in a.items()})),
        ]
        for got, want in pairs:
            assert _ref_of(got) == want
            assert _canonical(got) and cs.ExactPoly(got.terms) == got
        assert (pa == pb) == (a == b) and bool(pa) == bool(a)
        if a:
            with pytest.raises(cs.BlowupError):
                pa.divide_y_power(m + 1)
        if any(v[1] for v in a.values()):
            with pytest.raises(cs.RingDegreeError):
                pa * exact({(0, 0): (F(0), F(1))})


def test_blowup_of_node_curve():
    # x^2 + y^2 -> y^2 (x^2 + 1): multiplicity 2, strict transform misses 0
    node = poly({(2, 0): 1, (0, 2): 1})
    sub = node.subs_x_times_y()
    m = sub.min_y_degree()
    assert m == 2
    strict = sub.divide_y_power(m)
    assert strict == poly({(2, 0): 1, (0, 0): 1})
    assert (0, 0) in strict.terms  # does not pass through the origin


def test_blowup_of_zero_polynomial():
    z = cs.ExactPoly()
    assert z.subs_x_times_y() == z
    assert not z


# ---------------------------------------------------------------------------
# the chart at infinity

def test_chart_system_components():
    st = cs.chart_to_infinity()
    assert st.P == poly({(1, 0): -1, (2, 0): -4, (3, 0): -2,
                         (0, 2): F(1, 2), (1, 2): F(1, 2)})
    assert st.Q == poly({(1, 1): -2, (2, 1): -2, (0, 3): F(1, 2)})


def test_chart_curve():
    st = cs.chart_to_infinity()
    assert st.curve == poly({(1, 2): -2, (2, 2): -1, (0, 4): 1,
                             (1, 0): (0, 2), (2, 0): (0, 2), (0, 2): (0, -1)})
    # passes through the origin: no constant monomial
    assert (0, 0) not in st.curve.terms


def test_chart_specialized_at_s1():
    st = cs.chart_to_infinity(F(1))
    assert st.curve == poly({(1, 2): -2, (2, 2): -1, (0, 4): 1,
                             (1, 0): 2, (2, 0): 2, (0, 2): -1})


def test_divisor_critical_points_of_chart():
    st = cs.chart_to_infinity()
    cps = cs.divisor_critical_points(st)
    assert len(cps) == 3
    rational = [p for p in cps if p.is_rational]
    assert len(rational) == 1 and rational[0].value == 0
    irr = sorted(p.approx for p in cps if not p.is_rational)
    root2 = 2 ** 0.5
    assert irr[0] == pytest.approx(-1 - root2 / 2, abs=1e-6)
    assert irr[1] == pytest.approx(-1 + root2 / 2, abs=1e-6)
    for p in cps:
        if not p.is_rational:
            lo, hi = p.interval
            assert lo < F(p.approx).limit_denominator(10 ** 9) < hi


def test_curve_divisor_intersection_of_chart():
    st = cs.chart_to_infinity()
    roots = cs.curve_divisor_intersection(st)
    assert F(0) in roots and F(-1) in roots


# ---------------------------------------------------------------------------
# exact real roots

X2_2 = [F(-2), F(0), F(1)]  # x^2 - 2, ascending powers


def times(*factors):
    out = [F(1)]
    for f in factors:
        prod = [F(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def divisor_state(P0, Q0):
    # a state whose field restricts to P0 and Q0 on {y = 0}
    return cs.BlowupState(P=poly({(i, 0): c for i, c in enumerate(P0)}),
                          Q=poly({(i, 0): c for i, c in enumerate(Q0)}), curve=cs.ExactPoly())


def assert_isolates(point, square_free, root):
    # an irrational point: a simple root of square_free changes its sign
    # across the narrow interval, which holds root
    lo, hi = point.interval
    assert not point.is_rational and 0 < hi - lo <= F(1, 2 ** 46)
    assert _poly_eval(square_free, lo) * _poly_eval(square_free, hi) < 0
    assert point.approx == pytest.approx(root, rel=1e-13)


def test_real_roots_of_a_double_factor():
    pts = _real_roots(times(X2_2, X2_2))
    assert len(pts) == 2
    assert_isolates(pts[0], X2_2, -math.sqrt(2))
    assert_isolates(pts[1], X2_2, math.sqrt(2))


def test_real_roots_close_together():
    p = [F("-2e-12"), F(0), F(1)]
    pts = _real_roots(p)
    assert len(pts) == 2
    assert_isolates(pts[0], p, -math.sqrt(2e-12))
    assert_isolates(pts[1], p, math.sqrt(2e-12))


def test_real_roots_rational_and_irrational():
    pts = _real_roots(times([F(-1), F(3)], X2_2))
    assert [p.value for p in pts] == [None, F(1, 3), None]
    assert_isolates(pts[0], X2_2, -math.sqrt(2))
    assert_isolates(pts[2], X2_2, math.sqrt(2))


def test_real_roots_rational_with_a_large_denominator():
    # lead = 98765431 > 2^23: narrowing to 2^-46 alone leaves fractions
    # nearer the midpoint than the root, so the width also falls below 1/(2 lead^2)
    root = F(12345678, 98765431)
    pts = _real_roots(times([-root, F(1)], X2_2))
    assert [p.value for p in pts] == [None, root, None]


def test_real_roots_irrational_next_to_a_rational_one():
    # x^4 - 2(10x - 1)^2 (Mignotte) has two irrational roots within 7.1e-4
    # of 1/10, which is the nearest fraction with denominator <= 10 to both
    mignotte = [F(-2), F(40), F(-200), F(0), F(1)]
    pts = _real_roots(times([F(-1), F(10)], mignotte))
    assert [p.value for p in pts] == [None, None, F(1, 10), None, None]
    for p in pts[1], pts[3]:
        lo, hi = p.interval
        assert abs(p.approx - 0.1) < 7.2e-4
        assert _poly_eval(mignotte, lo) * _poly_eval(mignotte, hi) < 0


def test_real_roots_of_a_linear_square_free_part():
    # (7x - 2)^2: the square-free part 7x - 2 gives its root in closed form
    assert [p.value for p in _real_roots(times([F(-2), F(7)], [F(-2), F(7)]))] == [F(2, 7)]
    assert _real_roots([F(3)]) == [] and _real_roots([F(1), F(0), F(1)]) == []


def test_divisor_critical_points_with_close_roots():
    st = divisor_state(times(X2_2, [F("-2.0000001"), F(0), F(1)]), times(X2_2, [F(3), F(1)]))
    pts = cs.divisor_critical_points(st)
    assert len(pts) == 2
    assert_isolates(pts[0], X2_2, -math.sqrt(2))
    assert_isolates(pts[1], X2_2, math.sqrt(2))


def test_divisor_critical_points_are_exactly_common():
    x2_3 = [F(-3), F(0), F(1)]
    st = divisor_state(times(X2_2, x2_3), times([F("-2.0000001"), F(0), F(1)], x2_3))
    pts = cs.divisor_critical_points(st)
    assert len(pts) == 2
    assert_isolates(pts[0], x2_3, -math.sqrt(3))
    assert_isolates(pts[1], x2_3, math.sqrt(3))


# ---------------------------------------------------------------------------
# first two blow-ups, against hand-computed transforms

def test_first_blowup_exact():
    st = cs.blowup_once(cs.chart_to_infinity())
    assert st.P == poly({(2, 1): -2, (1, 0): -1, (0, 1): F(1, 2)})
    assert st.Q == poly({(1, 2): -2, (2, 3): -2, (0, 3): F(1, 2)})
    assert st.curve == poly({(1, 2): -2, (2, 3): -1, (0, 3): 1,
                             (1, 0): (0, 2), (2, 1): (0, 2), (0, 1): (0, -1)})
    assert st.curve_multiplicities == (1,)
    cps = cs.divisor_critical_points(st)
    assert len(cps) == 1 and cps[0].value == 0


def test_second_blowup_exact():
    st = cs.blowup_once(cs.blowup_once(cs.chart_to_infinity()))
    assert st.P == poly({(3, 4): 2, (1, 0): -1, (1, 2): F(-1, 2),
                         (0, 0): F(1, 2)})
    assert st.Q == poly({(1, 3): -2, (2, 5): -2, (0, 3): F(1, 2)})
    cps = cs.divisor_critical_points(st)
    assert len(cps) == 1 and cps[0].value == F(1, 2)
    roots = cs.curve_divisor_intersection(st)
    assert any(r == F(1, 2) for r in roots)


def test_blowup_requires_vanishing_field():
    st = cs.chart_to_infinity()
    moved = cs.translate(st, F(1, 3))  # origin no longer critical
    with pytest.raises(cs.BlowupError):
        cs.blowup_once(moved)


def test_translate_requires_exact_amount():
    st = cs.chart_to_infinity()
    with pytest.raises(TypeError):
        cs.translate(st, 0.5)


# ---------------------------------------------------------------------------
# pullback identity and replay

def test_pullback_identity_on_random_rational_points():
    rng = np.random.default_rng(41)
    st0 = cs.chart_to_infinity()
    st1 = cs.blowup_once(st0)
    m = st1.curve_multiplicities[-1]
    for _ in range(100):
        x = F(int(rng.integers(-60, 60)), int(rng.integers(1, 40)))
        y = F(int(rng.integers(1, 60)) * (1 if rng.integers(2) else -1),
              int(rng.integers(1, 40)))
        s = F(int(rng.integers(1, 25)), int(rng.integers(1, 8)))
        assert st0.curve.eval_exact(x * y, y, s) == \
            y ** m * st1.curve.eval_exact(x, y, s)


def test_replay_reproduces_state(blowup_generic):
    st = blowup_generic.state
    again = st.replay()
    assert again.P == st.P and again.Q == st.Q and again.curve == st.curve
    assert again.log == st.log


# ---------------------------------------------------------------------------
# the full sequences

def test_generic_sequence(blowup_generic):
    rep = blowup_generic
    assert rep.n_blowups == 6
    assert rep.contact_order == 5
    assert rep.critical_abscissa == 0
    assert rep.curve_abscissa == cs.SRational.make(-1, 1, 0, 8)  # (s-1)/(8s)
    assert rep.curve_abscissa.text() == "(s - 1)/(8*s)"
    assert rep.translations == [(2, F(1, 2)), (4, F(-1, 4)), (6, F(1, 8))]
    assert rep.curve_multiplicities == [1] * 6


def test_t0_sequence(blowup_t0):
    rep = blowup_t0
    assert rep.n_blowups == 10
    assert rep.contact_order == 9
    assert rep.curve_abscissa == F(1, 8)
    assert rep.translations == [(2, F(1, 2)), (4, F(-1, 4)), (6, F(1, 8)),
                                (8, F(-3, 16)), (10, F(1, 32))]


def test_generic_abscissa_specializes_to_t_over_8s():
    # (s-1)/(8s) = (1/8) t/(t+1)
    r = cs.SRational.make(-1, 1, 0, 8)
    for t in (0.5, 1.0, 10.0):
        assert r.eval(t + 1.0) == pytest.approx(t / (8 * (t + 1)), rel=1e-14)


def test_vertical_isocline_separates_much_earlier():
    rep = cs.run_sequence("generic", curve=BASE_P)
    assert rep.n_blowups == 4          # frozen; strictly fewer than 6
    assert rep.contact_order == 3
    assert rep.curve_abscissa == F(-1, 4)


#: nonzero divisor critical points of the field walk, by blow-up step: the
#: Y^k coefficients of the orbit germ X = Y^2/2 - Y^4/4 + ... at infinity
GERM_DIGITS = [
    (2, F(1, 2)), (4, F(-1, 4)), (6, F(1, 8)), (8, F(-3, 16)), (10, F(1, 32)),
    (12, F(-33, 64)), (14, F(-179, 128)), (16, F(-2215, 256)),
    (18, F(-27631, 512)), (20, F(-413313, 1024)), (22, F(-6984567, 2048)),
    (24, F(-132269307, 4096)),
]


@pytest.mark.parametrize("s_value", [None, F(1)], ids=["generic", "t0"])
def test_field_walk_has_one_rational_critical_point(s_value):
    # blow up the field past separation, up to run_sequence's 24 blow-ups:
    # the tracked critical point is forced at every step it may reach
    st = cs.chart_to_infinity(s_value)
    translations = []
    for step in range(1, 25):
        st = cs.blowup_once(st)
        cps = cs.divisor_critical_points(st)
        assert len(cps) == 1 and cps[0].is_rational, (step, [c.text() for c in cps])
        if cps[0].value != 0:
            st = cs.translate(st, cps[0].value)
            translations.append((step, cps[0].value))
    assert translations == GERM_DIGITS


def test_germ_series_has_the_blowup_digits():
    # the orbit's far field is served from the same germ the walk proves
    assert [(2 * k, a) for k, a in enumerate(cs.phase_core._germ_series(20)[0], 1)][:12] == GERM_DIGITS


def test_run_sequence_takes_no_orbit():
    with pytest.raises(TypeError):
        cs.run_sequence("generic", BASE_P)   # curve is keyword-only


def test_blowup_module_is_orbit_free():
    tree = ast.parse(Path(cs.blowup.__file__).read_text())
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names]
    imported += [f"{node.module}.{a.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported and not any("phase_core" in name for name in imported)


def test_exactness_of_final_states(blowup_generic, blowup_t0):
    for rep in (blowup_generic, blowup_t0):
        for p in (rep.state.P, rep.state.Q, rep.state.curve):
            for coeff in p.terms.values():
                assert isinstance(coeff.c0, Fraction)
                assert isinstance(coeff.c1, Fraction)
        assert rep.state.P.max_s_degree() == 0
        assert rep.state.Q.max_s_degree() == 0
        assert rep.state.curve.max_s_degree() <= 1


def test_golden_reports(blowup_generic, blowup_t0):
    assert blowup_generic.to_text() == \
        (GOLDEN_DIR / "blowup_generic.txt").read_text().rstrip("\n")
    assert blowup_t0.to_text() == \
        (GOLDEN_DIR / "blowup_t0.txt").read_text().rstrip("\n")


def test_shadow_side_consistency(sep, blowup_generic):
    # at t = 10 the transformed curve meets the divisor right of the orbit
    # germ; orbit points near the asymptote, pushed through the maps, stay
    # in the upper half-plane on one fixed side of the curve
    st = blowup_generic.state
    crossing = cs.find_crossings(sep, 10.0)
    F_last = min(c[2] for c in crossing.crossings)
    xs, ys, vals = [], [], []
    for Fv in np.linspace(2 * abs(F_last) + 4.0, 60.0, 10):
        rr = sep.r_at_F(-Fv)
        H, Fq = (float(v) for v in sep.state_at(rr)[:2])
        x, y = st.map_point(H, Fq)
        xs.append(x)
        ys.append(y)
        vals.append(st.curve.eval_float(x, y, 11.0))
    abscissa = blowup_generic.curve_abscissa.eval(11.0)
    assert all(y > 0 for y in ys)
    assert all(x < abscissa for x in xs)
    assert len({np.sign(v) for v in vals}) == 1


def test_project_to_infinity_of_isocline():
    out = cs.project_to_infinity(BASE_P)
    assert out == poly({(1, 0): -1, (2, 0): -2, (0, 2): F(1, 2)})


def test_srational_normalization():
    assert cs.SRational.make(0, 1, 0, 2) == F(1, 2)      # s/(2s) is constant
    r = cs.SRational.make(-1, 1, 0, 8)
    assert r == cs.SRational.make(-2, 2, 0, 16)          # canonical form
    assert r != F(0)


def test_contact_orders_against_series_oracle(blowup_generic, blowup_t0):
    # independent route: formal germ series of the orbit (invariant curve
    # of the chart system at the origin) and of the growth curve; the
    # first differing order minus one is the contact order, and its
    # coefficient is the separation abscissa the engine reports
    sp = pytest.importorskip("sympy")
    y, s = sp.symbols("y s")
    N = 12

    a = sp.symbols("a2:%d" % N)
    psi = sum(a[k - 2] * y ** k for k in range(2, N))
    P = -4 * psi ** 2 - 2 * psi ** 3 + psi * y ** 2 / 2 - psi + y ** 2 / 2
    Q = -2 * psi * y - 2 * psi ** 2 * y + y ** 3 / 2
    inv = sp.Poly(sp.series(sp.expand(P - sp.diff(psi, y) * Q),
                            y, 0, N).removeO(), y)
    sol = {}
    for k in range(N):
        c = sp.expand(inv.coeff_monomial(y ** k).subs(sol))
        unknowns = [ai for ai in a if c.has(ai)]
        if c == 0 or not unknowns:
            continue
        sol[unknowns[0]] = sp.solve(c, unknowns[0])[0]
    psi_ser = sp.expand(psi.subs(sol))

    # engine translations are exactly the germ digits
    digits = {k: sp.nsimplify(psi_ser.coeff(y, k)) for k in range(2, N)}
    for step, amount in blowup_t0.translations:
        assert digits[step] == sp.Rational(amount.numerator, amount.denominator)

    b = sp.symbols("b2:%d" % N)
    phi = sum(b[k - 2] * y ** k for k in range(2, N))
    C = sp.Poly(sp.series(sp.expand(
        -2 * phi * y ** 2 - phi ** 2 * y ** 2 + y ** 4
        + s * (2 * phi + 2 * phi ** 2 - y ** 2)), y, 0, N).removeO(), y)
    solC = {}
    for k in range(N):
        c = sp.simplify(sp.expand(C.coeff_monomial(y ** k).subs(solC)))
        unknowns = [bi for bi in b if c.has(bi)]
        if c == 0 or not unknowns:
            continue
        solC[unknowns[0]] = sp.simplify(sp.solve(c, unknowns[0])[0])
    phi_ser = sp.expand(phi.subs(solC))

    diff = sp.Poly(sp.simplify(sp.expand(phi_ser - psi_ser)), y)
    coeffs = {k: sp.simplify(diff.coeff_monomial(y ** k)) for k in range(2, N)}
    first = min(k for k, v in coeffs.items() if v != 0)
    assert first - 1 == blowup_generic.contact_order == 5
    lead = sp.simplify(coeffs[first] - (s - 1) / (8 * s))
    assert lead == 0  # equals the reported abscissa (s-1)/(8s)

    at1 = {k: sp.simplify(v.subs(s, 1)) for k, v in coeffs.items()}
    first1 = min(k for k, v in at1.items() if v != 0)
    assert first1 - 1 == blowup_t0.contact_order == 9
    assert at1[first1] == sp.Rational(1, 8)
