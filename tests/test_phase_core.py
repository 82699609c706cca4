import math
from fractions import Fraction

import numpy as np
import pytest

import cuspsoliton as cs
from cuspsoliton.blowup import BASE_P, BASE_Q, CURVE_XY
from cuspsoliton.phase_core import _CuspLeg, _GermLeg, _Leg, _Taylor

SQRT5 = math.sqrt(5.0)


def test_vector_field_at_critical_point():
    v = cs.vector_field((0.5, 0.0), eps=1)
    assert v.dH == 0.0 and v.dF == 0.0


def test_vector_field_at_origin():
    v = cs.vector_field((0.0, 0.0), eps=1)
    assert v.dH == 0.5 and v.dF == 0.5


def test_vector_field_on_oblique_isocline():
    # on F = 4H - 1/H the field is (2H^2 - 1/2)(1, 3)
    v = cs.vector_field((1.0, 3.0), eps=1)
    assert v.dH == pytest.approx(1.5, abs=1e-15)
    assert v.dF == pytest.approx(4.5, abs=1e-15)
    assert v.dF == pytest.approx(3.0 * v.dH, abs=1e-15)


def test_vector_field_rejects_bad_eps():
    with pytest.raises(ValueError):
        cs.vector_field((0.0, 0.0), eps=2)


def test_field_algebra_matches_exact_polynomials():
    # float vector_field, C_t and dC_t/dx against the exact polynomials at
    # the rational value of each float point; rounding scales with the sum
    # of the absolute monomials, not with the value, which cancels near the
    # zero sets, so the bound is 4 ulps of that sum
    def absolute(poly):
        return cs.ExactPoly({k: cs.CoeffAffine(abs(v.c0), abs(v.c1))
                             for k, v in poly.terms.items()})

    curve_dx = cs.ExactPoly({(i - 1, j): v * i
                             for (i, j), v in CURVE_XY.terms.items() if i})
    rng = np.random.default_rng(2012)
    for _ in range(50):
        H, F = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-30.0, 2.0))
        t = float(rng.uniform(-0.95, 11.0))
        x, y, s = Fraction(H), Fraction(F), Fraction(t + 1.0)
        v = cs.vector_field((H, F))
        for got, poly in ((v.dH, BASE_P), (v.dF, BASE_Q),
                          (cs.Ct(H, F, t), CURVE_XY),
                          (cs.grad_Ct(H, F, t)[0], curve_dx)):
            scale = absolute(poly).eval_exact(abs(x), abs(y), s)
            err = abs(Fraction(got) - poly.eval_exact(x, y, s))
            assert err <= 4 * Fraction(float(np.spacing(float(scale))))


def test_critical_points_expanding():
    crit = cs.critical_points(1)
    assert set(crit.points) == {(0.5, 0.0), (-0.5, 0.0)}
    assert crit.continuum is None
    for p in crit.points:
        v = cs.vector_field(p, eps=1)
        assert v.dH == 0.0 and v.dF == 0.0


def test_critical_points_shrinking_empty():
    crit = cs.critical_points(-1)
    assert crit.points == () and crit.continuum is None


def test_critical_points_steady_continuum():
    crit = cs.critical_points(0)
    assert crit.points == ()
    assert crit.continuum == "line H=0"
    # sanity: points on the line are stationary
    for F in (-2.0, 0.0, 3.5):
        v = cs.vector_field((0.0, F), eps=0)
        assert v.dH == 0.0 and v.dF == 0.0


def test_linearize_at_saddle():
    j = cs.linearize((0.5, 0.0))
    assert j.as_array().tolist() == [[-2.0, 0.5], [-2.0, 1.0]]


def test_linearize_at_origin():
    j = cs.linearize((0.0, 0.0))
    assert j.as_array().tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_linearize_determinant_identity():
    rng = np.random.default_rng(3)
    for H, F in rng.uniform(-4, 4, size=(50, 2)):
        j = cs.linearize((H, F))
        assert j.determinant() == pytest.approx(-4.0 * H * H, abs=1e-12)


def test_eigen_saddle_values_and_slopes():
    (l1, v1), (l2, v2) = cs.eigen_saddle(cs.linearize((0.5, 0.0)))
    assert l1 == pytest.approx((-1 + SQRT5) / 2, abs=1e-12)
    assert l2 == pytest.approx((-1 - SQRT5) / 2, abs=1e-12)
    assert v1[0] == 1.0 and v2[0] == 1.0
    assert v1[1] == pytest.approx(3 + SQRT5, abs=1e-12)
    assert v2[1] == pytest.approx(3 - SQRT5, abs=1e-12)


def test_eigen_saddle_rejects_repeated():
    with pytest.raises(ValueError):
        cs.eigen_saddle(cs.Jacobian2(1.0, 0.0, 0.0, 1.0))


def test_integrate_stationary_at_saddle():
    traj = cs.integrate((0.5, 0.0), 0.0, cs.IntegratorControls(r_max=10.0))
    assert np.abs(traj.H - 0.5).max() == 0.0
    assert np.abs(traj.F).max() == 0.0
    assert traj.termination == "r_end"


def test_integrate_keeps_a_given_sigma():
    ctl = cs.IntegratorControls(r_max=2.0)
    two = cs.integrate((0.3, -0.4), 0.0, ctl)
    three = cs.integrate((0.3, -0.4, two.sigma[0]), 0.0, ctl)
    assert np.array_equal(three.sigma, two.sigma) and np.array_equal(three.H, two.H)
    moved = cs.integrate((0.3, -0.4, two.sigma[0] + 1e-3), 0.0, ctl)
    assert moved.sigma[0] == two.sigma[0] + 1e-3


def test_integrate_offset_enters_lower_region():
    delta = 1e-8
    start = (0.5 - delta, -delta * (3 + SQRT5))
    traj = cs.integrate(start, 0.0, cs.IntegratorControls(r_max=30.0))
    assert traj.H[-1] < 0.5 and traj.F[-1] < 0.0
    assert np.all(np.diff(traj.H) < 0)
    assert np.all(np.diff(traj.F) < 0)


def test_integrate_H_at_first_F_minus_one():
    # frozen from a rel_tol=1e-12, abs_tol=1e-14 run of the same shot
    delta = 1e-8
    start = (0.5 - delta, -delta * (3 + SQRT5))
    traj = cs.integrate(start, 0.0, cs.IntegratorControls(
        rel_tol=1e-12, abs_tol=1e-14, r_max=60.0))
    r1 = traj.r_at_F(-1.0)
    H1 = float(traj.state_at(r1)[0])
    assert 0.0 < H1 < 0.5
    assert H1 == pytest.approx(0.332837502355, abs=1e-9)


def test_integrate_convergence_under_tolerance_halving():
    coarse = cs.IntegratorControls(rel_tol=1e-10, abs_tol=1e-12,
                                   r_min=-5.0, r_max=8.0)
    fine = cs.IntegratorControls(rel_tol=5e-11, abs_tol=5e-13,
                                 r_min=-5.0, r_max=8.0)
    a = cs.integrate((0.3, -0.4), 0.0, coarse)
    b = cs.integrate((0.3, -0.4), 0.0, fine)
    diff = np.abs(np.array(a.state_at(8.0)[:2]) - np.array(b.state_at(8.0)[:2])).max()
    scale = np.abs(np.array(a.state_at(8.0)[:2])).max()
    assert diff < 10.0 * (coarse.rel_tol * scale + coarse.abs_tol)


def test_central_symmetry_of_orbits():
    # if (H, F)(r) solves the system then so does (-H, -F)(-r), with the same
    # sigma; the backward run steps the negated field in t = -r, so from the
    # mirrored start it takes the forward run's steps with H and F negated,
    # bit for bit
    ctl = cs.IntegratorControls(r_min=-6.0, r_max=6.0)
    fwd = cs.integrate((0.3, -0.4), 0.0, ctl)
    bwd = cs.integrate((-0.3, 0.4), 0.0, ctl, direction="backward")
    assert np.array_equal(bwd.r, -fwd.r[::-1])
    assert np.array_equal(bwd.H, -fwd.H[::-1]) and np.array_equal(bwd.F, -fwd.F[::-1])
    assert np.array_equal(bwd.sigma, fwd.sigma[::-1])
    rq = np.linspace(0.0, 6.0, 2001)
    assert np.array_equal(bwd.state_at(-rq), fwd.state_at(rq) * [[-1.0], [-1.0], [1.0]])
    assert bwd.legs[0].stats == fwd.legs[0].stats
    assert (bwd.termination, bwd.meta["direction"]) == ("r_end", "backward")


def test_failed_backward_run_names_the_orbits_r():
    # the run steps t = -r, but its failure is reported at the orbit's r
    ctl = cs.IntegratorControls(r_min=-5.0)
    with pytest.raises(cs.IntegrationError, match=r"at r = -3\.1009"):
        cs.integrate((0.3, -0.4), 0.0, ctl, direction="backward")


@pytest.mark.parametrize("start, r0, error", [
    ((0.3, -0.4), math.nan, ValueError),
    ((0.3, -0.4), math.inf, ValueError),
    ((0.3, -0.4), -math.inf, ValueError),
    ((math.nan, -0.4), 0.0, cs.IntegrationError),
    ((0.3, math.inf), 0.0, cs.IntegrationError),
    ((0.3, -0.4, math.nan), 0.0, cs.IntegrationError),
    ((0.3, -1e200), 0.0, cs.IntegrationError),          # the field overflows
])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_integrate_rejects_non_finite_starts(start, r0, error, direction):
    with pytest.raises(error):
        cs.integrate(start, r0, cs.IntegratorControls(r_min=-5.0, r_max=5.0), direction)


def test_step_guard_rejects_a_nan_step():
    # a NaN tolerance makes the first step NaN: the guard stops, not steps
    from cuspsoliton.phase_core import _start
    run = _Taylor(0.0, _start(0.3, -0.4), 1.0, 1e-10, math.nan)
    with pytest.raises(cs.IntegrationError, match="step size .* at t = 0.0"):
        run.step()


@pytest.mark.parametrize("rel_tol, order", [(1e-10, 13), (1e-7, 10), (1e-13, 16), (0.5, 3)])
def test_taylor_order_follows_rel_tol(rel_tol, order):
    # p = ceil(-ln(rel_tol)/2) + 1 (Jorba & Zou), at least 3; the shot's leg records it
    from cuspsoliton.phase_core import _start
    assert _Taylor(0.0, _start(0.3, -0.4), 1.0, rel_tol, 1e-12).order == order


def _series_field(H, F, S, p, minus=1.0):
    # the order-k parts, k < p, of the field on the series H, F, S (lowest
    # power first); on |H|, |F|, |S| with minus -1, the sums of the absolute terms
    HF, HH = np.convolve(H, F)[:p], np.convolve(H, H)[:p]
    half = np.eye(1, p)[0] / 2
    return (HF - minus * 2 * HH + half, 2 * HF - minus * 2 * HH + half,
            np.convolve(F - minus * H, S)[:p] - minus * np.convolve(H, HH)[:p])


def test_each_piece_solves_the_ode(sep):
    # (k + 1) a_(k+1) = +-h [f(a)]_k for k < p, to rounding of the absolute
    # terms; between the coefficients' orders, at random interior points,
    # h |y'(u) - f(y(u))| stays within (p + 1) times the step's tolerance,
    # rel_tol max(|a_0|, |a_1|) (+ abs_tol for H and F): 2.2 measured
    back = cs.integrate((0.3, -0.5), 0.0, cs.IntegratorControls(r_min=-3.0),
                        direction="backward")
    rng = np.random.default_rng(1300)
    for leg in (sep.legs[1], back.legs[0]):
        p, rel, atol = leg.stats["order"], leg.stats["rel_tol"], leg.stats["abs_tol"]
        for hs, piece in zip(leg.sign * leg.h, leg.pieces):
            rows = [np.array(row[::-1]) for row in piece]
            k = np.arange(1, p + 1)
            f = _series_field(*rows, p)
            size = _series_field(*map(np.abs, rows), p, -1.0)
            for a, fa, sa in zip(rows, f, size):
                assert np.all(np.abs(k * a[1:] - hs * fa) <= 1e-13 * np.abs(hs) * sa)
            u = rng.uniform(0.0, 1.0, 20)
            y = [np.polyval(row, u) for row in piece]
            dy = [np.polyval(np.polyder(row), u) for row in piece]
            H, F, S = y
            field = (*cs.vector_field((H, F)), (F - H) * S - H * H * H)
            for j, (a, d, v) in enumerate(zip(rows, dy, field)):
                tol = rel * max(abs(a[0]), abs(a[1])) + (atol if j < 2 else 0.0)
                assert np.all(np.abs(d - hs * v) <= (p + 1) * tol)


def test_stop_predicates_and_termination_reason():
    traj = cs.integrate((0.4, -1.0), 0.0,
                        cs.IntegratorControls(r_max=500.0, h_floor=0.05))
    assert traj.termination == "h_floor"
    assert traj.H[-1] == pytest.approx(0.05, abs=1e-9)
    traj2 = cs.integrate((0.4, -1.0), 0.0,
                         cs.IntegratorControls(r_max=500.0, f_ceiling=20.0))
    assert traj2.termination == "f_ceiling"


def test_stop_predicates_keep_their_direction():
    # from H = 0.05 the orbit rises through H = 0.1 and falls back through
    # it: the floor stops only the fall
    traj = cs.integrate((0.05, -1.0), 0.0, cs.IntegratorControls(r_max=500.0, h_floor=0.1))
    assert traj.termination == "h_floor" and traj.H.max() > 0.29
    assert traj.H[-1] == pytest.approx(0.1, abs=1e-12) and traj.H[-2] > 0.1


def test_sigma_start_is_correctly_rounded():
    # sigma_0 = -(H' + H^2) at the default shot point, with H' from the
    # field's one spelling, is the float nearest the exact value
    from cuspsoliton.phase_core import _start
    u = np.array([1.0, cs.SLOPE_UNSTABLE])
    H, F = (np.array([0.5, 0.0]) - 1e-8 * u / np.linalg.norm(u)).tolist()
    sigma = _start(H, F)[2]
    assert sigma == float(-(Fraction(H) * Fraction(F) - Fraction(H) ** 2 + Fraction(1, 2)))


def test_r_at_F_on_both_kinds_of_leg(sep):
    # Brent's method on the Taylor leg, the germ's closed form past r = 25
    for target in (-0.5, -1.0, -10.0, -13.0, -20.0, -100.0, -900.0):
        r = sep.r_at_F(target)
        assert (r > sep.legs[-1].r_lo) == (target < float(sep.state_at(sep.legs[-1].r_lo)[1]))
        assert float(sep.state_at(r)[1]) == pytest.approx(target, rel=1e-13)


def test_controls_validation():
    with pytest.raises(ValueError):
        cs.IntegratorControls(rel_tol=-1.0)
    with pytest.raises(ValueError):
        cs.IntegratorControls(r_min=2.0, r_max=1.0)


def test_trajectory_samples_monotone_and_dense_consistent(sep):
    assert np.all(np.diff(sep.r) > 0)
    rq = sep.dense_grid(101)
    states = sep.state_at(rq)
    assert states.shape == (3, 101)
    # dense output agrees with stored samples at the nodes
    mid = len(sep.r) // 2
    node = sep.r[mid]
    sHF = sep.state_at(node)
    assert sHF[0] == pytest.approx(sep.H[mid], rel=1e-12)
    assert sHF[1] == pytest.approx(sep.F[mid], rel=1e-12)


def test_orbit_range_queries_raise_orbit_range_error(sep):
    with pytest.raises(cs.OrbitRangeError, match="outside computed"):
        sep.state_at(sep.r_hi + 1.0)
    with pytest.raises(cs.OrbitRangeError, match="never reaches"):
        sep.r_at_F(1.0)
    with pytest.raises(cs.OrbitRangeError, match="r0 outside"):
        cs.pointwise_R_history(sep.r_hi + 1.0, [0.0, 1.0], sep)
    assert issubclass(cs.OrbitRangeError, ValueError)


def _one_at_a_time(traj, rq):
    # each point alone through state_at's Python-float path: equal to the
    # array pass everywhere
    one = np.stack([traj.state_at(float(r)) for r in rq], axis=1)
    assert np.array_equal(one, traj.state_at(rq))


def test_state_at_one_point_is_the_array_pass(sep):
    # one point takes the array pass's IEEE operations in Python floats, on
    # every leg and at and around the joins, also past the orbit's ends
    assert [type(leg) for leg in sep.legs] == [_CuspLeg, _Leg, _GermLeg]
    ends = np.array([v for leg in sep.legs for v in (leg.r_lo, leg.r_hi)])
    joins = np.clip(np.concatenate([np.nextafter(ends, -np.inf), ends,
                                    np.nextafter(ends, np.inf)]), sep.r_lo, sep.r_hi)
    beyond = np.array([sep.r_lo - 5e-10, sep.r_hi + 5e-10])
    rng = np.random.default_rng(1211)
    _one_at_a_time(sep, np.concatenate([sep.r, joins, beyond,
                                        rng.uniform(sep.r_lo, sep.r_hi, 2000)]))
    # a backward run steps the reversed field in t = -r; past its ends the
    # one leg's end pieces extrapolate
    back = cs.integrate((0.3, -0.5), 0.0, cs.IntegratorControls(r_min=-3.0),
                        direction="backward")
    rq = np.concatenate([back.dense_grid(10001), back.r,
                         rng.uniform(back.r_lo, back.r_hi, 1000),
                         [back.r_lo - 5e-10, back.r_hi + 5e-10]])
    _one_at_a_time(back, rq)


def _per_leg(traj, rq):
    # reference: each point to the first leg with r <= its r_hi, else the
    # last, and each leg called once on its own points
    which = np.array([next((i for i, leg in enumerate(traj.legs[:-1]) if r <= leg.r_hi),
                           len(traj.legs) - 1) for r in rq.tolist()])
    out = np.empty((3, rq.size))
    for i, leg in enumerate(traj.legs):
        if np.any(which == i):
            out[:, which == i] = leg(rq[which == i])
    return out, np.unique(which).size


def _leg_cases(sep):
    # ("inside", r) within one leg and ("across", r) straddling a join:
    # arrays inside each leg, one-element arrays at each leg's ends and at
    # each join's nextafter neighbours, arrays across each join and the
    # whole range
    cusp, step, germ = sep.legs
    cases = []
    for lo, leg in zip((sep.r_lo - 5e-10, cusp.r_hi, step.r_hi), sep.legs):
        hi = leg.r_hi if leg is not germ else sep.r_hi + 5e-10
        inside = np.linspace(lo, hi, 301)[1 if leg is not cusp else 0:]
        cases.append(("inside", inside))
        cases += [("inside", np.array([v])) for v in (lo, hi, np.nextafter(hi, -np.inf))]
    for join in (cusp.r_hi, step.r_hi):
        near = np.array([np.nextafter(join, -np.inf), join, np.nextafter(join, np.inf)])
        cases += [("inside", near[:2]), ("inside", near[2:]), ("across", near),
                  ("across", near[::-1]), ("across", np.linspace(join - 1.0, join + 1.0, 41))]
    cases.append(("across", np.concatenate([sep.dense_grid(2001), [sep.r_lo - 5e-10,
                                                                 sep.r_hi + 5e-10]])))
    return cases


def _count_leg_calls(monkeypatch):
    calls = []
    for leg_type in (_CuspLeg, _Leg, _GermLeg):
        orig = leg_type.__call__
        monkeypatch.setattr(leg_type, "__call__", lambda leg, r, orig=orig:
                            calls.append(id(leg)) or orig(leg, r))
    return calls


def test_state_at_calls_each_leg_once_per_array(sep, monkeypatch):
    # an array within one leg is one call of that leg on the whole array; an
    # array straddling a join is split by leg.  Either way the states equal
    # the per-leg reference and the one-point path, bit for bit, and the
    # result is the caller's own array; an empty array is empty, (3, 0)
    calls = _count_leg_calls(monkeypatch)
    for kind, rq in _leg_cases(sep):
        ref, n_legs = _per_leg(sep, rq)
        calls.clear()
        got = sep.state_at(rq)
        assert len(calls) == len(set(calls)) == n_legs, rq
        assert (n_legs == 1) == (kind == "inside"), rq
        assert np.array_equal(got, ref), rq
        assert np.array_equal(got, np.stack([sep.state_at(float(r)) for r in rq], axis=1)), rq
        got[:] = 0.0
        assert np.array_equal(sep.state_at(rq), ref), rq
    assert sep.state_at(np.empty(0)).shape == (3, 0)


@pytest.mark.parametrize("r", [[0.0, np.nan], np.nan, [np.inf], -np.inf, [0.0, -np.inf]])
def test_state_at_rejects_non_finite_r(sep, r):
    # a NaN or infinite r is outside the orbit on both paths; a NaN among
    # finite points must not move them to another leg
    with pytest.raises(cs.OrbitRangeError, match="outside computed"):
        sep.state_at(np.array(r) if isinstance(r, list) else r)


def test_trajectories_compare_by_identity(sep):
    # array fields make field-wise equality ambiguous (numpy raises); a
    # trajectory equals only itself, and a copy starts with an empty memo
    from dataclasses import replace
    other = replace(sep)
    assert sep == sep and sep != other and not (other == sep)
    assert other._memo is not sep._memo and not other._memo


def test_brent_takes_brentqs_iterates():
    # the one root finder is scipy's brentq point for point: the same
    # evaluations in the same order, the same root, the same sign error
    from scipy.optimize import brentq

    from cuspsoliton._numerics import brent
    fs = [lambda x: x ** 3 - 0.7, lambda x: math.sin(x) - 0.3,
          lambda x: math.expm1(x) - 2.0, lambda x: math.tanh(5.0 * (x - 0.4)) + 1e-3]
    for f in fs:
        for xtol in (2e-12, 1e-9, 8.9e-16):
            ours, ref = [], []
            r = brent(lambda x: ours.append(x) or f(x), -4.0, 3.5, xtol=xtol, rtol=1e-15)
            assert r == brentq(lambda x: ref.append(x) or f(x), -4.0, 3.5, xtol=xtol, rtol=1e-15)
            assert ours == ref
    with pytest.raises(ValueError, match="different signs"):
        brent(lambda x: x * x + 1.0, -1.0, 1.0)


def test_cusp_series_is_the_unstable_manifold():
    # checks apart from the recursion: the manifold as the graph F = m x +
    # k x^2 + ... over x = H - 1/2 has k = (m^2 - 4m + 2)/(5 - 1.5m) from
    # the invariance equation at second order; and with x' = lambda x the
    # series is invariant, lambda theta p'(theta) = V(p(theta)), on |theta| <= 1e-2
    leg = _CuspLeg.at(-1e-2)
    xs, ys = (np.array(ser[::-1]) for ser in leg.series)        # p_1 first
    m, lam = cs.SLOPE_UNSTABLE, cs.EIGENVALUE_UNSTABLE
    assert (xs[0], ys[0]) == (1.0, m) and len(xs) == leg.stats["terms"] == 12
    assert ys[1] - ys[0] * xs[1] == pytest.approx((m * m - 4 * m + 2) / (5 - 1.5 * m), rel=1e-14)
    k = np.arange(1, 13)
    for th in np.linspace(-1e-2, 1e-2, 401):
        x, y = xs @ th ** k, ys @ th ** k
        dx, dy = lam * (k * xs) @ th ** k, lam * (k * ys) @ th ** k
        assert abs(dx - (-2 * x + y / 2 + x * y - 2 * x * x)) < 1e-15
        assert abs(dy - (y + 2 * x * y - 2 * x - 2 * x * x)) < 1e-15
    assert leg.stats["truncation"] < 1e-18


def test_cusp_leg_takes_the_series_per_point(sep):
    # the leg is the series at theta = theta_start e^{lambda (r - r_hi)},
    # its sigma -(H' + H^2) from the state; the step leg starts on it
    cusp, fwd = sep.legs[:2]
    assert cusp.r_hi == fwd.r_lo
    assert cusp(cusp.r_hi).tolist() == [row[-1] for row in fwd.pieces[0]]
    rq = np.linspace(cusp.r_lo, cusp.r_hi, 41)
    H, F, sigma = cusp(rq)
    th = cusp.theta * np.exp(cs.EIGENVALUE_UNSTABLE * (rq - cusp.r_hi))
    assert np.abs(F / (cs.SLOPE_UNSTABLE * th) - 1.0).max() < 1e-8
    assert np.abs(sigma + cs.vector_field((H, F)).dH + H * H).max() < 1e-16
    assert sep.meta["legs"][0] == dict(cusp.stats, r_lo=cusp.r_lo, r_hi=cusp.r_hi)
