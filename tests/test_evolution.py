import gc
import math
import os
import subprocess
import sys
import types
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cuspsoliton as cs
from cuspsoliton.blowup import _poly_eval


def test_dRdt_at_cusp_soliton_state():
    # R(t) = -(3/2)/(t+1) for the constant-curvature soliton, so
    # dR/dt = (3/2)/(t+1)^2
    for t in (-0.5, 0.0, 3.0):
        assert cs.dRdt(0.5, 0.0, t) == pytest.approx(1.5 / (t + 1) ** 2, rel=1e-14)


def test_dRdt_on_H_axis():
    for y in (-2.0, -0.5, 1.3):
        assert cs.dRdt(0.0, y, 0.0) == pytest.approx(2.0 * (1.0 - y * y), rel=1e-13)


def test_dRdt_sign_matches_Ct():
    rng = np.random.default_rng(5)
    for _ in range(100):
        H, F = rng.uniform(-2, 2, 2)
        t = rng.uniform(-0.95, 12.0)
        assert np.sign(cs.dRdt(H, F, t)) == np.sign(cs.Ct(H, F, t))


def test_dRdt_rejects_t_at_birth():
    with pytest.raises(ValueError):
        cs.dRdt(0.1, 0.1, -1.0)


@pytest.mark.parametrize("t", [np.inf, np.nan, -np.inf])
def test_non_finite_flow_time_rejected(sep, t):
    # t = inf reported 0 crossings although every t >= 0 has one, and
    # scan_psi(inf) failed inside geomspace
    for query in (lambda: cs.find_crossings(sep, t), lambda: cs.scan_psi(t),
                  lambda: cs.crossing_scan(sep, [0.0, t]), lambda: cs.psi(-2.0, t),
                  lambda: cs.dRdt(0.1, 0.1, t)):
        with pytest.raises(ValueError, match="flow time must be finite"):
            query()


def test_Ct_values():
    t = 0.73
    y0 = -1.0 / math.sqrt(t + 1.0)
    assert cs.Ct(0.0, y0, t) == pytest.approx(0.0, abs=1e-14)
    assert cs.Ct(0.5, 0.0, t) == pytest.approx(0.75, abs=1e-15)
    assert cs.Ct(1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_grad_Ct_values():
    assert cs.grad_Ct(0.0, 0.0, 0.37) == (0.0, 0.0)
    gx, gy = cs.grad_Ct(0.5, 0.0, 1.23)
    assert gx == pytest.approx(-1.0, abs=1e-15)
    assert gy == pytest.approx(1.0, abs=1e-15)


def test_grad_Ct_against_central_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(20):
        x, y = rng.uniform(-3, 3, 2)
        t = rng.uniform(-0.9, 11.0)
        gx, gy = cs.grad_Ct(x, y, t)
        fx = (cs.Ct(x + h, y, t) - cs.Ct(x - h, y, t)) / (2 * h)
        fy = (cs.Ct(x, y + h, t) - cs.Ct(x, y - h, t)) / (2 * h)
        assert abs(gx - fx) < 1e-6
        assert abs(gy - fy) < 1e-6


def test_branch_root_property():
    rng = np.random.default_rng(23)
    for t in (-0.7, -0.2, 0.0, 1.0, 10.0):
        end = -1.0 / math.sqrt(t + 1.0)
        ys = end - np.abs(rng.uniform(0.0, 9.0, 50))
        xs = cs.ct_branch_x(ys, t)
        assert np.all(xs >= 0.0)
        assert np.abs(cs.Ct(xs, ys, t)).max() < 1e-10


def test_branch_matches_displayed_quadratic_root():
    # the explicit quadratic-formula expression, evaluated directly
    def displayed(y, t):
        s = t + 1.0
        disc = (y * y - 2 * s * y ** 4 + s * s * y ** 6
                - 3 * s * y * y + 2 * s * s * y ** 4 + 1.0)
        return (-y + s * y ** 3 + math.sqrt(disc)) / (2 * s * y * y - 1.0)

    for t in (-0.5, 0.0, 10.0):
        for y in (-1.5, -2.0, -4.0):
            if y > -1.0 / math.sqrt(t + 1.0):
                continue
            assert cs.ct_branch_x(y, t) == pytest.approx(displayed(y, t), rel=1e-10)


def test_branch_endpoint_limit():
    t = 0.44
    end = -1.0 / math.sqrt(t + 1.0)
    assert cs.ct_branch_x(end, t) == pytest.approx(0.0, abs=1e-12)


def test_branch_regression_value():
    # frozen from the closed form at (y, t) = (-2, 10)
    assert cs.ct_branch_x(-2.0, 10.0) == pytest.approx(0.224505582443577, abs=1e-12)


def _branch_reference(y, t):
    # the cancellation-free root, then two Newton steps through Ct and grad_Ct
    s = t + 1.0
    A = 2.0 * s * y ** 2 - 1.0
    halfB = y * (1.0 - s * y ** 2)
    C0 = 1.0 - s * y ** 2
    q = -(halfB + np.sqrt(np.maximum(halfB ** 2 - A * C0, 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(q != 0.0, C0 / np.where(q != 0.0, q, 1.0), 0.0)
    for _ in range(2):
        val, dv = cs.Ct(x, y, t), cs.grad_Ct(x, y, t)[0]
        x = x - np.where(dv != 0.0, val / np.where(dv != 0.0, dv, 1.0), 0.0)
    return x


def test_branch_polish_is_the_Ct_newton_step_bit_for_bit():
    # ct_branch_x spells C_t and dC_t/dx out inline; on scan_psi's default
    # grids it must give the bits of the polish through Ct and grad_Ct
    for t in np.concatenate([np.geomspace(1e-4, 201.0, 48) - 1.0, [0.0, 200.0]]).tolist():
        y = cs.scan_psi(t).y
        got, ref = cs.ct_branch_x(y, t), _branch_reference(y, t)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64)), t
        assert cs.ct_branch_x(float(y[7]), t) == ref[7]


def test_branch_domain_error():
    with pytest.raises(ValueError):
        cs.ct_branch_x(-0.5, 0.0)


def test_psi_positive_for_barrier_time():
    end = -1.0 / math.sqrt(0.3)
    ys = np.linspace(-20.0, end, 1000)
    assert np.all(cs.psi(ys, -0.7) > 0)


def test_psi_changes_sign_for_late_time():
    scan = cs.scan_psi(-0.2)
    assert scan.verdict == "sign-changing"
    assert scan.min_value < 0


def test_psi_equals_full_scalar_product_on_curve():
    rng = np.random.default_rng(31)
    for t in (-0.7, -0.2, 0.0, 10.0):
        end = -1.0 / math.sqrt(t + 1.0)
        ys = end - np.abs(rng.uniform(0.02, 12.0, 40))
        xs = cs.ct_branch_x(ys, t)
        gx, gy = cs.grad_Ct(xs, ys, t)
        dH = xs * ys - 2 * xs ** 2 + 0.5
        dF = 2 * xs * ys - 2 * xs ** 2 + 0.5
        full = gx * dH + gy * dF
        assert np.abs(full - cs.psi(ys, t)).max() < 1e-8


def test_psi_tail_expansion():
    for t in (-0.7, -0.2, 2.0):
        y = -1e5
        assert cs.psi(y, t) == pytest.approx(cs.psi_tail(y, t), rel=1e-6)


def test_scan_psi_grid_and_verdicts():
    scan = cs.scan_psi(-0.7)
    assert scan.verdict == "positive"
    assert scan.y[0] == pytest.approx(-1.0 / math.sqrt(0.3), rel=1e-12)
    assert scan.min_value > 0
    assert scan.tail_sign > 0
    # for t > 0 the tail is negative, so positivity can never be certified
    assert cs.scan_psi(10.0).tail_sign < 0


@pytest.mark.parametrize("t", [-0.7, -0.4])
@pytest.mark.parametrize("y_floor", [-1e8, -1e10])
def test_psi_verdict_is_exact_far_out(t, y_floor):
    # far out the float Psi_t cancels below zero (min -9.5e-9 at t = -0.7,
    # y_floor = -1e8); the verdict is the exact sign of P(t + 1), and the
    # scanned minimum stays as data
    scan = cs.scan_psi(t, y_floor=y_floor)
    assert scan.verdict == "positive" and scan.min_value < 0.0 and scan.tail_sign > 0
    assert scan.y[-1] == pytest.approx(y_floor, rel=1e-12)


def test_psi_positive_compares_with_the_barrier_bracket():
    # a t outside the cached bracket of t_b is decided by comparison, one
    # inside it by P(t + 1) in Fractions: every float from one below the
    # bracket to one above it, and a grid on (-1, 0), gets the exact verdict
    from cuspsoliton.evolution import _PSI_DISC, _psi_positive, _t_b_bracket
    lo, hi = _t_b_bracket()
    ts = [math.nextafter(lo, -math.inf)]
    while ts[-1] <= hi:
        ts.append(math.nextafter(ts[-1], math.inf))
    assert 3 < len(ts) < 1000
    verdicts = {t: _poly_eval(_PSI_DISC, Fraction(t) + 1) > 0
                for t in ts + np.linspace(-0.999, -1e-3, 199).tolist()}
    assert {verdicts[t] for t in ts} == {True, False}
    assert all(_psi_positive(t) == v for t, v in verdicts.items())


def test_tail_match_is_undefined_at_t_zero():
    # at t = 0 the tail t/(4y) - 3t/(8y^3) vanishes identically, so no
    # relative agreement with it exists; far out it used to overflow
    scan = cs.scan_psi(0.0, y_floor=-1e30)
    assert math.isnan(scan.tail_match) and scan.verdict == "sign-changing"
    assert not math.isnan(cs.scan_psi(1e-300).tail_match)


def test_tail_sign_at_t_zero_is_the_sign_of_the_leading_term():
    # at t = 0 the tail is Psi_0 = 1/(4y^5) - 5/(16y^7) + O(y^-9) (derived in
    # test_field_algebra.py), negative; the float probe psi(100 y_floor) it
    # replaces read -1, +1, -1, +1, -1 on the first five floors.  With no
    # probe past y_floor, the float range at t = 0 reaches -1e50
    for y_floor in (-1e3, -1e5, -1e10, -1e12, -1e20, -1e49):
        scan = cs.scan_psi(0.0, y_floor=y_floor)
        assert scan.tail_sign == -1 and scan.verdict == "sign-changing", y_floor


@pytest.mark.parametrize("t", [-0.7, 0.0, 1.0])
def test_y_floor_past_the_float_range_of_psi_is_rejected(t):
    # below about -1e50, ct_branch_x's squares overflow; the scan says so
    # instead of tabulating garbage with numpy warnings
    for y_floor in (-1e60, -1e150):
        with pytest.raises(ValueError, match="past the float range of Psi_t"):
            cs.scan_psi(t, y_floor=y_floor)
    positive = t < 0.0 and _poly_eval(cs.evolution._PSI_DISC, Fraction(t) + 1) > 0
    assert cs.scan_psi(t, y_floor=-1e10).verdict == ("positive" if positive else "sign-changing")


def _scanned_verdict(t):
    # the verdict read off the float scan alone, at the default floor
    scan = cs.scan_psi(t)
    return "positive" if scan.min_value > 0.0 and scan.tail_sign > 0 else "sign-changing"


def test_crossings_for_late_times(sep):
    for t in (0.0, 1.0, 10.0):
        rep = cs.find_crossings(sep, t)
        assert rep.count >= 1
        assert rep.sign_pattern.startswith("+")
        assert len(rep.sign_pattern) - 1 == rep.count
        assert [c[0] for c in rep.crossings] == sorted(c[0] for c in rep.crossings)
        r, H, F = rep.crossings[0]
        assert abs(cs.Ct(H, F, t)) < 1e-6


def test_no_crossings_for_early_times(sep):
    assert cs.find_crossings(sep, -0.7).count == 0
    assert cs.find_crossings(sep, -0.2).count == 0


def test_double_crossing_window(sep):
    # between the crossing threshold and 0 the sign changes exactly twice
    rep = cs.find_crossings(sep, -0.02)
    assert rep.count == 2
    assert rep.sign_pattern == "+-+"


def _unfiltered_walk(sep, t, n=20001, r_hi=30.0):
    """Independent oracle: walk C_t sample by sample on n points over
    [r_lo, r_hi], where its computed sign is exact; returns the sign
    pattern and the brackets of the sign changes."""
    from cuspsoliton.evolution import _ab
    rg = np.linspace(sep.r_lo, r_hi, n)
    A, B = _ab(*sep.state_at(rg))
    vals = A + (t + 1.0) * B
    pattern, brackets, prev = [], [], None
    for i in np.nonzero(vals)[0]:
        sgn = "+" if vals[i] > 0 else "-"
        if pattern and sgn != pattern[-1]:
            brackets.append((rg[prev], rg[i]))
        if not pattern or sgn != pattern[-1]:
            pattern.append(sgn)
        prev = i
    return "".join(pattern), brackets


def test_crossings_match_per_index_loop(sep):
    # -0.0369 lies in the window (t*, t* + 5.4e-4) that the old
    # significance filter hid; every root at these t lies below r = 30
    for t in (-0.7, -0.0369, -0.02, -0.001, 0.0, 1.0, 10.0):
        pattern, brackets = _unfiltered_walk(sep, t)
        rep = cs.find_crossings(sep, t)
        assert rep.sign_pattern == pattern
        assert len(rep.crossings) == len(brackets)
        assert all(lo <= c[0] <= hi for c, (lo, hi) in zip(rep.crossings, brackets))


def test_barrier_soundness(sep):
    # a positive Psi verdict must imply zero crossings
    for t in (-0.7, -0.5, -0.45):
        if cs.scan_psi(t).verdict == "positive":
            assert cs.find_crossings(sep, t).count == 0


def test_delta_brackets(sep):
    ds = cs.scan_delta_threshold(sep, np.linspace(-0.7, -0.01, 12))
    lo, hi = ds.crossing_bracket
    assert -0.7 < lo < hi < 0.0
    assert hi - lo <= 1e-4 + 1e-12
    blo, bhi = ds.barrier_bracket
    assert -0.7 < blo < bhi < 0.0
    assert bhi - blo <= 1e-4 + 1e-12
    # the barrier certificate is lost before the first actual crossing
    assert bhi < lo


def test_crossing_threshold_against_unfiltered_scan(sep):
    # independent route: the unfiltered dense scan sees no crossing just
    # before the bracket and the first pair just after it
    ds = cs.scan_delta_threshold(sep)
    lo, hi = ds.crossing_bracket
    assert lo < ds.crossing_threshold < hi and hi - lo <= 1e-4
    assert lo < -0.0369922001 < hi
    assert len(_unfiltered_walk(sep, lo - 1e-5)[1]) == 0
    assert len(_unfiltered_walk(sep, hi + 1e-5)[1]) == 2
    Hc, Fc, _ = sep.state_at(ds.crossing_r)
    assert abs(cs.Ct(Hc, Fc, ds.crossing_threshold)) < 1e-9
    # the exact counts on the grid are the unfiltered walk's
    assert ds.crossing_counts == [len(_unfiltered_walk(sep, t)[1]) for t in ds.t_grid]


def test_exact_psi_verdicts_match_scans(sep):
    # the grid scan of Psi_t and the sign of P(t + 1) agree at 1 000 t, and
    # scan_psi reports the exact verdict
    ts = np.sort(np.random.default_rng(17).uniform(-0.99, -0.001, 1000))
    ds = cs.scan_delta_threshold(sep, ts)
    assert [_scanned_verdict(t) for t in ts] == [ds.psi_verdicts[t] for t in ts]
    assert [cs.scan_psi(t).verdict for t in ts] == [ds.psi_verdicts[t] for t in ts]
    assert {"positive", "sign-changing"} == set(ds.psi_verdicts.values())


def test_barrier_bracket_inside_bisected_scans(sep):
    blo, bhi = cs.scan_delta_threshold(sep).barrier_bracket
    assert 0.0 < bhi - blo < 1e-13
    lo, hi = -0.7, -0.2
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if _scanned_verdict(mid) == "positive":
            lo = mid
        else:
            hi = mid
    assert lo < blo < bhi < hi


def test_barrier_bracket_holds_t_b_exactly():
    # P(s) changes sign from + to - across the bracket, s = t + 1, in Fractions
    lo, hi = cs.evolution._t_b_bracket()
    P = cs.evolution._PSI_DISC
    assert _poly_eval(P, Fraction(lo) + 1) > 0 > _poly_eval(P, Fraction(hi) + 1)
    assert 0.0 < hi - lo < 2e-14


def test_barrier_bracket_is_built_on_first_use():
    code = "from cuspsoliton import evolution\nprint(evolution._t_b_bracket.cache_info().currsize)"
    src = str(Path(cs.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0"


def test_barrier_threshold_is_a_tangency(sep):
    # at t_b the quintic has a double root u >= 1/s, where Psi_t touches 0
    blo, bhi = cs.scan_delta_threshold(sep).barrier_bracket
    t_b = 0.5 * (blo + bhi)
    s = t_b + 1.0
    # Res_x(C_t, G) in u = y^2, highest power first
    u = np.roots([8 * s**5 * (1 - s), 28 * s**4 * (s - 1), s**3 * (42 - 50 * s),
                  s**2 * (4 * s**2 + 53 * s - 31), s * (8 - 29 * s - 12 * s**2),
                  9 * s**2 + 6 * s + 1])
    u = np.sort(u[(np.abs(u.imag) < 1e-6) & (u.real >= 1.0 / s)].real)
    assert u.size == 2 and abs(u[1] - u[0]) < 1e-6 and abs(u[0] - 2.0996) < 1e-3
    assert abs(cs.psi(-math.sqrt(u.mean()), t_b)) < 1e-12
    # and its minimum on a fine branch grid changes sign across t_b
    for dt, sign in ((-1e-6, 1.0), (1e-6, -1.0)):
        t = t_b + dt
        y = -np.geomspace(1.0 / math.sqrt(t + 1.0), 1e3, 200001)
        assert sign * cs.psi(y, t).min() > 0.0


def test_crossing_threshold_needs_negative_sigma():
    # at (1.5, 0.7) A = 2HF + 1 - H^2 > 0 but sigma = H^2 - HF - 1/2 > 0, so
    # B = 2F^2 sigma has the wrong sign and the closed form does not apply
    traj = cs.integrate((1.5, 0.7), 0.0, cs.IntegratorControls(r_max=0.1))
    assert np.all(2 * traj.H * traj.F + 1 - traj.H ** 2 > 0)
    assert traj.sigma.max() > 0
    with pytest.raises(cs.IntegrationError, match="B = 2F\\^2 sigma < 0"):
        cs.scan_delta_threshold(traj)


def test_history_monotone_r_and_signs(sep):
    tg = np.geomspace(0.02, 101.0, 120) - 1.0
    h = cs.pointwise_R_history(0.0, tg, sep)
    assert np.all(np.diff(h.r_of_t[np.argsort(h.t)]) < 0)
    assert np.all(h.R < 0)
    assert not h.truncated


def test_history_rejects_bad_inputs(sep):
    with pytest.raises(ValueError):
        cs.pointwise_R_history(0.0, [-1.5, 0.0], sep)
    # an empty grid was an IndexError, and a NaN or inf t was dropped and
    # the history flagged truncated
    with pytest.raises(ValueError, match="grid is empty"):
        cs.pointwise_R_history(0.0, [], sep)
    for bad in ([0.0, np.nan], [np.inf, 0.0], [-np.inf], [np.nan]):
        with pytest.raises(ValueError, match="finite with t > -1"):
            cs.pointwise_R_history(0.0, bad, sep)
    with pytest.raises(ValueError):
        cs.pointwise_R_history(1e9, [0.0, 1.0], sep)
    # a scalar grid failed inside np.sort with numpy's AxisError
    for bad in (0.5, [[0.0, 0.5]]):
        with pytest.raises(ValueError, match="t_grid must be one-dimensional"):
            cs.pointwise_R_history(0.0, bad, sep)


def _ode_history_r(traj, r0, t_grid):
    """Oracle: r(t) from DOP853 on rdot = F(r), forward and backward from t = 0."""
    from scipy.integrate import solve_ivp
    rhs = lambda tt, y: [float(traj.state_at(y[0])[1])]
    r = np.empty(t_grid.size)
    for m in (t_grid >= 0.0, t_grid < 0.0):
        if m.any():
            end = t_grid[m][np.abs(t_grid[m]).argmax()]
            sol = solve_ivp(rhs, (0.0, end), [r0], method="DOP853", dense_output=True,
                            rtol=1e-10, atol=1e-12)
            r[m] = sol.sol(t_grid[m])[0]
    return r


def test_history_against_ode_route(sep):
    # inverting T = int dr/F agrees with integrating rdot = F itself, on the
    # CLI's grid at anchors spanning the flow_queries range (measured worst
    # 1.8e-9, relative where |r| >= 1 and absolute below)
    tg = np.geomspace(0.02, 201.0, 240) - 1.0
    for F_anchor in (-0.5, -1.0, -10.0, -30.0):
        r0 = sep.r_at_F(F_anchor)
        h = cs.pointwise_R_history(r0, tg, sep)
        assert not h.truncated and np.array_equal(h.t, tg)
        ode = _ode_history_r(sep, r0, tg)
        assert np.all(np.abs(h.r_of_t - ode) <= 1e-8 * np.maximum(np.abs(ode), 1.0))
        H, F = sep.state_at(ode)[:2]
        ode_dRdt = [cs.dRdt(Hi, Fi, t) for Hi, Fi, t in zip(H, F, tg)]
        assert np.array_equal(np.sign(h.dRdt), np.sign(ode_dRdt))


def test_truncated_history_keeps_the_times_inside_the_flow_range(short_orbit):
    # on an orbit ending at r = 10, the flat end is reached at once going
    # back in time and T(r_lo) ~ 1.65e9 bounds the times going forward
    from scipy.integrate import quad
    traj = short_orbit
    inv_F = lambda r: 1.0 / float(traj.state_at(r)[1])
    T_r0 = quad(inv_F, traj.r_hi, 9.9)[0]
    T_lo = quad(inv_F, traj.r_hi, traj.r_lo, limit=200)[0]
    tg = np.array([-0.5, -0.1, 0.0, 1.0, 2e9])
    inside = (T_r0 + tg >= 0.0) & (T_r0 + tg <= T_lo)
    assert inside.tolist() == [False, False, True, True, False]
    h = cs.pointwise_R_history(9.9, tg, traj)
    assert h.truncated
    assert np.array_equal(h.t, tg[inside])
    assert abs(h.r_of_t[0] - 9.9) < 1e-12
    assert abs(h.r_of_t[1] - _ode_history_r(traj, 9.9, h.t)[1]) < 1e-8
    empty = cs.pointwise_R_history(9.9, [-0.5, -0.1], traj)
    assert empty.truncated and empty.t.size == 0 and empty.sign_change_times == []


def test_history_interval_start_and_newton_stop_rule(sep, short_orbit):
    # the cubic Hermite start on the flow-time table's interval that holds
    # each target, then Newton steps in that interval's variable v, replayed
    # with the history's stop rule: the targets lie in their intervals, the
    # replay takes the history's steps and lands on r_of_t bit for bit, the
    # start lies within 1e-4 of it (measured 2.4e-6 of max(|r|, 1)), the
    # table's slope is 1/F (measured within 7.5e-15), two steps suffice
    # (the second correction measured at most 2.7e-12 of max(|r|, 1)), and
    # the would-be next correction is rounding (measured at most 2.5e-15 of
    # max(|r|, 1)), on the CLI's grid
    from cuspsoliton.evolution import _flow_time, _horner_slope, _interval_start
    tg = np.geomspace(0.02, 201.0, 240) - 1.0
    cases = [(sep, sep.r_at_F(F_anchor)) for F_anchor in (-0.5, -1.0, -10.0, -30.0)]
    cases += [(short_orbit, short_orbit.r_at_F(-1.0)), (short_orbit, 9.9)]
    for traj, r0 in cases:
        h = cs.pointwise_R_history(r0, tg, traj)
        assert h.t.size >= 10
        table = traj._per_orbit(_flow_time)
        target = table(r0) + h.t
        i, v = _interval_start(table, traj.F, target)
        assert np.all((table.cum[i + 1] <= target) & (target <= table.cum[i]))
        cum, mid, half, coef = table.cum[i], table.mid[i], table.half[i], table.coef[:, i]
        r = mid + half * v
        assert np.all(np.abs(r - h.r_of_t) <= 1e-4)
        steps = []
        for _ in range(4):
            q, slope = _horner_slope(coef, v)
            assert np.all(np.abs(slope * traj.state_at(r)[1] - 1.0) <= 1e-12)
            steps.append((cum + half * q - target) / slope)
            v = v - steps[-1] / half
            r = mid + half * v
            if np.all(np.abs(steps[-1]) <= 1e-7 * np.maximum(np.abs(r), 1.0)):
                break
        assert len(steps) == h.newton_steps == 2
        assert np.array_equal(r, h.r_of_t)
        moved = np.abs((table(r) - target) * traj.state_at(r)[1])
        assert np.all(moved <= 1e-12 * np.maximum(np.abs(h.r_of_t), 1.0))


def test_history_inverts_the_flow_time_over_its_whole_range(sep, short_orbit, gauss6):
    # from r_hi, where T = 0, to the targets 0, T(r_lo), T at every sample
    # node and 20 000 geomspaced values: at most three Newton steps
    # (measured three on each orbit), and r(t) within 1e-12 of max(|r|, 1)
    # of the Gauss route's inverse, the distance |(T_gauss(r) - t) F|
    # (measured at most 2.2e-15)
    from cuspsoliton.evolution import _flow_time
    loose = cs.shoot_separatrix(cs.ShootConfig(controls=cs.IntegratorControls(rel_tol=1e-7)))
    inv_F = lambda s: 1.0 / s[1]
    for name, traj in {"default": sep, "rel_tol 1e-7": loose, "r_max 10": short_orbit}.items():
        cum = traj._per_orbit(_flow_time).cum
        tg = np.sort(np.concatenate([cum, np.geomspace(1e-12, cum[0], 20000)]))
        h = cs.pointwise_R_history(traj.r_hi, tg, traj)
        assert not h.truncated and np.array_equal(h.t, tg), name
        assert h.newton_steps <= 3, name
        r = traj.r
        steps = gauss6(traj.state_at, inv_F, r[:-1], r[1:])
        gauss = np.concatenate([-np.cumsum(steps[::-1])[::-1], [0.0]])
        i = np.clip(np.searchsorted(r, h.r_of_t) - 1, 0, r.size - 2)
        T = gauss[i] + gauss6(traj.state_at, inv_F, r[i], h.r_of_t)
        moved = np.abs((T - h.t) * traj.state_at(h.r_of_t)[1])
        assert np.all(moved <= 1e-12 * np.maximum(np.abs(h.r_of_t), 1.0)), name


def test_warm_history_makes_one_state_at_call(sep, dense_counts):
    # T(r0) and the Newton steps on the default orbit read the flow-time
    # table, so a warm history evaluates the orbit once: the final states,
    # all three rows at its 240 points
    tg = np.geomspace(0.02, 201.0, 240) - 1.0
    r0 = sep.r_at_F(-1.0)
    cs.pointwise_R_history(r0, tg, sep)
    dense_counts.reset()
    h = cs.pointwise_R_history(r0, tg, sep)
    assert h.newton_steps == 2
    assert dense_counts.state_at == [tg.size]


def test_flow_table_matches_gauss_partial_integrals(sep, short_orbit, gauss6):
    # T from the table against the six-point Gauss partial integral from
    # the interval's node, at random r: the difference moves r by |dT F|,
    # at most 1e-14 of max(|r|, 1) (measured 1.2e-15); the table's slope
    # meets 1/F at the sample nodes (measured 1.6e-14 to 1.8e-14
    # relative), and one point is the array pass bit for bit
    from cuspsoliton.evolution import _flow_time
    rng = np.random.default_rng(30)
    loose = cs.shoot_separatrix(cs.ShootConfig(controls=cs.IntegratorControls(rel_tol=1e-7)))
    for name, traj in {"default": sep, "rel_tol 1e-7": loose, "r_max 10": short_orbit}.items():
        table = traj._per_orbit(_flow_time)
        assert 0.0 < table.error <= 1e-12, name
        r = np.concatenate([traj.r[[0, 1, -2, -1]], rng.uniform(traj.r_lo, traj.r_hi, 2000)])
        value = table(r)
        i = np.clip(np.searchsorted(traj.r, r) - 1, 0, traj.r.size - 2)
        gauss = table.cum[i] + gauss6(traj.state_at, lambda s: 1.0 / s[1], traj.r[i], r)
        moved = np.abs((value - gauss) * traj.state_at(r)[1])
        assert np.all(moved <= 1e-14 * np.maximum(np.abs(r), 1.0)), name
        for i in [1, 2, *range(4, r.size, 97)]:         # nodes pick the interval below
            assert table(r[i].item()) == value[i]


def test_flow_table_keeps_the_range_rule_of_state_at(sep):
    from cuspsoliton.evolution import _flow_time
    table = sep._per_orbit(_flow_time)
    assert table(np.empty(0)).shape == (0,)
    for bad in (np.nan, sep.r_lo - 1e-8, sep.r_hi + 1e-8):
        with pytest.raises(cs.OrbitRangeError):
            table(bad)
        with pytest.raises(cs.OrbitRangeError):
            table(np.array([0.0, bad]))
    # within 1e-9 of the ends, as in state_at, the end pieces extend
    assert math.isfinite(table(sep.r_hi + 5e-10))
    assert np.isfinite(table(np.array([sep.r_lo - 5e-10]))).all()


def test_flow_table_check_rejects_a_wrong_matrix(sep, monkeypatch):
    # the per-orbit check compares the table's slope at both ends of every
    # interval with 1/F at the sample nodes.  np.polyint's constant is 0, so
    # the matrix's last row is -Q(-1) of each column: one that shifts every
    # coefficient by it, not the constant alone, fails the check on the
    # first interval (measured 13.9 relative)
    from cuspsoliton import geometry
    v, matrix = geometry._antiderivative_matrix()
    wrong = matrix + matrix[-1]
    wrong[-1] = matrix[-1]
    monkeypatch.setattr(geometry, "_antiderivative_matrix", lambda: (v, wrong))
    with pytest.raises(cs.IntegrationError, match=r"flow-time table's slope misses 1/F at "
                       rf"the ends of \[{sep.r_lo:.6g}, "):
        cs.pointwise_R_history(sep.r_at_F(-1.0), [0.0, 1.0], replace(sep))


def _shifted_start(monkeypatch, shift):
    """Move the history's Newton start by ``shift(r)`` in r."""
    from cuspsoliton import evolution
    start = evolution._interval_start

    def shifted(T, F, target):
        i, v = start(T, F, target)
        r = T.mid[i] + T.half[i] * v
        return i, v + shift(r) / T.half[i]
    monkeypatch.setattr(evolution, "_interval_start", shifted)


def test_loose_orbit_history_takes_one_more_newton_step(monkeypatch):
    # on an orbit shot at rel_tol = 1e-7 the interval start is close enough
    # for two steps; moved off by 1e-3 of max(|r|, 1), the second correction
    # is above 1e-7 (measured 2.6e-6), so the loop takes a third, and r(t)
    # still agrees with integrating rdot = F (measured 1.7e-10)
    traj = cs.shoot_separatrix(cs.ShootConfig(controls=cs.IntegratorControls(rel_tol=1e-7)))
    tg = np.geomspace(0.02, 201.0, 240) - 1.0
    anchors = [traj.r_at_F(F_anchor) for F_anchor in (-0.5, -1.0, -10.0)]
    assert [cs.pointwise_R_history(r0, tg, traj).newton_steps for r0 in anchors] == [2, 2, 2]
    _shifted_start(monkeypatch, lambda r: 1e-3 * np.maximum(np.abs(r), 1.0))
    for r0 in anchors:
        h = cs.pointwise_R_history(r0, tg, traj)
        assert h.newton_steps == 3 and not h.truncated
        ode = _ode_history_r(traj, r0, tg)
        assert np.all(np.abs(h.r_of_t - ode) <= 1e-8 * np.maximum(np.abs(ode), 1.0))


def test_history_far_from_its_start_raises(sep, monkeypatch):
    # a start 0.1 off takes all four steps and lands where the interval
    # start does (measured 2.4e-15 off); one 1.0 off still moves by more
    # than 1e-7 in the fourth step
    tg = np.geomspace(0.02, 201.0, 240) - 1.0
    r0 = sep.r_at_F(-1.0)
    good = cs.pointwise_R_history(r0, tg, sep)
    with monkeypatch.context() as m:
        _shifted_start(m, lambda r: 0.1)
        near = cs.pointwise_R_history(r0, tg, sep)
    assert near.newton_steps == 4
    assert np.all(np.abs(near.r_of_t - good.r_of_t)
                  <= 1e-12 * np.maximum(np.abs(good.r_of_t), 1.0))
    _shifted_start(monkeypatch, lambda r: 1.0)
    with pytest.raises(cs.IntegrationError, match="after 4 steps"):
        cs.pointwise_R_history(r0, tg, sep)


def test_history_needs_negative_F():
    traj = cs.integrate((1.5, 0.7), 0.0, cs.IntegratorControls(r_max=0.1))
    with pytest.raises(cs.IntegrationError, match="needs F < 0 .* at r = 0"):
        cs.pointwise_R_history(0.05, [0.0, 1.0], traj)


def test_crossing_scan_matches_per_t_find_crossings(sep):
    # one shared certificate gives each t the report of its own query
    t_values = (-0.7, -0.2, 0.0, 1.0, 10.0)
    reports = cs.crossing_scan(sep, t_values)
    for t, rep in zip(t_values, reports):
        one = cs.find_crossings(sep, t)
        assert rep.t == one.t
        assert rep.crossings == one.crossings
        assert rep.sign_pattern == one.sign_pattern
        assert rep.count == one.count


def test_sstar_tables_are_the_one_point_sstar_bit_for_bit(sep, short_orbit):
    # a crossing's bracket must hold a sign change of s* as Brent evaluates
    # it, one point at a time: the certificate grid's array values are
    # those bits, and so is each branch table's running maximum
    from cuspsoliton.evolution import _SStar, _ab
    for traj in (sep, short_orbit):
        sstar = traj._per_orbit(_SStar)
        for nodes, key, sign in sstar.branches:
            one = np.array([sstar(traj, r) for r in nodes.tolist()])
            assert np.array_equal(np.maximum.accumulate(sign * one), key)
            grid = nodes[nodes <= sstar.r_join]
            A, B = _ab(*traj.state_at(grid))
            assert np.array_equal(-A / B, one[:grid.size])
        # every grid point, r_min on both branches, and r_hi past a germ
        assert sum(nodes.size for nodes, _, _ in sstar.branches) == (
            sstar.points + (3 if sstar.q else 2))


def test_crossing_roots_are_bracketed_by_adjacent_grid_points(sep, monkeypatch,
                                                              dense_counts):
    # each root's Brent search runs between adjacent nodes of its branch
    # table, and on times drawn like perfbench's flow_queries (log-uniform
    # 1 + t in [0.02, 201]) takes at most 8 evaluations of s* (measured at
    # most 6, 5.3 on average); a root past the germ join is bracketed by
    # the join and r_hi
    from cuspsoliton import evolution
    sstar = sep._per_orbit(evolution._SStar)
    brent, searches = evolution.brent, []

    def counted(f, a, b, **kwargs):
        before = dense_counts.sstar
        root = brent(f, a, b, **kwargs)
        searches.append((a, b, root, dense_counts.sstar - before))
        return root
    monkeypatch.setattr(evolution, "brent", counted)
    ts = np.exp(np.random.default_rng(5).uniform(math.log(0.02), math.log(201.0), 200)) - 1.0
    # s* at the germ join (the last grid value) and at r_hi
    germ_t = 0.5 * (sstar.branches[1][1][-2] + sstar.at_ends[2]) - 1.0
    reports = cs.crossing_scan(sep, [*ts, germ_t])
    roots = [r for rep in reports for r, _, _ in rep.crossings]
    assert [root for _, _, root, _ in searches] == roots
    assert reports[-1].count == 2 and roots[-1] > sstar.r_join
    for nodes, key, sign in sstar.branches:
        on_branch = [s for s in searches if nodes[0] <= s[2] <= nodes[-1]]
        assert on_branch
        for a, b, root, _ in on_branch:
            i = int(np.searchsorted(nodes, a))
            assert nodes[i] == a and nodes[i + 1] == b and a <= root <= b
    assert searches[-1][:2] == (sstar.r_join, sep.r_hi)
    assert max(n for *_, n in searches[:-1]) <= 8


def test_flow_queries_dense_work_per_operation(dense_counts):
    # perfbench's flow_queries operations (seed 3, 400 of them) on a warm
    # default orbit: per operation at most 6 evaluations of s* (measured
    # 3.1) and at most 2 000 dense points (measured 248: r_at_F, the
    # crossings and the final 240 states; T(r0) and the Newton steps read
    # the flow-time table), and every history takes two Newton steps
    import importlib.util
    import itertools
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    flow = workloads.FlowQueries(3, None)
    ops = list(itertools.islice(flow.inputs(), 400))
    flow.run(ops[0])
    dense_counts.reset()
    steps = {flow.run(op)[1].newton_steps for op in ops}
    assert steps == {2}
    assert dense_counts.sstar <= 6 * len(ops)
    assert dense_counts.points <= 2000 * len(ops)


def test_failed_crossing_refinement_raises(sep, monkeypatch):
    from cuspsoliton import evolution

    def fail(*args, **kwargs):
        raise ValueError("f(a) and f(b) must have different signs")
    sep._per_orbit(evolution._SStar)        # the certificate's own r_min search runs unpatched
    monkeypatch.setattr(evolution, "brent", fail)
    with pytest.raises(cs.IntegrationError, match=r"t = 10.0 changes sign on \["):
        cs.find_crossings(sep, 10.0)


def test_exact_crossing_picture(sep):
    # 0 crossings below t*, 2 on (t*, 0), 1 from t = 0 on, and C_t vanishes
    # at each root to 1e-9 of its constituents' scale
    from cuspsoliton.evolution import _ab
    t_star = cs.scan_delta_threshold(sep).crossing_threshold
    rng = np.random.default_rng(41)
    ts = np.concatenate([rng.uniform(-0.99, 200.0, 200),
                         t_star + rng.uniform(0.0, 5.4e-4, 20)])
    for t, rep in zip(ts, cs.crossing_scan(sep, ts)):
        expected = 0 if t < t_star else 2 if t < 0.0 else 1
        assert rep.count == expected, t
        assert rep.sign_pattern == "+-+"[:expected + 1]
        for r, _, _ in rep.crossings:
            A, B = _ab(*sep.state_at(r))
            assert abs(A + (t + 1.0) * B) < 1e-9 * (abs(A) + abs((t + 1.0) * B))


def test_sstar_germ_series_is_positive(sep):
    from fractions import Fraction
    from cuspsoliton.phase_core import _germ_series
    q = _germ_series(20)[3]
    assert q[:4] == [1, Fraction(9, 4), Fraction(21, 2), Fraction(921, 16)]
    assert all(c > 0 for c in q)
    kept = sep.legs[-1].series[3]         # cut at the join, highest power first
    assert 4 < len(kept) < len(q) and all(c > 0 for c in kept)


def test_sstar_germ_matches_float_sstar(sep):
    # past the join s* comes from the exact series for 1 - s*; the float
    # quotient A/|B| of the germ's states agrees with it on [25, 100] to
    # the rounding of A ~ Y^2/4 (absolute 1e-16 on 1e-4 at r = 100)
    from cuspsoliton.evolution import _SStar, _ab
    sstar = sep._per_orbit(_SStar)
    rr = np.linspace(25.0, 100.0, 1001)[1:]
    A, B = _ab(*sep.state_at(rr))
    exact = np.array([sstar(sep, r) for r in rr])
    assert np.all(exact < 1.0) and np.all(np.diff(exact) > 0.0)
    assert np.abs(exact + A / B).max() < 1e-11


def test_crossing_threshold_against_grid_minimum(sep):
    # independent route: argmin of A/|B| on a 120 001-point dense grid,
    # refined by a bounded minimisation between its neighbours (xatol 1e-5
    # on an s* that is flat there, so r is the coarser of the two)
    from scipy.optimize import minimize_scalar
    from cuspsoliton.evolution import _SStar, _ab
    sstar = sep._per_orbit(_SStar)
    ds = cs.scan_delta_threshold(sep)
    rg = sep.dense_grid(120001)
    A, B = _ab(*sep.state_at(rg))
    i = int(np.argmin(-A / B))
    res = minimize_scalar(lambda r: sstar(sep, r), bounds=(rg[i - 1], rg[i + 1]),
                          method="bounded")
    assert abs(res.fun - 1.0 - ds.crossing_threshold) < 1e-13
    assert ds.crossing_r == sstar.r_min
    assert abs(res.x - ds.crossing_r) <= 1e-5
    assert sstar(sep, ds.crossing_r) <= sstar(sep, res.x)


def test_find_crossings_needs_negative_sigma():
    traj = cs.integrate((1.5, 0.7), 0.0, cs.IntegratorControls(r_max=0.1))
    with pytest.raises(cs.IntegrationError, match="B = 2F\\^2 sigma < 0"):
        cs.find_crossings(traj, 0.0)


def test_delta_threshold_rejects_unsorted_grid(sep):
    with pytest.raises(ValueError, match="strictly increasing"):
        cs.scan_delta_threshold(sep, [-0.2, -0.1, -0.7])


def test_sstar_certificate_rejects_a_second_turn(sep, monkeypatch):
    # on a copy of the orbit: the session orbit's certificate is already built
    from cuspsoliton import evolution
    slope = evolution._sstar_slope
    # a slope that turns negative again where F < -5 (r ~ 8)
    monkeypatch.setattr(evolution, "_sstar_slope", lambda H, F, sig:
                        np.where(F < -5.0, -1.0, 1.0) * slope(H, F, sig))
    with pytest.raises(cs.IntegrationError, match=r"turns from \+ to - at r = 8\."):
        cs.find_crossings(replace(sep), 0.0)


def test_sstar_certificate_needs_a_positive_germ_series(sep):
    germ = sep.legs[-1]
    q = germ.series[3]
    bad = replace(germ, series=(*germ.series[:3], [-q[0], *q[1:]]))
    traj = replace(sep, legs=(*sep.legs[:-1], bad))
    with pytest.raises(cs.IntegrationError, match="past r = 25 only if"):
        cs.find_crossings(traj, 0.0)


def _reaches(obj, target) -> bool:
    # follow references through containers, instances and closures (not
    # through classes, modules or a function's globals)
    seen, todo = set(), [obj]
    while todo:
        o = todo.pop()
        if o is target:
            return True
        if id(o) in seen or isinstance(o, (type, types.ModuleType)):
            continue
        seen.add(id(o))
        todo.extend(o.__closure__ or () if isinstance(o, types.FunctionType)
                    else gc.get_referents(o))
    return False


def test_certificate_and_flow_time_are_built_once_per_orbit(sep, monkeypatch):
    from cuspsoliton import evolution
    built = []
    for name in ("_SStar", "_flow_time"):
        monkeypatch.setattr(evolution, name, lambda traj, name=name, build=getattr(
            evolution, name): built.append(name) or build(traj))
    traj = replace(sep)
    reports = [cs.find_crossings(traj, -0.01) for _ in range(2)]
    cs.crossing_scan(traj, [-0.5, 0.5])
    ds = [cs.scan_delta_threshold(traj) for _ in range(2)]
    hists = [cs.pointwise_R_history(traj.r_at_F(Fa), [0.0, 1.0], traj) for Fa in (-1.0, -5.0)]
    assert built == ["_SStar", "_flow_time"]
    assert reports[0].crossings == reports[1].crossings
    assert reports[0].n_grid == ds[1].certificate_points == 12185
    # a copy builds its own, and gets the same answers from it
    other = replace(traj)
    assert cs.find_crossings(other, -0.01).crossings == reports[0].crossings
    again = cs.pointwise_R_history(other.r_at_F(-5.0), [0.0, 1.0], other)
    assert np.array_equal(again.r_of_t, hists[1].r_of_t)
    assert built == ["_SStar", "_flow_time"] * 2
    # the memo (the two builds and the orbit's Chebyshev rows) does not
    # keep its orbit alive
    assert len(traj._memo) == 3
    for value in traj._memo.values():
        assert not _reaches(value, traj)
    assert _reaches([traj.state_at], traj)      # a bound method would be caught
