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
    # the grid scan of Psi_t and the sign of P(t + 1) agree at 1 000 t
    ts = np.sort(np.random.default_rng(17).uniform(-0.99, -0.001, 1000))
    ds = cs.scan_delta_threshold(sep, ts)
    assert [cs.scan_psi(t).verdict for t in ts] == [ds.psi_verdicts[t] for t in ts]
    assert {"positive", "sign-changing"} == set(ds.psi_verdicts.values())


def test_barrier_bracket_inside_bisected_scans(sep):
    blo, bhi = cs.scan_delta_threshold(sep).barrier_bracket
    assert 0.0 < bhi - blo < 1e-13
    lo, hi = -0.7, -0.2
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if cs.scan_psi(mid).verdict == "positive":
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


@pytest.fixture(scope="module")
def short_orbit():
    """The separatrix cut at r = 10: it ends on a DOP853 leg, not on the germ."""
    return cs.shoot_separatrix(cs.ShootConfig(controls=cs.IntegratorControls(
        r_max=10.0, h_floor=1e-6)))


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


def test_history_start_and_two_newton_steps(sep, short_orbit):
    # the quintic Hermite start in log(1 + T), replayed with the history's two
    # Newton steps and a third: the replay lands on r_of_t bit for bit, the
    # start lies within 1e-4 of it, and the corrections fall quadratically to
    # rounding (measured at most 1.7e-6, 3.6e-12, 2.0e-15 of max(|r|, 1)),
    # on the CLI's grid
    from cuspsoliton.evolution import _flow_time, _r_start
    tg = np.geomspace(0.02, 201.0, 240) - 1.0
    cases = [(sep, sep.r_at_F(F_anchor)) for F_anchor in (-0.5, -1.0, -10.0, -30.0)]
    cases += [(short_orbit, short_orbit.r_at_F(-1.0)), (short_orbit, 9.9)]
    for traj, r0 in cases:
        h = cs.pointwise_R_history(r0, tg, traj)
        assert h.t.size >= 10
        T, inverse = traj._per_orbit(_flow_time)
        target = T.value_at(traj, r0) + h.t
        r = _r_start(inverse, target)
        assert np.all(np.abs(r - h.r_of_t) <= 1e-4)
        steps = []
        for _ in range(3):
            value, F = T.value_and_row(traj, r)
            assert np.array_equal(F, traj.state_at(r)[1])
            steps.append((value - target) * F)
            r = r - steps[-1]
            if len(steps) == 2:
                assert np.array_equal(r, h.r_of_t)
        scale = np.maximum(np.abs(h.r_of_t), 1.0)
        assert np.all(np.abs(steps[1]) <= 1e-10 * scale)
        assert np.all(np.abs(steps[2]) <= 1e-12 * scale)


def test_warm_history_makes_four_state_at_calls(sep, monkeypatch):
    # T(r0), one call per Newton step (Gauss points and iterates together)
    # and the final states: 4 array calls, 7 + 2 * 7 * 240 + 240 points.
    # Every point but the final 240 evaluates F alone
    tg = np.geomspace(0.02, 201.0, 240) - 1.0
    r0 = sep.r_at_F(-1.0)
    cs.pointwise_R_history(r0, tg, sep)
    state_at, points = cs.Trajectory.state_at, []

    def counted(self, r, row=None):
        if np.ndim(r):
            points.append((np.size(r), row))
        return state_at(self, r, row=row)
    monkeypatch.setattr(cs.Trajectory, "state_at", counted)
    cs.pointwise_R_history(r0, tg, sep)
    assert len(points) <= 4
    assert sum(n for n, _ in points) <= 7 + 2 * 7 * tg.size + tg.size
    assert points[-1] == (tg.size, None)
    assert all(row == 1 for _, row in points[:-1])


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
    assert reports[0].n_grid == ds[1].certificate_points == 12175
    # a copy builds its own, and gets the same answers from it
    other = replace(traj)
    assert cs.find_crossings(other, -0.01).crossings == reports[0].crossings
    again = cs.pointwise_R_history(other.r_at_F(-5.0), [0.0, 1.0], other)
    assert np.array_equal(again.r_of_t, hists[1].r_of_t)
    assert built == ["_SStar", "_flow_time"] * 2
    # the memo does not keep its orbit alive
    assert len(traj._memo) == 2
    for value in traj._memo.values():
        assert not _reaches(value, traj)
    assert _reaches([traj.state_at], traj)      # a bound method would be caught
