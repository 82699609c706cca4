import math

import numpy as np
import pytest

import cuspsoliton as cs

SQRT5 = math.sqrt(5.0)


def test_isoclines_meet_at_critical_point():
    for kind in ("vertical", "horizontal", "oblique"):
        assert cs.isocline_F(kind, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_isocline_values():
    assert cs.isocline_F("oblique", 1.0) == pytest.approx(3.0, abs=1e-15)
    assert cs.isocline_F("vertical", 1.0) == pytest.approx(1.5, abs=1e-15)


def test_isocline_rejects_H_zero_and_bad_kind():
    with pytest.raises(ValueError):
        cs.isocline_F("vertical", 0.0)
    with pytest.raises(ValueError):
        cs.isocline_F("diagonal", 0.3)


def test_isocline_slopes_at_saddle():
    slopes = cs.isocline_slopes_at_saddle()
    assert slopes == {"vertical": 4.0, "horizontal": 2.0, "oblique": 8.0}


def test_oblique_margin_values():
    assert cs.oblique_barrier_margin(0.5) == pytest.approx(0.0, abs=1e-15)
    assert cs.oblique_barrier_margin(0.25) == pytest.approx(6.375, abs=1e-12)
    H = np.linspace(0.01, 0.49, 200)
    assert np.all(cs.oblique_barrier_margin(H) > 0)
    with pytest.raises(ValueError):
        cs.oblique_barrier_margin(0.0)


def test_shoot_slope_near_saddle(sep):
    # local slope F/(H - 1/2) should match the unstable eigendirection
    m = (np.abs(sep.F) > 1e-6) & (np.abs(sep.F) < 1e-5)
    slopes = sep.F[m] / (sep.H[m] - 0.5)
    assert np.abs(slopes - (3 + SQRT5)).max() < 1e-3


def test_separatrix_band_and_monotonicity(sep):
    assert np.all(sep.H > 0.0) and np.all(sep.H < 0.5)
    assert np.all(sep.F < 0.0)
    assert np.all(np.diff(sep.H) < 0)
    assert np.all(np.diff(sep.F) < 0)


def test_separatrix_derivative_signs(sep):
    dH = sep.H * sep.F - 2 * sep.H ** 2 + 0.5
    assert np.all(dH < 0)
    # F' stays in (-1/2, 0): the upper bound is direct, the lower bound is
    # equivalent to sigma < 0, which avoids the cancellation in 2HF-2H^2+1
    dF = 2 * sep.H * sep.F - 2 * sep.H ** 2 + 0.5
    assert np.all(dF < 0)
    assert np.all(sep.sigma < 0) and np.all(sep.sigma > -0.25)


def test_separatrix_hugs_vertical_isocline(sep):
    m = sep.H < 1e-3
    assert m.any()
    dH = sep.H[m] * sep.F[m] - 2 * sep.H[m] ** 2 + 0.5
    assert np.abs(dH).max() < 1e-4


def test_separatrix_never_crosses_vertical_isocline(sep):
    gap = cs.isocline_F("vertical", sep.H) - sep.F
    assert np.all(gap > 0)


def test_separatrix_calibration_anchor(sep):
    H0, F0 = (float(v) for v in sep.state_at(0.0)[:2])
    assert F0 == pytest.approx(-1.0, abs=1e-9)
    assert H0 == pytest.approx(0.332837502355, abs=1e-8)


def test_separatrix_range_covers_probes(sep):
    assert sep.r_lo < -30.0
    assert sep.r_hi >= 2000.0
    assert sep.meta["kind"] == "separatrix"


def test_shooting_stability_under_offset_halving(sep):
    half = cs.shoot_separatrix(cs.ShootConfig(
        offset=5e-9,
        controls=cs.IntegratorControls(r_min=-60.0, r_max=10.0, h_floor=1e-6)))
    H_a = float(sep.state_at(0.0)[0])
    H_b = float(half.state_at(0.0)[0])
    assert abs(H_a - H_b) < 1e-6


@pytest.mark.parametrize("ball", [0.0, -1e-9, 1e-8, 1e-7])
def test_shoot_config_requires_ball_inside_offset(ball):
    with pytest.raises(ValueError, match="saddle_ball"):
        cs.ShootConfig(offset=1e-8, saddle_ball=ball)


def test_shoot_config_rejects_f_ceiling():
    # the shot reads rel_tol, abs_tol, r_max and h_floor; a ceiling would be ignored
    with pytest.raises(ValueError, match="f_ceiling"):
        cs.ShootConfig(controls=cs.IntegratorControls(r_max=2000.0, f_ceiling=20.0))


def test_shot_with_a_small_ball_starts_its_tables_on_the_series():
    # the tables start where theta has shrunk by saddle_ball/offset below the
    # start, on the cusp series; a reverse-time leg into the saddle failed here
    cfg = cs.ShootConfig(offset=1e-7, saddle_ball=1e-7 / 300, controls=cs.IntegratorControls(
        rel_tol=1e-12, r_max=2000.0, h_floor=1e-6))
    traj = cs.shoot_separatrix(cfg)
    r_start = traj.legs[1].r_lo
    assert traj.r_lo == pytest.approx(
        r_start + math.log(cfg.saddle_ball / cfg.offset) / cs.EIGENVALUE_UNSTABLE, abs=1e-12)
    assert float(traj.state_at(0.0)[0]) == pytest.approx(0.332837502355, abs=1e-9)


def test_shoot_offset_past_the_series_reach_raises():
    # at offset 0.2 the start lies in the band, but the series' first
    # omitted term is 9e-13 of its first there
    with pytest.raises(cs.ShootError, match="truncated by 9.4e-13"):
        cs.shoot_separatrix(cs.ShootConfig(offset=0.2))


def test_shoot_offset_outside_band_raises():
    # an offset of 3 along S would start at H < 0, past the series' radius
    cfg = cs.ShootConfig(
        offset=3.0,
        controls=cs.IntegratorControls(r_min=-60.0, r_max=10.0, h_floor=1e-6))
    with pytest.raises(cs.ShootError):
        cs.shoot_separatrix(cfg)


def test_shoot_stops_on_h_floor():
    cfg = cs.ShootConfig(controls=cs.IntegratorControls(
        r_min=-60.0, r_max=5000.0, h_floor=1e-2))
    traj = cs.shoot_separatrix(cfg)
    assert traj.termination == "h_floor"
    assert traj.H[-1] == pytest.approx(1e-2, abs=1e-8)


def test_barrier_reports(sep):
    reports = cs.certify_barriers(sep)
    assert {b.curve_id for b in reports} == {
        "vertical_isocline", "horizontal_isocline", "oblique_isocline",
        "f_prime_zero", "sec_mixed_zero"}
    for b in reports:
        assert len(b.r) >= 10001
        assert b.verdict == "barrier"
        assert b.min_product > 0
        assert b.min_separation > 0


def test_germ_join_is_recorded_and_consistent(sep):
    assert sep.meta["germ_join_r"] == sep.legs[-1].r_lo
    assert sep.meta["germ_c"] == sep.legs[-1].c
    assert sep.meta["germ_join_mismatch_H"] <= 1e-10
    assert sep.meta["germ_join_mismatch_sigma"] <= 1e-10


def test_germ_leg_one_point_matches_the_array_pass(sep):
    germ = sep.legs[-1]
    rq = np.linspace(germ.r_lo, germ.r_hi, 2001)
    states = germ(rq)
    assert all(np.array_equal(germ(np.array(r)), states[:, i]) for i, r in enumerate(rq))


def test_germ_matches_an_independent_integration(sep):
    # DOP853 at a tighter tolerance from the orbit's state (H, F, sigma)
    # at r = 25, compared with the germ leg at its own accepted steps
    ref = cs.integrate(tuple(sep.state_at(25.0)), 25.0, cs.IntegratorControls(
        rel_tol=1e-12, abs_tol=1e-14, r_max=100.0))
    H, F, sigma = sep.legs[-1](ref.r)
    assert np.abs(H / ref.H - 1.0).max() < 1e-10
    assert np.abs(F / ref.F - 1.0).max() < 1e-10
    assert np.abs(sigma / ref.sigma - 1.0).max() < 1e-9


def test_short_shot_has_no_germ_leg():
    traj = cs.shoot_separatrix(cs.ShootConfig(controls=cs.IntegratorControls(
        r_min=-60.0, r_max=20.0, h_floor=1e-6)))
    assert len(traj.legs) == 2 and "germ_c" not in traj.meta
    assert traj.r_hi == pytest.approx(20.0, abs=1e-12)
