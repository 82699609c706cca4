import math

import numpy as np
import pytest

import cuspsoliton as cs

SQRT5 = math.sqrt(5.0)


def test_stationary_orbit_gives_hyperbolic_profiles():
    traj = cs.integrate((0.5, 0.0), 0.0, cs.IntegratorControls(r_max=10.0))
    prof = cs.reconstruct_profiles(traj, h_anchor=0.3, f0=-1.2)
    # h(r) = h_anchor + r/2, f constant
    assert prof.h_at(6.0) == pytest.approx(0.3 + 3.0, abs=1e-12)
    assert np.abs(prof.f - (-1.2)).max() < 1e-12
    assert prof.cusp_h_offset is None


def test_quadrature_consistency_under_tolerance_halving(sep):
    prof = cs.reconstruct_profiles(sep)
    fine = cs.shoot_separatrix(cs.ShootConfig(controls=cs.IntegratorControls(
        rel_tol=5e-11, abs_tol=5e-13, r_min=-60.0, r_max=120.0, h_floor=1e-6)))
    prof_f = cs.reconstruct_profiles(fine)
    a = float(prof.h_at(0.0) - prof.h_at(-30.0))
    b = float(prof_f.h_at(0.0) - prof_f.h_at(-30.0))
    assert abs(a - b) < 1e-8


def test_cumulative_value_at_matches_per_point_loop(sep):
    # reference: each query point through its own state_at call and a 1-D
    # dot; one point at a time is bit-identical, a batch differs only in the
    # summation order of the batched product
    from cuspsoliton.geometry import _GL_NODES, _GL_WEIGHTS, _Cumulative

    def loop(cum, comp, rq):
        idx = np.clip(np.searchsorted(cum.nodes, rq) - 1, 0, len(cum.nodes) - 2)
        out = []
        for i, rv in zip(idx, rq):
            half = 0.5 * (rv - cum.nodes[i])
            vals = sep.state_at(cum.nodes[i] + half + half * _GL_NODES)[comp]
            out.append(cum.cum[i] + half * float(vals @ _GL_WEIGHTS))
        return np.array(out)

    rq = np.concatenate([[0.0, -30.0, sep.r_lo, sep.r_hi],
                         np.random.default_rng(5).uniform(sep.r_lo, sep.r_hi, 200)])
    for comp in (0, 1):
        cum = _Cumulative(sep, comp)
        ref = loop(cum, comp, rq)
        assert [cum.value_at(sep, r) for r in rq[:4]] == ref[:4].tolist()
        assert np.allclose(cum.value_at(sep, rq), ref, rtol=4e-16, atol=0.0)


def test_profile_monotone_h(profile):
    # H > 0 along the orbit, so h must be strictly increasing
    assert np.all(np.diff(profile.h) > 0)


def test_profile_anchors(sep, profile):
    assert profile.h_at(0.0) == pytest.approx(profile.h_anchor, abs=1e-12)
    # f approaches f0 from below at the cusp end
    assert profile.f[0] < profile.f0
    assert profile.f0 - profile.f[0] < 1e-8


def test_cusp_tails_integrate_the_series(sep, profile):
    # f_tail is the integral of F below r_lo; Gauss-Legendre on 80 unit
    # steps of the cusp leg below r_lo leaves out e^{-80 lambda} of it
    from cuspsoliton.geometry import _GL_NODES, _GL_WEIGHTS
    pts = (sep.r_lo - np.arange(79.5, 0.0, -1.0))[:, None] + 0.5 * _GL_NODES
    F = sep.legs[0](pts.ravel())[1].reshape(pts.shape)
    assert profile.f_tail == pytest.approx(0.5 * (F @ _GL_WEIGHTS).sum(), rel=1e-13)
    assert profile.f_tail == pytest.approx(float(sep.F[0]) / cs.EIGENVALUE_UNSTABLE, rel=1e-8)


def test_curvatures_at_saddle_end(sep, curvature_table):
    ct = curvature_table
    assert ct.sec_xy[0] == pytest.approx(-0.25, abs=1e-9)
    assert ct.sec_rx[0] == pytest.approx(-0.25, abs=1e-9)
    assert ct.scalar[0] == pytest.approx(-1.5, abs=1e-8)


def test_curvatures_vanish_at_flat_end(curvature_table):
    ct = curvature_table
    for col in (ct.sec_xy, ct.sec_rx, ct.scalar, ct.ric_rr, ct.ric_tangential):
        assert abs(col[-1]) < 1e-6


def test_pinching_strict(curvature_table):
    ct = curvature_table
    assert np.all(ct.sec_xy > -0.25) and np.all(ct.sec_xy < 0.0)
    assert np.all(ct.sec_rx > -0.25) and np.all(ct.sec_rx < 0.0)


def test_pinching_monotone_approach(sep, curvature_table):
    # sec_xy runs monotonically from -1/4 (cusp end) to 0 (flat end)
    assert np.all(np.diff(curvature_table.sec_xy) > 0)


def test_sec_rx_two_formulas_agree(sep):
    H, F = sep.H, sep.F
    dH = H * F - 2 * H ** 2 + 0.5
    dF = 2 * H * F - 2 * H ** 2 + 0.5
    a = -(H ** 2 + dH)
    b = -(dF + 0.5) / 2.0
    assert np.abs(a - b).max() < 1e-10
    # the transported state agrees with the direct formula where the
    # latter is above its cancellation floor
    m = np.abs(sep.sigma) > 1e-7
    assert np.abs(sep.sigma[m] - a[m]).max() < 1e-10


def test_identity_residuals(sep, profile):
    res = cs.soliton_residuals(sep, profile)
    assert np.abs(res.identity_scalar).max() < 1e-10
    assert np.abs(res.identity_gradient).max() < 1e-8


def test_conserved_quantity_drift(sep, profile):
    res = cs.soliton_residuals(sep, profile)
    m = (sep.r >= -30.0) & (sep.r <= 100.0)
    assert np.abs(res.q_drift[m]).max() < 1e-8
    # the reference value is f0 - 3/2 up to the tail estimate
    assert res.q_reference == pytest.approx(profile.f0 - 1.5, abs=1e-8)


def test_conserved_quantity_on_random_orbits():
    # generic orbits can reach the asymptote in finite r, so cap |F|
    rng = np.random.default_rng(11)
    for _ in range(3):
        start = (rng.uniform(0.05, 0.45), rng.uniform(-2.0, -0.1))
        traj = cs.integrate(start, 0.0, cs.IntegratorControls(
            rel_tol=1e-11, abs_tol=1e-13, r_max=8.0, f_ceiling=30.0))
        prof = cs.reconstruct_profiles(traj)
        res = cs.soliton_residuals(traj, prof)
        assert np.abs(res.q_drift).max() < 1e-8


def test_cusp_asymptotics(sep, profile):
    cusp, _ = cs.check_asymptotics(sep, profile)
    ratio = cusp.entry("f_dev_over_h_dev")
    assert ratio.measured == pytest.approx(3 + SQRT5, rel=1e-2)
    recip = cusp.entry("h_dev_over_f_dev")
    assert recip.measured == pytest.approx(1.0 / (3 + SQRT5), rel=1e-2)
    assert cusp.entry("log_F_slope").measured > 0.0
    assert cusp.entry("log_F_slope").measured == pytest.approx(
        (-1 + SQRT5) / 2, rel=1e-3)


def test_cusp_ratios_on_the_exact_tails(sep, profile):
    # with the tails from the series f_dev/h_dev meets the eigenvector slope
    # up to the rounding of h (about 1e-15 against h_dev = 4e-9 at r = -30);
    # log_F_slope's -4.5e-5 residual is the next order of the law on the
    # nodes of [-30, -10], not an error: the series itself fits the same
    cusp, _ = cs.check_asymptotics(sep, profile)
    assert abs(cusp.entry("f_dev_over_h_dev").residual) < 1e-6
    m = (sep.r >= -30.0) & (sep.r <= -10.0)
    exact = np.polyfit(sep.r[m], np.log(-sep.legs[0](sep.r[m])[1]), 1)[0]
    assert cusp.entry("log_F_slope").measured == pytest.approx(exact, abs=1e-6)
    assert exact - cs.EIGENVALUE_UNSTABLE == pytest.approx(-4.5e-5, abs=1e-6)


def test_flat_asymptotics(sep, profile):
    _, flat = cs.check_asymptotics(sep, profile)
    assert flat.entry("HF").measured == pytest.approx(-0.5, abs=1e-3)
    assert flat.entry("F_prime").measured == pytest.approx(-0.5, abs=1e-3)
    assert flat.entry("H_times_r").measured == pytest.approx(1.0, abs=0.02)
    assert flat.entry("H_over_F").measured == pytest.approx(0.0, abs=1e-3)
    assert flat.entry("f_over_neg_quarter_r2").measured == pytest.approx(1.0, rel=0.02)
    # no rate is asserted for h/ln r; just record that it is sane
    assert 0.5 < flat.entry("h_over_log_r").measured < 1.5


def test_exponential_decay_at_cusp_end(sep):
    # log|F| against r over [-30, -10] must have positive slope
    m = (sep.r >= -30.0) & (sep.r <= -10.0)
    slope = np.polyfit(sep.r[m], np.log(-sep.F[m]), 1)[0]
    assert slope > 0


def test_insufficient_range_flagged(sep, profile):
    _, flat = cs.check_asymptotics(sep, profile, r_flat=1e6)
    bad = [e for e in flat.entries if not e.ok]
    assert bad and all(e.note == "insufficient range" for e in bad)


def test_reconstruct_rejects_non_monotone(sep):
    class Fake:
        r = np.array([0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        cs.reconstruct_profiles(Fake())

