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


def test_tables_of_one_orbit_share_their_chebyshev_rows(sep, monkeypatch):
    # h and the cusp deviation read row 0, f and the flow time row 1 of one
    # whole-state evaluation at the Chebyshev points, made once per orbit,
    # and a table built from the shared states is the table built alone
    from dataclasses import replace
    from cuspsoliton.geometry import _Cumulative
    alone = _Cumulative(replace(sep), 1, lambda F: 1.0 / F, from_hi=True).cum
    traj = replace(sep)
    calls = []
    state_at = type(traj).state_at
    monkeypatch.setattr(type(traj), "state_at", lambda self, r: (
        calls.append(np.size(r)) or state_at(self, r)))
    for row, shift in ((0, 0.0), (1, 0.0), (0, -0.5)):
        _Cumulative(traj, row, shift=shift)
    shared = _Cumulative(traj, 1, lambda F: 1.0 / F, from_hi=True).cum
    assert calls == [12 * (len(traj.r) - 1)]
    assert np.array_equal(shared, alone)


def test_antiderivative_matrix_integrates_polynomials_exactly():
    # the matrix takes v^k at its 12 points to the coefficients of
    # (v^(k+1) - (-1)^(k+1))/(k+1), k = 0 ... 11, to the rounding of its
    # entries, which reach 70: each is exact on the float points and
    # rounded once (measured 1.4e-14; entries built in floats read 4.7e-14)
    from cuspsoliton.geometry import _antiderivative_matrix
    v, matrix = _antiderivative_matrix()
    assert matrix.shape == (13, 12)
    for k in range(12):
        exact = np.zeros(13)
        exact[-k - 2], exact[-1] = 1.0 / (k + 1), (-1.0) ** k / (k + 1)
        assert np.max(np.abs(matrix @ v ** k - exact)) <= 3e-14, k


def test_tables_match_the_gauss_route(sep, short_orbit, gauss6):
    # each table's interval integrals against the six-point Gauss rule on
    # three orbits: H, F and 1/F within 1e-13 relative (measured 1.2e-15);
    # H - 1/2 within 1e-15 of the interval's width (measured 1.8e-16), as
    # its relative gap, 2.6e-8, is the cancellation in H - 1/2 that both
    # routes share.  h, f and the cusp deviation from the first node, at
    # random r, within 1e-14 of max(|integral|, 1) (measured 6.9e-16); the
    # flow time's partial integrals are checked with the history
    from cuspsoliton.geometry import _Cumulative
    rng = np.random.default_rng(31)
    loose = cs.shoot_separatrix(cs.ShootConfig(controls=cs.IntegratorControls(rel_tol=1e-7)))
    H, F = (lambda s: s[0]), (lambda s: s[1])
    dev = lambda s: s[0] - 0.5
    for name, traj in {"default": sep, "rel_tol 1e-7": loose, "r_max 10": short_orbit}.items():
        r = traj.r
        tables = [(_Cumulative(traj, 0), H), (_Cumulative(traj, 1), F),
                  (_Cumulative(traj, 1, lambda F: 1.0 / F, from_hi=True), lambda s: 1.0 / s[1]),
                  (_Cumulative(traj, 0, shift=-0.5), dev)]
        for table, fn in tables:
            gap = table.steps - gauss6(traj.state_at, fn, r[:-1], r[1:])
            if fn is dev:
                assert np.all(np.abs(gap) <= 1e-15 * np.diff(r)), name
            else:
                assert np.all(np.abs(gap) <= 1e-13 * np.abs(table.steps)), name
        rq = np.concatenate([r[[0, 1, -2, -1]], rng.uniform(traj.r_lo, traj.r_hi, 2000)])
        i = np.clip(np.searchsorted(r, rq) - 1, 0, r.size - 2)     # nodes pick the interval below
        for table, fn in tables[:2] + tables[3:]:
            ref = table.cum[i] + gauss6(traj.state_at, fn, r[i], rq)
            value = table(rq)
            assert np.all(np.abs(value - ref) <= 1e-14 * np.maximum(np.abs(ref), 1.0)), name
            for j in [1, 2, *range(4, rq.size, 97)]:
                assert table(rq[j].item()) == value[j]


def test_profile_queries_keep_the_range_rule_of_state_at(sep, profile):
    # h_at and f_at read their tables under state_at's rule: a NaN or an r
    # more than 1e-9 outside [r_lo, r_hi] raises, naming the query; within
    # that slack the end pieces extend; empty in is empty out, and one
    # point is the array pass bit for bit
    import re
    inside = np.array([sep.r_lo - 5e-10, sep.r_hi + 5e-10, -30.0, 0.0])
    for at in (profile.h_at, profile.f_at):
        for bad in (sep.r_lo - 1e-8, sep.r_hi + 1e-8, math.nan):
            with pytest.raises(cs.OrbitRangeError, match=re.escape(f"r range [{bad}, {bad}]")):
                at(bad)
            with pytest.raises(cs.OrbitRangeError):
                at(np.array([0.0, bad]))
        assert at(np.empty(0)).shape == (0,)
        values = at(inside)
        assert np.isfinite(values).all()
        assert [at(r) for r in inside.tolist()] == values.tolist()
    assert profile.h_at(inside[:2]) == pytest.approx(profile.h[[0, -1]], abs=1e-8)


def test_profile_monotone_h(profile):
    # H > 0 along the orbit, so h must be strictly increasing
    assert np.all(np.diff(profile.h) > 0)


def test_profile_anchors(sep, profile):
    assert profile.h_at(0.0) == pytest.approx(profile.h_anchor, abs=1e-12)
    # f approaches f0 from below at the cusp end
    assert profile.f[0] < profile.f0
    assert profile.f0 - profile.f[0] < 1e-8


def test_cusp_tails_integrate_the_series(sep, profile, gauss6):
    # f_tail is the integral of F below r_lo; Gauss-Legendre on 80 unit
    # steps of the cusp leg below r_lo leaves out e^{-80 lambda} of it
    a = sep.r_lo - np.arange(80.0, 0.0, -1.0)
    steps = gauss6(sep.legs[0], lambda s: s[1], a, a + 1.0)
    assert profile.f_tail == pytest.approx(steps.sum(), rel=1e-13)
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
    # with the tails from the series f_dev/h_dev meets the eigenvector slope;
    # h_dev = -4.6e-9 at r = -30 is the tail and quadrature of H - 1/2, not
    # h - r/2 - c1, which would cancel to a few ulps of h (residual 5.5e-7
    # that way, 3.5e-9 measured this way, -1.3e-8 with a six-point Gauss
    # rule: H - 1/2, formed from H, keeps about 8 digits)
    cusp, _ = cs.check_asymptotics(sep, profile)
    assert abs(cusp.entry("f_dev_over_h_dev").residual) < 1e-6
    assert abs(cusp.entry("f_dev_over_h_dev").residual) < 1e-7
    # log_F_slope is F'/F at the probe; the cusp series gives it exactly as
    # lambda sum k p_k theta^k / sum p_k theta^k, with no 1/2 - 2H^2
    # cancellation (residual -3.95e-9, the next order of the law; the two
    # routes agree to 1.2e-10)
    leg = sep.legs[0]
    theta = leg.theta * math.exp(cs.EIGENVALUE_UNSTABLE * (-30.0 - leg.r_hi))
    p = leg.series[1][::-1]
    exact = cs.EIGENVALUE_UNSTABLE * (sum(k * c * theta ** (k - 1) for k, c in enumerate(p, 1))
                                      / sum(c * theta ** (k - 1) for k, c in enumerate(p, 1)))
    assert cusp.entry("log_F_slope").measured == pytest.approx(exact, abs=1e-9)
    assert exact - cs.EIGENVALUE_UNSTABLE == pytest.approx(-3.95e-9, abs=1e-10)


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

