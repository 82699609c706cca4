import functools
import math
from fractions import Fraction

import numpy as np
import pytest

import cuspsoliton as cs
from cuspsoliton.blowup import BASE_P, BASE_Q, CURVE_XY
from cuspsoliton.phase_core import _CuspLeg, _GermLeg, _Leg, _rhs

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
    # a NaN tolerance makes the first step NaN: the guard stops, not retries
    from cuspsoliton._numerics import Dop853
    from cuspsoliton.phase_core import _start
    run = Dop853(_rhs, 0.0, _start(0.3, -0.4), 1.0, math.nan, (1e-12, 1e-12, 1e-21))
    with pytest.raises(cs.IntegrationError, match="step size .* at t = 0.0"):
        run.step()


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
    # Brent's method on the DOP853 legs, the germ's closed form past r = 25
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


@functools.cache
def _scipy_solution(leg):
    # scipy's OdeSolution over the leg's stored pieces, at r + shift: for a
    # backward leg (sign -1, shift 0) a descending one at r, its pieces'
    # t_old and h negated.  Dop853DenseOutput evaluates from t_old, h, F and
    # y_old alone, so h is set as stored
    from scipy.integrate import OdeSolution
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    s, t_old, pieces = leg.sign, leg.ts[:-1], []
    for i in range(leg.h.size):
        d = Dop853DenseOutput(s * t_old[i], s * (t_old[i] + leg.h[i]), leg.y_old[:, i],
                              leg.F[:, :, i])
        d.h = s * leg.h[i]
        pieces.append(d)
    return OdeSolution(s * leg.ts, pieces)


def _state_via_scipy(traj, r):
    # reference: each point through scipy's OdeSolution of its leg, the first
    # leg with r <= its r_hi or else the last, as Trajectory.state_at picks;
    # one point goes through scipy's own one-point path
    if np.ndim(r) == 0:
        leg = next((leg for leg in traj.legs[:-1] if r <= leg.r_hi), traj.legs[-1])
        return _scipy_solution(leg)(r + leg.shift)
    rq = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty((3, rq.size))
    done = np.zeros(rq.size, dtype=bool)
    for leg in traj.legs:
        m = ~done & ((rq <= leg.r_hi) | (leg is traj.legs[-1]))
        if m.any():
            out[:, m] = _scipy_solution(leg)(rq[m] + leg.shift)
            done |= m
    return out


def _one_at_a_time(traj, rq, dop_lo, dop_hi):
    # each point alone through state_at's Python-float path: equal to the
    # array pass everywhere, and to scipy's one-point path on (dop_lo, dop_hi]
    one = np.stack([traj.state_at(float(r)) for r in rq], axis=1)
    assert np.array_equal(one, traj.state_at(rq))
    for r, y in zip(rq, one.T):
        if dop_lo < r <= dop_hi:
            assert np.array_equal(y, _state_via_scipy(traj, float(r))), r


def test_state_at_is_bit_identical_to_scipy(sep):
    # the DOP853 leg is evaluated by the gathered pass, bit-identical to
    # scipy's OdeSolution built from the same pieces; the series legs at
    # either end have no pieces, so the check stops at both joins
    assert [type(leg) for leg in sep.legs] == [_CuspLeg, _Leg, _GermLeg]
    lo, hi = sep.legs[1].r_lo, sep.legs[1].r_hi
    ends = np.array([v for leg in sep.legs for v in (leg.r_lo, leg.r_hi)])
    joins = np.clip(np.concatenate([np.nextafter(ends, -np.inf), ends,
                                    np.nextafter(ends, np.inf)]), sep.r_lo, sep.r_hi)
    beyond = np.array([sep.r_lo - 5e-10, sep.r_hi + 5e-10])
    rng = np.random.default_rng(1211)
    for rq in (sep.dense_grid(400001), rng.uniform(sep.r_lo, sep.r_hi, 200000), sep.r, joins):
        rq = rq[(rq > lo) & (rq <= hi)]
        assert rq.size
        assert np.array_equal(sep.state_at(rq), _state_via_scipy(sep, rq))
    assert np.array_equal(sep.state_at(2.903), _state_via_scipy(sep, 2.903))
    _one_at_a_time(sep, np.concatenate([sep.r, joins, beyond,
                                        rng.uniform(sep.r_lo, sep.r_hi, 2000)]), lo, hi)
    # a backward run steps the reversed field in t = -r; its pieces, reversed,
    # are a descending scipy solution in r.  Past its ends the one leg's end
    # pieces extrapolate, as scipy's do
    back = cs.integrate((0.3, -0.5), 0.0, cs.IntegratorControls(r_min=-3.0),
                        direction="backward")
    assert not _scipy_solution(back.legs[0]).ascending
    rq = np.concatenate([back.dense_grid(10001), back.r,
                         rng.uniform(back.r_lo, back.r_hi, 1000),
                         [back.r_lo - 5e-10, back.r_hi + 5e-10]])
    assert np.array_equal(back.state_at(rq), _state_via_scipy(back, rq))
    _one_at_a_time(back, rq, -np.inf, np.inf)


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
        monkeypatch.setattr(leg_type, "__call__", lambda leg, r, row=None, orig=orig:
                            calls.append((id(leg), row)) or orig(leg, r, row))
    return calls


def test_state_at_calls_each_leg_once_per_array(sep, monkeypatch):
    # an array within one leg is one call of that leg on the whole array; an
    # array straddling a join is split by leg.  Either way the states equal
    # the per-leg reference and the one-point path, bit for bit, and the
    # result is the caller's own array
    calls = _count_leg_calls(monkeypatch)
    for kind, rq in _leg_cases(sep):
        calls.clear()
        got = sep.state_at(rq)
        called = [leg for leg, _ in calls]
        ref, n_legs = _per_leg(sep, rq)
        assert len(called) == len(set(called)) == n_legs, rq
        assert (n_legs == 1) == (kind == "inside"), rq
        assert np.array_equal(got, ref), rq
        assert np.array_equal(got, np.stack([sep.state_at(float(r)) for r in rq], axis=1)), rq
        got[:] = 0.0
        assert np.array_equal(sep.state_at(rq), ref), rq


def test_state_at_row_is_that_row_of_the_full_evaluation(sep, monkeypatch):
    # a selected row takes the same dispatch (one call per leg it touches,
    # with that row) and equals the same row of the full evaluation bit for
    # bit, for arrays and one at a time; each row is the caller's own array
    calls = _count_leg_calls(monkeypatch)
    back = cs.integrate((0.3, -0.5), 0.0, cs.IntegratorControls(r_min=-3.0),
                        direction="backward")
    cases = _leg_cases(sep) + [(kind, np.array([v])) for kind, rq in _leg_cases(sep)
                               if kind == "across" and rq.size == 3 for v in rq]
    cases = [(sep, rq) for _, rq in cases] + [(back, back.dense_grid(1001))]
    for traj, rq in cases:
        full = traj.state_at(rq)
        for row in (0, 1, 2):
            calls.clear()
            got = traj.state_at(rq, row=row)
            assert got.shape == rq.shape and all(r == row for _, r in calls), rq
            assert len(calls) == len({leg for leg, _ in calls}), rq
            assert np.array_equal(got, full[row]), rq
            assert [traj.state_at(float(r), row=row) for r in rq] == full[row].tolist(), rq
            got[:] = 0.0
            assert np.array_equal(traj.state_at(rq, row=row), full[row]), rq
    assert sep.state_at(np.empty(0), row=1).shape == (0,)
    with pytest.raises(cs.OrbitRangeError, match="outside computed"):
        sep.state_at(np.array([0.0, np.nan]), row=1)


def test_F_alone_evaluates_no_other_row(sep, monkeypatch):
    # F alone on a stepped leg does not depend on the other rows'
    # coefficients (they may be NaN); on the cusp series it skips sigma's
    # _start, and on the germ it sums only the three fixed-point passes of
    # the r series, not H's or sigma's
    import dataclasses
    from cuspsoliton import phase_core
    cusp, step, germ = sep.legs
    rq = np.linspace(step.r_lo, step.r_hi, 1001)
    poisoned = dataclasses.replace(
        step, y_old=step.y_old * [[np.nan], [1.0], [np.nan]],
        F=step.F * np.array([np.nan, 1.0, np.nan])[:, None])
    assert np.array_equal(poisoned(rq, 1), step(rq)[1])
    assert [poisoned(float(r), 1) for r in rq[::50]] == step(rq[::50])[1].tolist()
    full = [(leg, leg(np.linspace(leg.r_lo, leg.r_hi, 101))) for leg in (cusp, germ)]
    horner = phase_core._horner
    sums = []
    monkeypatch.setattr(phase_core, "_start", None)
    monkeypatch.setattr(phase_core, "_horner", lambda c, x: sums.append(c) or horner(c, x))
    for leg, states in full:
        sums.clear()
        assert np.array_equal(leg(np.linspace(leg.r_lo, leg.r_hi, 101), 1), states[1])
        assert sums == ([leg.series[1]] if leg is cusp else [leg.series[2]] * 3)


@pytest.mark.parametrize("r", [[0.0, np.nan], np.nan, [np.inf], -np.inf, [0.0, -np.inf]])
def test_state_at_rejects_non_finite_r(sep, r):
    # a NaN or infinite r is outside the orbit on both paths; a NaN among
    # finite points must not move them to another leg
    with pytest.raises(cs.OrbitRangeError, match="outside computed"):
        sep.state_at(np.array(r) if isinstance(r, list) else r)


def test_dense_pieces_built_after_the_run_equal_the_on_demand_ones(monkeypatch):
    # dense_arrays builds every step's piece in one elementwise pass over
    # arrays; at, root and stop build the last step's in Python floats.
    # Both must be the same IEEE operations: bit-identical pieces, for the
    # shot's leg and a backward run, which steps the reversed field in t = -r
    from cuspsoliton import _numerics, phase_core, separatrix

    runs, built = [], {}

    class Recording(_numerics.Dop853):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

        def step(self):
            super().step()
            self.at(self.t)
            built[id(self._steps[-1])] = self._piece[1]

    monkeypatch.setattr(separatrix, "Dop853", Recording)
    monkeypatch.setattr(phase_core, "Dop853", Recording)
    shot = cs.shoot_separatrix()
    back = cs.integrate((0.3, -0.5), 0.0, cs.IntegratorControls(r_min=-3.0),
                        direction="backward")
    fwd, bwd = runs                     # the shot's one leg, the backward run
    assert len(fwd._steps) > 200 and (bwd._steps[0][0], bwd.t) == (0.0, 3.0)
    for run, leg in ((fwd, shot.legs[1]), (bwd, back.legs[0])):
        ts, h, y_old, F = run.dense_arrays()
        assert F.shape == (7, 3, len(run._steps)) and F.flags.c_contiguous
        assert np.array_equal(F, leg.F) and np.array_equal(y_old, leg.y_old)
        assert np.array_equal(ts, leg.ts)
        for i, step in enumerate(run._steps):
            assert (ts[i], h[i], *y_old[:, i]) == step[:5]
            assert np.array(built[id(step)]).tobytes() == F[:, :, i].tobytes()
    # the reversed pieces, as a descending scipy solution in r, give the states
    ref = _scipy_solution(back.legs[0])
    assert not ref.ascending and np.array_equal(ref(back.r), back.state_at(back.r))


def test_array_rhs_cubes_as_the_scalar_rhs():
    # sigma' = (F - H) sigma - H^3: numpy's power can differ from libm's pow
    # in the last bit, so the array pass cubes per element as Python does
    y = np.random.default_rng(853).uniform(-3.0, 3.0, (3, 200000))
    want = np.array([_rhs(0.0, v) for v in zip(*y.tolist())]).T
    assert np.array(_rhs(0.0, tuple(y))).tobytes() == want.tobytes()


def test_trajectories_compare_by_identity(sep):
    # array fields make field-wise equality ambiguous (numpy raises); a
    # trajectory equals only itself, and a copy starts with an empty memo
    from dataclasses import replace
    other = replace(sep)
    assert sep == sep and sep != other and not (other == sep)
    assert other._memo is not sep._memo and not other._memo


@pytest.mark.parametrize("start, kw, direction", [
    ((0.3, -0.4), dict(r_min=-5.0, r_max=8.0), "forward"),
    ((0.3, -0.5), dict(r_min=-3.0), "backward"),
    ((0.4, -1.0), dict(r_max=500.0, h_floor=0.05), "forward"),
])
def test_stepper_takes_scipys_steps(start, kw, direction):
    # the stepper has scipy's initial step, error norm and step control:
    # the same accepted steps, rejections and RHS evaluations as solve_ivp,
    # and step ends equal to rounding drift
    from scipy.integrate import solve_ivp

    def rhs(r, y):
        H, F, sig = y.tolist()
        return (*cs.vector_field((H, F)), (F - H) * sig - H ** 3)

    ctl = cs.IntegratorControls(**kw)
    ours = cs.integrate(start, 0.0, ctl, direction=direction)
    ev = None
    if ctl.h_floor is not None:
        ev = lambda r, y: y[0] - ctl.h_floor
        ev.terminal, ev.direction = True, -1
    H, F = start
    ref = solve_ivp(rhs, (0.0, ctl.r_max if direction == "forward" else ctl.r_min),
                    [H, F, -(cs.vector_field((H, F)).dH + H * H)], method="DOP853", dense_output=True,
                    rtol=ctl.rel_tol, atol=[ctl.abs_tol, ctl.abs_tol, 1e-21], events=ev)
    stats = ours.legs[0].stats
    assert stats["n_steps"] == ref.t.size - 1 and stats["nfev"] == ref.nfev
    assert np.abs(ours.legs[0].sign * ours.legs[0].ts - ref.t).max() < 1e-5


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
    assert cusp.r_hi == fwd.r_lo and np.array_equal(cusp(cusp.r_hi), fwd.y_old[:, 0])
    rq = np.linspace(cusp.r_lo, cusp.r_hi, 41)
    H, F, sigma = cusp(rq)
    th = cusp.theta * np.exp(cs.EIGENVALUE_UNSTABLE * (rq - cusp.r_hi))
    assert np.abs(F / (cs.SLOPE_UNSTABLE * th) - 1.0).max() < 1e-8
    assert np.abs(sigma + cs.vector_field((H, F)).dH + H * H).max() < 1e-16
    assert sep.meta["legs"][0] == dict(cusp.stats, r_lo=cusp.r_lo, r_hi=cusp.r_hi)
