"""The shot orbit against two routes that do not share its stepper.

``scipy_shot`` is scipy's ``solve_ivp`` shot, in r; ``graph_orbit`` is S as
the graph F = phi(H), free of r and of the calibration (see conftest.py).
"""

import numpy as np
import pytest

import cuspsoliton as cs
from cuspsoliton.cli import RunConfig
from cuspsoliton.separatrix import _separation


def _sstar(H, F):
    # s* = A/|B| with sigma = -(H' + H^2) from the state; no cancellation
    # to speak of on the graph's range H >= 0.02
    sigma = -(H * F - H * H + 0.5)
    return (2.0 * H * F + 1.0 - H * H) / (-2.0 * F * F * sigma)


def _sstar_slope(H, F):
    # the sign of ds*/dH along the graph: A' B - A B' with F' = dF/dH = F'/H'
    c = -2.0 * H * H + 0.5
    p = (2.0 * H * F + c) / (H * F + c)
    sigma, dsigma = -(H * F - H * H + 0.5), -(F + H * p - 2.0 * H)
    A, dA = 2.0 * H * F + 1.0 - H * H, 2.0 * F + 2.0 * H * p - 2.0 * H
    B, dB = 2.0 * F * F * sigma, 4.0 * F * p * sigma + 2.0 * F * F * dsigma
    return dA * B - A * dB


def _roots(f, lo, hi, n=20001):
    # every sign change of f on a grid of [lo, hi], refined by brentq
    from scipy.optimize import brentq
    H = np.linspace(lo, hi, n)
    v = f(H)
    idx = np.nonzero(np.sign(v[:-1]) != np.sign(v[1:]))[0]
    return [brentq(lambda h: float(f(np.array([h]))[0]), H[i], H[i + 1], xtol=1e-16)
            for i in idx]


def test_orbit_matches_the_scipy_route(sep, scipy_shot):
    # the same shot through solve_ivp at tolerances far below the default
    # (measured: H 1.4e-12, F 1.8e-12, sigma 1.2e-12)
    r = np.concatenate([np.linspace(-30.0, 25.0, 11001), sep.r[(sep.r >= -30.0) & (sep.r <= 25.0)]])
    assert np.abs(sep.state_at(r) - scipy_shot(r)).max(axis=1) == pytest.approx(0.0, abs=1e-11)


def test_crossing_threshold_against_the_graph(sep, graph_orbit):
    # t* = min s* - 1 and the H of r_min, from the root of ds*/dH on the
    # graph (measured: |dt*| 3.4e-12, |dH| 3.6e-12)
    sstar = lambda H: _sstar(H, graph_orbit(H))
    (H_min,) = _roots(lambda H: _sstar_slope(H, graph_orbit(H)), 0.05, 0.45)
    scan = cs.scan_delta_threshold(sep)
    t_star = float(sstar(np.array([H_min]))[0]) - 1.0
    assert scan.crossing_threshold == pytest.approx(t_star, abs=1e-9)
    assert t_star == pytest.approx(-0.0369922000675, abs=1e-12)
    assert float(sep.state_at(scan.crossing_r)[0]) == pytest.approx(H_min, abs=1e-9)


def test_default_crossings_against_the_graph(sep, graph_orbit):
    # at the CLI's default t the crossings are the roots of s*(H) = t + 1 on
    # the graph, and lie on it (measured: |dH| 3.2e-12, |F - phi(H)| 9.7e-14)
    for t in RunConfig().t_values:
        roots = _roots(lambda H: _sstar(H, graph_orbit(H)) - (t + 1.0), 0.02, 0.5 - 1e-9)
        rep = cs.find_crossings(sep, t)
        assert rep.count == len(roots), t
        for (_, H, F), H_o in zip(sorted(rep.crossings, key=lambda c: -c[1]), roots[::-1]):
            assert H == pytest.approx(H_o, abs=1e-10), t
            assert F == pytest.approx(float(graph_orbit(np.array([H]))[0]), abs=1e-9), t


def test_barrier_separations_against_the_graph(sep, graph_orbit):
    # the four isoclines come closest at the saddle end (r_lo, H = 1/2 -
    # 1.9e-10), on the cusp series (1.2e-16 from the graph's separation);
    # sec_mixed_zero comes closest at r_hi on the germ, past
    # the graph, so it is checked at every scan point on the graph's range
    reports = cs.certify_barriers(sep)
    H, F, sigma = sep.state_at(reports[0].r)
    phi = graph_orbit(np.clip(H, 0.02, None))
    on_graph = H >= 0.02
    for b in reports:
        ours = _separation(b.curve_id, H, F, sigma)
        if b.curve_id == "sec_mixed_zero":
            graph = -(-(H * phi - H * H + 0.5)) / H
            assert np.abs(ours / graph - 1.0)[on_graph].max() < 1e-7      # 1.4e-9 measured
            assert b.min_separation == ours.min() == ours[-1]
            continue
        i = int(np.argmin(ours))
        assert b.min_separation == ours[i] and H[i] > 0.02
        graph = _separation(b.curve_id, H[i:i + 1], phi[i:i + 1], None)[0]
        assert b.min_separation == pytest.approx(graph, abs=2e-12), b.curve_id
