"""Seeded inputs, operations and correctness checks of the three workloads.

Each workload is driven from outside through the package's public
functions, one operation at a time (a closed loop with one client).  The
inputs come from ``random.Random(seed)``; parameters drawn from a range are
Latin-hypercube stratified in blocks of ``BLOCK`` operations, so every run
covers each range evenly and the per-run medians do not depend on which
corner of the range a seed happens to favour.

Checks are written here, against the paper's claims at the tolerances of
the acceptance suite, and do not reuse the package's own verdict logic
beyond reading the values it reports.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

import cuspsoliton as cs
from cuspsoliton import cli

#: first crossing time of {C_t = 0} with the orbit, from the closed form
#: min_r A/|B| - 1 (independent of the scan that ``find_crossings`` does)
T_STAR = -0.036992

#: flow-time grid of the pointwise R(t) histories (the CLI's default)
HISTORY_T = np.geomspace(0.02, 201.0, 240) - 1.0

BLOCK = 16


class CheckFailed(Exception):
    """An operation returned, but its output contradicts the paper."""


def _stratified(rng: random.Random, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of [0, 1), shuffled."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _blocks(seed: int, draw):
    """Yield inputs forever; ``draw(rng)`` yields one block of them."""
    rng = random.Random(seed)
    while True:
        yield from draw(rng)


class Reproduce:
    """``cuspsoliton all`` at the default configuration, into a fresh directory."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def inputs(self):
        k = 0
        while True:
            yield self.scratch / f"reproduce-{self.seed}-{k}"
            k += 1

    def run(self, out: Path):
        status = cli.main(["all", "--out", str(out), "--quiet"])
        if status != cli.EXIT_OK:
            raise RuntimeError(f"cuspsoliton all exited with status {status}")

    def check(self, out: Path, result) -> dict:
        try:
            blow = json.loads((out / "blowup.json").read_text())
            bars = json.loads((out / "barriers.json").read_text())
            lo, hi = json.loads((out / "delta.json").read_text())["crossing_bracket"]
            orders = (blow["generic"]["contact_order"], blow["t0"]["contact_order"])
            files = [p for p in out.iterdir() if p.is_file()]
            written = sum(p.stat().st_size for p in files)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"unreadable output: {exc!r}") from exc
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if orders != (5, 9):
            raise CheckFailed(f"contact orders {orders}, expected (5, 9)")
        if len(bars) != 5 or any(b["verdict"] != "barrier" for b in bars):
            raise CheckFailed("expected five barrier certificates")
        if not -0.7 < lo < hi < 0.0:
            raise CheckFailed(f"crossing bracket ({lo}, {hi}) not in (-0.7, 0)")
        return {
            "evolution.threshold_offset": max(lo - T_STAR, T_STAR - hi, 0.0),
            "cli.files_written": len(files),
            "cli.bytes_written": written,
        }


class OrbitSweep:
    """One convergence-study point: a seeded shot plus its geometry and barriers.

    Draws with ``saddle_ball`` below about ``offset/50`` to ``offset/100``
    make the backward leg raise ``IntegrationError``.  They stay in the
    sample and count as failed operations, so a fix shows as fewer failures.
    """

    REL_TOLS = (1e-9, 1e-10, 1e-11, 1e-12)

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def inputs(self):
        def draw(rng):
            cols = [_stratified(rng, BLOCK) for _ in range(3)]
            tols = [self.REL_TOLS[i % len(self.REL_TOLS)] for i in range(BLOCK)]
            rng.shuffle(tols)
            for u_off, u_ball, u_rmax, rel_tol in zip(*cols, tols):
                offset = _log_uniform(u_off, 1e-9, 1e-7)
                yield cs.ShootConfig(
                    offset=offset,
                    saddle_ball=offset * _log_uniform(u_ball, 1 / 300, 1 / 3),
                    controls=cs.IntegratorControls(
                        rel_tol=rel_tol, abs_tol=rel_tol / 100, r_min=-60.0,
                        r_max=_log_uniform(u_rmax, 600.0, 6000.0), h_floor=1e-6))
        return _blocks(self.seed, draw)

    def run(self, cfg):
        traj = cs.shoot_separatrix(cfg)
        profile = cs.reconstruct_profiles(traj)
        table = cs.curvatures(traj)
        residuals = cs.soliton_residuals(traj, profile)
        cs.check_asymptotics(traj, profile, -30.0, 500.0)
        barriers = cs.certify_barriers(traj)
        return traj, table, residuals, barriers

    def check(self, cfg, result) -> dict:
        traj, table, residuals, barriers = result
        for name in ("sec_xy", "sec_rx"):
            sec = getattr(table, name)
            if not (np.all(sec > -0.25) and np.all(sec < 0.0)):
                raise CheckFailed(f"{name} leaves (-1/4, 0): pinching fails")
        if len(barriers) != 5 or not all(b.verdict == "barrier" for b in barriers):
            raise CheckFailed("expected five barrier certificates")
        m = (traj.r >= -30.0) & (traj.r <= 100.0)
        if m.sum() <= 100:
            raise CheckFailed("too few samples on [-30, 100] to check Q drift")
        drift = float(np.abs(residuals.q_drift[m]).max())
        if drift > 1e-8:
            raise CheckFailed(f"Q drift {drift:.2e} > 1e-8 on [-30, 100]")
        return {}


class FlowQueries:
    """Crossing, Psi and R(t) queries against one pre-computed default orbit."""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.traj = cs.shoot_separatrix()

    def inputs(self):
        def draw(rng):
            for u_t, u_f in zip(_stratified(rng, BLOCK), _stratified(rng, BLOCK)):
                yield (_log_uniform(u_t, 0.02, 201.0) - 1.0,
                       -_log_uniform(u_f, 0.5, 30.0))
        return _blocks(self.seed, draw)

    def run(self, query):
        t, f_anchor = query
        crossings = cs.find_crossings(self.traj, t)
        cs.scan_psi(t)
        history = cs.pointwise_R_history(self.traj.r_at_F(f_anchor), HISTORY_T,
                                         self.traj)
        return crossings, history

    def check(self, query, result) -> dict:
        t, f_anchor = query
        crossings, history = result
        if t < T_STAR and crossings.count != 0:
            raise CheckFailed(f"{crossings.count} crossings at t={t} < t*")
        if t > T_STAR and crossings.count < 1:
            raise CheckFailed(f"no crossing at t={t} > t*")
        if not np.all(history.R < 0.0):
            raise CheckFailed(f"R >= 0 along the history from F={f_anchor}")
        return {}


WORKLOADS = {
    "reproduce": Reproduce,
    "orbit_sweep": OrbitSweep,
    "flow_queries": FlowQueries,
}
