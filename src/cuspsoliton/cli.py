"""Reproducible command-line runs.

Subcommands: separatrix | curvature | asymptotics | evolve | blowup | all.
Each run writes deterministic data files (CSV with fixed 17-significant-
digit scientific notation, JSON for structured reports, optional gnuplot
two-column variants) plus a manifest with content digests, per-stage
wall times, diagnostics and the exit status; a numeric failure still
writes it, with the error.  Identical configurations produce byte-identical
data files; wall time and other volatile facts live only in the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .phase_core import IntegratorControls, IntegrationError, OrbitRangeError
from .separatrix import ShootConfig, ShootError, isocline_F, shoot_separatrix, certify_barriers
from .geometry import reconstruct_profiles, curvatures, soliton_residuals, check_asymptotics
from .evolution import crossing_scan, scan_psi, scan_delta_threshold, pointwise_R_history
from .blowup import BlowupError, run_sequence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RANGE = 4

ENV_OUT = "CUSPSOLITON_OUT"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; every key has a default."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    shoot_offset: float = 1e-8
    saddle_ball: float = 1e-9
    r_max: float = 2000.0
    h_floor: float = 1e-6
    h_anchor: float = 0.0
    f0: float = 0.0
    barrier_samples: int = 20001
    psi_points: int = 1200
    y_floor: float = -1e3
    t_values: tuple = (-0.7, -0.2, 0.0, 1.0, 10.0)
    t_grid_min: float = -0.9
    t_grid_max: float = -0.01
    t_grid_n: int = 24
    history_anchors_F: tuple = (-1.0, -10.0)
    history_t_max: float = 200.0
    history_points: int = 240
    r_cusp_probe: float = -30.0
    r_flat_probe: float = 500.0
    table_rows: int = 4001
    out_dir: str = "."
    format: str = "csv"

    def shoot_config(self) -> ShootConfig:
        return ShootConfig(
            offset=self.shoot_offset,
            saddle_ball=self.saddle_ball,
            controls=IntegratorControls(
                rel_tol=self.rel_tol, abs_tol=self.abs_tol,
                r_max=self.r_max, h_floor=self.h_floor),
        )


def _psi_table_name(t: float) -> str:
    """The name of the Psi table at flow time t: psi_t_{t:+.3f}, with +, -, . as p, m, _."""
    return f"psi_t_{t:+.3f}".replace("+", "p").replace("-", "m").replace(".", "_")


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Parse a flat key=value file; unknown keys are rejected.

    A key takes the type of its default: a tuple is a comma-separated float
    list, and an int is a count of at least 1.  Floats and list entries must
    be finite, and ``history_anchors_F`` must not be empty.
    """
    known = {f.name: f.type for f in fields(RunConfig)}
    data: dict = {}
    if path:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = (p.strip() for p in line.split("=", 1))
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            data[key] = val
    cfg = RunConfig()
    for key, val in data.items():
        cur = getattr(cfg, key)
        try:
            if isinstance(cur, tuple):
                parsed = tuple(float(v) for v in val.split(",") if v.strip())
            elif isinstance(cur, int):
                parsed = int(val)
            elif isinstance(cur, float):
                parsed = float(val)
            else:
                parsed = val
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {val!r}") from exc
        cfg = replace(cfg, **{key: parsed})
    if overrides:
        cfg = replace(cfg, **overrides)
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(f.default, (float, tuple)) and not np.all(np.isfinite(v)):
            raise ConfigError(f"{f.name} must be finite, got {v!r}")
    if not cfg.history_anchors_F:
        raise ConfigError("history_anchors_F must not be empty")
    if cfg.format not in ("csv", "json", "plot"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    if any(t <= -1.0 for t in cfg.t_values):
        raise ConfigError("t_values must satisfy t > -1")
    names = [_psi_table_name(t) for t in cfg.t_values]
    if len(set(names)) < len(names):
        raise ConfigError(f"t_values must differ in their psi table names, got {names}")
    if any(cfg.y_floor >= -1.0 / np.sqrt(t + 1.0) for t in cfg.t_values):
        raise ConfigError("y_floor must lie below the Psi branch end -1/sqrt(t+1) "
                          "of every t in t_values")
    if not -1.0 < cfg.t_grid_min < cfg.t_grid_max < 0.0:
        raise ConfigError("t_grid bounds must satisfy -1 < min < max < 0")
    if not cfg.history_t_max > -1.0:
        raise ConfigError("history_t_max must satisfy t > -1")
    for f in fields(RunConfig):
        if isinstance(f.default, int) and getattr(cfg, f.name) < 1:
            raise ConfigError(f"{f.name} must be at least 1")
    try:
        cfg.shoot_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# deterministic writers

# "%.16e" in numpy: the 17-digit significand of x is the integer D nearest
# y = |x| 10^(16 - E), E = floor(log10 |x|), with y computed in long double.
# Its two roundings keep y within 0.011 of the exact value, so D is exact
# wherever |y - D| < 0.48 and y lies in [1e16 + 0.02, 1e17 - 0.52].  Every
# other field (near a tie, E off by one, 0, inf, nan, or a long double
# without a 64-bit significand) is formatted by Python.
_LONG_DOUBLE = np.finfo(np.longdouble).nmant >= 63
_POW10 = np.array([f"1e{k}" for k in range(-292, 341)], dtype=np.longdouble)
_Y_LO, _Y_HI = np.array(["10000000000000000.02", "99999999999999999.48"], dtype=np.longdouble)
_QUADS = ((np.arange(10000)[:, None] // [1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
_QUADS = _QUADS.view("<u4")[:, 0]                                # four ASCII digits of 0..9999
_EXPS = np.frombuffer("".join(f"e{k:+03d}".ljust(8, "\0") for k in range(-324, 309)).encode(),
                      "<u8")


def _fields(v: np.ndarray, ends: np.ndarray) -> str:
    """Each value of ``v`` as "%.16e" followed by its byte of ``ends``."""
    out = np.zeros((v.size, 25), np.uint8)        # sign, 17 digits and point, e+XX(X), end
    keep = np.ones((v.size, 25), bool)
    out[:, 24] = ends
    a = np.abs(v)
    fast = (a > 0) & (a < np.inf) & _LONG_DOUBLE
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a.astype(np.longdouble) * _POW10[308 - e]
    d = np.rint(y)
    fast &= (np.abs(y - d) < 0.48) & (y >= _Y_LO) & (y <= _Y_HI)
    lead, rest = np.divmod(np.where(fast, d, 1e16).astype(np.uint64), np.uint64(10 ** 16))
    hi, lo = np.divmod(rest, np.uint64(10 ** 8))
    out[:, 0], out[:, 1], out[:, 2] = 45, lead + 48, 46
    keep[:, 0] = v < 0
    quads = np.empty((v.size, 4), np.uint32)
    for col, quad in enumerate((hi // 10000, hi % 10000, lo // 10000, lo % 10000)):
        quads[:, col] = _QUADS[quad]
    out[:, 3:19] = quads.view(np.uint8)
    out[:, 19:24] = _EXPS[e + 324].view(np.uint8).reshape(-1, 8)[:, :5]
    keep[:, 23] = abs(e) >= 100
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ["%.16e" % x for x in v[slow].tolist()]
        out[slow, :24] = np.frombuffer("".join(t.ljust(24) for t in text).encode(),
                                       np.uint8).reshape(-1, 24)
        keep[slow, :24] = np.arange(24) < np.array([len(t) for t in text])[:, None]
    return out[keep].tobytes().decode("ascii")


def _rows(columns, sep: str) -> str:
    """The columns as lines of "%.16e" fields joined by ``sep``."""
    values = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    ends = np.full(values.shape, ord(sep), np.uint8)
    ends[:, -1] = ord("\n")
    return _fields(values.ravel(), ends.ravel())


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(_rows(columns, ","))


def write_dat(path: Path, col_a, col_b) -> None:
    with open(path, "w") as fh:
        fh.write(_rows([col_a, col_b], " "))


def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):      # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):       # strict JSON: NaN, +-inf as null
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


class Emitter:
    """Collects output files for the manifest and handles format variants."""

    def __init__(self, out_dir: Path, fmt: str, quiet: bool):
        self.out_dir = out_dir
        self.fmt = fmt
        self.quiet = quiet
        self.files: list[Path] = []

    def note(self, msg: str) -> None:
        if not self.quiet:
            print(msg)

    def table(self, name: str, header: list[str], columns) -> None:
        columns = [np.asarray(c, dtype=float) for c in columns]
        if self.fmt == "json":
            path = self.out_dir / f"{name}.json"
            write_json(path, {h: c for h, c in zip(header, columns)})
            self.files.append(path)
        elif self.fmt == "plot":
            base = header[0]
            for h, c in zip(header[1:], columns[1:]):
                path = self.out_dir / f"{name}_{base}_{h}.dat"
                write_dat(path, columns[0], c)
                self.files.append(path)
        else:
            path = self.out_dir / f"{name}.csv"
            write_csv(path, header, columns)
            self.files.append(path)

    def report(self, name: str, obj) -> None:
        path = self.out_dir / f"{name}.json"
        write_json(path, obj)
        self.files.append(path)

    def text(self, name: str, content: str) -> None:
        path = self.out_dir / f"{name}.txt"
        path.write_text(content + "\n")
        self.files.append(path)

    def manifest(self, command: str, cfg: RunConfig, wall: float, stages: dict,
                 status: int, error: str | None, diagnostics: dict) -> None:
        digests = {}
        for p in sorted(self.files):
            digests[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
        payload = {
            "command": command,
            "config": {f.name: getattr(cfg, f.name) for f in fields(RunConfig)},
            "version": __version__,
            "wall_time_s": wall,
            "stages": stages,
            "diagnostics": diagnostics,
            "status": status,
            "files": digests,
        }
        if error is not None:
            payload["error"] = error
        write_json(self.out_dir / "manifest.json", payload)


# ---------------------------------------------------------------------------
# shared computation

def _thin(n_total: int, n_keep: int) -> np.ndarray:
    if n_total <= n_keep:
        return np.arange(n_total)
    return np.unique(np.linspace(0, n_total - 1, n_keep).astype(int))


class _Session:
    """Computes the orbit and derived data once per process invocation.

    ``stages`` maps each timed stage to its wall time, excluding the stages
    nested in it: the orbit is shot, as stage ``orbit``, by the first
    command that reads it, and ``blowup`` alone never reads it.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.stages: dict[str, float] = {}
        self.diagnostics: dict = {}

    def timed(self, name: str, fn, *args):
        ts, nested = time.monotonic(), sum(self.stages.values())
        out = fn(*args)
        self.stages[name] = time.monotonic() - ts - (sum(self.stages.values()) - nested)
        return out

    @cached_property
    def traj(self):
        return self.timed("orbit", shoot_separatrix, self.cfg.shoot_config())

    @cached_property
    def profile(self):
        # only the separatrix, curvature and asymptotics tables need it
        return reconstruct_profiles(self.traj, self.cfg.h_anchor, self.cfg.f0)


def cmd_separatrix(session: _Session, em: Emitter) -> int:
    cfg = session.cfg
    traj, prof = session.traj, session.profile
    idx = _thin(len(traj.r), cfg.table_rows)
    em.table("separatrix", ["r", "H", "F", "h", "f"],
             [traj.r[idx], traj.H[idx], traj.F[idx], prof.h[idx], prof.f[idx]])
    Hg = np.linspace(0.02, 0.75, 400)
    em.table("isoclines", ["H", "F_vertical", "F_horizontal", "F_oblique"],
             [Hg, isocline_F("vertical", Hg), isocline_F("horizontal", Hg),
              isocline_F("oblique", Hg)])
    reports = certify_barriers(traj, cfg.barrier_samples)
    em.report("barriers", [{
        "curve": bp.curve_id, "verdict": bp.verdict,
        "min_product": bp.min_product, "argmin_r": bp.argmin_r,
        "min_separation": bp.min_separation, "samples": len(bp.r),
    } for bp in reports])
    em.note("separatrix: r in [%.3f, %.1f], %d barrier curves, all %s" % (
        traj.r_lo, traj.r_hi, len(reports),
        "barriers" if all(b.is_barrier for b in reports) else "NOT barriers"))
    return EXIT_OK


def cmd_curvature(session: _Session, em: Emitter) -> int:
    cfg = session.cfg
    table = curvatures(session.traj)
    idx = _thin(len(table.r), cfg.table_rows)
    cols = table.columns()
    em.table("curvature", list(cols), [cols[k][idx] for k in cols])
    res = soliton_residuals(session.traj, session.profile)
    m = (session.traj.r >= -30.0) & (session.traj.r <= 100.0)
    em.report("identities", {
        "max_abs_scalar_identity": float(np.abs(res.identity_scalar).max()),
        "max_abs_gradient_identity": float(np.abs(res.identity_gradient).max()),
        "max_abs_q_drift_minus30_100": float(np.abs(res.q_drift[m]).max()) if m.any() else None,
        "q_reference": res.q_reference,
    })
    em.note("curvature: R at saddle end %.6f, terminal max |curv| %.3e" % (
        table.scalar[0],
        max(abs(table.columns()[k][-1]) for k in
            ("sec_xy", "sec_rx", "R", "Ric_rr", "Ric_tangential"))))
    return EXIT_OK


def cmd_asymptotics(session: _Session, em: Emitter) -> int:
    cfg = session.cfg
    cusp, flat = check_asymptotics(session.traj, session.profile,
                                   cfg.r_cusp_probe, cfg.r_flat_probe)
    payload = {}
    insufficient = False
    for rep in (cusp, flat):
        payload[rep.end] = {
            "alpha_fit": rep.alpha_fit,
            "entries": [{
                "name": e.name, "r_at": e.r_at, "measured": e.measured,
                "target": e.target,
                "residual": None if not e.ok else e.residual,
                "ok": e.ok, "note": e.note,
            } for e in rep.entries],
            "extras": _jsonable(rep.extras),
        }
        insufficient |= any(not e.ok for e in rep.entries)
    em.report("asymptotics", payload)
    em.note("asymptotics: cusp slope ratio %.8f (target %.8f)" % (
        cusp.entry("f_dev_over_h_dev").measured,
        cusp.entry("f_dev_over_h_dev").target))
    if insufficient:
        em.note("asymptotics: some probes outside the computed range or at r = 0")
        return EXIT_RANGE
    return EXIT_OK


def cmd_evolve(session: _Session, em: Emitter) -> int:
    cfg = session.cfg
    traj = session.traj
    em.report("crossings", [{
        "t": t, "count": rep.count, "sign_pattern": rep.sign_pattern,
        "crossings": [{"r": r, "H": H, "F": F} for r, H, F in rep.crossings],
    } for t, rep in zip(cfg.t_values, crossing_scan(traj, cfg.t_values))])

    scans = []
    for t in cfg.t_values:
        sc = scan_psi(t, cfg.y_floor, cfg.psi_points)
        scans.append({
            "t": t, "verdict": sc.verdict, "min_value": sc.min_value,
            "argmin_y": sc.argmin_y, "tail_sign": sc.tail_sign,
            "tail_match": sc.tail_match,
        })
        if em.fmt != "json":
            em.table(_psi_table_name(t), ["y", "psi"], [sc.y, sc.values])
    em.report("psi_scans", scans)

    tg = np.linspace(cfg.t_grid_min, cfg.t_grid_max, cfg.t_grid_n)
    ds = scan_delta_threshold(traj, tg)
    em.report("delta", {
        "crossing_bracket": list(ds.crossing_bracket),
        "crossing_threshold": ds.crossing_threshold, "crossing_r": ds.crossing_r,
        "barrier_bracket": list(ds.barrier_bracket),
        "t_grid": ds.t_grid, "crossing_counts": ds.crossing_counts,
        "psi_verdicts": {f"{k:.6f}": v for k, v in ds.psi_verdicts.items()},
    })
    session.diagnostics.update(sstar_certificate_points=ds.certificate_points)

    hist_t = np.geomspace(0.02, cfg.history_t_max + 1.0, cfg.history_points) - 1.0
    hists = [pointwise_R_history(traj.r_at_F(Fa), hist_t, traj)
             for Fa in cfg.history_anchors_F]
    session.diagnostics.update(history_truncated=[h.truncated for h in hists])
    em.table("histories", ["t", "r0", "r_of_t", "R", "dRdt"],
             [np.concatenate(col) for col in zip(*[
                 (h.t, np.full_like(h.t, h.r0), h.r_of_t, h.R, h.dRdt) for h in hists])])
    em.note("evolve: crossing threshold %.6f, barrier bracket (%.5f, %.5f)"
            % (ds.crossing_threshold, *ds.barrier_bracket))
    return EXIT_OK


def cmd_blowup(session: _Session, em: Emitter) -> int:
    rep_g = run_sequence("generic")
    rep_0 = run_sequence("t0")
    em.text("blowup_generic", rep_g.to_text())
    em.text("blowup_t0", rep_0.to_text())
    em.report("blowup", {
        "generic": {
            "blowups": rep_g.n_blowups, "contact_order": rep_g.contact_order,
            "curve_abscissa": rep_g.curve_abscissa.text(),
            "translations": [[k, str(a)] for k, a in rep_g.translations],
        },
        "t0": {
            "blowups": rep_0.n_blowups, "contact_order": rep_0.contact_order,
            "curve_abscissa": str(rep_0.curve_abscissa),
            "translations": [[k, str(a)] for k, a in rep_0.translations],
        },
    })
    em.note("blowup: generic %d blow-ups (contact %d), t=0 %d blow-ups (contact %d)"
            % (rep_g.n_blowups, rep_g.contact_order,
               rep_0.n_blowups, rep_0.contact_order))
    return EXIT_OK


_COMMANDS = {
    "separatrix": cmd_separatrix,
    "curvature": cmd_curvature,
    "asymptotics": cmd_asymptotics,
    "evolve": cmd_evolve,
    "blowup": cmd_blowup,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cuspsoliton",
        description="Reproduce the cusped-soliton phase-plane computations.")
    ap.add_argument("command", choices=[*_COMMANDS, "all"])
    ap.add_argument("--config", metavar="PATH", default=None,
                    help="flat key=value configuration file")
    ap.add_argument("--out", metavar="DIR", default=None,
                    help=f"output directory (overrides ${ENV_OUT} and config)")
    ap.add_argument("--format", choices=["csv", "json", "plot"], default=None)
    ap.add_argument("--t", action="append", type=float, default=None,
                    help="flow time for evolve scans (repeatable)")
    ap.add_argument("--quiet", action="store_true")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {}
    if args.format:
        overrides["format"] = args.format
    if args.t:
        overrides["t_values"] = tuple(args.t)
    try:
        cfg = load_config(args.config, overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out or os.environ.get(ENV_OUT) or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    em = Emitter(out_dir, cfg.format, args.quiet)

    t0 = time.monotonic()
    status, error = EXIT_OK, None
    names = list(_COMMANDS) if args.command == "all" else [args.command]
    session = _Session(cfg)
    try:
        for name in names:
            status = max(status, session.timed(name, _COMMANDS[name], session, em))
    except (ShootError, IntegrationError, BlowupError, OrbitRangeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        status, error = EXIT_NUMERIC, f"{type(exc).__name__}: {exc}"
    traj = session.__dict__.get("traj")          # shot only if a command read it
    diagnostics = {k: v for k, v in traj.meta.items()
                   if k.startswith("germ_") or k == "legs"} if traj else {}
    em.manifest(args.command, cfg, time.monotonic() - t0, session.stages, status, error,
                {**diagnostics, **session.diagnostics})
    em.note(f"wrote {len(em.files) + 1} files to {out_dir}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
