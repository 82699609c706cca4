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
from functools import cache, cached_property
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .phase_core import IntegratorControls, IntegrationError, OrbitRangeError
from .separatrix import ShootConfig, ShootError, isocline_F, shoot_separatrix, certify_barriers
from .geometry import reconstruct_profiles, curvatures, soliton_residuals, check_asymptotics
from .evolution import crossing_scan, scan_psi, scan_delta_threshold, pointwise_R_history
from .evolution import _check_y_floor, _flow_time
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
    be finite, and ``t_values`` and ``history_anchors_F`` must not be empty.
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
    for name in ("t_values", "history_anchors_F"):
        if not getattr(cfg, name):
            raise ConfigError(f"{name} must not be empty")
    if cfg.format not in ("csv", "json", "plot"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    if any(t <= -1.0 for t in cfg.t_values):
        raise ConfigError("t_values must satisfy t > -1")
    names = [_psi_table_name(t) for t in cfg.t_values]
    if len(set(names)) < len(names):
        raise ConfigError(f"t_values must differ in their psi table names, got {names}")
    for t in cfg.t_values:
        try:
            _check_y_floor(t, cfg.y_floor)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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
# y = |x| 10^(16 - E), E = floor(log10 |x|).  With |x| = m 2^q (m in [1/2, 1))
# and 10^(16 - E) = (P_hi + P_lo) 2^b from `_pow10`, Dekker's exact product
# m P_hi = p + e (Veltkamp splits, no FMA) gives y = hi + lo, hi = p 2^(q + b)
# and lo = (e + m P_lo) 2^(q + b).  For y < 1.1e17, hi + lo is within 4e-15
# of y: u^2 y from P_lo's own rounding, and half an ulp each of the rounded
# m P_lo (< 11.2 once scaled) and of lo (< 19.2).  hi >= 2^53 is an integer,
# so D = hi + rint(lo) wherever lo lies more than 1e-14 from a half-integer
# and 1e16 - 0.04 < y < 1e17 - 1/2.  A y just below 1e16 (E one too high)
# prints as D = 1e16 does, since 10 y rounds to 1e17.  Python formats every
# other field: 0, inf, nan, a tie, or E off by one from log10.
_QUADS = ((np.arange(10000)[:, None] // [1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
_QUADS = _QUADS.view("<u4")[:, 0]                                # four ASCII digits of 0..9999
_EXPS = np.frombuffer("".join(f"e{k:+03d}".ljust(8, "\0") for k in range(-324, 309)).encode(),
                      "<u8")                                     # "e+XX", then "X" or nothing


@cache
def _pow10():
    """10^(16 - E) = (P_hi + P_lo) 2^b at index 308 - E, E in [-324, 308]:
    rows P_hi's Veltkamp halves, P_lo and b, with P_hi + P_lo in (1/2, 2)."""
    rows = []
    for k in range(-292, 341):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        b = num.bit_length() - den.bit_length()
        num, den = num << max(-b, 0), den << max(b, 0)
        hi = num / den                       # int / int rounds correctly
        p, q = hi.as_integer_ratio()
        rows.append((*_split(hi), (num * q - p * den) / (den * q), b))
    hh, hl, lo, b = np.array(rows).T
    return hh, hl, lo, b.astype(np.int32)        # ldexp is fast with int32 exponents


def _split(x):
    """Veltkamp: x = hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _python_fields(values: np.ndarray) -> list[str]:
    """The fields the vector pass cannot settle, by Python's own "%.16e"."""
    return ["%.16e" % x for x in values.tolist()]


def _fields(v: np.ndarray, ends: np.ndarray) -> bytes:
    """Each value of ``v`` as "%.16e" followed by its byte of ``ends``."""
    a = np.abs(v)
    fast = (a > 0) & (a < np.inf)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 308 - e
    hh, hl, plo, b = (col[k] for col in _pow10())
    m, q = np.frexp(a)
    mh, ml = _split(m)
    p = m * (hh + hl)
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
    scale = q + b
    hi = np.ldexp(p, scale)
    lo = np.ldexp(err + m * plo, scale)
    whole = np.rint(lo)
    frac = lo - whole
    d = hi.astype(np.int64) + whole.astype(np.int64)
    fast &= (np.abs(frac) < 0.5 - 1e-14) & (d < 10 ** 17) & ((d - 10 ** 16) + frac > -0.04)
    d = np.where(fast, d, 10 ** 16)
    top = d // 10 ** 8                  # np.divmod on int64 is several times slower
    lead = top // 10 ** 8
    # each field as seven little-endian words; the zero bytes are dropped at the end:
    # (0, sign or 0, lead digit, "."), four words of four digits, "e+XX", (X or 0, end, 0, 0)
    words = np.empty((v.size, 7), np.uint32)
    words[:, 0] = np.where(v < 0, 0x2E302D00, 0x2E300000) + (lead << 16)
    for col, eight in ((1, top - lead * 10 ** 8), (3, d - top * 10 ** 8)):
        quad = eight // 10000
        words[:, col], words[:, col + 1] = _QUADS[quad], _QUADS[eight - quad * 10000]
    exps = _EXPS[e + 324].view("<u4").reshape(-1, 2)
    words[:, 5] = exps[:, 0]
    words[:, 6] = exps[:, 1] | ends.astype(np.uint32) << 8
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(t.encode().ljust(25, b"\0") + bytes((end, 0, 0)) for t, end in
                        zip(_python_fields(v[slow]), ends[slow].tolist()))
        words[slow] = np.frombuffer(text, "<u4").reshape(-1, 7)
    return words.tobytes().translate(None, b"\0")


def _rows(columns, sep: str) -> bytes:
    """The columns as lines of "%.16e" fields joined by ``sep``."""
    values = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    ends = np.full(values.shape, ord(sep), np.uint8)
    ends[:, -1] = ord("\n")
    return _fields(values.ravel(), ends.ravel())


def _write(path: Path, data: bytes) -> bytes:
    path.write_bytes(data)
    return data


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> bytes:
    """Write the table and return the bytes written."""
    return _write(path, (",".join(header) + "\n").encode() + _rows(columns, ","))


def write_dat(path: Path, col_a, col_b) -> bytes:
    return _write(path, _rows([col_a, col_b], " "))


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


def write_json(path: Path, obj) -> bytes:
    """Write ``obj`` as strict JSON in one write and return the bytes written."""
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    return _write(path, (text + "\n").encode())


class Emitter:
    """Writes the output files, in the run's format, and keeps the SHA-256 of
    each file's bytes for the manifest."""

    def __init__(self, out_dir: Path, fmt: str, quiet: bool):
        self.out_dir = out_dir
        self.fmt = fmt
        self.quiet = quiet
        self.files: dict[str, str] = {}

    def note(self, msg: str) -> None:
        if not self.quiet:
            print(msg)

    def _keep(self, path: Path, data: bytes) -> None:
        self.files[path.name] = hashlib.sha256(data).hexdigest()

    def table(self, name: str, header: list[str], columns) -> None:
        columns = [np.asarray(c, dtype=float) for c in columns]
        if self.fmt == "json":
            path = self.out_dir / f"{name}.json"
            self._keep(path, write_json(path, {h: c for h, c in zip(header, columns)}))
        elif self.fmt == "plot":
            base = header[0]
            for h, c in zip(header[1:], columns[1:]):
                path = self.out_dir / f"{name}_{base}_{h}.dat"
                self._keep(path, write_dat(path, columns[0], c))
        else:
            path = self.out_dir / f"{name}.csv"
            self._keep(path, write_csv(path, header, columns))

    def report(self, name: str, obj) -> None:
        path = self.out_dir / f"{name}.json"
        self._keep(path, write_json(path, obj))

    def text(self, name: str, content: str) -> None:
        path = self.out_dir / f"{name}.txt"
        self._keep(path, _write(path, (content + "\n").encode()))

    def manifest(self, command: str, cfg: RunConfig, wall: float, stages: dict,
                 status: int, error: str | None, diagnostics: dict) -> None:
        payload = {
            "command": command,
            "config": {f.name: getattr(cfg, f.name) for f in fields(RunConfig)},
            "version": __version__,
            "wall_time_s": wall,
            "stages": stages,
            "diagnostics": diagnostics,
            "status": status,
            "files": self.files,
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
    session.diagnostics.update(history_truncated=[h.truncated for h in hists],
                               history_newton_steps=[h.newton_steps for h in hists],
                               flow_time_table_error=traj._per_orbit(_flow_time).error)
    em.table("histories", ["t", "r0", "r_of_t", "R", "dRdt"],
             [np.concatenate(col) for col in zip(*[
                 (h.t, np.full_like(h.t, h.r0), h.r_of_t, h.R, h.dRdt) for h in hists])])
    em.note("evolve: crossing threshold %.6f, barrier bracket (%.5f, %.5f)"
            % (ds.crossing_threshold, *ds.barrier_bracket))
    return EXIT_OK


def cmd_blowup(session: _Session, em: Emitter) -> int:
    reps = {mode: run_sequence(mode) for mode in ("generic", "t0")}
    for mode, rep in reps.items():
        em.text(f"blowup_{mode}", rep.to_text())
    em.report("blowup", {mode: {
        "blowups": rep.n_blowups, "contact_order": rep.contact_order,
        "curve_abscissa": str(rep.curve_abscissa),
        "translations": [[k, str(a)] for k, a in rep.translations],
    } for mode, rep in reps.items()})
    em.note("blowup: generic %d blow-ups (contact %d), t=0 %d blow-ups (contact %d)"
            % (reps["generic"].n_blowups, reps["generic"].contact_order,
               reps["t0"].n_blowups, reps["t0"].contact_order))
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
