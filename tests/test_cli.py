import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cuspsoliton as cs
from cuspsoliton import cli
from cuspsoliton.cli import main, load_config, ConfigError, RunConfig


def test_separatrix_command_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["separatrix", "--out", str(out_a), "--quiet"]) == 0
    assert main(["separatrix", "--out", str(out_b), "--quiet"]) == 0
    for name in ("separatrix.csv", "isoclines.csv", "barriers.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    header = (out_a / "separatrix.csv").read_text().splitlines()[0]
    assert header == "r,H,F,h,f"
    rs = np.loadtxt(out_a / "separatrix.csv", delimiter=",", skiprows=1)[:, 0]
    assert np.all(np.diff(rs) > 0)

    barriers = json.loads((out_a / "barriers.json").read_text())
    assert len(barriers) == 5
    assert all(b["verdict"] == "barrier" for b in barriers)


def test_manifest_digests(tmp_path):
    assert main(["separatrix", "--out", str(tmp_path), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "separatrix"
    assert manifest["files"]
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_curvature_command(tmp_path):
    assert main(["curvature", "--out", str(tmp_path), "--quiet"]) == 0
    data = np.loadtxt(tmp_path / "curvature.csv", delimiter=",", skiprows=1)
    header = (tmp_path / "curvature.csv").read_text().splitlines()[0].split(",")
    sec_xy = data[:, header.index("sec_xy")]
    sec_rx = data[:, header.index("sec_rx")]
    assert np.all(sec_xy > -0.25) and np.all(sec_xy < 0)
    assert np.all(sec_rx > -0.25) and np.all(sec_rx < 0)
    R = data[:, header.index("R")]
    assert R[0] == pytest.approx(-1.5, abs=1e-6)
    # flat-end row: every curvature column below 1e-6 in magnitude
    for col in ("sec_xy", "sec_rx", "R", "Ric_rr", "Ric_tangential"):
        assert abs(data[-1, header.index(col)]) < 1e-6


def test_asymptotics_command_and_range_warning(tmp_path):
    out_full = tmp_path / "full"
    assert main(["asymptotics", "--out", str(out_full), "--quiet"]) == 0
    rep = json.loads((out_full / "asymptotics.json").read_text())
    names = {e["name"]: e for e in rep["cusp"]["entries"]}
    assert names["f_dev_over_h_dev"]["target"] == pytest.approx(5.23606797749979)
    assert abs(names["f_dev_over_h_dev"]["residual"]) < 0.01 * 5.24

    cfgfile = tmp_path / "short.cfg"
    cfgfile.write_text("r_max = 100\n")
    out_short = tmp_path / "short"
    assert main(["asymptotics", "--config", str(cfgfile),
                 "--out", str(out_short), "--quiet"]) == 4
    rep = json.loads((out_short / "asymptotics.json").read_text())
    flagged = [e for e in rep["flat"]["entries"] if not e["ok"]]
    assert flagged
    assert {type(e["ok"]) for end in ("cusp", "flat") for e in rep[end]["entries"]} == {bool}


@pytest.mark.parametrize("line, end", [("r_cusp_probe = 3000", "cusp"),
                                       ("r_flat_probe = -40", "flat")])
def test_asymptotics_probe_past_the_far_end(tmp_path, line, end):
    # a probe beyond either end of the orbit is insufficient range, not a
    # numeric failure: exit 4 with the report written
    cfgfile = tmp_path / "probe.cfg"
    cfgfile.write_text(line + "\n")
    assert main(["asymptotics", "--config", str(cfgfile),
                 "--out", str(tmp_path), "--quiet"]) == 4
    rep = json.loads((tmp_path / "asymptotics.json").read_text())
    assert any(e["note"] == "insufficient range" for e in rep[end]["entries"])
    assert json.loads((tmp_path / "manifest.json").read_text())["status"] == 4


@pytest.mark.parametrize("line, end, name", [("r_cusp_probe = 0", "cusp", "h_over_half_r"),
                                             ("r_flat_probe = 0", "flat", "F_over_neg_half_r")])
def test_asymptotics_probe_at_zero(tmp_path, line, end, name):
    # the one ratio that divides by the probe radius is not measured there:
    # exit 4 with the report and the manifest written, the other entries ok
    cfgfile = tmp_path / "probe.cfg"
    cfgfile.write_text(line + "\n")
    assert main(["asymptotics", "--config", str(cfgfile),
                 "--out", str(tmp_path), "--quiet"]) == 4
    rep = _strict_json(tmp_path / "asymptotics.json")
    assert [(e["name"], e["measured"], e["note"]) for e in rep[end]["entries"]
            if not e["ok"]] == [(name, None, "probe at r = 0")]
    assert all(e["ok"] for e in rep["flat" if end == "cusp" else "cusp"]["entries"])
    assert _strict_json(tmp_path / "manifest.json")["status"] == 4


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{constant} in {path.name}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("line", ["r_cusp_probe = 3000", "r_max = 100"])
def test_reports_are_strict_json(tmp_path, line):
    # an unmeasured ratio is NaN in the report; JSON has no NaN, so it is null
    cfgfile = tmp_path / "probe.cfg"
    cfgfile.write_text(line + "\n")
    assert main(["asymptotics", "--config", str(cfgfile),
                 "--out", str(tmp_path), "--quiet"]) == 4
    for path in tmp_path.glob("*.json"):
        _strict_json(path)
    rep = _strict_json(tmp_path / "asymptotics.json")
    assert None in [e["measured"] for end in ("cusp", "flat") for e in rep[end]["entries"]]
    assert cli._jsonable([np.nan, np.inf, -np.inf, np.float64(1.5)]) == [None, None, None, 1.5]


def test_json_writes_bools_as_bools():
    # bool is an int subclass, so it is caught before the int case
    out = cli._jsonable({"a": True, "b": [np.bool_(False), 1, np.int64(2)], "c": (1.5,)})
    assert out == {"a": True, "b": [False, 1, 2], "c": [1.5]}
    assert [type(v) for v in (out["a"], *out["b"])] == [bool, bool, int, int]


def _cases(n_random):
    # seeded random bit patterns of both signs; every power of ten in range
    # with its 1-ulp neighbours, among them the doubles just below a power
    # of ten whose 17 digits round up to a 10^17 significand; special values
    bits = np.random.default_rng(2012).integers(0, 2 ** 64, n_random, dtype=np.uint64)
    pows = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([pows, np.nextafter(pows, 0.0), np.nextafter(pows, np.inf)])
    near = near[np.isfinite(near)]
    up = [x for x in near if f"{x:.16e}".startswith("1.0000000000000000e")
          and Fraction(x) < Fraction(10) ** int(f"{x:e}".split("e")[1])]
    assert up
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               np.finfo(float).max, -np.finfo(float).max, 1.0 / 3.0]
    return np.concatenate([near, -near, special, bits.view(float)])


def test_tables_match_per_cell_formatting(tmp_path, monkeypatch):
    # the writers write what f"{x:.16e}" writes cell by cell: 10^6 random
    # bit patterns through the long-double path, and with that path switched
    # off the same cases but for the first 10^5 patterns through Python's
    # alone (its dtoa takes 1-3 us a field, which bounds the test's time)
    vals = _cases(10 ** 6)
    cells = [f"{x:.16e}" for x in vals.tolist()]
    structured = vals.size - 10 ** 6
    for ld, n in ((cli._LONG_DOUBLE, vals.size), (False, structured + 10 ** 5)):
        monkeypatch.setattr(cli, "_LONG_DOUBLE", ld)
        half = n // 2
        cols = [vals[:half], vals[half:2 * half]]
        cli.write_csv(tmp_path / "t.csv", ["a", "b"], cols)
        cli.write_dat(tmp_path / "t.dat", *cols)
        for name, sep, head in (("t.csv", ",", ["a,b"]), ("t.dat", " ", [])):
            lines = (tmp_path / name).read_text().split("\n")
            want = head + [f"{x}{sep}{y}" for x, y in zip(cells[:half], cells[half:2 * half])]
            assert len(lines) == len(want) + 1 and lines[-1] == ""
            assert not [(a, b) for a, b in zip(lines, want) if a != b][:5]
        cli.write_csv(tmp_path / "empty.csv", ["a", "b"], [np.empty(0), np.empty(0)])
        assert (tmp_path / "empty.csv").read_text() == "a,b\n"
        cli.write_dat(tmp_path / "empty.dat", np.empty(0), np.empty(0))
        assert (tmp_path / "empty.dat").read_text() == ""


def test_a_significand_rounding_up_to_ten_meets_the_upper_guard(monkeypatch):
    # numpy's log10 puts the doubles whose 17 digits round up to 10^17 in
    # the decade above, where the lower guard sends them to Python; with E
    # one low instead, y lies within 0.5 of 1e17, and only the upper guard
    # (1e17 - 0.52 in long double, which float64 rounds to 1e17) keeps them
    # off the fast path
    vals = _cases(0)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
    text = cli._fields(vals, np.full(vals.size, ord("\n"), np.uint8))
    assert text.split("\n")[:-1] == [f"{x:.16e}" for x in vals.tolist()]


def test_blowup_command(tmp_path):
    assert main(["blowup", "--out", str(tmp_path), "--quiet"]) == 0
    rep = json.loads((tmp_path / "blowup.json").read_text())
    assert rep["generic"]["blowups"] == 6
    assert rep["generic"]["contact_order"] == 5
    assert rep["generic"]["curve_abscissa"] == "(s - 1)/(8*s)"
    assert rep["t0"]["blowups"] == 10
    assert rep["t0"]["curve_abscissa"] == "1/8"
    assert (tmp_path / "blowup_generic.txt").exists()
    assert (tmp_path / "blowup_t0.txt").exists()


def test_blowup_command_needs_no_orbit(tmp_path, monkeypatch):
    def no_shot(*args):
        raise AssertionError("blowup shot the orbit")
    monkeypatch.setattr(cli, "shoot_separatrix", no_shot)
    cfgfile = tmp_path / "short.cfg"
    cfgfile.write_text("r_max = 20\n")
    out_default, out_short = tmp_path / "default", tmp_path / "short"
    assert main(["blowup", "--out", str(out_default), "--quiet"]) == 0
    assert main(["blowup", "--config", str(cfgfile),
                 "--out", str(out_short), "--quiet"]) == 0
    for name in ("blowup_generic.txt", "blowup_t0.txt", "blowup.json"):
        assert (out_short / name).read_bytes() == (out_default / name).read_bytes()
    manifest = json.loads((out_short / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"blowup"} and manifest["status"] == 0
    assert manifest["diagnostics"] == {}


def test_evolve_command(tmp_path):
    assert main(["evolve", "--out", str(tmp_path), "--quiet",
                 "--t", "10", "--t", "-0.7"]) == 0
    crossings = {c["t"]: c for c in
                 json.loads((tmp_path / "crossings.json").read_text())}
    assert crossings[10.0]["count"] >= 1
    assert crossings[-0.7]["count"] == 0
    psi = {p["t"]: p for p in
           json.loads((tmp_path / "psi_scans.json").read_text())}
    assert psi[-0.7]["verdict"] == "positive"
    delta = json.loads((tmp_path / "delta.json").read_text())
    lo, hi = delta["crossing_bracket"]
    assert -0.7 < lo < hi < 0.0


def test_plot_format(tmp_path):
    assert main(["separatrix", "--out", str(tmp_path), "--quiet",
                 "--format", "plot"]) == 0
    dats = list(tmp_path.glob("*.dat"))
    assert dats
    line = dats[0].read_text().splitlines()[0]
    assert len(line.split()) == 2


def test_config_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n")
    assert main(["separatrix", "--config", str(bad),
                 "--out", str(tmp_path)]) == 2


def test_config_crossing_grid_is_unknown(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("crossing_grid = 400001\n")
    assert main(["evolve", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "unknown key 'crossing_grid'" in capsys.readouterr().err


def test_config_bad_value_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rel_tol = banana\n")
    assert main(["separatrix", "--config", str(bad),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("ball", ["0", "1e-7"])
def test_config_invalid_saddle_ball_rejected(tmp_path, capsys, ball):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"saddle_ball = {ball}\n")
    assert main(["separatrix", "--config", str(bad),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "saddle_ball" in err and "Traceback" not in err


def test_small_saddle_ball_shoots(tmp_path):
    # the tables start on the cusp series wherever the ball lies: a ball of
    # 1e-10 once sent a reverse-time leg into the saddle and exited 3
    cfg = tmp_path / "ball.cfg"
    cfg.write_text("saddle_ball = 1e-10\n")
    assert main(["separatrix", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    H = np.loadtxt(tmp_path / "separatrix.csv", delimiter=",", skiprows=1)[0, 1]
    assert 0.5 - H == pytest.approx(1e-10 / math.hypot(1.0, cs.SLOPE_UNSTABLE), rel=1e-5)


def test_config_psi_table_name_clash_rejected(tmp_path, capsys):
    # both flow times round to psi_t_m0_700: one table would overwrite the other
    assert main(["evolve", "--t", "-0.7001", "--t", "-0.7002", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "psi_t_m0_700" in err and "Traceback" not in err


def test_import_builds_no_series():
    # exact series and tables are built on first use, not at import
    code = ("import cuspsoliton.cli\nfrom cuspsoliton import evolution, phase_core\n"
            "print(phase_core._germ_series.cache_info().currsize, "
            "evolution._t_b_bracket.cache_info().currsize)")
    src = str(Path(cs.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "0"]


def test_config_invalid_controls_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rel_tol = -1e-10\n")
    assert main(["separatrix", "--config", str(bad),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("line", ["rel_tol = nan", "abs_tol = nan", "rel_tol = inf",
                                  "abs_tol = inf", "r_max = inf", "r_max = nan",
                                  "h_floor = inf", "h_floor = nan"])
def test_config_non_finite_controls_rejected(tmp_path, line):
    # a NaN tolerance stepped forever, and inf ones, r_max or h_floor ended in
    # a traceback or (h_floor = nan) were silently ignored
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))


@pytest.mark.parametrize("line", ["y_floor = -inf", "t_values = nan", "h_anchor = nan",
                                  "f0 = inf", "history_t_max = inf", "history_anchors_F =",
                                  "history_anchors_F = nan", "r_cusp_probe = nan",
                                  "r_flat_probe = -inf", "t_values = 0.0, inf",
                                  "t_grid_max = nan", "shoot_offset = inf"])
def test_config_non_finite_values_rejected(tmp_path, capsys, line):
    # each of these crashed with a traceback, exited 0 with numpy warnings,
    # or failed later as a numeric (3) or range (4) error
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    assert main(["all", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert line.split()[0] in err and "Traceback" not in err


# y_floor = -0.5 lies above the Psi branch end -1/sqrt(0.3) of the default t = -0.7
@pytest.mark.parametrize("line", ["psi_points = 0", "history_points = 0", "t_grid_n = 0",
                                  "t_grid_n = -1", "table_rows = -1", "barrier_samples = 0",
                                  "history_t_max = -1", "y_floor = 0", "y_floor = -0.5"])
def test_config_bad_counts_rejected(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    assert main(["all", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert line.split()[0] in err and "Traceback" not in err


def test_truncated_histories_are_flagged(tmp_path):
    # the orbit ends at r = 10, where F ~ -5.9: going back in time the
    # anchor at F = -5.84 reaches the end of the orbit almost at once
    cfg = tmp_path / "short.cfg"
    cfg.write_text("r_max = 10\nhistory_anchors_F = -1, -5.84\n")
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == 0
    assert manifest["diagnostics"]["history_truncated"] == [False, True]
    assert [type(v) for v in manifest["diagnostics"]["history_truncated"]] == [bool, bool]
    rows = np.loadtxt(tmp_path / "histories.csv", delimiter=",", skiprows=1)
    assert 240 < len(rows) < 480


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None)
    assert cfg == RunConfig()
    f = tmp_path / "c.cfg"
    f.write_text("# comment\nt_values = -0.5, 2.0\nr_max = 800\n")
    cfg = load_config(str(f))
    assert cfg.t_values == (-0.5, 2.0)
    assert cfg.r_max == 800.0
    with pytest.raises(ConfigError):
        load_config(None, {"format": "xml"})


def test_env_var_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "envdir"
    monkeypatch.setenv("CUSPSOLITON_OUT", str(target))
    assert main(["blowup", "--quiet"]) == 0
    assert (target / "blowup.json").exists()


def test_orbit_range_failure_exits_3(tmp_path, monkeypatch, capsys):
    def needs_far_orbit(session, em):
        session.traj.state_at(session.traj.r_hi + 1.0)
    monkeypatch.setitem(cli._COMMANDS, "separatrix", needs_far_orbit)
    assert main(["separatrix", "--out", str(tmp_path), "--quiet"]) == 3
    assert "outside computed" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == 3
    assert "outside computed" in manifest["error"]


def test_plain_value_error_is_not_a_numeric_failure(tmp_path, monkeypatch):
    def buggy(session, em):
        np.ones(3) + np.ones(4)          # a broadcast mismatch is a bug
    monkeypatch.setitem(cli._COMMANDS, "separatrix", buggy)
    with pytest.raises(ValueError, match="broadcast"):
        main(["separatrix", "--out", str(tmp_path), "--quiet"])


def test_manifest_records_stage_times(tmp_path):
    assert main(["all", "--out", str(tmp_path), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    stages = manifest["stages"]
    assert set(stages) == {"orbit", "separatrix", "curvature", "asymptotics",
                           "evolve", "blowup"}
    assert manifest["status"] == 0 and "error" not in manifest
    assert all(v >= 0.0 for v in stages.values())
    assert sum(stages.values()) <= manifest["wall_time_s"]
    diag = manifest["diagnostics"]
    assert set(diag) == {"germ_join_r", "germ_c", "germ_join_mismatch_H",
                         "germ_join_mismatch_sigma", "sstar_certificate_points",
                         "history_truncated", "legs"}
    cusp, fwd = diag["legs"]
    assert set(cusp) == {"method", "terms", "theta_start", "truncation", "r_lo", "r_hi"}
    assert cusp["method"] == "series" and cusp["terms"] == 12
    assert cusp["theta_start"] < 0.0 and cusp["truncation"] < 1e-16
    assert set(fwd) == {"method", "rtol", "atol", "n_steps", "n_rejected", "nfev",
                        "r_lo", "r_hi"}
    assert fwd["method"] == "DOP853" and fwd["rtol"] == 1e-10 and fwd["n_steps"] > 0
    assert fwd["nfev"] == 2 + 15 * fwd["n_steps"] + 12 * fwd["n_rejected"]
    assert fwd["atol"] == [1e-12, 1e-12, 1e-21]
    assert cusp["r_hi"] == fwd["r_lo"] < 0.0 and fwd["r_hi"] == diag["germ_join_r"]
    # the tables start where theta has shrunk by saddle_ball/offset = 1/10
    assert cusp["r_lo"] == pytest.approx(cusp["r_hi"] - math.log(10.0) / cs.EIGENVALUE_UNSTABLE,
                                         abs=1e-12)
    assert diag["history_truncated"] == [False, False]
    assert diag["germ_join_r"] == pytest.approx(25.0, abs=1e-12)
    assert diag["sstar_certificate_points"] > 10000


def test_cli_imports_and_runs_without_scipy(tmp_path):
    # the package needs numpy only: importing the CLI loads no scipy module,
    # and neither does a full run
    code = ("import sys\n"
            "from cuspsoliton import cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            f"assert cli.main(['all', '--out', {str(tmp_path)!r}, '--quiet']) == 0\n"
            "print(loaded())\n")
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:2] == ["[]", "[]"]
    assert (tmp_path / "manifest.json").exists()
