"""Benchmark of the cuspsoliton pipeline: end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``reproduce``: ``cuspsoliton all`` at the default configuration.
- ``flow_queries``: crossing, Psi and R(t) queries on one default orbit.
- ``orbit_sweep``: a seeded shot plus geometry and barrier certificates.
  It is not listed in ``BENCHMARK.json``: its ten-run spread of
  ``op_p50_s`` reached 0.30 of the median on a noisy 2-CPU host, above the
  0.25 a listed metric may have.  Run it by name to compare orbit
  construction between commits.

``--workload all`` runs the three in turn.  Each workload is a closed loop:
one client in one worker process, each operation sent after the previous
one completed.  Worker processes run one at a time, with BLAS pinned to one
thread, and import the package from the checkout's ``src``.

With ``--trace 0`` the end-to-end metrics are printed; set-up is measured
five times (four set-up-only workers and the measuring one) and reported as
the median.  With ``--trace 1`` every second operation is traced, and the per-layer
metrics of the traced operations are printed, per operation.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Operations that
raise count as failed; operations whose output contradicts the paper also
set ``correct`` to false.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench_out"
WORKLOADS = ("reproduce", "orbit_sweep", "flow_queries")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0      # per workload, below the 180 s a run may take
# Contention from outside the machine differs per CPU and changes over tens
# of seconds; moving the single worker between the allowed CPUs every
# ROTATE_S averages it instead of letting one CPU's state set a whole run.
ROTATE_S = 0.5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(workload: str, seed: int, seconds: float, mode: str, k: int,
           deadline: float) -> dict:
    """Run one worker to completion and return its result."""
    result = SCRATCH / f"result-{workload}-{seed}-{mode}-{k}.json"
    result.unlink(missing_ok=True)
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--spawned-at", repr(spawned_at), "--scratch", str(SCRATCH),
           "--result", str(result)]
    cpus = sorted(os.sched_getaffinity(0))
    proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdout=sys.stderr)
    try:
        for tick in itertools.count():
            try:
                proc.wait(timeout=ROTATE_S)
                break
            except subprocess.TimeoutExpired:
                pass
            if time.monotonic() > deadline:
                raise BenchError(f"{workload} worker ({mode}) exceeded the time limit")
            try:
                os.sched_setaffinity(proc.pid, {cpus[tick % len(cpus)]})
            except ProcessLookupError:
                pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    out = json.loads(result.read_text())
    result.unlink()
    package = Path(out["env"]["package"]).resolve()
    if ROOT / "src" not in package.parents:
        raise BenchError(f"worker imported the package from {package}, not {ROOT / 'src'}")
    return out


def _tail(xs: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n <= 20:
        return "no percentile above p50 has 10 samples beyond it"
    p = math.floor(100 * (n - 10) / n)
    return f"p{p} {sorted(xs)[math.ceil(p * n / 100) - 1]:.4f} s"


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
            deadline: float) -> dict:
    if trace:
        main = _spawn(workload, seed, seconds, "trace", 0, deadline)
    else:
        setups = [_spawn(workload, seed, seconds, "setup", k, deadline)["setup_s"]
                  for k in range(SETUP_SAMPLES - 1)]
        main = _spawn(workload, seed, seconds, "run", 0, deadline)
        setups.append(main["setup_s"])

    ops = main["ops"]
    lat = [o["latency_s"] for o in ops]
    ok = [o["latency_s"] for o in ops if o["error"] is None]
    errors = [o["error"] for o in ops if o["error"] is not None]
    env = main["env"]
    print(f"== {workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} cpus_allowed={len(os.sched_getaffinity(0))} "
          f"blas_threads={env['blas_threads']} workers=1 closed_loop_clients=1")
    for kind in sorted(set(errors)):
        print(f"   failed x{errors.count(kind)}: {kind}")
    print(f"   error_rate {len(errors) / len(ops):.4f} ({len(errors)}/{len(ops)} ops)")
    for name, value in sorted(main.get("diagnostics", {}).items()):
        print(f"   diagnostic {name} {value:.6g}")
    if not ok:
        raise BenchError(f"{workload}: no operation succeeded")

    if trace:
        values = main["per_layer"]
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"   {name:44s} {m['value']:.6g} {m['unit']}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(ok),
            "ops_per_s": len(ok) / sum(lat),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"median of n={len(setups)}: "
                       + ", ".join(f"{s:.4f}" for s in setups),
            "op_p50_s": f"n={len(ok)} successful ops; {_tail(ok)}",
            "ops_per_s": f"{len(ok)} successful ops in {sum(lat):.3f} s of operations",
            "peak_rss_mb": "ru_maxrss of the measuring worker",
        }
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name, m in metrics.items():
            print(f"   {name:12s} {m['value']:.6g} {m['unit']}  ({notes[name]})")
    return {
        "correct": not any(e.startswith("check") for e in errors),
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    # a terminated run still stops its worker (see the finally in _spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "cuspsoliton" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'cuspsoliton'}; "
              "run from the root of a cuspsoliton checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    SCRATCH.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        # build: byte-compile once, so no measured set-up pays for compilation
        build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
                               cwd=ROOT, stdout=sys.stderr, timeout=120)
        if build.returncode != 0:
            raise BenchError("byte-compiling the sources failed")
        for i, w in enumerate(names):
            deadline = (started if i == 0 else time.monotonic()) + TIME_LIMIT_S
            results[w] = measure(w, args.seed, seconds, bool(args.trace), spec, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
