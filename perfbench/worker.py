"""One benchmark process: set up a workload, then run its closed loop.

Started by ``run.py`` with the package's ``src`` on ``PYTHONPATH`` and BLAS
pinned to one thread.  ``--mode setup`` only sets up; ``--mode run`` times
operations for ``--seconds``; ``--mode trace`` does the same with every
second operation traced.  The result is written as
JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import cuspsoliton
from tracing import Tracer
from workloads import WORKLOADS, CheckFailed


def closed_loop(workload, inputs, seconds: float, tracer=None) -> list[dict]:
    """Run operations back to back until the next one would overrun ``seconds``.

    With a ``tracer``, every second operation runs traced, so traced and
    untraced operations interleave and share the machine's state of the
    moment; their latency difference is the tracing overhead.
    """
    ops: list[dict] = []
    t0 = perf_counter()
    while not ops or (perf_counter() - t0
                      + statistics.median(o["latency_s"] for o in ops) <= seconds):
        inp = next(inputs)
        traced = tracer is not None and len(ops) % 2 == 1
        run = workload.run
        if traced:
            tracer.install()
            tracer.op = len(ops)
            run = tracer.span("perfbench.op", run)
        start = perf_counter()
        try:
            result = run(inp)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"error: {type(exc).__name__}: {exc}"
        finally:
            latency = perf_counter() - start
            if traced:
                tracer.op = -1
                tracer.uninstall()
        diag = {}
        if error is None:
            try:
                diag = workload.check(inp, result)
            except CheckFailed as exc:
                error = f"check: {exc}"
        ops.append({"latency_s": latency, "error": error, "diag": diag, "traced": traced})
    return ops


def _diagnostic_means(ops: list[dict]) -> dict:
    keys = {k for o in ops for k in o["diag"]}
    return {k: statistics.fmean(o["diag"][k] for o in ops if k in o["diag"])
            for k in sorted(keys)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    inputs = workload.inputs()
    setup_s = time.monotonic() - args.spawned_at
    out = {
        "setup_s": setup_s,
        "env": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "package": cuspsoliton.__file__,
        },
    }
    if args.mode == "run":
        out["ops"] = closed_loop(workload, inputs, args.seconds)
    elif args.mode == "trace":
        tracer = Tracer()
        out["ops"] = closed_loop(workload, inputs, args.seconds, tracer)
        tracer.write_spans(args.scratch / f"spans-{args.workload}-seed{args.seed}.jsonl")
        traced = [o for o in out["ops"] if o["traced"]]
        p50 = lambda ops: statistics.median(o["latency_s"] for o in ops)
        out["per_layer"] = tracer.per_layer(len(traced), {
            "trace.overhead_s": p50(traced) - p50([o for o in out["ops"] if not o["traced"]]),
            **_diagnostic_means(traced),
        })
    if "ops" in out:
        out["diagnostics"] = _diagnostic_means(out["ops"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
