"""Spans and solver statistics recorded from outside the package.

``Tracer.install`` replaces each traced public function by a wrapper under
every name it is bound to (``cli.find_crossings`` as well as
``evolution.find_crossings``), and ``solve_ivp`` under its bindings in
``phase_core``, ``separatrix`` and ``evolution``.  A span is
``[name, start, end, parent, op]``; spans stay in memory until
``write_spans`` is called at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import cuspsoliton
from cuspsoliton import blowup, cli, evolution, geometry, phase_core, separatrix

_MODULES = (cuspsoliton, phase_core, separatrix, geometry, evolution, blowup, cli)

#: (span name, owner, attribute); functions are rebound in every module of
#: _MODULES that holds them, methods on their class
_TRACED = [
    ("phase_core.integrate", phase_core, "integrate"),
    ("phase_core.state_at", phase_core.Trajectory, "state_at"),
    ("phase_core.r_at_F", phase_core.Trajectory, "r_at_F"),
    ("separatrix.shoot_separatrix", separatrix, "shoot_separatrix"),
    ("separatrix.certify_barriers", separatrix, "certify_barriers"),
    ("geometry.reconstruct_profiles", geometry, "reconstruct_profiles"),
    ("geometry.curvatures", geometry, "curvatures"),
    ("geometry.soliton_residuals", geometry, "soliton_residuals"),
    ("geometry.check_asymptotics", geometry, "check_asymptotics"),
    ("evolution.find_crossings", evolution, "find_crossings"),
    ("evolution.brentq", evolution, "brentq"),
    ("evolution.scan_psi", evolution, "scan_psi"),
    ("evolution.scan_delta_threshold", evolution, "scan_delta_threshold"),
    ("evolution.pointwise_R_history", evolution, "pointwise_R_history"),
    ("blowup.run_sequence", blowup, "run_sequence"),
    ("blowup.blowup_once", blowup, "blowup_once"),
    ("blowup.divisor_critical_points", blowup, "divisor_critical_points"),
    ("cli.main", cli, "main"),
    ("cli.write_csv", cli, "write_csv"),
    ("cli.write_json", cli, "write_json"),
    ("cli.manifest", cli.Emitter, "manifest"),
]

#: work counted per call, from the call's arguments and result
_COUNTS = {
    "phase_core.state_at": ("points",
                            lambda args, kw, out: np.size(args[1] if len(args) > 1 else kw["r"])),
    "evolution.find_crossings": ("grid_points", lambda args, kw, out: out.n_grid),
    "separatrix.shoot_separatrix": ("samples", lambda args, kw, out: len(out.r)),
}

_SOLVER_MODULES = (phase_core, separatrix, evolution)

LAYERS = ("phase_core", "separatrix", "geometry", "evolution", "blowup", "cli",
          "perfbench")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.solver_calls: list[dict] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        spans, stack = self.spans, self._stack
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = perf_counter()
            if count:
                self.counts[f"{name}.{count[0]}"] += count[1](args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _solver(self, solve_ivp):
        def traced(fun, t_span, y0, method="RK45", *args, **kwargs):
            name = method if isinstance(method, str) else method.__name__
            sol = self.span(f"solver.{name}", solve_ivp)(fun, t_span, y0, method,
                                                          *args, **kwargs)
            self.solver_calls.append({
                "op": self.op, "method": name, "span": [float(t) for t in t_span],
                "nfev": int(sol.nfev), "njev": int(sol.njev), "nlu": int(sol.nlu),
                "steps": len(sol.t) - 1, "status": int(sol.status)})
            return sol
        return traced

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced name; a name the package no longer has is skipped
        and its metrics read 0."""
        for name, owner, attr in _TRACED:
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            new = self.span(name, orig)
            if isinstance(owner, type):
                self._rebind(owner, attr, new)
                continue
            for mod in _MODULES:
                if getattr(mod, attr, None) is orig:
                    self._rebind(mod, attr, new)
        for mod in _SOLVER_MODULES:
            if hasattr(mod, "solve_ivp"):
                self._rebind(mod, "solve_ivp", self._solver(mod.solve_ivp))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for call in self.solver_calls:
                fh.write(json.dumps({"solver_call": call}) + "\n")

    def per_layer(self, n_ops: int, diagnostics: dict) -> dict:
        """Per-operation totals of the traced ops (spans with ``op >= 0``)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        shadow_s = 0.0
        scans_in_threshold = 0
        for i, (name, start, end, parent, op) in enumerate(spans):
            if op < 0:
                continue
            calls[name] += 1
            self_s[name] += end - start - child[i]
            pname = spans[parent][0] if parent >= 0 else None
            if name == "phase_core.integrate" and pname == "blowup.run_sequence":
                shadow_s += end - start
            if name == "evolution.find_crossings" and pname == "evolution.scan_delta_threshold":
                scans_in_threshold += 1

        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        for call in self.solver_calls:
            if call["op"] < 0:
                continue
            for key in ("steps", "nfev", "njev"):
                out[f"solver.{call['method']}.{key}"] = (
                    out.get(f"solver.{call['method']}.{key}", 0) + call[key])
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".")[0] == layer)
        out["solver.self_s"] = sum(v for k, v in self_s.items() if k.startswith("solver."))
        out["blowup.shadow_integrate_s"] = shadow_s
        out["orbit.integrations"] = (calls["separatrix.shoot_separatrix"]
                                     + calls["phase_core.integrate"])
        out["trace.spans"] = sum(calls.values())
        n = max(n_ops, 1)
        out = {k: v / n for k, v in out.items()}
        n_threshold = calls["evolution.scan_delta_threshold"]
        out["evolution.scans_per_threshold"] = (
            scans_in_threshold / n_threshold if n_threshold else 0.0)
        out.update(diagnostics)
        return out
