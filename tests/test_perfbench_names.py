"""perfbench traces the package by name; a traced name the package no
longer has is skipped, and its metrics read 0 without a warning."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: traced names that are gone on purpose, and why
GONE = {
    "evolution.brentq": "the crossings are Brent roots of the package's own "
                        "_numerics.brent; scipy's brentq is no longer imported",
}


def _tracing():
    # perfbench is a directory of scripts, not a package: load the module
    # from its file, without changing it
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    tracing = _tracing()
    missing = {name for name, owner, attr in tracing._TRACED
               if not callable(getattr(owner, attr, None))}
    assert missing == set(GONE)
    assert set(tracing._COUNTS) <= {name for name, _, _ in tracing._TRACED}
