"""Every package name that bench/spans.py hooks still resolves.

`bench/run.py --trace 1` replaces these by attribute, so an API trim that
removes one makes every traced op fail.  spans.py is loaded read-only; no
hook is installed.
"""

from __future__ import annotations

import importlib.util

import adiabatic_continuum as package
import adiabatic_continuum.cli  # noqa: F401  (binds package.cli and package.runner)

from conftest import SRC


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SRC.parent / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_hook_resolves():
    spans = _spans()
    for home in (*spans.BINDERS, "propagation", "spectral", "bands"):
        assert hasattr(package, home), home
    missing = [
        f"{home}.{attr}"
        for _name, home, attr in spans.SPANNED
        if not callable(getattr(getattr(package, home), attr, None))
    ]
    assert missing == []
    assert callable(package.propagation.UnitaryFamily.unitarity_defect)
    assert callable(package.spectral.ContinuumModel.frame_matrix)
    assert callable(package.spectral.ContinuumModel.frame_coupling_profile)
    assert package.runner.COMMANDS and all(callable(fn) for fn in package.runner.COMMANDS.values())
    assert package.verify._CHECKS and all(callable(fn) for _, fn in package.verify._CHECKS)
