"""Every package name that bench/spans.py hooks still resolves, and every
input bench/run.py writes still loads and parses.

`bench/run.py --trace 1` replaces these by attribute, so an API trim that
removes one makes every traced op fail.  spans.py is loaded read-only; no
hook is installed.  The benchmark's INI files set `[analysis] s_samples`
and its sweep passes `--jobs 2`, so neither may go before the benchmark
itself changes.
"""

from __future__ import annotations

import importlib.util
import sys

import adiabatic_continuum as package
import adiabatic_continuum.cli  # noqa: F401  (binds package.cli and package.runner)
from adiabatic_continuum import load_config

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


def test_every_bench_input_loads_and_parses(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", SRC.parent / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)
    spec.loader.exec_module(run)
    parser = package.cli.build_parser()
    for name, workload in run.WORKLOADS.items():
        for seed in (1, 2):
            path = tmp_path / f"{name}-{seed}.cfg"
            path.write_text(run.make_input(name, seed)[0])
            assert load_config(path).resolved["analysis"]["s_samples"] == 129
            for jobs in workload.jobs:
                args = parser.parse_args([workload.command, "--config", str(path), "--jobs", str(jobs)])
                assert (args.command, args.jobs) == (workload.command, jobs)
