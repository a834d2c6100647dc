"""End-to-end CLI runs in a subprocess: exit codes, outputs, determinism."""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import threading
import types

import pytest

from adiabatic_continuum import cli
from adiabatic_continuum.errors import NoExteriorError, reportable
from adiabatic_continuum.runner import COMMANDS
from conftest import SRC, run_cli, run_python

FLIP_PROFILE = "1.0, -0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0"


def test_help_exits_zero():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "simulate" in result.stdout
    assert "verify" in result.stdout


def test_parser_lists_the_command_table():
    # the subcommands are runner.COMMANDS, in order, each helped by its docstring
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(COMMANDS)
    assert [(a.dest, a.help) for a in sub._choices_actions] == [(name, fn.__doc__) for name, fn in COMMANDS.items()]
    assert all(fn.__doc__ for fn in COMMANDS.values())


def test_missing_config_flag_is_usage_error():
    result = run_cli("simulate")
    assert result.returncode == 2
    assert "--config" in result.stderr


def test_simulate_writes_reports(write_config, tmp_path):
    cfg = write_config({"run": {"T": "20.0", "steps": "512"}})
    out = tmp_path / "sim"
    result = run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert f"outputs written to {out}: report.json, resolved_config.json" in result.stdout
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "simulate"
    assert report["leakage"]["T"] == 20.0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved == report["resolved_config"]


def test_simulate_csv_only_says_nothing_was_written(write_config, tmp_path):
    # simulate produces no sweep.csv, so formats = csv selects no file at all
    cfg = write_config({"run": {"T": "20.0", "steps": "512"}, "output": {"formats": "csv"}})
    out = tmp_path / "sim"
    result = run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert "outputs written to" not in result.stdout
    assert "no outputs written: [output] formats = csv selects no file of simulate" in result.stdout
    assert list(out.iterdir()) == []


def test_simulate_steps_override_lands_in_record(write_config, tmp_path):
    cfg = write_config({"run": {"T": "20.0"}})
    out = tmp_path / "sim"
    result = run_cli("simulate", "--config", str(cfg), "--out", str(out), "--steps", "640")
    assert result.returncode == 0, result.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["resolved_config"]["run"]["steps"] == 640


def test_simulate_below_the_step_budget_exits_2_without_outputs(write_config, tmp_path):
    cfg = write_config({"run": {"T": "100.0"}})
    out = tmp_path / "sim"
    result = run_cli("simulate", "--config", str(cfg), "--out", str(out), "--steps", "100")
    assert result.returncode == 2
    assert "config error: steps=100 cannot resolve duration T=100.0 (required >= 510)" in result.stderr
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("nested", [False, True], ids=["file", "under_file"])
def test_unusable_output_path_is_a_config_error(write_config, tmp_path, nested):
    # an --out that is a file, or lies under one, cannot hold the outputs
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if nested else blocker
    result = run_cli("criterion", "--config", str(write_config({})), "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.startswith(f"config error: cannot write outputs to {out}: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert blocker.read_text() == "not a directory\n"


def test_out_of_memory_grid_is_a_config_error(write_config, tmp_path):
    # the N x N generator of N = 10^7 is a 1.42 PiB request, which numpy
    # refuses before allocating anything; a grid that fits the address
    # space but not RAM may instead be killed by the OS, and is not tested
    cfg = write_config({"grid": {"N": "10000000"}})
    out = tmp_path / "big"
    result = run_cli("criterion", "--config", str(cfg), "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.startswith("config error: out of memory: Unable to allocate 1.42 PiB")
    assert result.stderr.count("\n") == 1
    assert "(10000000, 10000000)" in result.stderr
    assert result.stdout == ""
    assert not out.exists()


def test_reportable_maps_only_memory_errors():
    # a bare MemoryError (Python's own allocator) carries no message
    assert (str(reportable(MemoryError())), reportable(MemoryError()).exit_code) == ("out of memory", 2)
    error = NoExteriorError("band covers the grid")
    assert reportable(error) is error


def test_criterion_exit_reflects_threshold(write_config, tmp_path):
    cfg = write_config({})
    assert run_cli("criterion", "--config", str(cfg), "--out", str(tmp_path / "a")).returncode == 4
    ok = run_cli("criterion", "--config", str(cfg), "--out", str(tmp_path / "b"), "--threshold", "19")
    assert ok.returncode == 0
    assert "satisfied" in ok.stdout


def test_bands_feasible_and_infeasible(write_config, tmp_path):
    feasible = write_config({"run": {"T": "1500.0"}, "analysis": {"margin": "100.0"}})
    result = run_cli("bands", "--config", str(feasible), "--out", str(tmp_path / "ok"))
    assert result.returncode == 0, result.stderr

    hopeless = write_config({"run": {"T": "15.0"}, "analysis": {"margin": "100.0"}},
                            name="hopeless.cfg")
    result = run_cli("bands", "--config", str(hopeless), "--out", str(tmp_path / "bad"))
    assert result.returncode == 6
    # the plan is still persisted for inspection
    report = json.loads((tmp_path / "bad" / "report.json").read_text())
    assert report["plan"]["selected_m"] is None


def test_simulate_whole_grid_band_has_no_exterior(write_config, tmp_path):
    cfg = write_config({"bands": {"m": "16"}, "run": {"T": "20.0", "steps": "512"}})
    result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert result.returncode == 5
    assert "no exterior" in result.stderr


@pytest.mark.parametrize("command", ["simulate", "sweep", "criterion", "bands", "verify"])
def test_crossing_aborts_before_outputs(write_config, tmp_path, command):
    overrides = {"dispersion": {"family": "tabulated", "params": FLIP_PROFILE}}
    if command == "sweep":
        overrides["run"] = {"T": None, "T_list": "20, 40, 80"}
    cfg = write_config(overrides)
    out = tmp_path / "o"
    result = run_cli(command, "--config", str(cfg), "--out", str(out))
    assert result.returncode == 3
    assert "crossing" in result.stderr
    assert not out.exists()


def test_missing_section_names_it(write_config, tmp_path):
    cfg = write_config({"grid": None})
    result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert result.returncode == 2
    assert "grid" in result.stderr


def test_unknown_key_is_rejected(write_config, tmp_path):
    cfg = write_config({"run": {"tsteps": "100"}})
    result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert result.returncode == 2
    assert "tsteps" in result.stderr


def test_verify_fails_on_sabotaged_steps(write_config, tmp_path):
    # 10 steps cannot resolve the propagator; the transport checks step at
    # their own budget, so intertwining still passes
    cfg = write_config({})
    result = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--steps", "10")
    assert result.returncode == 1
    assert "[FAIL] unitarity" in result.stdout
    assert "[PASS] intertwining" in result.stdout


def test_sweep_requires_duration_list(write_config, tmp_path):
    scalar = write_config({})
    result = run_cli("sweep", "--config", str(scalar), "--out", str(tmp_path / "o"))
    assert result.returncode == 2
    assert "T_list" in result.stderr

    short = write_config({"run": {"T": None, "T_list": "20, 40", "steps": "256"}},
                         name="short.cfg")
    result = run_cli("sweep", "--config", str(short), "--out", str(tmp_path / "p"))
    assert result.returncode == 2


def test_sweep_outputs_identical_across_jobs(write_config, tmp_path):
    # --jobs is accepted and has no effect: every value writes the same bytes
    for scheme in ("midpoint_exponential", "fourth_order_commutator_free"):
        cfg = write_config(
            {"run": {"T": None, "T_list": "20, 30, 40", "steps": "256", "scheme": scheme}},
            name=f"{scheme}.cfg",
        )
        out = tmp_path / scheme
        names = ("report.json", "sweep.csv", "resolved_config.json")

        first = run_cli("sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1")
        assert first.returncode == 0, first.stderr
        serial = {name: (out / name).read_bytes() for name in names}

        for jobs in ("2", "3"):
            again = run_cli("sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs)
            assert again.returncode == 0, again.stderr
            for name in names:
                assert (out / name).read_bytes() == serial[name]


def test_rejected_jobs_value(write_config, tmp_path):
    cfg = write_config({"run": {"T": None, "T_list": "20, 30, 40", "steps": "256"}})
    result = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--jobs", "0")
    assert result.returncode == 2
    assert "--jobs" in result.stderr


def test_cf4_sweep_starts_no_thread(monkeypatch, write_config, tmp_path):
    # every command runs on the calling thread, whatever --jobs says
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    monkeypatch.setattr(cli, "_retain_freed_heap", lambda: None)
    cfg = write_config({"run": {"T": None, "T_list": "20, 30, 40", "steps": "256",
                                "scheme": "fourth_order_commutator_free"}})
    code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert code == 0
    assert started == []


class _Mallopt:
    """Stands in for glibc's mallopt and records its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def test_allocator_policy_sets_both_thresholds(monkeypatch):
    mallopt = _Mallopt()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    cli._retain_freed_heap()
    # M_MMAP_THRESHOLD (-3) at 32 MiB, the most glibc accepts on 64-bit, then M_TRIM_THRESHOLD (-1)
    assert mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert mallopt.restype is ctypes.c_int


def test_allocator_policy_is_a_no_op_without_mallopt(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    cli._retain_freed_heap()


def test_main_sets_the_allocator_policy_once_before_parsing(monkeypatch, write_config, tmp_path):
    events = []
    parser = cli.build_parser
    monkeypatch.setattr(cli, "_retain_freed_heap", lambda: events.append("policy"))
    monkeypatch.setattr(cli, "build_parser", lambda: events.append("parse") or parser())
    cfg = write_config()
    cli.main(["criterion", "--config", str(cfg), "--out", str(tmp_path / "crit")])
    assert events == ["policy", "parse"]


# Reports the CLI child's peak RSS in KiB.  A child's ru_maxrss starts from
# the resident size of the process that spawns it, so a small launcher
# spawns the CLI instead of this test process.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "adiabatic_continuum", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_simulate_peak_rss_is_flat_in_steps(tmp_path):
    # the allocator policy keeps freed chunks on the heap; what it keeps
    # must not grow with the number of chunks
    cfg = SRC.parent / "configs" / "default.cfg"
    peaks = []
    for steps in ("2000", "16000"):
        out = tmp_path / steps
        result = run_python("-c", _PEAK_RSS, "simulate", "--config", str(cfg), "--out", str(out),
                            "--steps", steps)
        code, peak_kib = map(int, result.stdout.split())
        assert code == 0, result.stderr
        peaks.append(peak_kib / 1024.0)
    assert abs(peaks[1] - peaks[0]) < 4.0, peaks
