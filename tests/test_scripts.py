"""Smoke runs of the example scripts and README's library example against this checkout's package."""

from __future__ import annotations

import importlib.util
import re
import sys

import pytest

from conftest import SRC, run_python

ROOT = SRC.parent


@pytest.mark.parametrize(
    "args",
    [
        ("run_convergence.py", "configs/sweep.cfg"),
        ("schedule_comparison.py", "--durations", "50,100,200", "--steps", "2000"),
    ],
    ids=["run_convergence", "schedule_comparison"],
)
def test_script_runs_and_fits(args):
    script, *rest = args
    result = run_python(str(ROOT / "scripts" / script), *rest, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    assert "slope" in result.stdout


def test_run_convergence_keeps_the_gap_margin_check(tmp_path):
    cfg = (ROOT / "configs" / "sweep.cfg").read_text().replace(
        "T_list = 50, 100, 200, 400, 800", "T_list = 0, 100, 200"
    )
    path = tmp_path / "t0.cfg"
    path.write_text(cfg)
    result = run_python(str(ROOT / "scripts" / "run_convergence.py"), str(path), cwd=ROOT)
    assert result.returncode == 2
    assert "duration T=0 violates the gap margin" in result.stderr


def test_run_convergence_exits_with_the_cli_code_without_a_duration_list():
    # sweep exits 2 on a file without T_list; the script keeps that code
    result = run_python(str(ROOT / "scripts" / "run_convergence.py"), "configs/default.cfg", cwd=ROOT)
    assert result.returncode == 2
    assert result.stderr == "ConfigError: a sweep needs [run] T_list with at least 3 entries\n"
    assert result.stdout == ""


def test_schedule_comparison_keeps_the_gap_margin_check():
    script = str(ROOT / "scripts" / "schedule_comparison.py")
    result = run_python(script, "--durations", "0,100,200", "--steps", "2000", cwd=ROOT)
    assert result.returncode == 2
    assert "duration T=0 violates the gap margin" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("durations", ["50,100,200,", "50,x,200"])
def test_schedule_comparison_reports_a_malformed_duration_list(durations):
    # the header's T comes from the loaded config, so a malformed list
    # stops on the config error before any output, not in a traceback
    script = str(ROOT / "scripts" / "schedule_comparison.py")
    result = run_python(script, "--durations", durations, "--steps", "2000", cwd=ROOT)
    assert result.returncode == 2
    assert result.stderr.startswith("ConfigError: [run] T_list = ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_run_convergence_exits_2_on_an_out_of_memory_grid(tmp_path):
    # as the CLI: numpy refuses the N x N generator of N = 10^7 outright
    path = tmp_path / "big.cfg"
    path.write_text((ROOT / "configs" / "sweep.cfg").read_text().replace("N = 16", "N = 10000000"))
    result = run_python(str(ROOT / "scripts" / "run_convergence.py"), str(path), cwd=ROOT)
    assert result.returncode == 2
    assert result.stderr.startswith("ConfigError: out of memory: Unable to allocate 1.42 PiB")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


def test_schedule_comparison_exits_2_when_a_sweep_runs_out_of_memory(monkeypatch, capsys):
    # its model is configs/sweep.cfg's, so the refusal is injected in process
    spec = importlib.util.spec_from_file_location("schedule_comparison", ROOT / "scripts" / "schedule_comparison.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def refused(config):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(script, "cmd_sweep", refused)
    monkeypatch.setattr(sys, "argv", ["schedule_comparison.py", "--durations", "50,100,200"])
    monkeypatch.setattr(script, "_retain_freed_heap", lambda: None)
    with pytest.raises(SystemExit) as stop:
        script.main()
    assert stop.value.code == 2
    assert capsys.readouterr().err == "ConfigError: out of memory: Unable to allocate 8.00 EiB for an array\n"


def test_readme_library_example_runs_as_printed():
    # the "Library use" block verbatim, so the example cannot drift from the code
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Library use\n\n```python\n(.*?)```", readme, flags=re.S)
    result = run_python("-c", block, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) == pytest.approx(8.0e-3, rel=0.01)
