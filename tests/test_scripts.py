"""Smoke runs of the example scripts and README's library example against this checkout's package."""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
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
    assert result.stdout == ""


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


def test_output_diff_reports_each_moved_number(tmp_path):
    # two runs' output directories: identical (0), one moved value with its
    # sizes (1), a file in one directory only (2)
    script = str(ROOT / "scripts" / "output_diff.py")
    report = {"command": "sweep", "timestamp": "then", "rows": [{"T": 50.0, "eta_exact": 0.25}]}
    csv_text = "T,eta_exact\n50,0.25\n"
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "report.json").write_text(json.dumps(report))
        (tmp_path / name / "resolved_config.json").write_text("{}")
        (tmp_path / name / "sweep.csv").write_text(csv_text)
        report = {**report, "timestamp": "now"}
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    result = run_python(script, a, b, cwd=ROOT)
    assert (result.returncode, result.stdout, result.stderr) == (0, "identical\n", "")

    (tmp_path / "b" / "report.json").write_text(json.dumps({**report, "rows": [{"T": 50.0, "eta_exact": 0.5}]}))
    (tmp_path / "b" / "sweep.csv").write_text("T,eta_exact\n50.0,0.5\n")
    result = run_python(script, a, b, cwd=ROOT)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "report.json rows[0].eta_exact: 0.25 -> 0.5  abs 2.500e-01  rel 1.000e+00",
        "sweep.csv [0].eta_exact: '0.25' -> '0.5'  abs 2.500e-01  rel 1.000e+00",
        "2 values moved",
    ]

    (tmp_path / "b" / "sweep.csv").unlink()
    result = run_python(script, a, b, cwd=ROOT)
    assert result.returncode == 2
    assert result.stderr.startswith("unreadable: sweep.csv is in only one of")
    assert result.stdout == ""


def test_output_diff_compares_a_corpus_tree_and_its_text_files(tmp_path):
    # two trees of runs, as tests/corpus holds: exit code, stdout and stderr
    # compare as text line by line, each line prefixed with its run's path
    script = str(ROOT / "scripts" / "output_diff.py")
    for name in ("a", "b"):
        run = tmp_path / name / "default" / "verify"
        run.mkdir(parents=True)
        (run / "exit_code.txt").write_text("0\n")
        (run / "stdout.txt").write_text("[PASS] by_parts: measured 1.511e-16 (tol 1e-08)\n       10 exterior pairs\n")
        (run / "stderr.txt").write_text("")
        (run / "report.json").write_text(json.dumps({"checks": [{"measured": 1.5e-16}]}))
        (tmp_path / name / "default" / "input.ini").write_text("[grid]\n")
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    result = run_python(script, a, b, cwd=ROOT)
    assert (result.returncode, result.stdout, result.stderr) == (0, "identical\n", "")

    run = tmp_path / "b" / "default" / "verify"
    (run / "exit_code.txt").write_text("1\n")
    (run / "stdout.txt").write_text("[PASS] by_parts: measured 1.511e-16 (tol 1e-08)\n       1 coupled exterior pair\n")
    result = run_python(script, a, b, cwd=ROOT)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "default/verify/exit_code.txt [0]: '0' -> '1'  abs 1.000e+00  rel inf",
        "default/verify/stdout.txt [1]: '       10 exterior pairs' -> '       1 coupled exterior pair'",
        "2 values moved",
    ]

    (run / "stderr.txt").unlink()
    result = run_python(script, a, b, cwd=ROOT)
    assert result.returncode == 2
    assert result.stderr.startswith("unreadable: stderr.txt is in only one of")


def test_output_diff_compare_takes_a_relative_tolerance_and_a_floor(tmp_path):
    # a 1-ulp move passes rel_tol; a roundoff residual that moved by order
    # one passes the floor; a physical value that moved by 1e-9 relative, or
    # a residual that grew past the floor, passes neither
    spec = importlib.util.spec_from_file_location("output_diff", ROOT / "scripts" / "output_diff.py")
    output_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(output_diff)
    values = {"a": (2.530619424688032e-15, 1.82e-14, "residual 2.530619424688032e-15; U 1.821e-14 at T=100"),
              "b": (2.5306194246880313e-15, 3.73e-14, "residual 2.5306194246880313e-15; U 3.730e-14 at T=100")}
    for name, (residual, defect, line) in values.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "report.json").write_text(json.dumps({"measured": residual, "U": defect, "eta": 0.008}))
        (tmp_path / name / "stdout.txt").write_text(line + "\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert len(output_diff.compare(a, b)) == 3
    assert len(output_diff.compare(a, b, rel_tol=1e-12)) == 2
    assert output_diff.compare(a, b, rel_tol=1e-12, floor=1e-9) == []
    (b / "report.json").write_text(json.dumps({"measured": 2.5306194246880313e-15, "U": 2e-9, "eta": 0.008000000008}))
    (b / "stdout.txt").write_text("residual 2.5306194246880313e-15; U 3.730e-14 at T=200\n")
    assert output_diff.compare(a, b, rel_tol=1e-10, floor=1e-9) == [
        "report.json U: 1.82e-14 -> 2e-09  abs 2.000e-09  rel 1.099e+05",
        "report.json eta: 0.008 -> 0.008000000008  abs 8.000e-12  rel 1.000e-09",
        "stdout.txt [0]: 'residual 2.530619424688032e-15; U 1.821e-14 at T=100'"
        " -> 'residual 2.5306194246880313e-15; U 3.730e-14 at T=200'",
    ]


def test_output_diff_reports_a_removed_row_and_its_lines_once(tmp_path):
    # a check row deleted from the middle of a verify run: the named rows
    # pair by name and the stdout lines by difflib, so the row and each of
    # its lines are one move, and the rows and lines after them pair with
    # their twins (one moved number among them is still found)
    spec = importlib.util.spec_from_file_location("output_diff", ROOT / "scripts" / "output_diff.py")
    output_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(output_diff)
    rows = [{"name": "unitarity", "measured": 1.8e-14}, {"name": "degeneracy", "measured": 0.0},
            {"name": "by_parts", "measured": 1.5e-17}, {"name": "intertwining", "measured": 2.4e-15}]
    lines = ["[PASS] unitarity: measured 1.821e-14", "       U 1.665e-14 at T=100",
             "[PASS] degeneracy: measured 0.000e+00", "       band size 1",
             "[PASS] by_parts: measured 1.552e-17", "[PASS] intertwining: measured 2.444e-15",
             "all checks passed"]
    for name, kept in (("a", rows), ("b", [rows[0], rows[2], {**rows[3], "measured": 2.5e-15}])):
        (tmp_path / name).mkdir()
        (tmp_path / name / "report.json").write_text(json.dumps({"checks": kept}))
    (tmp_path / "a" / "stdout.txt").write_text("\n".join(lines) + "\n")
    kept = lines[:1] + ["       U 1.248e-14 at s = 1, T=100", lines[4], "[PASS] intertwining: measured 2.500e-15"]
    (tmp_path / "b" / "stdout.txt").write_text("\n".join(kept + lines[6:]) + "\n")
    assert output_diff.compare(tmp_path / "a", tmp_path / "b") == [
        "report.json checks[degeneracy]: {'name': 'degeneracy', 'measured': 0.0} -> None",
        "report.json checks[intertwining].measured: 2.4e-15 -> 2.5e-15  abs 1.000e-16  rel 4.167e-02",
        "stdout.txt [1]: '       U 1.665e-14 at T=100' -> '       U 1.248e-14 at s = 1, T=100'",
        "stdout.txt [2]: '[PASS] degeneracy: measured 0.000e+00' -> None",
        "stdout.txt [3]: '       band size 1' -> None",
        "stdout.txt [5->3]: '[PASS] intertwining: measured 2.444e-15' -> '[PASS] intertwining: measured 2.500e-15'",
    ]
    # a line only the second run has is one move too, at its index there
    added = "stdout.txt [2]: None -> '[PASS] degeneracy: measured 0.000e+00'"
    assert added in output_diff.compare(tmp_path / "b", tmp_path / "a")


def test_output_diff_compare_checks_the_file_names_and_other_files_bytes(tmp_path):
    # a file that one run leaves and the other does not is reported by name,
    # and a file compare does not parse is compared byte for byte
    spec = importlib.util.spec_from_file_location("output_diff", ROOT / "scripts" / "output_diff.py")
    output_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(output_diff)
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "exit_code.txt").write_text("0\n")
        (tmp_path / name / "notes.txt").write_text(f"written by {name}\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert output_diff.compare(a, b) == ["notes.txt: bytes differ"]
    assert output_diff.compare(a, b, rel_tol=1e-10, floor=1e-9) == ["notes.txt: bytes differ"]
    (b / "plot.png").write_bytes(b"")
    (a / "notes.txt").unlink()
    with pytest.raises(output_diff.Unreadable, match="notes.txt, plot.png is in only one of"):
        output_diff.compare(a, b, rel_tol=1e-10, floor=1e-9)


def _regenerate_corpus():
    spec = importlib.util.spec_from_file_location("regenerate_corpus", ROOT / "scripts" / "regenerate_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def test_regenerate_corpus_prints_what_moved(tmp_path, capsys, monkeypatch):
    # a one-input corpus whose stored verify run was altered: regeneration
    # rewrites it from a fresh run and prints the moves against the old copy
    # (the crossing input's runs stop on a config check, the same bytes on
    # any BLAS); the script refuses to run under a BLAS variable
    corpus = _regenerate_corpus()
    for name in corpus.BLAS_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    root = tmp_path / "corpus"
    shutil.copytree(corpus.CORPUS / "crossing", root / "crossing")
    run = root / "crossing" / "verify"
    stored = (run / "stderr.txt").read_text()
    (run / "exit_code.txt").write_text("0\n")
    (run / "stderr.txt").write_text(stored.replace("separation 0.000e+00", "separation 1.000e-03"))
    corpus.main(root)
    assert capsys.readouterr().out.splitlines() == [
        "crossing/verify/exit_code.txt [0]: '0' -> '3'  abs 3.000e+00  rel inf",
        f"crossing/verify/stderr.txt [0]: {stored.replace('0.000e+00', '1.000e-03').rstrip()!r} -> {stored.rstrip()!r}",
        "2 values moved",
        f"regenerated 1 inputs x 5 commands in {root}",
    ]
    assert (run / "stderr.txt").read_text() == stored
    assert json.loads((root / corpus.ENVIRONMENT).read_text()) == corpus.environment()
    corpus.main(root)
    assert capsys.readouterr().out.splitlines()[0] == "identical"
    # an input the old copy lacks is named, after the corpus is rewritten
    (root / "added").mkdir()
    shutil.copyfile(root / "crossing" / corpus.INPUT, root / "added" / corpus.INPUT)
    corpus.main(root)
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("unreadable: ") and "added" in first
    assert (root / "added" / "verify" / "stderr.txt").read_text() == stored


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE"])
def test_regenerate_corpus_refuses_under_a_blas_variable(tmp_path, monkeypatch, name):
    # the corpus would record the variable, and a plain pytest run (none
    # set) would replay every input within the fallback tolerance: the
    # script exits non-zero, names it and leaves the corpus as it was
    corpus = _regenerate_corpus()
    root = tmp_path / "corpus"
    shutil.copytree(corpus.CORPUS / "crossing", root / "crossing")
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    for other in corpus.BLAS_VARIABLES:
        monkeypatch.delenv(other, raising=False)
    monkeypatch.setenv(name, "1")
    with pytest.raises(SystemExit) as stop:
        corpus.main(root)
    assert name in stop.value.code  # a message exits with status 1
    assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before
