"""Rewrite the committed output corpus under tests/corpus/.

The corpus holds one directory per input, each with its input.ini and
one subdirectory per CLI command.  A command's subdirectory holds what
one run of it leaves: exit_code.txt, stdout.txt, stderr.txt and the
files it writes (report.json with its timestamp masked,
resolved_config.json and, for a sweep, sweep.csv).  Each run goes
through cli.main in this process, with the working directory set to a
fresh temporary directory and ``--out out``, so no machine path enters
an output.  environment.json records what the corpus's rounding depends
on: the numpy version, its BLAS, the CPU's SIMD set, the C library (its
libm), the usable CPUs and the variables that set the BLAS threads and
kernels.

tests/test_corpus.py replays every run through the same function (replay)
and compares it with the stored files.  The script refuses to run while
any of the BLAS variables is set: the corpus would record it, and a
plain pytest run, which sets none, would then compare every input within
the fallback tolerance instead of byte for byte.  A regeneration changes check
data, so the script copies the old corpus to a temporary directory before
it rewrites, and prints every move that scripts/output_diff.py lists
between the two (its compare_tree): record each of them.

usage: python3 scripts/regenerate_corpus.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from adiabatic_continuum.cli import main as cli_main
from adiabatic_continuum.runner import COMMANDS

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "corpus"
INPUT = "input.ini"
ENVIRONMENT = "environment.json"
MASK = "masked"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_CORETYPE")


def environment() -> dict:
    """What decides the corpus's rounding: numpy, its BLAS and SIMD set, libm, the usable CPUs, the BLAS variables."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "cpu_simd": config["SIMD Extensions"]["found"],
        "libc": " ".join(platform.libc_ver()).strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_variables": {name: os.environ.get(name) for name in BLAS_VARIABLES},
    }


def inputs(corpus: Path = CORPUS) -> list[Path]:
    """The corpus's input directories, by name."""
    return sorted(p.parent for p in corpus.glob(f"*/{INPUT}"))


def replay(ini: Path, command: str, dest: Path) -> None:
    """Run `command` on `ini` through cli.main and store what the run leaves in dest."""
    dest.mkdir(parents=True, exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        shutil.copyfile(ini, Path(work) / INPUT)
        home = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main([command, "--config", INPUT, "--out", "out"])
        finally:
            os.chdir(home)
        for path in sorted((Path(work) / "out").glob("*")):
            text = path.read_text(encoding="utf-8")
            if path.name == "report.json":
                record = json.loads(text)
                if "timestamp" in record:
                    text = text.replace(json.dumps(record["timestamp"]), json.dumps(MASK), 1)
            (dest / path.name).write_text(text, encoding="utf-8")
    (dest / "exit_code.txt").write_text(f"{code}\n", encoding="utf-8")
    (dest / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    (dest / "stderr.txt").write_text(stderr.getvalue(), encoding="utf-8")


def _output_diff():
    """scripts/output_diff.py, loaded from beside this script."""
    spec = importlib.util.spec_from_file_location("output_diff", Path(__file__).with_name("output_diff.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(corpus: Path = CORPUS) -> None:
    """Replace every command's stored run with a fresh one, and the environment record; print what moved.

    Exits non-zero, writing nothing, while any of BLAS_VARIABLES is set.
    """
    pinned = [name for name in BLAS_VARIABLES if name in os.environ]
    if pinned:
        sys.exit(
            f"regenerate_corpus: refusing to write while {', '.join(pinned)} is set: the corpus would record "
            "it, and a plain pytest run would compare every input within the fallback tolerance, not byte for byte"
        )
    output_diff = _output_diff()
    with tempfile.TemporaryDirectory() as work:
        old = Path(work) / corpus.name
        shutil.copytree(corpus, old)
        for case in inputs(corpus):
            for command in COMMANDS:
                shutil.rmtree(case / command, ignore_errors=True)
                replay(case / INPUT, command, case / command)
        (corpus / ENVIRONMENT).write_text(json.dumps(environment(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        try:
            lines = output_diff.compare_tree(old, corpus)
        except output_diff.Unreadable as exc:  # a run or file in one corpus only
            lines = [f"unreadable: {exc}"]
    for line in lines:
        print(line)
    print(f"{len(lines)} values moved" if lines else "identical")
    print(f"regenerated {len(inputs(corpus))} inputs x {len(COMMANDS)} commands in {corpus}")


if __name__ == "__main__":
    main()
