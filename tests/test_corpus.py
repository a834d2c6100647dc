"""Replay of the committed output corpus (tests/corpus) through cli.main.

Every input is run through every command, in process, by
scripts/regenerate_corpus.py's replay, and each run directory must hold
the same file names as the stored one.  Each file is compared with the
stored one byte for byte (report.json's timestamp masked).  A mismatch
lists every moved value with its absolute and relative size
(scripts/output_diff.py's compare): an intended move is recorded by
regenerating the corpus and listing the moves.

The stored bytes belong to the environment of environment.json.  Where
numpy, its BLAS, the CPU's SIMD set, the C library, the usable CPUs or
the BLAS variables differ, BLAS and libm may round differently, so the
numbers are compared within FALLBACK instead, and a warning says so:
two numbers agree within 1e-10 relative, or are both at most 1e-9 in
size.  Replayed with other OpenBLAS kernels (OPENBLAS_CORETYPE=Haswell
or Prescott, numpy without AVX-512 dispatch), values of physical size
moved by up to 6.5e-12 relative (the random_banded input's eta_exact).  The
roundoff residuals (unitarity defects, projector and intertwining
residuals, all at most 1.3e-13; the CF4 inputs' at most 6.8e-14) moved
by up to order one relative.
Every other number in the corpus is a fixed tolerance or at least 6.6e-6
(the infeasible input's best_margin_ratio), and the check flags, exit
codes and words compare exactly either way.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import warnings

import pytest

from conftest import SRC

ROOT = SRC.parent
FALLBACK = {"rel_tol": 1e-10, "floor": 1e-9}


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _script("regenerate_corpus")
output_diff = _script("output_diff")


def _stored_environment() -> dict:
    return json.loads((corpus.CORPUS / corpus.ENVIRONMENT).read_text())


@pytest.mark.parametrize("case", corpus.inputs(), ids=lambda case: case.name)
def test_corpus_replays_byte_for_byte(case, tmp_path):
    stored_env, env = _stored_environment(), corpus.environment()
    exact = env == stored_env
    if not exact:
        warnings.warn(f"corpus made under {stored_env}, replayed under {env}: numbers compared within {FALLBACK}")
    moved = []
    for command in corpus.COMMANDS:
        stored, replayed = case / command, tmp_path / command
        corpus.replay(case / corpus.INPUT, command, replayed)
        # a file in one directory only raises output_diff.Unreadable, naming it
        lines = output_diff.compare(stored, replayed, **({} if exact else FALLBACK))
        if exact and not lines:  # equal values can still differ in bytes, as 1 and 1.0 do
            names = sorted(p.name for p in stored.iterdir())
            lines = [f"{n}: bytes differ" for n in names if (stored / n).read_bytes() != (replayed / n).read_bytes()]
        moved += [f"{case.name}/{command}/{line}" for line in lines]
    assert not moved, "outputs moved from the corpus:\n" + "\n".join(moved)


def test_corpus_fallback_passes_under_other_blas_kernels(tmp_path):
    # the default input's verify, replayed in a child process with OpenBLAS's
    # generic SSE3 kernels: its roundoff residuals move (by order one relative
    # on the host the corpus was made on) and the comparison within FALLBACK
    # still finds nothing
    case, command = corpus.CORPUS / "default", "verify"
    code = (
        "import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); import regenerate_corpus as c; "
        "c.replay(Path(sys.argv[2]), sys.argv[3], Path(sys.argv[4])); print(json.dumps(c.environment()))"
    )
    args = [sys.executable, "-c", code, str(ROOT / "scripts"), str(case / corpus.INPUT), command, str(tmp_path)]
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    child_env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=path)
    result = subprocess.run(args, env=child_env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) != _stored_environment()
    if corpus.environment() == _stored_environment():
        assert output_diff.compare(case / command, tmp_path), "the other kernels moved nothing"
    assert output_diff.compare(case / command, tmp_path, **FALLBACK) == []
