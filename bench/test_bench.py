"""Tests of the benchmark's own parts: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import spans

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

from adiabatic_continuum import (  # noqa: E402
    AngleSchedule,
    BandPartition,
    KGrid,
    PropagationConfig,
    build_model,
    leakage_exact,
    linear_dispersion,
    nearest_neighbor_rotation,
)
from adiabatic_continuum.config import load_config  # noqa: E402
from adiabatic_continuum.propagation import (  # noqa: E402
    CF4,
    deviation_from_identity,
    final_intertwiner,
    final_propagator,
    kato_state,
    phase_operator,
)


def test_reference_matches_package_cf4():
    phys = reference.Physics(1.0, 2.0, 16, 1.0, 1.0, 0.4, 2)
    ref = reference.reference(phys, 100.0, 5)
    assert ref.rel_err_estimate <= reference.REF_TOL

    model = build_model(
        KGrid(1.0, 2.0, 16),
        linear_dispersion(),
        nearest_neighbor_rotation(16, AngleSchedule("cubic_ramp", 0.4)),
    )
    u1 = final_propagator(model, PropagationConfig(100.0, 4000, CF4))
    a1 = final_intertwiner(model, kato_state(), 4000, CF4)
    w1 = phase_operator(model, 100.0, 1.0).conj().T @ (a1.conj().T @ u1)
    eta = leakage_exact(model, u1, BandPartition(16, 2), 5)
    assert abs(eta - ref.eta) <= 1e-8 * ref.eta
    assert abs(deviation_from_identity(w1) - ref.w_deviation) <= 1e-8 * ref.w_deviation


@pytest.mark.parametrize("n, m", [(16, 2), (7, 2), (6, 3)])
def test_band_members_follow_partition(n, m):
    phys = reference.Physics(1.0, 2.0, n, 1.0, 1.0, 0.4, m)
    part = BandPartition(n, m)
    for j in range(n):
        assert phys.band_members(j) == list(part.members(part.band_of(j)))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_inputs_are_seeded_and_valid(name, tmp_path):
    wl = run.WORKLOADS[name]
    assert run.make_input(name, 3) == run.make_input(name, 3)
    assert len({run.make_input(name, s)[0] for s in range(20)}) > 10
    for seed in range(20):
        text, durations, j0 = run.make_input(name, seed)
        path = tmp_path / f"{seed}.cfg"
        path.write_text(text)
        config = load_config(path)
        assert config.j0 == j0 and 1 <= j0 <= wl.grid - 2
        assert list(config.duration_list or [config.duration]) == durations


def test_self_time_subtracts_union_of_children():
    # Root 0..10 with two overlapping children (worker threads) 2..6 and 4..8,
    # and a grandchild 2..3 under the first.
    records = [
        (1, None, "root", 0.0, 10.0, 0.0),
        (2, 1, "a", 2.0, 6.0, 0.0),
        (3, 1, "b", 4.0, 8.0, 0.0),
        (4, 2, "c", 2.0, 3.0, 0.0),
    ]
    own = spans.self_times(records)
    assert own == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}
    assert spans.covered([(1.0, 2.0), (5.0, 7.0)], 1.5, 6.0) == pytest.approx(1.5)


def _child(tmp_path: Path, mode: str) -> tuple[int, dict, bytes]:
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        run.INI.format(
            n=8, durations="T = 100.0", steps=600, scheme="midpoint_exponential", j0=3, **run.PHYSICS
        )
    )
    out = tmp_path / "out"
    meta = tmp_path / f"meta-{mode}.json"
    argv = [sys.executable, str(BENCH / "child.py"), str(meta), mode, "--"]
    argv += ["simulate", "--config", str(cfg), "--out", str(out)]
    code = subprocess.run(argv, capture_output=True, timeout=120).returncode
    return code, json.loads(meta.read_text()), (out / "report.json").read_bytes()


def test_child_traces_without_changing_outputs(tmp_path):
    code0, meta0, report0 = _child(tmp_path, "plain")
    code1, meta1, report1 = _child(tmp_path, "trace")
    plain = subprocess.run(
        [sys.executable, "-m", "adiabatic_continuum", "simulate", "--config",
         str(tmp_path / "small.cfg"), "--out", str(tmp_path / "out")],
        capture_output=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    report_plain = (tmp_path / "out" / "report.json").read_bytes()
    assert code0 == code1 == plain.returncode == 0
    assert run._masked(report0) == run._masked(report1) == run._masked(report_plain)

    assert meta0["setup_end"] is not None and meta0["spans"] == []
    names = {s[2] for s in meta1["spans"]}
    for name in ("runner.cmd", "config.load_config", "spectral.build_model",
                 "propagation.evolve_propagator", "propagation.intertwine_residual",
                 "propagation.step_budget", "runner.write_outputs"):
        assert name in names
    assert names <= set(run.SELF_TIMES)
    counts = meta1["counts"]
    assert counts["propagation.propagator_steps"] == 600
    # U, A, Phi and W: 601 complex 8x8 matrices each.
    assert counts["propagation.family_bytes"] == 4 * 601 * 8 * 8 * 16
    assert counts["spectral.frame_matrix_calls"] > 600

    code2, meta2, _ = _child(tmp_path, "setup")
    assert code2 == 0 and meta2["setup_end"] is not None and meta2["spans"] == []
