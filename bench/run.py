"""Benchmark of the adiabatic-continuum CLI: speed, memory and accuracy per op.

    python3 bench/run.py --workload simulate-n32 --seed 1 --seconds 30 --trace 0

One closed loop: a single client runs one CLI op at a time, each in its
own child process (``bench/child.py``), on INI files generated from
``--seed`` under ``.bench_work/``.  Ops start until ``--seconds`` of op
time is spent (at least MIN_OPS, and whole cycles of the workload's
``--jobs`` values).  Every op passes through a correctness gate; the
accuracy of its numbers is measured against a reference from
``bench/reference.py`` that shares no code with the package.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones, with the tracing overhead.  Both print a table of every metric
they measured, with unit and sample count, before the final JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
import spans as spanlib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_OPS = 3
# Extra children per run that stop once set up, so setup_s has more samples.
SETUP_PROBES = 5
OP_TIMEOUT_S = 150.0

# Correctness gate.  Today's errors: eta 3e-7 (simulate, T=100) to 5e-6
# (sweep, T=800) relative; the sweep slope is -2.10.
ETA_TOL = 1e-4
WDEV_TOL = 1e-4
SLOPE = -2.0
SLOPE_TOL = 0.25


@dataclass(frozen=True)
class Workload:
    command: str
    grid: int
    steps: int
    scheme: str
    jobs: tuple[int, ...]


WORKLOADS = {
    "simulate-n32": Workload("simulate", 32, 4000, "midpoint_exponential", (1,)),
    "sweep-t5": Workload("sweep", 16, 20000, "midpoint_exponential", (1, 2)),
    "verify-cf4": Workload("verify", 16, 4000, "fourth_order_commutator_free", (1,)),
}

# The model every input shares: linear dispersion k(1 + s) on k in [1, 2],
# nearest-neighbour frame rotated by 0.4 s^3, bands of two states.
PHYSICS = dict(k_min=1.0, k_max=2.0, a=1.0, b=1.0, theta_max=0.4, m=2)
SWEEP_FACTORS = (1, 2, 4, 8, 16)

INI = """\
[grid]
k_min = {k_min!r}
k_max = {k_max!r}
N = {n}

[dispersion]
family = linear
params = {a!r}, {b!r}

[rotation]
builder = nearest_neighbor
theta_max = {theta_max!r}
schedule = cubic_ramp

[bands]
m = {m}

[run]
{durations}
steps = {steps}
scheme = {scheme}
variant = kato_state

[analysis]
j0 = {j0}
s_samples = 129
margin = 1.0
threshold = 0.1

[output]
directory = out
formats = json,csv
"""


def make_input(name: str, seed: int) -> tuple[str, list[float], int]:
    """INI text, durations and j0 for one run of a workload.

    j0 is any state but the two grid edges, whose leakage is so small that
    the midpoint error reaches 1e-2 of it at T=800.  The sweep keeps j0 = 1:
    at T=800 the interior states' errors range from 4.0e-6 to 5.2e-6,
    which alone would spread err_ratio_max by 10% between seeds.  T moves
    by at most 1%, because the midpoint error grows as T^2.
    """
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    j0 = rng.randint(1, wl.grid - 2)
    if wl.command == "sweep":
        j0 = 1
    scale = round(1.0 + 0.01 * (2.0 * rng.random() - 1.0), 6)
    if wl.command == "sweep":
        durations = [round(50.0 * scale * f, 6) for f in SWEEP_FACTORS]
        line = "T_list = " + ", ".join(repr(t) for t in durations)
    else:
        durations = [round(100.0 * scale, 6)]
        line = f"T = {durations[0]!r}"
    text = INI.format(
        n=wl.grid, durations=line, steps=wl.steps, scheme=wl.scheme, j0=j0, **PHYSICS
    )
    return text, durations, j0


def load_reference(name: str, ini: str, durations: list[float], j0: int) -> list[dict]:
    """Reference per duration, cached per generated input and reference code."""
    key = hashlib.sha256((ini + (BENCH / "reference.py").read_text()).encode()).hexdigest()
    path = WORK / "ref" / f"{key[:32]}.json"
    if path.is_file():
        return json.loads(path.read_text())
    phys = reference.Physics(n=WORKLOADS[name].grid, **PHYSICS)
    refs = [reference.reference(phys, t, j0).__dict__ for t in durations]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(refs))
    return refs


# ---- one op ----------------------------------------------------------------


@dataclass
class Op:
    traced: bool
    jobs: int
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    meta: dict
    report: bytes | None
    csv: bytes | None


# One BLAS thread per worker thread, so an op runs `jobs` compute threads
# and never more than nproc.  On 2 cores two BLAS threads made simulate
# no faster (11.2 s against 10.0 s) and cost 50% more CPU.
BLAS_THREADS = "1"


def run_op(wl: Workload, ini: Path, out: Path, opdir: Path, mode: str, jobs: int) -> Op:
    """Spawn one child in `mode` (plain, trace or setup) and reap it with its rusage."""
    opdir.mkdir(parents=True)
    for stale in ("report.json", "sweep.csv"):
        (out / stale).unlink(missing_ok=True)
    meta_path = opdir / "meta.json"
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    argv = [
        sys.executable, str(BENCH / "child.py"), str(meta_path), mode, "--",
        wl.command, "--config", str(ini), "--out", str(out), "--jobs", str(jobs),
    ]
    with open(opdir / "log.txt", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    meta = json.loads(meta_path.read_text()) if meta_path.is_file() else {}
    setup_end = meta.get("setup_end")
    return Op(
        traced=mode == "trace",
        jobs=jobs,
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=None if setup_end is None else setup_end - t0,
        meta=meta,
        report=_read(out / "report.json"),
        csv=_read(out / "sweep.csv"),
    )


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


# ---- correctness gate ------------------------------------------------------


def _masked(report: bytes) -> bytes:
    return re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', report)


def gate(wl: Workload, op: Op, first: Op, durations, refs) -> tuple[list[str], dict]:
    """Failures of one op and its accuracy figures."""
    if op.code != 0:
        return [f"exit code {op.code}"], {}
    try:
        record = json.loads(op.report)
    except (TypeError, ValueError):
        return ["report.json missing or unparsable"], {}
    problems = []
    if first.report is not None and _masked(op.report) != _masked(first.report):
        problems.append("report.json bytes differ from the run's first op")
    if wl.command == "verify":
        ratios = [
            c["measured"] / c["tolerance"]
            for c in record["checks"]
            if c["measured"] is not None and c["tolerance"]
        ]
        if not record["all_passed"] or not ratios:
            problems.append("verify: all_passed is false or no check measured anything")
            return problems, {}
        return problems, {"check_ratio_max": max(ratios)}

    if wl.command == "simulate":
        rows = [record["leakage"]]
    else:
        rows = record["rows"]
        slope = record["fit"]["slope"]
        if abs(slope - SLOPE) > SLOPE_TOL:
            problems.append(f"sweep: slope {slope:.4f} not within {SLOPE_TOL} of {SLOPE}")
        if op.csv is None or (first.csv is not None and op.csv != first.csv):
            problems.append("sweep.csv missing or differs from the run's first op")
    if [row["T"] for row in rows] != list(durations):
        return problems + ["reported durations differ from the input"], {}
    eta_err = max(abs(r["eta_exact"] - f["eta"]) / f["eta"] for r, f in zip(rows, refs))
    wdev_err = max(
        abs(r["w_deviation"] - f["w_deviation"]) / f["w_deviation"] for r, f in zip(rows, refs)
    )
    if eta_err > ETA_TOL:
        problems.append(f"eta_exact off the reference by {eta_err:.2e} relative (tol {ETA_TOL:g})")
    if wdev_err > WDEV_TOL:
        problems.append(f"w_deviation off the reference by {wdev_err:.2e} relative (tol {WDEV_TOL:g})")
    return problems, {"eta_rel_err": eta_err, "wdev_rel_err": wdev_err}


def err_ratio(acc: dict) -> float:
    """Largest error/tolerance ratio of one op's accuracy figures."""
    if "check_ratio_max" in acc:
        return acc["check_ratio_max"]
    return max(acc["eta_rel_err"] / ETA_TOL, acc["wdev_rel_err"] / WDEV_TOL)


# ---- metrics ---------------------------------------------------------------


def end_to_end(ops: list[Op], probes: list[Op], accuracy: list[dict]) -> dict:
    plain = [op for op in ops if not op.traced]
    setups = [op.setup_s for op in plain + probes if op.setup_s is not None]
    return {
        "op_p50_s": (statistics.median(op.wall_s for op in plain), "s", len(plain)),
        "op_cpu_s": (statistics.median(op.cpu_s for op in plain), "s", len(plain)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (max(op.rss_mb for op in plain), "MB", len(plain)),
        "err_ratio_max": (max(err_ratio(a) for a in accuracy), "ratio", len(accuracy)),
    }


# Per-layer self-time metrics: one per span name, in this order.
SELF_TIMES = (
    "runner.import",
    "config.load_config",
    "spectral.build_model",
    "bands.validate_noncrossing",
    "bands.virtual_gap",
    "bands.band_projector",
    "propagation.evolve_propagator",
    "propagation.evolve_intertwiner",
    "propagation.phase_family",
    "propagation.wave_operator",
    "propagation.unitarity_defect",
    "propagation.intertwine_residual",
    "propagation.final_propagator",
    "propagation.final_intertwiner",
    "propagation.phase_operator",
    "propagation.step_budget",
    "propagation.deviation_from_identity",
    "propagation.literal_window_hermiticity",
    "propagation.generator",
    "analysis.leakage_exact",
    "analysis.leakage_first_order",
    "analysis.transition_integral_parts",
    "analysis.adiabatic_criterion",
    "analysis.planned_substeps",
    "analysis.sweep_leakage",
    "analysis.fit_power_law",
    "verify.verify_config",
    "verify.projector_algebra",
    "verify.unitarity",
    "verify.frozen_frame",
    "verify.variant_degeneracy",
    "verify.by_parts",
    "verify.intertwining",
    "runner.cmd",
    "runner.write_outputs",
)
COUNTS = (
    ("spectral.frame_matrix_calls", "count"),
    ("spectral.frame_coupling_points", "count"),
    ("propagation.propagator_steps", "count"),
    ("propagation.intertwiner_steps", "count"),
    ("propagation.family_bytes", "bytes"),
)
_RENAMED = {"runner.cmd": "runner.cmd_self"}


def per_layer(ops: list[Op]) -> dict:
    traced = [op for op in ops if op.traced and op.meta]
    plain = [op for op in ops if not op.traced]
    n = len(traced)
    if not traced:
        return {}
    self_sum = dict.fromkeys(SELF_TIMES, 0.0)
    count_sum = dict.fromkeys((name for name, _ in COUNTS), 0.0)
    uncovered = 0.0
    busy, effs = [], []
    for op in traced:
        records = [tuple(s) for s in op.meta["spans"]]
        own = spanlib.self_times(records)
        for sid, _parent, name, *_ in records:
            self_sum[name] += own[sid]
        for name in count_sum:
            count_sum[name] += op.meta["counts"].get(name, 0)
        roots = [(t0, t1) for _sid, parent, _n, t0, t1, _c in records if parent is None]
        uncovered += op.wall_s - spanlib.covered(roots, float("-inf"), float("inf"))
        if op.jobs > 1:
            for sid, _parent, name, t0, t1, _cpu in records:
                if name == "analysis.sweep_leakage":
                    cpu = sum(c for _s, p, _n, _a, _b, c in records if p == sid)
                    busy.append(cpu)
                    effs.append(cpu / (op.jobs * (t1 - t0)))

    out = {}
    for name in SELF_TIMES:
        out[_RENAMED.get(name, name) + "_s"] = (self_sum[name] / n, "s", n)
    for name, unit in COUNTS:
        out[name] = (count_sum[name] / n, unit, n)
    out["analysis.sweep_busy_s"] = (statistics.fmean(busy) if busy else 0.0, "s", len(busy))
    out["analysis.sweep_parallel_eff"] = (statistics.fmean(effs) if effs else 0.0, "ratio", len(effs))
    traced_p50 = statistics.median(op.wall_s for op in traced)
    plain_p50 = statistics.median(op.wall_s for op in plain)
    out["trace.op_p50_s"] = (traced_p50, "s", n)
    out["trace.overhead_s"] = (traced_p50 - plain_p50, "s", n)
    out["trace.uncovered_s"] = (uncovered / n, "s", n)
    return out


# ---- run loop --------------------------------------------------------------


def plan(wl: Workload, index: int, trace: bool) -> tuple[bool, int]:
    """(traced, jobs) of op number `index`; traced ops alternate with plain ones."""
    if not trace:
        return False, wl.jobs[index % len(wl.jobs)]
    return index % 2 == 1, wl.jobs[(index // 2) % len(wl.jobs)]


def measure(name: str, seed: int, seconds: float, trace: bool):
    wl = WORKLOADS[name]
    ini_text, durations, j0 = make_input(name, seed)
    refs = [] if wl.command == "verify" else load_reference(name, ini_text, durations, j0)

    rundir = WORK / name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    ini = rundir / "input.cfg"
    ini.write_text(ini_text, encoding="utf-8")
    # Untimed warm-up: compiles the package's bytecode and fills the file cache.
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import adiabatic_continuum.cli", str(SRC)],
        check=True, cwd=ROOT,
    )

    probes = [
        run_op(wl, ini, rundir / "out", rundir / f"setup{i}", "setup", 1)
        for i in range(SETUP_PROBES)
    ]

    cycle = len(wl.jobs) * (2 if trace else 1)
    min_ops = max(MIN_OPS + int(trace), cycle)
    ops: list[Op] = []
    failures: list[str] = []
    accuracy: list[dict] = []
    start = time.monotonic()
    while True:
        traced, jobs = plan(wl, len(ops), trace)
        mode = "trace" if traced else "plain"
        op = run_op(wl, ini, rundir / "out", rundir / f"op{len(ops)}", mode, jobs)
        ops.append(op)
        problems, acc = gate(wl, op, ops[0], durations, refs)
        if problems:
            failures.append(f"op {len(ops) - 1} (jobs {jobs}, traced {int(traced)}): " + "; ".join(problems))
        else:
            accuracy.append(acc)
        done = len(ops)
        next_end = time.monotonic() - start + statistics.median(o.wall_s for o in ops)
        if done >= min_ops and done % cycle == 0 and next_end > seconds:
            break
    return rundir, ops, probes, failures, accuracy, refs


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "blas_threads": int(BLAS_THREADS),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running op is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "adiabatic_continuum" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2

    rundir, ops, probes, failures, accuracy, refs = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    env = environment()
    failed = len(failures)
    e2e = end_to_end(ops, probes, accuracy) if accuracy else {}
    layers = per_layer(ops) if args.trace and accuracy else {}
    table = dict(e2e)
    for key in ("eta_rel_err", "wdev_rel_err", "check_ratio_max"):
        values = [a[key] for a in accuracy if key in a]
        if values:
            table[key] = (max(values), "ratio", len(values))
    if refs:
        table["ref_rel_err_estimate"] = (max(r["rel_err_estimate"] for r in refs), "ratio", len(refs))
    table["fail_frac"] = (failed / len(ops), "ratio", len(ops))
    table.update(layers)

    print(f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  environment {json.dumps(env)}")
    for key, (value, unit, samples) in table.items():
        print(f"  {key:42s} {value:14.6g} {unit:6s} n={samples}")
    for line in failures:
        print(f"  FAIL {line}")

    if args.trace:
        spans_out = [
            {"op": i, "jobs": op.jobs, "spans": op.meta["spans"], "counts": op.meta["counts"]}
            for i, op in enumerate(ops)
            if op.traced and op.meta
        ]
        (rundir / "spans.json").write_text(json.dumps(spans_out))
    reported = layers if args.trace else e2e
    metrics = {k: {"value": value, "unit": unit} for k, (value, unit, _n) in reported.items()}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    op_rows = [
        {k: getattr(op, k) for k in ("traced", "jobs", "code", "wall_s", "cpu_s", "rss_mb", "setup_s")}
        for op in ops
    ]
    (rundir / "result.json").write_text(
        json.dumps({"environment": env, "table": table, "ops": op_rows, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
