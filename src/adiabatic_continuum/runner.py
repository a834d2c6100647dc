"""Command implementations behind the CLI.

Each command returns (exit code, record, csv text or None, printable
lines); its docstring is its CLI help.  Every record is one envelope
(_record: command, config_hash, resolved_config) around the command's
blocks, built from plain dicts, lists and scalars so the JSON on disk is
byte-reproducible: keys are sorted, floats keep their shortest repr, and
only cmd_simulate carries a timestamp.  Sweep outputs are timestamp-free
on purpose; identical configs must produce identical bytes.  The leakage
columns are declared once, in LEAKAGE_COLUMNS, for sweep.csv, the sweep's
rows and simulate's leakage block.  Every command runs on the calling
thread.
"""

from __future__ import annotations

import dataclasses
import json
import os
from datetime import datetime, timezone
from pathlib import Path

from .analysis import (
    adiabatic_criterion,
    fit_power_law,
    leakage_reports,
    planned_substeps,
    sweep_leakage,
)
from .bands import band_plan, check_gap_margin, minimal_time, validate_noncrossing
from .config import ExperimentConfig
from .errors import ConfigError
from .propagation import (
    final_stage,
    literal_window_hermiticity,
    propagator_step_budget,
)
from .verify import verify_config

# leakage column -> LeakageReport field, in sweep.csv order
LEAKAGE_COLUMNS = {
    "T": "duration",
    "eta_exact": "eta_exact",
    "eta_first_order": "eta_first_order",
    "w_deviation": "w_deviation",
}


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)


def output_files(config: ExperimentConfig, csv_text: str | None = None) -> list[str]:
    """Names of the files write_outputs writes: what [output] formats selects
    among report.json, resolved_config.json and (for sweeps) sweep.csv."""
    names = []
    if "json" in config.formats:
        names += ["report.json", "resolved_config.json"]
    if csv_text is not None and "csv" in config.formats:
        names.append("sweep.csv")
    return names


def write_outputs(config: ExperimentConfig, record: dict, csv_text: str | None = None) -> Path:
    """Persist the output_files into the output directory; returns it.

    A directory that cannot be made or written raises ConfigError naming it.
    """
    out = Path(config.out_dir)
    texts = {
        "report.json": _json_text(record),
        "resolved_config.json": _json_text(config.resolved),
        "sweep.csv": csv_text,
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in output_files(config, csv_text):
            _write_text(out / name, texts[name])
    except OSError as exc:
        raise ConfigError(f"cannot write outputs to {out}: {exc.strerror}") from exc
    return out


def _cell(value: float) -> str:
    return format(float(value), ".17g")


def _leakage_row(report) -> dict:
    return {column: getattr(report, name) for column, name in LEAKAGE_COLUMNS.items()}


def _record(command: str, config: ExperimentConfig, **blocks) -> dict:
    """The record envelope every command writes, around its own blocks."""
    return {"command": command, "config_hash": config.config_hash, "resolved_config": config.resolved, **blocks}


def cmd_simulate(config: ExperimentConfig):
    """run one duration and report leakage, criterion, and diagnostics"""
    duration = config.scalar_duration()
    model = config.build_model()
    part = config.build_partition()
    min_separation = validate_noncrossing(model, part)
    variant = config.build_variant(part)

    w1, unitarity, residual = final_stage(model, variant, part, [duration], config.steps, config.scheme)
    (row,) = leakage_reports(model, part, config.j0, [duration], w1)
    crit = adiabatic_criterion(model, part, config.j0, threshold=config.threshold)
    mandated, used = planned_substeps(model, part, config.j0, duration)
    window = literal_window_hermiticity(model, config.band_size, 0.5)

    record = _record(
        "simulate",
        config,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        leakage={**_leakage_row(row), "j0": row.j0, "band": row.band},
        criterion=dataclasses.asdict(crit),
        diagnostics={
            "unitarity": unitarity,
            "intertwine_residual": residual,
            "propagator_steps": {
                "used": config.steps,
                "required": propagator_step_budget(model, duration),
            },
            "transition_substeps": {"mandated": mandated, "used": used},
            "min_band_separation": min_separation,
            "literal_window_relative_defect": window.relative_defect,
        },
    )
    lines = [
        f"T = {row.duration:g}  j0 = {row.j0}  band = {row.band}",
        f"eta_exact       = {row.eta_exact:.6e}",
        f"eta_first_order = {row.eta_first_order:.6e}",
        f"w_deviation     = {row.w_deviation:.6e}",
        f"criterion margin = {crit.margin:.6g} (threshold {crit.threshold:g}, "
        f"{'satisfied' if crit.satisfied else 'not satisfied'})",
    ]
    return 0, record, None, lines


def cmd_sweep(config: ExperimentConfig):
    """run a duration sweep, fit the leakage decay, and write sweep.csv"""
    durations = config.sweep_durations()
    model = config.build_model()
    part = config.build_partition()
    variant = config.build_variant(part)

    check_gap_margin(model, part, config.j0, durations, config.margin)
    reports = sweep_leakage(model, part, config.j0, durations, config.steps, config.scheme, variant)
    fit = fit_power_law([r.duration for r in reports], [r.eta_exact for r in reports])

    rows = [_leakage_row(r) for r in reports]
    csv_lines = [",".join(LEAKAGE_COLUMNS)] + [",".join(_cell(v) for v in row.values()) for row in rows]
    csv_text = "\n".join(csv_lines) + "\n"

    record = _record(
        "sweep",
        config,
        fit={
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "excluded": list(fit.excluded),
        },
        rows=rows,
    )
    lines = [
        f"{len(reports)} durations: " + ", ".join(f"{r.duration:g}" for r in reports),
        f"fit: slope = {fit.slope:.4f}, r^2 = {fit.r_squared:.5f}",
    ]
    if fit.excluded:
        lines.append("excluded exact-zero leakages at T = " + ", ".join(f"{t:g}" for t in fit.excluded))
    return 0, record, csv_text, lines


def cmd_criterion(config: ExperimentConfig):
    """evaluate the coupling/gap validity criterion"""
    model = config.build_model()
    part = config.build_partition()
    crit = adiabatic_criterion(model, part, config.j0, threshold=config.threshold)
    record = _record("criterion", config, criterion=dataclasses.asdict(crit))
    lines = [
        f"max coupling = {crit.max_coupling:.6g}",
        f"min gap      = {crit.min_gap:.6g}",
        f"margin       = {crit.margin:.6g}",
        f"threshold    = {crit.threshold:g}",
        "satisfied" if crit.satisfied else "not satisfied",
    ]
    return (0 if crit.satisfied else 4), record, None, lines


def cmd_bands(config: ExperimentConfig):
    """plan the smallest feasible band size for the configured duration"""
    model = config.build_model()
    target = config.planning_duration()
    margin = config.margin

    candidates = []
    selected: int | None = None
    best_ratio = 0.0
    for m, gap, ratio, feasible in band_plan(model, target, margin):
        candidates.append(
            {
                "m": m,
                "virtual_gap": gap,
                "minimal_T": None if gap is None else minimal_time(gap, margin),
                "feasible": feasible,
            }
        )
        if ratio is not None:
            best_ratio = max(best_ratio, ratio)
        if feasible and selected is None:
            selected = m

    record = _record(
        "bands",
        config,
        plan={
            "target_T": target,
            "margin": margin,
            "candidates": candidates,
            "selected_m": selected,
            "best_margin_ratio": best_ratio,
        },
    )
    lines = [f"target T = {target:g}, margin = {margin:g}", "m  virtual_gap  minimal_T  feasible"]
    for c in candidates:
        if c["virtual_gap"] is None:
            lines.append(f"{c['m']:<3}{'-':>11}{'-':>11}  no exterior")
        else:
            lines.append(
                f"{c['m']:<3}{c['virtual_gap']:>11.5g}{c['minimal_T']:>11.5g}"
                f"  {'yes' if c['feasible'] else 'no'}"
            )
    if selected is None:
        lines.append(
            f"no feasible band size; best achievable margin ratio {best_ratio:.3g}"
        )
        return 6, record, None, lines
    lines.append(f"smallest feasible band size: m = {selected}")
    return 0, record, None, lines


def cmd_verify(config: ExperimentConfig):
    """run the five-invariant self-check battery"""
    all_passed, checks, annotations = verify_config(config)
    record = _record("verify", config, checks=checks, all_passed=all_passed, annotations=annotations)
    lines = []
    for row in checks:
        status = "PASS" if row["passed"] else "FAIL"
        measured = "n/a" if row["measured"] is None else f"{row['measured']:.3e}"
        tolerance = "n/a" if row["tolerance"] is None else f"{row['tolerance']:.0e}"
        lines.append(f"[{status}] {row['name']}: measured {measured} (tol {tolerance})")
        lines.append(f"       {row['detail']}")
    for note in annotations:
        lines.append(f"[info] {note}")
    lines.append("all checks passed" if all_passed else "verification FAILED")
    return (0 if all_passed else 1), record, None, lines


COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "criterion": cmd_criterion,
    "bands": cmd_bands,
    "verify": cmd_verify,
}
