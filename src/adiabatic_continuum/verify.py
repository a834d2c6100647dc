"""Self-check battery for a configured experiment.

Five named invariants run against the exact setup a config describes: projector
algebra, unitarity of all four operator families, the frozen frame limit,
agreement of the transition integral with its integration-by-parts twin, and
the transport intertwining property.  Each check is isolated so a single
failure (or crash) is reported under its own name.  Every check returns its
verdict through _row, and verify_config adds its name.  The unitarity check
reads the run's own s = 1 stage, the one final_stage call simulate makes, at
the reference duration: U and W are products of unitary steps, so a defect
any step adds carries to s = 1, and A and Phi are closed forms.
The frozen-frame check compares the diagonal of every node of the frozen
model's propagator, at [run] steps and scheme, with the dynamical phase:
with theta_max = 0 the generator is zero, the transport the identity and the
propagator diagonal by construction, so max|U - Phi| over the diagonals
(frozen_phases) is the one number that can fail.  The
by-parts check compares the two integrals on every exterior pair coupled to
j0 (analysis.coupled_pairs), the pairs the first-order leakage sums.  The
intertwining check steps the transport with CF4 at intertwiner_step_budget,
not [run] steps: kato_state's stages all commute.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .analysis import coupled_pairs, transition_integral, transition_integral_parts
from .config import ExperimentConfig
from .errors import NoExteriorError
from .propagation import (
    CF4,
    PropagationConfig,
    final_stage,
    intertwiner_step_budget,
    kato_state,
    literal_window_hermiticity,
    frozen_phases,
    phase_factors,
    transport_residual,
)


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _row(passed: bool, measured: float | None, tolerance: float | None, detail: str) -> dict:
    """One check's verdict, as verify writes it (verify_config adds the name)."""
    return {"passed": passed, "measured": measured, "tolerance": tolerance, "detail": detail}


def _reference_duration(config: ExperimentConfig) -> float:
    if config.duration is not None:
        return config.duration
    return max(config.duration_list)


def _check_projector_algebra(config, model, part) -> dict:
    n = model.size
    worst = {"idempotency": 0.0, "hermiticity": 0.0, "trace": 0.0, "resolution": 0.0}
    tols = {"idempotency": 1e-12, "hermiticity": 1e-13, "trace": 1e-10, "resolution": 1e-12}
    for s in (0.0, 0.5, 1.0):
        q = model.frame_matrix(s)  # one frame; each band's projector F F^dag from its columns F
        total = np.zeros((n, n), dtype=complex)
        for b in range(len(part)):
            f = q[:, list(part.members(b))]
            p = f @ f.conj().T
            worst["idempotency"] = max(worst["idempotency"], _max_abs(p @ p - p))
            worst["hermiticity"] = max(worst["hermiticity"], _max_abs(p - p.conj().T))
            worst["trace"] = max(worst["trace"], abs(np.trace(p) - len(part.members(b))))
            total += p
        worst["resolution"] = max(worst["resolution"], _max_abs(total - np.eye(n)))
    binding = max(worst, key=lambda k: worst[k] / tols[k])
    return _row(
        all(worst[k] <= tols[k] for k in worst),
        worst[binding],
        tols[binding],
        "; ".join(f"{k} {worst[k]:.3e} (tol {tols[k]:.0e})" for k in worst),
    )


def _check_unitarity(config, model, part) -> dict:
    t_ref = _reference_duration(config)
    _, defects, _ = final_stage(model, config.build_variant(part), part, [t_ref], config.steps, config.scheme)
    worst = max(defects.values())
    return _row(
        worst <= 1e-9,
        worst,
        1e-9,
        "; ".join(f"{k} {v:.3e}" for k, v in defects.items()) + f" at s = 1, T={t_ref:g}",
    )


def _check_frozen_frame(config, model, part) -> dict:
    fmodel = dataclasses.replace(config, theta_max=0.0).build_model()
    t_ref = _reference_duration(config)
    u_phi = max(
        _max_abs(d - phase_factors(fmodel, t_ref, s))
        for s, d in frozen_phases(fmodel, PropagationConfig(t_ref, config.steps, config.scheme))
    )
    return _row(
        u_phi <= 1e-10,
        u_phi,
        1e-10,
        f"max|U-Phi| over {config.steps + 1} nodes at T={t_ref:g}",
    )


def _check_by_parts(config, model, part) -> dict:
    t_ref = _reference_duration(config)
    if t_ref <= 0.0:
        return _row(True, 0.0, 1e-8, "T = 0: transition integrals are identically zero")
    band = part.band_of(config.j0)
    try:
        exterior = part.exterior(band)
    except NoExteriorError:
        return _row(True, 0.0, 1e-8, "single band covers the grid; no exterior pairs to compare")
    variant = config.build_variant(part)
    # every variant keeps j0's pairs with its band's exterior, so these are
    # the pairs leakage_first_order sums
    pairs = coupled_pairs(model, variant, config.j0, exterior)
    if not pairs:
        return _row(True, 0.0, 1e-8, f"no exterior state is coupled to j0 = {config.j0}; no pairs to compare")
    diffs, passed = [], True
    for j, _ in pairs:
        direct = transition_integral(model, variant, config.j0, j, t_ref)
        diff = abs(direct - transition_integral_parts(model, variant, config.j0, j, t_ref).total)
        passed &= diff <= max(1e-8, 1e-6 * abs(direct))
        diffs.append((diff, j))
    worst_diff, worst_pair = max(diffs, key=lambda d: d[0])  # the first pair on a tie
    count = f"{len(pairs)} coupled exterior pair" + ("" if len(pairs) == 1 else "s")
    return _row(
        passed,
        worst_diff,
        1e-8,
        f"{count} at T={t_ref:g}; worst pair ({config.j0}, {worst_pair}); tol per pair max(1e-8, 1e-6*|F|)",
    )


def _check_intertwining(config, model, part) -> dict:
    steps = intertwiner_step_budget(model, kato_state())
    residual = transport_residual(model, kato_state(), part, steps=steps, scheme=CF4)
    return _row(residual <= 1e-6, residual, 1e-6, f"state-wise transport, {CF4} at its step budget of {steps}")


_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("projector_algebra", _check_projector_algebra),
    ("unitarity", _check_unitarity),
    ("frozen_frame", _check_frozen_frame),
    ("by_parts", _check_by_parts),
    ("intertwining", _check_intertwining),
)
CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def verify_config(config: ExperimentConfig) -> tuple[bool, list[dict], list[str]]:
    """Run all five checks; returns (all_passed, check rows, info annotations)."""
    model = config.build_model()
    part = config.build_partition()

    checks: list[dict] = []
    for name, fn in _CHECKS:
        try:
            row = fn(config, model, part)
        except Exception as exc:  # a crashed check is a failed check, named
            row = _row(False, None, None, f"check raised {type(exc).__name__}: {exc}")
        checks.append({**row, "name": name})

    annotations: list[str] = []
    if config.theta_max == 0.0:
        annotations.append(
            "theta_max = 0: the frame never moves, so transition and leakage "
            "checks are satisfied trivially"
        )
    if len(part) == 1:
        annotations.append("a single band covers the grid; exterior checks are vacuous")
    window = literal_window_hermiticity(model, config.band_size, 0.5)
    annotations.append(
        f"literal one-sided window generator (width {config.band_size}) has "
        f"hermiticity defect {window.hermiticity_defect:.3e} "
        f"({window.relative_defect:.3e} relative); the symmetric band mask is used instead"
    )

    return all(row["passed"] for row in checks), checks, annotations
