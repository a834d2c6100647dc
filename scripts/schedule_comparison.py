"""How the ramp shape at the endpoints sets the leakage decay exponent.

Sweeps the same model under each angle schedule and fits eta(T) ~ T^p.
Ramps with a nonzero rate at s=1 put the whole boundary term of the
integration by parts in play and decay like T^-2; smoothstep kills the
rate at both ends, so its leading term cancels and the decay steepens.
Each sweep first passes the CLI sweep's crossing and gap-margin checks
(margin MARGIN, as in configs/sweep.cfg) and the script exits non-zero
with the error's message when one fails.

usage: python3 scripts/schedule_comparison.py [--durations 50,100,200,400] [--steps 12000]
"""

from __future__ import annotations

import argparse
import sys

from adiabatic_continuum import (
    ANGLE_SCHEDULES,
    AnalysisError,
    AngleSchedule,
    BandPartition,
    ConfigError,
    CrossingError,
    KGrid,
    build_model,
    fit_power_law,
    linear_dispersion,
    nearest_neighbor_rotation,
    sweep_leakage,
    validate_noncrossing,
)
from adiabatic_continuum.analysis import check_gap_margin

N = 16
THETA_MAX = 0.4
J0 = 1
M = 2
MARGIN = 1.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--durations", default="50,100,200,400")
    ap.add_argument("--steps", type=int, default=12000)
    ap.add_argument("--jobs", type=int, default=4)
    args = ap.parse_args()
    durations = [float(t) for t in args.durations.split(",")]

    grid = KGrid(1.0, 2.0, N)
    part = BandPartition(N, M)
    print(f"{'schedule':>16}  {'slope':>8}  {'r^2':>8}  eta at T={durations[-1]:g}")
    for kind in ANGLE_SCHEDULES:
        schedule = AngleSchedule(kind, THETA_MAX)
        model = build_model(grid, linear_dispersion(), nearest_neighbor_rotation(N, schedule))
        try:
            validate_noncrossing(model, part)
            check_gap_margin(model, part, J0, durations, MARGIN)
            reports = sweep_leakage(model, part, J0, durations, args.steps, jobs=args.jobs)
            fit = fit_power_law([r.duration for r in reports], [r.eta_exact for r in reports])
        except (ConfigError, CrossingError, AnalysisError) as exc:
            sys.exit(f"{type(exc).__name__}: {exc}")
        print(
            f"{kind:>16}  {fit.slope:8.3f}  {fit.r_squared:8.5f}  {reports[-1].eta_exact:.4e}"
        )


if __name__ == "__main__":
    main()
