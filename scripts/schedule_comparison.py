"""How the ramp shape at the endpoints sets the leakage decay exponent.

Sweeps the model of configs/sweep.cfg under each angle schedule and fits
eta(T) ~ T^p.  Ramps with a nonzero rate at s=1 put the whole boundary
term of the integration by parts in play and decay like T^-2; smoothstep
kills the rate at both ends, so its leading term cancels and the decay
steepens.  Each sweep runs the CLI's sweep in-process (no files written),
with its crossing and gap-margin checks, and the script exits non-zero
with the error's message when one fails.

usage: python3 scripts/schedule_comparison.py [--durations 50,100,200,400] [--steps 12000]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from adiabatic_continuum import (
    ANGLE_SCHEDULES,
    AnalysisError,
    ConfigError,
    CrossingError,
    NoExteriorError,
    load_config,
)
from adiabatic_continuum.cli import _retain_freed_heap
from adiabatic_continuum.runner import cmd_sweep

SWEEP_CFG = Path(__file__).resolve().parents[1] / "configs" / "sweep.cfg"


def main() -> None:
    _retain_freed_heap()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--durations", default="50,100,200,400")
    ap.add_argument("--steps", type=int, default=12000)
    ap.add_argument("--jobs", type=int, default=4)
    args = ap.parse_args()

    last = args.durations.split(",")[-1].strip()
    print(f"{'schedule':>16}  {'slope':>8}  {'r^2':>8}  eta at T={float(last):g}")
    for kind in ANGLE_SCHEDULES:
        overrides = {
            ("rotation", "schedule"): kind,
            ("run", "T_list"): args.durations,
            ("run", "steps"): str(args.steps),
        }
        try:
            _, record, _, _ = cmd_sweep(load_config(SWEEP_CFG, overrides), args.jobs)
        except (ConfigError, CrossingError, NoExteriorError, AnalysisError) as exc:
            sys.exit(f"{type(exc).__name__}: {exc}")
        fit = record["fit"]
        print(
            f"{kind:>16}  {fit['slope']:8.3f}  {fit['r_squared']:8.5f}  {record['rows'][-1]['eta_exact']:.4e}"
        )


if __name__ == "__main__":
    main()
