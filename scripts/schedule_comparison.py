"""How the ramp shape at the endpoints sets the leakage decay exponent.

Sweeps the model of configs/sweep.cfg under each angle schedule and fits
eta(T) ~ T^p.  Ramps with a nonzero rate at s=1 put the whole boundary
term of the integration by parts in play and decay like T^-2; smoothstep
kills the rate at both ends, so its leading term cancels and the decay
steepens.  Each sweep runs the CLI's sweep in-process (no files written),
with its crossing and gap-margin checks, and all of them run before the
table prints; when one fails, the script prints only the error's class
and message, to stderr, and exits with the CLI's code for it.

usage: python3 scripts/schedule_comparison.py [--durations 50,100,200,400] [--steps 12000]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from adiabatic_continuum import ANGLE_SCHEDULES, load_config
from adiabatic_continuum.cli import _retain_freed_heap
from adiabatic_continuum.errors import HarnessError, reportable
from adiabatic_continuum.runner import cmd_sweep

SWEEP_CFG = Path(__file__).resolve().parents[1] / "configs" / "sweep.cfg"


def main() -> None:
    _retain_freed_heap()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--durations", default="50,100,200,400")
    ap.add_argument("--steps", type=int, default=12000)
    args = ap.parse_args()

    try:
        configs = [
            load_config(
                SWEEP_CFG,
                {
                    ("rotation", "schedule"): kind,
                    ("run", "T_list"): args.durations,
                    ("run", "steps"): str(args.steps),
                },
            )
            for kind in ANGLE_SCHEDULES
        ]
        # every config loads and every sweep runs before the table prints,
        # so a failure leaves stdout empty
        records = [cmd_sweep(config)[1] for config in configs]
    except (HarnessError, MemoryError) as exc:
        exc = reportable(exc)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    print(f"{'schedule':>16}  {'slope':>8}  {'r^2':>8}  eta at T={configs[0].duration_list[-1]:g}")
    for kind, record in zip(ANGLE_SCHEDULES, records):
        fit = record["fit"]
        print(f"{kind:>16}  {fit['slope']:8.3f}  {fit['r_squared']:8.5f}  {record['rows'][-1]['eta_exact']:.4e}")


if __name__ == "__main__":
    main()
