"""Leakage decay versus duration for a configured experiment.

Runs the CLI's sweep in-process (no files written), with the same
crossing and gap-margin checks and exit codes, and prints one row per
duration plus the fitted decay exponent.  Useful for quick checks that a
model sits in the first-order regime before committing to a long sweep.

usage: python3 scripts/run_convergence.py configs/sweep.cfg
"""

from __future__ import annotations

import argparse
import sys

from adiabatic_continuum import load_config
from adiabatic_continuum.cli import _retain_freed_heap
from adiabatic_continuum.errors import HarnessError
from adiabatic_continuum.runner import cmd_sweep


def main() -> None:
    _retain_freed_heap()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config", help="experiment file with [run] T_list")
    args = ap.parse_args()

    try:
        _, record, _, _ = cmd_sweep(load_config(args.config))
    except HarnessError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)

    print(f"{'T':>8}  {'eta_exact':>12}  {'eta_first':>12}  {'ratio':>8}  {'w_dev*T':>10}")
    for r in record["rows"]:
        ratio = r["eta_first_order"] / r["eta_exact"] if r["eta_exact"] else float("inf")
        print(
            f"{r['T']:8g}  {r['eta_exact']:12.4e}  {r['eta_first_order']:12.4e}"
            f"  {ratio:8.4f}  {r['w_deviation'] * r['T']:10.4f}"
        )

    fit = record["fit"]
    print(f"\nslope = {fit['slope']:.4f}   r^2 = {fit['r_squared']:.6f}")
    if fit["excluded"]:
        print("excluded exact zeros at T =", ", ".join(f"{t:g}" for t in fit["excluded"]))


if __name__ == "__main__":
    main()
