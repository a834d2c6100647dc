"""Command-line interface.

Exit codes:
  0  success
  1  a verification invariant failed
  2  configuration or step-budget error
  3  band crossing or degenerate spectrum
  4  adiabatic criterion not satisfied
  5  no exterior states (band covers the whole grid)
  6  no feasible band size for the requested duration and margin
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import (
    AnalysisError,
    ConfigError,
    CrossingError,
    NoExteriorError,
    NoFeasibleBandError,
)
from .runner import COMMANDS, output_files, write_outputs

_COMMAND_HELP = {
    "simulate": "run one duration and report leakage, criterion, and diagnostics",
    "sweep": "run a duration sweep, fit the leakage decay, and write sweep.csv",
    "criterion": "evaluate the coupling/gap validity criterion",
    "bands": "plan the smallest feasible band size for the configured duration",
    "verify": "run the six-invariant self-check battery",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiabatic-continuum",
        description="band transport and leakage experiments on discretized continua",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMAND_HELP.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="experiment file (INI sections)")
        cmd.add_argument("--out", default=None, help="override [output] directory")
        cmd.add_argument("--jobs", type=int, default=1, help="worker threads for sweeps")
        cmd.add_argument("--steps", type=int, default=None, help="override [run] steps")
        cmd.add_argument(
            "--threshold", type=float, default=None, help="override [analysis] threshold"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides: dict[tuple[str, str], str] = {}
    if args.steps is not None:
        overrides[("run", "steps")] = str(args.steps)
    if args.threshold is not None:
        overrides[("analysis", "threshold")] = repr(args.threshold)
    if args.out is not None:
        overrides[("output", "directory")] = args.out
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        config = load_config(args.config, overrides)
        code, record, csv_text, lines = COMMANDS[args.command](config, jobs=args.jobs)
        out = write_outputs(config, record, csv_text)
    except ConfigError as exc:  # includes StepBudgetError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CrossingError as exc:  # includes DegenerateSpectrumError
        print(f"crossing: {exc}", file=sys.stderr)
        return 3
    except NoExteriorError as exc:
        print(f"no exterior: {exc}", file=sys.stderr)
        return 5
    except NoFeasibleBandError as exc:
        print(f"no feasible band: {exc}", file=sys.stderr)
        return 6
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    written = output_files(config, csv_text)
    if written:
        print(f"outputs written to {out}: {', '.join(written)}")
    else:
        formats = ",".join(config.formats)
        print(f"no outputs written: [output] formats = {formats} selects no file of {args.command}")
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
