"""Command-line interface.

Exit codes:
  0  success
  1  a verification invariant failed
  2  configuration or step-budget error
  3  band crossing or degenerate spectrum
  4  adiabatic criterion not satisfied
  5  no exterior states (band covers the whole grid)
  6  no feasible band size for the requested duration and margin

Allocator policy: ``main`` first raises glibc's mmap and trim thresholds
(``_retain_freed_heap``), so the 0.25-2 MiB temporaries each propagator
chunk frees stay on the heap for the next chunk instead of going back to
the kernel and being faulted in again.  On the benchmark's seed-1 inputs
it takes the minor page faults of one CLI op from 40,558 to 5,652
(sweep-t5), 42,606 to 5,980 (verify-cf4) and 50,890 to 10,496
(simulate-n32).  It is glibc-only (a C library without ``mallopt`` is
left as it is), adds no option, changes no number, and runs only when
``main`` does, never at import.
"""

from __future__ import annotations

import argparse
import ctypes
import sys

from .config import load_config
from .errors import (
    AnalysisError,
    ConfigError,
    CrossingError,
    NoExteriorError,
    NoFeasibleBandError,
)
from .propagation import _CHUNK_BYTES
from .runner import COMMANDS, output_files, write_outputs

# glibc's mallopt parameters (malloc.h).  At the defaults a freed block
# above the mmap threshold (128 KiB, adapting up to 32 MiB) is unmapped at
# once and a heap top above the trim threshold is given back, so every
# chunk's temporaries (up to _CHUNK_BYTES each) return to the kernel when
# the chunk ends and are faulted in and zeroed again by the next.  An mmap
# threshold of 16 chunk budgets (32 MiB, the largest glibc accepts on
# 64-bit) puts every temporary on the heap with room to spare, and a trim
# threshold of 32 budgets keeps what a chunk frees there for the next one.
# Both are set: setting either one alone freezes glibc's adaptive threshold
# and faults more than the defaults (simulate-n32: 318k faults with the
# trim threshold alone, against 45k).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 16 * _CHUNK_BYTES
_TRIM_THRESHOLD_BYTES = 32 * _CHUNK_BYTES

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


def _retain_freed_heap() -> None:
    """Keep freed chunk temporaries on the heap for reuse (glibc only; else a no-op)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to open
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _retain_freed_heap()
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
