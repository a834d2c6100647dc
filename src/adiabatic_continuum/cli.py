"""Command-line interface.

Exit codes:
  0  success
  1  a verification invariant failed
  2  configuration or step-budget error, a request that does not fit in
     memory, unusable output directory, or leakages the sweep cannot fit
  3  band crossing or degenerate spectrum
  4  adiabatic criterion not satisfied
  5  no exterior states (band covers the whole grid)
  6  no feasible band size for the requested duration and margin

A command returns 0, 1 (verify), 4 (criterion) or 6 (bands) as its own
verdict, after its outputs are written.  Every other code comes from the
``errors.HarnessError`` the run raised, whose class carries the code and
the stderr label; a MemoryError is reported as a config error
(``errors.reportable``).  The subcommands are the entries of
``runner.COMMANDS``, in order, each helped by its function's docstring.

Allocator policy: ``main`` first raises glibc's mmap and trim thresholds
(``_retain_freed_heap``), so the 0.25-2 MiB temporaries each propagator
chunk frees stay on the heap for the next chunk instead of going back to
the kernel and being faulted in again.  On the benchmark's seed-1 inputs
it takes the minor page faults of one CLI op from 40,558 to 5,652
(sweep-t5), 42,606 to 5,980 (verify-cf4) and 50,890 to 10,496
(simulate-n32).  It is glibc-only (a C library without ``mallopt`` is
left as it is), adds no option, changes no number, and runs only when
``main`` does, never at import.

Every command runs on the calling thread; ``--jobs`` is parsed and must be
>= 1 (0 exits 2) so existing command lines keep working, but has no effect.
"""

from __future__ import annotations

import argparse
import ctypes
import sys

from .config import load_config
from .errors import ConfigError, HarnessError, reportable
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiabatic-continuum",
        description="band transport and leakage experiments on discretized continua",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__)
        cmd.add_argument("--config", required=True, help="experiment file (INI sections)")
        cmd.add_argument("--out", default=None, help="override [output] directory")
        cmd.add_argument("--jobs", type=int, default=1, help="no effect (commands run on one thread); must be >= 1")
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
        code, record, csv_text, lines = COMMANDS[args.command](config)
        out = write_outputs(config, record, csv_text)
    except (HarnessError, MemoryError) as exc:
        exc = reportable(exc)
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
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
