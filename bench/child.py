"""One benchmark op: run the package's CLI in this process.

    python3 bench/child.py META_JSON MODE -- <cli arguments>

Imports the package from ``src/`` next to this directory, always marks
the moment the first model is built (the end of set-up), runs
``cli.main`` and writes what it measured to META_JSON.  MODE is
``plain``, ``trace`` (record spans) or ``setup`` (stop once set up).
The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from spans import SetupDone, Tracer


def main() -> int:
    t_start = time.perf_counter()
    meta_path, mode, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace", "setup"):
        raise SystemExit("usage: child.py META_JSON plain|trace|setup -- <cli arguments>")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import adiabatic_continuum
    import adiabatic_continuum.cli as cli

    tracer = Tracer(record=mode == "trace", stop_after_setup=mode == "setup")
    if tracer.record:
        tracer.closed_span("runner.import", t_start, time.perf_counter())
    tracer.install(adiabatic_continuum)
    try:
        return cli.main(cli_args)
    except SetupDone:
        return 0
    finally:
        meta = {"setup_end": tracer.setup_end, "spans": tracer.spans, "counts": tracer.counts}
        Path(meta_path).write_text(json.dumps(meta), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
