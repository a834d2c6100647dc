"""Compare the output files of two CLI runs, number by number.

Reads report.json (its timestamp masked), resolved_config.json and
sweep.csv from each directory and prints every value that moved: its
path in the file, both values and, for numbers, the absolute and
relative size of the move.  A file that neither directory holds is
skipped, as simulate writes no sweep.csv.

Exit codes: 0 when the files are identical, 1 when anything moved, 2
when a file is in one directory only, cannot be read, or neither
directory holds any of the three.

usage: python3 scripts/output_diff.py DIR_A DIR_B
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

FILES = ("report.json", "resolved_config.json", "sweep.csv")
MASKED = {"report.json": ("timestamp",)}


class Unreadable(Exception):
    """A file in one directory only, or one that does not parse."""


def _number(value):
    """value as a float when it is a number or a numeric csv cell, else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _load(path: Path, name: str):
    """The file's contents as plain data: JSON as parsed, csv as a list of row dicts."""
    try:
        text = path.read_text(encoding="utf-8")
        if name.endswith(".csv"):
            return list(csv.DictReader(text.splitlines()))
        data = json.loads(text)
    except (OSError, UnicodeDecodeError, ValueError, csv.Error) as exc:
        raise Unreadable(f"{path}: {exc}") from exc
    if isinstance(data, dict):
        for key in MASKED.get(name, ()):
            data.pop(key, None)
    return data


def moves(a, b, path: str = ""):
    """(path, a, b) for every leaf where a and b differ; a missing side is None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from moves(a.get(key), b.get(key), f"{path}.{key}" if path else str(key))
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from moves(a[i] if i < len(a) else None, b[i] if i < len(b) else None, f"{path}[{i}]")
    elif a != b:
        x, y = _number(a), _number(b)
        if x is None or y is None or x != y:
            yield path, a, b


def describe(name: str, path: str, a, b) -> str:
    x, y = _number(a), _number(b)
    line = f"{name} {path}: {a!r} -> {b!r}"
    if x is not None and y is not None:
        rel = abs(y - x) / abs(x) if x else float("inf")
        line += f"  abs {abs(y - x):.3e}  rel {rel:.3e}"
    return line


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """One line per moved value; raises Unreadable on a missing or broken file."""
    lines, compared = [], 0
    for name in FILES:
        pa, pb = dir_a / name, dir_b / name
        if not pa.exists() and not pb.exists():
            continue
        if not (pa.is_file() and pb.is_file()):
            raise Unreadable(f"{name} is in only one of {dir_a} and {dir_b}")
        compared += 1
        lines += [describe(name, *move) for move in moves(_load(pa, name), _load(pb, name))]
    if not compared:
        raise Unreadable(f"neither {dir_a} nor {dir_b} holds any of {', '.join(FILES)}")
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args()
    try:
        lines = compare(args.dir_a, args.dir_b)
    except Unreadable as exc:
        print(f"unreadable: {exc}", file=sys.stderr)
        sys.exit(2)
    for line in lines:
        print(line)
    print(f"{len(lines)} values moved" if lines else "identical")
    sys.exit(1 if lines else 0)


if __name__ == "__main__":
    main()
