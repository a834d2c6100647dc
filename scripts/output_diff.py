"""Compare the output files of two CLI runs, number by number.

Reads report.json (its timestamp masked), resolved_config.json and
sweep.csv from each directory and prints every value that moved: its
path in the file, both values and, for numbers, the absolute and
relative size of the move.  List items that all carry a distinct "name"
(verify's check rows) are paired by that name, other list items by
index, so a row that one side lacks is reported once, with None on the
other side.  The exit_code.txt, stdout.txt and stderr.txt that the
output corpus (tests/corpus, scripts/regenerate_corpus.py) stores
beside them are compared line by line as text, the lines aligned by
difflib on their words around numbers, so a removed or added line is
reported once and the lines after it pair with their twins; a line
that pairs at another index has the path [index in A->index in B].  Any
other file is compared byte for byte.  A file that neither directory
holds is skipped, as simulate writes no sweep.csv; a file in one
directory only is an error.

Each directory may also be a tree of runs, such as the corpus: every
subdirectory that holds one of these files is compared with its twin
under the other root, and its lines are prefixed with its relative path.

Exit codes: 0 when the files are identical, 1 when anything moved, 2
when a file or run is in one tree only, cannot be read, or neither
tree holds any of the files.

usage: python3 scripts/output_diff.py DIR_A DIR_B
"""

from __future__ import annotations

import argparse
import csv
import difflib
import json
import re
import sys
from pathlib import Path

FILES = ("report.json", "resolved_config.json", "sweep.csv")
TEXTS = ("exit_code.txt", "stdout.txt", "stderr.txt")
MASKED = {"report.json": ("timestamp",)}
# a number inside a line of text, as the CLI prints them
_NUMERIC = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


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
    """The file's contents as plain data: JSON as parsed, csv as a list of row dicts, text as its lines."""
    try:
        text = path.read_text(encoding="utf-8")
        if name in TEXTS:
            return text.splitlines()
        if name.endswith(".csv"):
            return list(csv.DictReader(text.splitlines()))
        data = json.loads(text)
    except (OSError, UnicodeDecodeError, ValueError, csv.Error) as exc:
        raise Unreadable(f"{path}: {exc}") from exc
    if isinstance(data, dict):
        for key in MASKED.get(name, ()):
            data.pop(key, None)
    return data


def _close(x: float, y: float, rel_tol: float, floor: float) -> bool:
    """x and y agree within rel_tol, or are both at most floor in size."""
    size = max(abs(x), abs(y))
    return x == y or size <= floor or abs(x - y) <= rel_tol * size


def _same_text(a: str, b: str, rel_tol: float, floor: float) -> bool:
    """Two lines with the same words around numbers that are close under nonzero tolerances."""
    if not (rel_tol or floor) or _NUMERIC.split(a) != _NUMERIC.split(b):
        return False
    return all(_close(float(x), float(y), rel_tol, floor) for x, y in zip(_NUMERIC.findall(a), _NUMERIC.findall(b)))


def moves(a, b, path: str = "", rel_tol: float = 0.0, floor: float = 0.0):
    """(path, a, b) for every leaf where a and b are not close; a missing side is None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from moves(a.get(key), b.get(key), f"{path}.{key}" if path else str(key), rel_tol, floor)
    elif isinstance(a, list) and isinstance(b, list):
        names_a, names_b = _names_of(a), _names_of(b)
        if names_a is None or names_b is None:
            pairs = [(i, a[i] if i < len(a) else None, b[i] if i < len(b) else None) for i in range(max(len(a), len(b)))]
        else:
            named_b = dict(zip(names_b, b))
            pairs = [(name, item, named_b.get(name)) for name, item in zip(names_a, a)]
            pairs += [(name, None, item) for name, item in zip(names_b, b) if name not in names_a]
        for key, x, y in pairs:
            yield from moves(x, y, f"{path}[{key}]", rel_tol, floor)
    elif a != b:
        x, y = _number(a), _number(b)
        if x is not None and y is not None:
            if not _close(x, y, rel_tol, floor):
                yield path, a, b
        elif not (isinstance(a, str) and isinstance(b, str) and _same_text(a, b, rel_tol, floor)):
            yield path, a, b


def _names_of(items: list):
    """The items' "name" values when every item is a dict with a distinct str name, else None."""
    names = [item.get("name") if isinstance(item, dict) else None for item in items]
    if all(isinstance(name, str) for name in names) and len(set(names)) == len(names):
        return names
    return None


def line_moves(a: list[str], b: list[str], rel_tol: float = 0.0, floor: float = 0.0):
    """(path, a, b) for every moved line of two texts, a removed or added line once, with None on its missing side.

    difflib aligns the lines by their words with every number masked, so a
    line whose numbers moved pairs with its twin; the lines of a block that
    was replaced pair in order.
    """
    masked = ([_NUMERIC.sub("#", line) for line in lines] for lines in (a, b))
    for _, i1, i2, j1, j2 in difflib.SequenceMatcher(None, *masked, autojunk=False).get_opcodes():
        for k in range(max(i2 - i1, j2 - j1)):
            i, j = i1 + k, j1 + k
            x, y = (a[i] if i < i2 else None), (b[j] if j < j2 else None)
            if x is None:  # an added line, at its index in b
                key = j
            elif y is None or i == j:
                key = i
            else:
                key = f"{i}->{j}"
            yield from moves(x, y, f"[{key}]", rel_tol, floor)


def describe(name: str, path: str, a, b) -> str:
    x, y = _number(a), _number(b)
    line = f"{name} {path}: {a!r} -> {b!r}"
    if x is not None and y is not None:
        rel = abs(y - x) / abs(x) if x else float("inf")
        line += f"  abs {abs(y - x):.3e}  rel {rel:.3e}"
    return line


def _names(directory: Path) -> set[str]:
    try:
        return {path.name for path in directory.iterdir() if path.is_file()}
    except OSError as exc:
        raise Unreadable(f"{directory}: {exc}") from exc


def compare(dir_a: Path, dir_b: Path, rel_tol: float = 0.0, floor: float = 0.0) -> list[str]:
    """One line per moved value, and per other file whose bytes differ.

    Two numbers are close when they agree within rel_tol relative, or are
    both at most floor in size (roundoff residuals); both are 0 by default.
    Raises Unreadable on a file in one directory only, or one that does not parse.
    """
    names, names_b = _names(dir_a), _names(dir_b)
    if names != names_b:
        raise Unreadable(f"{', '.join(sorted(names ^ names_b))} is in only one of {dir_a} and {dir_b}")
    parsed = [name for name in FILES + TEXTS if name in names]
    if not parsed:
        raise Unreadable(f"neither {dir_a} nor {dir_b} holds any of {', '.join(FILES + TEXTS)}")
    lines = []
    for name in parsed:
        data_a, data_b = _load(dir_a / name, name), _load(dir_b / name, name)
        diff = line_moves if name in TEXTS else moves
        lines += [describe(name, *move) for move in diff(data_a, data_b, rel_tol=rel_tol, floor=floor)]
    for name in sorted(names - set(parsed)):
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            lines.append(f"{name}: bytes differ")
    return lines


def _runs(root: Path) -> set[Path]:
    """Every directory under root (root itself included) that holds a file compare reads, relative to root."""
    return {path.parent.relative_to(root) for name in FILES + TEXTS for path in root.rglob(name)}


def compare_tree(root_a: Path, root_b: Path) -> list[str]:
    """compare over every run of two trees, each line prefixed with its run's relative path."""
    runs = sorted(_runs(root_a) | _runs(root_b))
    if not runs:
        raise Unreadable(f"neither {root_a} nor {root_b} holds any of {', '.join(FILES + TEXTS)}")
    lines = []
    for run in runs:
        prefix = "" if run == Path(".") else f"{run.as_posix()}/"
        lines += [prefix + line for line in compare(root_a / run, root_b / run)]
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args()
    try:
        lines = compare_tree(args.dir_a, args.dir_b)
    except Unreadable as exc:
        print(f"unreadable: {exc}", file=sys.stderr)
        sys.exit(2)
    for line in lines:
        print(line)
    print(f"{len(lines)} values moved" if lines else "identical")
    sys.exit(1 if lines else 0)


if __name__ == "__main__":
    main()
