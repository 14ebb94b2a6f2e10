"""Compare two output trees of channelgeo runs, file by file.

    python tools/equivalence.py compare DIR_A DIR_B

DIR_A and DIR_B hold the reports, sidecars and any other files written by
the same set of runs in two checkouts (for example a parent commit and a
change, run on one host). The tool prints the count of byte-equal files and,
over the files that moved:

- for JSON files, the largest relative and absolute drift of each number,
  grouped by kind and scalar. The kind is a report's ``kind`` field, or
  else the file name after its first ``-``; a scalar is the path of keys,
  with list indices dropped and a list entry that has a ``name`` named by it
  (``checks.reconstruction.lhs``);
- for CSV files, the same two drifts per kind and column;
- every other difference by path: a string, flag, key set or length that
  changed, a whole file that is not JSON or CSV, or a file that is in one
  tree only.

Relative drift is |a - b| / max(|a|, |b|). The exit code is 0 when every
file is byte-equal and 1 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path


def _leaves(node, path=()):
    """(path, value) of every leaf of a JSON value; see the module docstring."""
    if isinstance(node, dict):
        yield path, ("keys", sorted(node))
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        yield path, ("length", len(node))
        for i, value in enumerate(node):
            named = isinstance(value, dict) and isinstance(value.get("name"), str)
            yield from _leaves(value, path + ((value["name"],) if named else (f"[{i}]",)))
    else:
        yield path, node


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


class Drift:
    """Largest relative and absolute drift per (kind, scalar), and the
    differences that are not numeric drift."""

    def __init__(self) -> None:
        self.numeric: dict[tuple[str, str], list] = {}
        self.other: list[str] = []

    def add(self, kind: str, scalar: str, a, b, where: str) -> None:
        if _number(a) and _number(b):
            if a == b:
                return
            diff = abs(a - b)
            rel = diff / max(abs(a), abs(b))
            row = self.numeric.setdefault((kind, scalar), [0.0, 0.0, 0])
            row[0], row[1], row[2] = max(row[0], rel), max(row[1], diff), row[2] + 1
        elif a != b:
            self.other.append(f"{where}: {scalar or '(root)'}: {a!r} -> {b!r}")


def _kind(rel: Path, data=None) -> str:
    if isinstance(data, dict) and isinstance(data.get("kind"), str):
        return data["kind"]
    return rel.stem.split("-", 1)[-1]


def _compare_json(rel: Path, raw_a: bytes, raw_b: bytes, drift: Drift) -> None:
    a, b = json.loads(raw_a), json.loads(raw_b)
    kind = _kind(rel, a)
    leaves_a, leaves_b = dict(_leaves(a)), dict(_leaves(b))
    for path in sorted(leaves_a.keys() | leaves_b.keys()):
        scalar = ".".join(p for p in path if not p.startswith("["))
        drift.add(kind, scalar, leaves_a.get(path, "(absent)"), leaves_b.get(path, "(absent)"),
                  str(rel))


def _compare_csv(rel: Path, raw_a: bytes, raw_b: bytes, drift: Drift) -> None:
    rows_a = list(csv.reader(raw_a.decode().splitlines()))
    rows_b = list(csv.reader(raw_b.decode().splitlines()))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        drift.other.append(f"{rel}: header or row count differs")
        return
    kind = _kind(rel)
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for column, x, y in zip(rows_a[0], row_a, row_b):
            try:
                x, y = float(x), float(y)
            except ValueError:
                pass
            drift.add(kind, f"csv:{column}", x, y, str(rel))


def compare(dir_a: Path, dir_b: Path) -> int:
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    drift = Drift()
    equal = moved = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            drift.other.append(f"{rel}: only in {dir_a if rel in files_a else dir_b}")
            continue
        raw_a, raw_b = (dir_a / rel).read_bytes(), (dir_b / rel).read_bytes()
        if raw_a == raw_b:
            equal += 1
            continue
        moved += 1
        if rel.suffix == ".json":
            _compare_json(rel, raw_a, raw_b, drift)
        elif rel.suffix == ".csv":
            _compare_csv(rel, raw_a, raw_b, drift)
        else:
            drift.other.append(f"{rel}: contents differ")
    both = len(files_a & files_b)
    print(f"{equal} of {both} files byte-equal, {moved} moved, "
          f"{len(files_a ^ files_b)} in one tree only")
    if drift.numeric:
        print("largest drift per kind and scalar (relative, absolute, values moved):")
        for (kind, scalar), (rel, diff, count) in sorted(drift.numeric.items()):
            print(f"  {kind} {scalar}: {rel:.3e} {diff:.3e} {count}")
    if drift.other:
        print("other differences:")
        for line in drift.other:
            print(f"  {line}")
    return 0 if equal == len(files_a | files_b) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cmp = sub.add_parser("compare", help="compare two output trees")
    cmp.add_argument("dir_a", type=Path)
    cmp.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    return compare(args.dir_a, args.dir_b)


if __name__ == "__main__":
    sys.exit(main())
