"""Compare two output trees of channelgeo runs, file by file.

    python tools/equivalence.py compare DIR_A DIR_B
    python tools/equivalence.py base REV

DIR_A and DIR_B hold the reports, sidecars and any other files written by
the same set of runs in two checkouts (for example a parent commit and a
change, run on one host).

``base REV`` builds both trees itself. It resolves REV to a commit, whose
full hash its header line quotes, and checks it out with ``git worktree
add --detach`` into a temporary directory and runs the fixed set in that
tree and then in the working tree, each in its own subprocess with
PYTHONPATH set to that tree's ``src``. The fixed set is both benchmark
corpora at seeds 0 and 1 (every group), drawn by the working tree's
``perfbench/corpus.py`` for both sides, plus ``verify-all`` at seeds 0-10,
48, 77, 265 and 305. Each side writes its reports and sidecars, an
exit-code list and the stderr lines less the wall-time line; the two trees
are then compared as below, and the worktree is removed whatever happened.

The comparison prints the count of byte-equal files and, over the files
that moved:

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
file is byte-equal and 1 otherwise; a REV that git cannot resolve exits 2
with one line on stderr, before any worktree is made.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SEEDS = (0, 1)
VERIFY_SEEDS = (*range(11), 48, 77, 265, 305)
_WALL_TIME = re.compile(r"channelgeo: \S+ finished in [0-9.]+s$")


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


def _write_configs(configs: Path) -> None:
    """The fixed set's configs, one directory per corpus and seed."""
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    for workload in corpus.GROUPS:
        for seed in CORPUS_SEEDS:
            items = [item for group in corpus.build_corpus(workload, seed) for item in group]
            corpus.write_configs(items, configs / f"{workload}-s{seed}")
    (configs / "verify-all").mkdir()
    for seed in VERIFY_SEEDS:
        cfg = {"schema_version": 1, "kind": "verify-all", "seed": seed}
        (configs / "verify-all" / f"s{seed:03d}.json").write_text(json.dumps(cfg))


def run_set(src: str, configs: str, out: str) -> None:
    """Run every config under configs through channelgeo.cli in this process,
    which must import channelgeo from src; write reports and sidecars under
    out, then exit_codes.txt and stderr.txt."""
    from channelgeo import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"channelgeo came from {cli.__file__}, not from {src}")
    configs, out = Path(configs), Path(out)
    codes, errors = [], []
    for path in sorted(configs.rglob("*.json")):
        rel = path.relative_to(configs).with_suffix("")
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        kind = json.loads(path.read_text())["kind"]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([kind, "--config", str(path), "--out", str(out / f"{rel}.json")])
        codes.append(f"{rel} {code}\n")
        errors += [f"{rel}: {line}\n" for line in stderr.getvalue().splitlines()
                   if not _WALL_TIME.match(line)]
    (out / "exit_codes.txt").write_text("".join(codes))
    (out / "stderr.txt").write_text("".join(errors))


def _run_tree(src: Path, configs: Path, out: Path) -> None:
    """run_set in a fresh interpreter that sees only src and this tool."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
    code = "import sys, equivalence; equivalence.run_set(*sys.argv[1:])"
    subprocess.run([sys.executable, "-c", code, str(src), str(configs), str(out)],
                   env=env, cwd=out, check=True)


def base(rev: str) -> int:
    """Run the fixed set at rev and in the working tree, then compare; a rev
    that git cannot resolve to a commit exits 2 before anything is made."""
    found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                            f"{rev}^{{commit}}"], capture_output=True, text=True)
    if found.returncode:
        print(f"equivalence: unknown revision {rev!r}", file=sys.stderr)
        return 2
    commit = found.stdout.strip()
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        tmp = Path(tmp)
        tree = tmp / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                        str(tree), commit], check=True)
        try:
            _write_configs(tmp / "configs")
            _run_tree(tree / "src", tmp / "configs", tmp / "out" / "base")
            _run_tree(ROOT / "src", tmp / "configs", tmp / "out" / "work")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
        print(f"base {rev} ({commit}) against the working tree")
        return compare(tmp / "out" / "base", tmp / "out" / "work")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cmp = sub.add_parser("compare", help="compare two output trees")
    cmp.add_argument("dir_a", type=Path)
    cmp.add_argument("dir_b", type=Path)
    at_rev = sub.add_parser("base", help="run the fixed set at REV and here, then compare")
    at_rev.add_argument("rev")
    args = parser.parse_args(argv)
    if args.command == "base":
        return base(args.rev)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    return compare(args.dir_a, args.dir_b)


if __name__ == "__main__":
    sys.exit(main())
