"""Command-line front end.

    channelgeo <kind> --config cfg.json [--out report.json] [--seed N] [--threads K]
    channelgeo sweep --config cfg.json --param name --values v1 v2 ...

Exit codes: 0 when every bound check holds, 1 on a failed check or a
numerical error, 2 on configuration problems. Reports are byte-stable
for a fixed config and seed; wall time goes to stderr, never into the
report.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .reports import (
    KINDS,
    ConfigError,
    load_config,
    run_experiment,
    run_sweep,
    validate_config,
    write_report,
    write_sweep_csv,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a JSON config")
    p.add_argument("--out", default=None, help="report destination (default stdout)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument(
        "--threads", type=int, default=1, help="worker threads for sweeps (default 1)"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="channelgeo",
        description="Complexity, coherence, and noise experiments on unitary channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        _add_common(p)
    sweep = sub.add_parser("sweep", help="run one experiment per parameter value")
    _add_common(sweep)
    sweep.add_argument(
        "--param", required=True, help="dotted config path to vary, e.g. perturbative.eps"
    )
    sweep.add_argument(
        "--values",
        nargs="*",
        default=[],
        help="values for the parameter (parsed as JSON scalars)",
    )
    return parser


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be non-negative")
            cfg["seed"] = args.seed
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        kind = None if args.command == "sweep" else args.command
        cfg = validate_config(cfg, kind)
    except ConfigError as exc:
        print(f"channelgeo: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "sweep":
            values = [_parse_value(v) for v in args.values]
            reports, rows = run_sweep(cfg, args.param, values, threads=args.threads)
            if args.out is None:
                write_sweep_csv(rows, sys.stdout)
            else:
                out_dir = Path(args.out)
                out_dir.mkdir(parents=True, exist_ok=True)
                for i, rep in enumerate(reports):
                    write_report(rep, str(out_dir / f"report_{i:03d}.json"))
                with open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
                    write_sweep_csv(rows, fh)
            ok = all(rep["all_ok"] for rep in reports)
        else:
            report = run_experiment(cfg)
            ok = report["all_ok"]
            write_report(report, args.out)
    except ConfigError as exc:
        print(f"channelgeo: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"channelgeo: {cfg.get('kind', args.command)} failed: {exc}", file=sys.stderr)
        return 1

    elapsed = time.perf_counter() - started
    print(f"channelgeo: {args.command} finished in {elapsed:.2f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
