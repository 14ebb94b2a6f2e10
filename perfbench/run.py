#!/usr/bin/env python3
"""channelgeo benchmark: seeded config corpora run through the CLI.

    python3 perfbench/run.py --workload search --seed 1 --seconds 55 --trace 0

A single client runs closed-loop: each config of the workload's corpus goes
through the in-process ``channelgeo.cli.main([kind, "--config", ..., "--out",
...])`` after the previous one returned, so a pass covers JSON load,
validation, the runner and report writing. Passes repeat while another one
fits in ``--seconds``, pass n over group n of the corpus (cycling), so that
a run averages over several draws; every report is checked by
``oracle.check``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced pass with a pass under ``tracer.Tracer``, both over the first group
only, so that counts repeat exactly for a seed, and reports the per-layer
metrics; the traced reports must be byte-identical to the untraced ones.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds every
metric of the run plus the machine facts. Spans and full results are written
to ``perfbench/.work/``. The package is imported from ``src/`` next to this
directory and nowhere else.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE_DIR = BENCH / "reference"
#: Seed whose reports are compared with the committed reference.
REFERENCE_SEED = 0
SETUP_TIMEOUT_S = 150

WORKLOADS = ("search", "ensemble")
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
KINDS = ("complexity", "channel", "noise", "cohering-power", "rode", "decompose", "verify-all")
#: Per-layer metrics that come from the run rather than from the tracer.
RUN_LAYER_METRICS = [
    *[(f"kind.{kind}_s", "s", "lower") for kind in KINDS],
    ("failed_ratio", "ratio", "lower"),
    ("reports.bytes_written", "B", "lower"),
    ("reports.bytes_identical", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


class BenchError(Exception):
    """The benchmark cannot run here; exits non-zero without a result."""


def import_cli():
    """Import channelgeo.cli from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        from channelgeo import cli
    except ImportError as exc:
        raise BenchError(f"cannot import channelgeo from {src}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise BenchError(f"channelgeo was imported from {cli.__file__}, not {src}")
    return cli


def per_layer_specs() -> list[tuple[str, str, str]]:
    return tracer.layer_metric_specs() + RUN_LAYER_METRICS


# ---------------------------------------------------------------------------
# Set-up


def setup(workload: str, seed: int, workdir: Path):
    """Import the CLI, write the corpus and run one warm-up per kind.

    Returns (cli module, corpus groups, warm-up outcomes, elapsed seconds).
    """
    started = time.perf_counter()
    cli = import_cli()
    import corpus

    groups = corpus.build_corpus(workload, seed)
    warmups = corpus.build_warmups(workload, seed)
    corpus.write_configs([i for g in groups for i in g] + warmups, workdir / "configs")
    outcomes = run_pass(cli, warmups, workdir / "warmup")[0]
    return cli, groups, outcomes, time.perf_counter() - started


def setup_in_child(workload: str, seed: int, workdir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Passes


def run_one(cli, item: dict, out: Path) -> int:
    argv = [item["kind"], "--config", item["config_path"], "--out", str(out)]
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback from the program counts as a failed operation
        traceback.print_exc(file=sys.__stderr__)
        return -1


def run_pass(cli, items: list[dict], outdir: Path, trace=None):
    """Run every item once, in order. Returns ([(item, code, seconds)], wall)."""
    outdir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        started = time.perf_counter()
        for item in items:
            if trace is not None:
                trace.experiment = item["id"]
            t0 = time.perf_counter()
            code = run_one(cli, item, outdir / f"{item['id']}.json")
            outcomes.append((item, code, time.perf_counter() - t0))
        wall = time.perf_counter() - started
    return outcomes, wall


def check_pass(outcomes, outdir: Path, reference: dict | None) -> dict:
    """Oracle verdicts, (kind, seconds) of each item and output bytes of one
    pass."""
    import oracle

    failed, digests = [], {}
    bytes_written = bytes_identical = 0
    for item, code, seconds in outcomes:
        report = outdir / f"{item['id']}.json"
        ref = None if reference is None else reference["reports"].get(item["id"])
        if reference is not None and ref is None:
            problems = ["no reference entry"]
        else:
            problems = oracle.check(item, code, report, ref)
        if problems:
            failed.append({"id": item["id"], "problems": problems})
            continue
        paths = oracle.output_paths(report, item["kind"])
        digests[item["id"]] = [oracle.digest(p) for p in paths]
        bytes_written += sum(p.stat().st_size for p in paths)
        if ref is not None and digests[item["id"]][0] == ref["sha256"]:
            bytes_identical += 1
    times = [(item["kind"], seconds) for item, _, seconds in outcomes]
    return {"failed": failed, "times": times, "digests": digests,
            "bytes_written": bytes_written, "bytes_identical": bytes_identical}


def load_reference(workload: str, seed: int) -> dict | None:
    if seed != REFERENCE_SEED:
        return None
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        raise BenchError(f"missing reference {path}; run perfbench/make_reference.py")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Facts and output


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    try:  # read only; absent outside a cgroup v2 hierarchy
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cgroup_cpu_max": cpu_max,
    }


def _typical_pass(checks: list[dict]) -> dict:
    """`wall_s` and `kind.<kind>_s` of a typical pass: each position of the
    workload's mix (the n-th config of every group) takes its median time
    over the run's passes, and these medians are summed. A slow spell of the
    host that hits one config of a pass is voted out there, where a median
    of whole passes keeps it whenever it hits a little of most passes."""
    kind_s = defaultdict(float)
    for samples in zip(*(c["times"] for c in checks)):
        kind_s[samples[0][0]] += statistics.median(s for _, s in samples)
    return {"wall_s": sum(kind_s.values()),
            **{f"kind.{k}_s": kind_s.get(k, 0.0) for k in KINDS}}


def measure(cli, groups, workdir: Path, seconds: float, traced: bool, reference,
            after_pass) -> dict:
    """Repeat passes (or untraced/traced pairs) while another one still fits
    in `seconds`, always at least one, pass n over group n modulo their
    number, calling `after_pass` after each; returns every metric and the
    verdicts."""
    outdir = workdir / "reports"
    plain, derived, plain_walls, traced_walls = [], [], [], []
    attempted, failed, mismatched = 0, [], []
    started = time.perf_counter()

    def another_fits() -> bool:
        n = len(plain)
        return n == 0 or (time.perf_counter() - started) * (n + 1) / n <= seconds

    while another_fits():
        items = groups[len(plain) % len(groups)]
        outcomes, wall = run_pass(cli, items, outdir)
        check = check_pass(outcomes, outdir, reference)
        plain.append(check)
        plain_walls.append(wall)
        attempted += len(items)
        failed += check["failed"]
        if traced:
            with tracer.Tracer() as trace:
                outcomes, wall = run_pass(cli, items, outdir, trace)
            traced_check = check_pass(outcomes, outdir, reference)
            derived.append(trace.derive())
            if len(derived) == 1:  # one pass of spans is plenty, and they are large
                trace.write_spans(workdir / "spans.csv")
            del trace
            traced_walls.append(wall)
            attempted += len(items)
            failed += traced_check["failed"]
            mismatched += [i for i, d in check["digests"].items()
                           if traced_check["digests"].get(i, d) != d]
        after_pass()
    metrics = {
        **_typical_pass(plain),
        "reports.bytes_written": plain[0]["bytes_written"],
        "reports.bytes_identical": plain[0]["bytes_identical"],
    }
    if traced:
        for name in derived[0]:
            metrics[name] = statistics.median(d[name] for d in derived)
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(plain_walls))
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "mismatched": mismatched, "pass_walls_s": plain_walls,
            "item_s": [[s for _, s in c["times"]] for c in plain],
            "traced_walls_s": traced_walls}


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    reference = load_reference(workload, seed)
    cli, groups, warm, _ = setup(workload, seed, workdir)
    warm_failed = check_pass(warm, workdir / "warmup", None)["failed"]
    # Set-up is timed in a fresh child process, since importing the package
    # only costs its full price once per process: once before the first pass
    # and once after each pass, so that the samples spread over the whole run
    # and its host-speed spells, as the passes do.
    samples = []

    def sample_setup() -> None:
        samples.append(setup_in_child(workload, seed, workdir / f"setup-{len(samples)}"))

    sample_setup()
    if traced:
        groups = groups[:1]
    result = measure(cli, groups, workdir, seconds, traced, reference, sample_setup)
    metrics = result["metrics"]
    metrics["setup_s"] = statistics.median(samples)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = result["attempted"] + len(warm)
    failed = warm_failed + result["failed"]
    n_failed = len(failed) + len(result["mismatched"])
    metrics["failed_ratio"] = n_failed / attempted
    units = {name: unit for name, unit in END_TO_END}
    units.update({name: unit for name, unit, _ in per_layer_specs()})
    names = [n for n, _, _ in per_layer_specs()] if traced else [n for n, _ in END_TO_END]
    details = {
        "workload": workload, "seed": seed, "trace": int(traced),
        "machine": machine_facts(),
        "passes": len(result["pass_walls_s"]),
        "pass_walls_s": result["pass_walls_s"],
        "traced_walls_s": result["traced_walls_s"],
        "item_s": result["item_s"],
        "setup_samples_s": samples,
        "failures": failed[:20],
        "trace_mismatches": result["mismatched"][:20],
        "all_metrics": {n: {"value": v, "unit": units[n]} for n, v in sorted(metrics.items())},
    }
    (workdir / "result.json").write_text(json.dumps(details, indent=2), encoding="utf-8")
    return {
        "details": details,
        "result": {
            "correct": n_failed == 0,
            "attempted": attempted,
            "failed": n_failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.setup_only:
            shutil.rmtree(args.workdir, ignore_errors=True)
            print(repr(setup(args.workload, args.seed, args.workdir)[3]))
            return 0
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
