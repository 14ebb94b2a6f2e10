#!/usr/bin/env python3
"""Regenerate perfbench/reference/<workload>.json at the reference seed.

    python3 perfbench/make_reference.py [workload ...]

Runs one pass over each group of each workload, requires every report to
pass the oracle, and stores each report's sha256 and scalars. Only regenerate when a change
is meant to move the numbers, and state the drift it accepts.
"""
from __future__ import annotations

import json
import shutil
import sys

import run


def make(workload: str) -> None:
    workdir = run.WORK / f"reference-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    cli, groups, _, _ = run.setup(workload, run.REFERENCE_SEED, workdir)
    outdir = workdir / "reports"
    reports = {}
    for items in groups:
        outcomes, _ = run.run_pass(cli, items, outdir)
        check = run.check_pass(outcomes, outdir, None)
        if check["failed"]:
            raise SystemExit(f"{workload}: reports fail the oracle: {check['failed']}")
        for item, _, _ in outcomes:
            report = json.loads((outdir / f"{item['id']}.json").read_text(encoding="utf-8"))
            reports[item["id"]] = {"sha256": check["digests"][item["id"]][0],
                                   "scalars": report["scalars"]}
    path = run.REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps({"seed": run.REFERENCE_SEED, "reports": reports},
                               indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(reports)} reports)")


if __name__ == "__main__":
    for name in sys.argv[1:] or run.WORKLOADS:
        make(name)
