"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The emission tests run every workload once per mode with ``--seconds 1``
and take about a minute and a quarter on two cores.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

cli = run.import_cli()


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corpus_is_deterministic_for_a_seed(workload):
    groups = corpus.build_corpus(workload, 3)
    assert len({json.dumps(g, sort_keys=True) for g in groups}) == corpus.GROUPS[workload]
    first = json.dumps(groups, sort_keys=True)
    assert first == json.dumps(corpus.build_corpus(workload, 3), sort_keys=True)
    assert first != json.dumps(corpus.build_corpus(workload, 4), sort_keys=True)
    warm = corpus.build_warmups(workload, 3)
    assert json.dumps(warm) == json.dumps(corpus.build_warmups(workload, 3))


def test_workload_names_agree():
    assert set(run.WORKLOADS) == set(corpus._PLANS)


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(s) for s in run.per_layer_specs()
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(run.ROOT, "--workload", workload, "--seed", "0",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, details, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, json.loads(details)["failures"]
    expected = run.per_layer_specs() if trace else [(n, u, None) for n, u in run.END_TO_END]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (n, u) for n, u, _ in expected
    ]
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in metrics.values())
        return
    kinds = corpus.workload_kinds(workload)
    for kind in run.KINDS:
        assert (metrics[f"kind.{kind}_s"] > 0) == (kind in kinds)
    if workload == "search":
        assert metrics["optimize.evals"] > 0
        assert metrics["operators.hermitian.calls"] > 0
    if workload == "ensemble":
        assert metrics["optimize.evals"] == 0
        assert metrics["optimize.coordinate_search.calls"] == 0
        assert metrics["rode.trajectories"] > 0
    assert metrics["reports.bytes_identical"] == len(corpus.build_corpus(workload, 0)[0])


def test_tracer_restores_every_module_attribute(tmp_path):
    modules = {k: m for k, m in sys.modules.items() if k.startswith("channelgeo")}
    before = {(k, a): v for k, m in modules.items() for a, v in vars(m).items()}
    items = corpus.build_warmups("ensemble", 1)
    corpus.write_configs(items, tmp_path / "configs")
    with tracer.Tracer() as trace:
        assert modules["channelgeo.cli"].load_config is not before[("channelgeo.cli", "load_config")]
        run.run_pass(cli, items, tmp_path / "out", trace)
    after = {(k, a): v for k, m in modules.items() for a, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert trace.spans and all(span is not None for span in trace.spans)


def test_oracle_rejects_a_wrong_scalar(tmp_path):
    complexity = [i for i in corpus.build_corpus("ensemble", 5)[0] if i["kind"] == "complexity"]
    items = complexity[:1] + corpus.build_corpus("search", 5)[0][:1]
    corpus.write_configs(items, tmp_path / "configs")
    outcomes, _ = run.run_pass(cli, items, tmp_path / "out")
    for item, code, _ in outcomes:
        path = tmp_path / "out" / f"{item['id']}.json"
        assert oracle.check(item, code, path, None) == []
        report = json.loads(path.read_text())
        name = "G_hs" if item["kind"] == "complexity" else "C_power"
        report["scalars"][name] += 1.0
        path.write_text(json.dumps(report))
        assert oracle.check(item, code, path, None)


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = _bench(tmp_path, "--workload", "search", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
