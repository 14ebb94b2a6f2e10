import argparse
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import rand_hermitian as herm

from channelgeo import cli, coherence, rode
from channelgeo.reports import (
    CONVENTIONS,
    ConfigError,
    assemble_report,
    make_check,
    parse_metric,
    report_bytes,
    run_experiment,
    run_sweep,
    validate_config,
    write_sweep_csv,
)

SIGMA_Z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]


def pairs(M):
    M = np.asarray(M, dtype=np.complex128)
    return [[[float(x.real), float(x.imag)] for x in row] for row in M]


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "channelgeo.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def test_complexity_reference_value(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {"schema_version": 1, "kind": "complexity", "seed": 0, "H": SIGMA_Z, "t": 1.0},
    )
    code, out, err = run_cli("complexity", "--config", cfg)
    assert code == 0, err
    rep = json.loads(out)
    assert rep["schema_version"] == 1
    assert rep["kind"] == "complexity"
    assert abs(rep["scalars"]["G_hs"] - np.sqrt(2.0 / 3.0)) < 1e-12
    assert rep["all_ok"] is True
    assert rep["timings"] is None
    assert set(rep["conventions"]) == set(CONVENTIONS)
    names = [c["name"] for c in rep["checks"]]
    assert names == ["abs_spectrum_invariance"]
    assert "finished in" in err


def test_complexity_with_metric(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "cm.json",
        {
            "schema_version": 1,
            "kind": "complexity",
            "seed": 0,
            "H": SIGMA_Z,
            "t": 1.0,
            "metric": {"n": 1, "weights": [1.0, 1.0, 4.0]},
        },
    )
    code, out, _ = run_cli("complexity", "--config", cfg)
    assert code == 0
    rep = json.loads(out)
    # sigma_z has one weighted coefficient: sqrt(4 * 2) / sqrt(3)
    assert abs(rep["scalars"]["G_omega"] - np.sqrt(8.0 / 3.0)) < 1e-12


def test_noise_free_channel_reports_zero(tmp_path):
    rng = np.random.default_rng(3)
    cfg = write_cfg(
        tmp_path,
        "n0.json",
        {
            "schema_version": 1,
            "kind": "noise",
            "seed": 0,
            "d_S": 2,
            "d_E": 2,
            "H_S": pairs(herm(rng, 2)),
            "H_I": pairs(np.zeros((4, 4))),
            "H_E": pairs(np.zeros((2, 2))),
            "t": 1.0,
        },
    )
    code, out, _ = run_cli("noise", "--config", cfg)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["scalars"]["N_hs"]) < 1e-10
    assert rep["all_ok"] is True


def test_noise_upper_bound_failure_exits_one(tmp_path):
    rng = np.random.default_rng(7)
    cfg = write_cfg(
        tmp_path,
        "nbad.json",
        {
            "schema_version": 1,
            "kind": "noise",
            "seed": 0,
            "d_S": 2,
            "d_E": 2,
            "H_S": pairs(herm(rng, 2)),
            "H_I": pairs(herm(rng, 4)),
            "H_E": pairs(herm(rng, 2)),
            "t": 0.7,
        },
    )
    out_file = tmp_path / "nbad_report.json"
    code, _, _ = run_cli("noise", "--config", cfg, "--out", str(out_file))
    assert code == 1
    rep = json.loads(out_file.read_text())
    failed = {c["name"]: c["holds"] for c in rep["checks"]}
    assert failed["noise_upper_bound"] is False
    assert rep["all_ok"] is False


def test_noise_upper_bound_needs_no_search_knobs(tmp_path):
    rng = np.random.default_rng(11)
    H_S = herm(rng, 2)
    cfg = write_cfg(
        tmp_path,
        "nzero.json",
        {
            "schema_version": 1,
            "kind": "noise",
            "seed": 0,
            "d_S": 2,
            "d_E": 2,
            "H_S": pairs(16.0 * H_S / np.linalg.norm(H_S)),
            "H_I": pairs(0.25 * herm(rng, 4)),
            "H_E": pairs(0.25 * herm(rng, 2)),
            "t": 1.0,
            "estimate_restarts": 0,
        },
    )
    code, out, err = run_cli("noise", "--config", cfg)
    assert code == 0, err
    assert "config field 'estimate_restarts' is not read by kind 'noise'; ignored" in err
    rep = json.loads(out)
    assert isinstance(rep["scalars"]["noise_upper"], float)
    assert "noise_upper_bound" in {c["name"] for c in rep["checks"]}


def test_verify_all_byte_stable(tmp_path):
    cfg = write_cfg(
        tmp_path, "v.json", {"schema_version": 1, "kind": "verify-all", "seed": 0}
    )
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code1, _, _ = run_cli("verify-all", "--config", cfg, "--out", str(a))
    code2, _, _ = run_cli("verify-all", "--config", cfg, "--out", str(b))
    assert code1 == 0 and code2 == 0
    assert a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    assert rep["scalars"]["n_failed"] == 0.0
    assert rep["scalars"]["n_checks"] == len(rep["checks"])


def test_exit_two_on_bad_configs(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli("complexity", "--config", str(bad_json))
    assert code == 2
    assert "invalid JSON" in err

    missing_seed = write_cfg(
        tmp_path, "ms.json", {"schema_version": 1, "kind": "complexity", "H": SIGMA_Z, "t": 1.0}
    )
    code, _, err = run_cli("complexity", "--config", missing_seed)
    assert code == 2
    assert "seed" in err

    wrong_kind = write_cfg(
        tmp_path,
        "wk.json",
        {"schema_version": 1, "kind": "channel", "seed": 0, "H": SIGMA_Z, "t": 1.0},
    )
    code, _, err = run_cli("complexity", "--config", wrong_kind)
    assert code == 2
    assert "kind" in err

    ok_cfg = write_cfg(
        tmp_path,
        "ok.json",
        {"schema_version": 1, "kind": "complexity", "seed": 0, "H": SIGMA_Z, "t": 1.0},
    )
    code, _, err = run_cli("complexity", "--config", ok_cfg, "--seed", "-3")
    assert code == 2

    code, _, err = run_cli(
        "sweep", "--config", ok_cfg, "--param", "no.such.knob", "--values", "1"
    )
    assert code == 2
    assert "no.such.knob" in err


_MATCHED = {"kind": "bounded_matched", "weights": [1.0, 1.0, 1.0], "dt_noise": 0.0625}
_BASE = {
    "complexity": {"H": SIGMA_Z, "t": 1.0},
    "channel": {},
    "noise": {
        "d_S": 2,
        "d_E": 2,
        "H_S": SIGMA_Z,
        "H_I": pairs(np.zeros((4, 4))),
        "H_E": pairs(np.zeros((2, 2))),
        "t": 1.0,
    },
    "cohering-power": {"generator": SIGMA_Z, "t": 0.7, "restarts": 2, "pure_only": True},
    "rode": {"path": {"H": SIGMA_Z, "t": 1.0}, "noise": _MATCHED, "M": 4},
    "decompose": {"U": pairs(np.eye(2))},
}


@pytest.mark.parametrize(
    "kind, fields, name",
    [
        ("rode", {"M": 2.7}, "'M'"),
        ("rode", {"M": True}, "'M'"),
        ("rode", {"M": "abc"}, "'M'"),
        ("rode", {"M": 0}, "'M'"),
        ("rode", {"path": {"H": SIGMA_Z, "t": "INF"}}, "'path.t'"),
        ("rode", {"path": {"segments": [{"H": SIGMA_Z}]}}, "'path.segments[0].ds'"),
        ("rode", {"path": {"segments": [{"ds": 1.0}]}}, "'path.segments[0].H'"),
        ("rode", {"path": {"segments": 5}}, "'path.segments'"),
        ("rode", {"path": {"segments": [3]}}, "'path.segments[0]'"),
        ("rode", {"path": {"segments": []}}, "'path.segments'"),
        ("rode", {"noise": {"kind": "gaussian_pauli", "sigma": "INF"}}, "'noise.sigma'"),
        ("rode", {"noise": {**_MATCHED, "dt_noise": "x"}}, "'noise.dt_noise'"),
        ("rode", {"noise": {**_MATCHED, "weights": [1.0, 1.0, "INF"]}}, "'noise.weights'"),
        ("cohering-power", {"restarts": -3}, "'restarts'"),
        ("cohering-power", {"pure_only": "false"}, "'pure_only'"),
        ("complexity", {"t": "INF"}, "'t'"),
        ("complexity", {"metric": {"n": 1, "q": "INF"}}, "'metric.q'"),
        ("complexity", {"metric": {"n": True, "q": 2.0}}, "'metric.n'"),
        ("channel", {"perturbative": 5}, "'perturbative'"),
        ("complexity", {"H": [[["INF", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, "'H'"),
        ("noise", {"d_E": 2.0}, "'d_E'"),
        ("noise", {"d_S": 0}, "'d_S'"),
        ("decompose", {"normalize_phase": "no"}, "'normalize_phase'"),
        ("rode", {"noise": {**_MATCHED, "dt_noise": 1e-300}}, "'noise.dt_noise'"),
        ("rode", {"noise": {**_MATCHED, "dt_noise": 2**-17}}, "'noise.dt_noise'"),
        ("rode", {"M": rode.MAX_TRAJECTORIES + 1}, "'M'"),
        ("rode", {"path": {"H": pairs(np.zeros((32, 32))), "t": 1.0},
                  "M": rode.max_trajectories(32) + 1}, "'M'"),
        ("cohering-power", {"restarts": coherence.MAX_RESTARTS + 1}, "'restarts'"),
    ],
)
def test_bad_field_exits_two_and_names_it(tmp_path, capsys, kind, fields, name):
    cfg = {"schema_version": 1, "kind": kind, "seed": 0, **_BASE[kind], **fields}
    path = tmp_path / "probe.json"
    # "INF" stands for a literal that JSON parses to an infinite float
    path.write_text(json.dumps(cfg).replace('"INF"', "1e400"), encoding="utf-8")
    assert cli.main([kind, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err


def test_missing_field_exits_two(tmp_path):
    cfg = write_cfg(
        tmp_path, "mf.json", {"schema_version": 1, "kind": "complexity", "seed": 0, "t": 1.0}
    )
    code, _, err = run_cli("complexity", "--config", cfg)
    assert code == 2
    assert "'H'" in err


def test_sweep_perturbative_eps(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "sweep.json",
        {
            "schema_version": 1,
            "kind": "channel",
            "seed": 0,
            "perturbative": {
                "H_S": pairs(np.diag([1.0, 2.0])),
                "A_S": pairs(np.eye(2)),
                "env_energies": [0.0, 1.0],
                "weights": [0.5, 0.5],
                "eps": 0.01,
                "t": 1.0,
            },
        },
    )
    out_dir = tmp_path / "sweep_out"
    code, _, _ = run_cli(
        "sweep",
        "--config",
        cfg,
        "--param",
        "perturbative.eps",
        "--values",
        "0.01",
        "0.001",
        "--out",
        str(out_dir),
    )
    assert code == 0
    reports = sorted(p.name for p in out_dir.glob("report_*.json"))
    assert reports == ["report_000.json", "report_001.json"]
    rows = (out_dir / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "value,error,exact,omega_coupling,perturbative,all_ok"
    assert len(rows) == 3
    first = json.loads((out_dir / "report_000.json").read_text())
    assert first["inputs"]["perturbative"]["eps"] == 0.01
    # error shrinks by roughly eps^{3/2}
    e1 = float(rows[1].split(",")[1])
    e2 = float(rows[2].split(",")[1])
    assert e2 < e1 / 10.0


def test_sweep_to_stdout(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "s2.json",
        {"schema_version": 1, "kind": "complexity", "seed": 0, "H": SIGMA_Z, "t": 1.0},
    )
    code, out, _ = run_cli("sweep", "--config", cfg, "--param", "t", "--values", "0.5", "1.0")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0].startswith("value,")
    assert len(rows) == 3

    code, out, _ = run_cli("sweep", "--config", cfg, "--param", "t")
    assert code == 0
    assert out.strip() == "value,all_ok"


def test_rode_trajectory_sidecars(tmp_path):
    rng = np.random.default_rng(5)
    cfg = write_cfg(
        tmp_path,
        "r.json",
        {
            "schema_version": 1,
            "kind": "rode",
            "seed": 12,
            "path": {"H": pairs(herm(rng, 2)), "t": 1.0},
            "noise": {"kind": "bounded_matched", "weights": [1.0, 1.0, 1.0], "dt_noise": 0.0625},
            "M": 8,
        },
    )
    out_file = tmp_path / "rode_report.json"
    code, _, _ = run_cli("rode", "--config", cfg, "--out", str(out_file))
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert "noise_integral" in rep["scalars"]
    names = {c["name"] for c in rep["checks"]}
    assert "rode_distance_bound_violations" in names
    assert "rode_matched_norm" in names
    csv_rows = (tmp_path / "rode_report_trajectories.csv").read_text().strip().split("\n")
    assert len(csv_rows) == 9
    side = json.loads((tmp_path / "rode_report_trajectories.json").read_text())
    assert side["trajectories_used"] == 8


def test_decompose_kind(tmp_path):
    rng = np.random.default_rng(9)
    Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Q, R = np.linalg.qr(Z)
    U = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
    cfg = write_cfg(
        tmp_path,
        "d.json",
        {"schema_version": 1, "kind": "decompose", "seed": 0, "U": pairs(U)},
    )
    code, out, _ = run_cli("decompose", "--config", cfg)
    assert code == 0
    rep = json.loads(out)
    assert rep["scalars"]["gate_count"] <= 6.0
    assert rep["scalars"]["reconstruction_error"] <= 1e-9
    assert len(rep["circuit"]) == int(rep["scalars"]["gate_count"])

    cfg2 = write_cfg(
        tmp_path,
        "d2.json",
        {
            "schema_version": 1,
            "kind": "decompose",
            "seed": 0,
            "U": pairs(np.diag([1j, 1.0])),
            "normalize_phase": False,
        },
    )
    code, _, err = run_cli("decompose", "--config", cfg2)
    assert code == 1
    assert "failed" in err


def test_cohering_power_kind(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "cp.json",
        {
            "schema_version": 1,
            "kind": "cohering-power",
            "seed": 0,
            "generator": SIGMA_Z,
            "t": 0.7,
            "restarts": 4,
            "pure_only": True,
        },
    )
    code, out, _ = run_cli("cohering-power", "--config", cfg)
    assert code == 0
    rep = json.loads(out)
    names = [c["name"] for c in rep["checks"]]
    assert names == ["coherence_cap", "decohering_bound"]
    assert rep["all_ok"] is True
    assert "G_hs" in rep["scalars"]


# ---------------------------------------------------------------------------
# unit-level checks of the report plumbing


def test_make_check_boundary():
    assert make_check("x", 1.0, 1.0)["holds"] is True
    assert make_check("x", 1.0 + 1e-15, 1.0)["holds"] is False


def test_assemble_report_all_ok_logic():
    cfg = {"kind": "complexity"}
    rep = assemble_report(cfg, {}, [make_check("a", 0.0, 1.0), make_check("b", 2.0, 1.0)])
    assert rep["all_ok"] is False
    rep2 = assemble_report(cfg, {}, [])
    assert rep2["all_ok"] is True


def test_report_bytes_deterministic():
    rep = {"b": 1, "a": {"z": 2, "y": 3}}
    assert report_bytes(rep) == report_bytes(json.loads(json.dumps(rep)))
    assert report_bytes(rep).endswith(b"\n")


def test_validate_config_errors():
    with pytest.raises(ConfigError):
        validate_config({"kind": "complexity", "seed": 0})  # no schema_version
    with pytest.raises(ConfigError):
        validate_config({"schema_version": 1, "seed": 0})  # kind nowhere
    with pytest.raises(ConfigError):
        validate_config({"schema_version": 1, "kind": "complexity", "seed": True})
    with pytest.raises(ConfigError):
        validate_config({"schema_version": 1, "kind": "mystery", "seed": 0})
    out = validate_config({"schema_version": 1, "seed": 0}, kind="complexity")
    assert out["kind"] == "complexity"


def test_parse_metric_variants():
    assert parse_metric(None) is None
    # three-body and heavier strings pick up the penalty q
    m = parse_metric({"n": 3, "q": 2.5})
    assert m.weights.max() == 2.5
    assert m.weights.min() == 1.0
    with pytest.raises(ConfigError):
        parse_metric({"q": 2.0})  # n missing
    with pytest.raises(ConfigError):
        parse_metric({"n": 1})  # neither q nor weights
    with pytest.raises(ConfigError):
        parse_metric({"n": 1, "q": 0.5})  # q below 1


def test_run_sweep_rows_and_csv():
    cfg = {
        "schema_version": 1,
        "kind": "complexity",
        "seed": 0,
        "H": SIGMA_Z,
        "t": 1.0,
    }
    reports, rows = run_sweep(cfg, "t", [0.5, 1.0], threads=2)
    assert len(reports) == 2
    assert rows[0]["value"] == 0.5
    assert abs(rows[1]["G_hs"] - np.sqrt(2.0 / 3.0)) < 1e-12
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "value,G_hs,all_ok"
    assert len(lines) == 3


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    hadamard = [[[2**-0.5, 0.0], [2**-0.5, 0.0]], [[2**-0.5, 0.0], [-(2**-0.5), 0.0]]]
    runs = [
        ("complexity", {"H": SIGMA_Z, "t": 1.0}, 3),
        ("cohering-power", {"U": hadamard, "restarts": 1}, 5),
    ]
    for i, (kind, fields, seed) in enumerate(runs):
        cfg = {"schema_version": 1, "kind": kind, "seed": 0, **fields}
        out = tmp_path / f"{kind}.json"
        argv = [kind, "--config", write_cfg(tmp_path, f"{kind}-in.json", cfg), "--out", str(out)]
        assert cli.main(argv + ["--seed", str(seed)]) == 0
        expected = run_experiment(validate_config({**cfg, "seed": seed}, kind))
        assert json.loads(out.read_text())["inputs"]["seed"] == seed
        assert out.read_bytes() == report_bytes(expected)
        if i == 0:
            first = len(built)
    assert first > 0
    assert len(built) == first  # the second call reused the parser
