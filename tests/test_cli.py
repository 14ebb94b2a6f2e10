import argparse
import io
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rand_hermitian as herm

from channelgeo import channel, cli, coherence, reports, rode
from channelgeo.geodesic import PiecewiseConstantPath, constant_path, geometric_complexity_const
from channelgeo.operators import ArgumentError
from channelgeo.pauli import MetricSpec, build_pauli_basis, build_penalty_metric
from channelgeo.reports import (
    CONVENTIONS,
    KIND_FIELDS,
    KINDS,
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
from channelgeo.rode import NoiseModel

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


_PERTURBATIVE = {
    "H_S": pairs(np.diag([1.0, 2.0])),
    "A_S": pairs(np.eye(2)),
    "env_energies": [0.0, 1.0],
    "weights": [0.5, 0.5],
    "eps": 0.01,
}
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
_ONE = [[[1.0, 0.0]]]  # a 1x1 matrix
_ONE_BY_ONE = {"d_S": 1, "d_E": 1, "H_S": _ONE, "H_I": _ONE, "H_E": _ONE, "t": 1.0}


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
        ("complexity", {"t": -1.0}, "'t'"),
        ("channel", {**_BASE["noise"], "t": -1}, "'t'"),
        ("noise", {"t": -0.5}, "'t'"),
        ("cohering-power", {"t": -1.0}, "'t'"),
        ("channel", {"perturbative": {**_PERTURBATIVE, "t": -1.0}}, "'perturbative.t'"),
        ("rode", {"path": {"H": SIGMA_Z, "t": 0}}, "'path.t'"),
        ("rode", {"path": {"H": SIGMA_Z, "t": -1.0}}, "'path.t'"),
        ("rode", {"path": {"segments": [{"H": SIGMA_Z, "ds": 0.0}]}}, "'path.segments[0].ds'"),
        ("rode", {"path": {"segments": [{"H": SIGMA_Z, "ds": 1.0}, {"H": SIGMA_Z, "ds": -0.5}]}},
         "'path.segments[1].ds'"),
        # every complexity divides by sqrt(d^2 - 1), so a 1x1 operator is refused
        ("cohering-power", {"generator": _ONE}, "'generator'"),
        ("channel", {"perturbative": {**_PERTURBATIVE, "H_S": _ONE, "A_S": _ONE,
                                      "env_energies": [1.0], "weights": [1.0]}},
         "'perturbative.H_S'"),
        ("complexity", {"H": _ONE}, "'H'"),
        ("channel", _ONE_BY_ONE, "'d_S'"),
        ("noise", _ONE_BY_ONE, "'d_S'"),
        ("rode", {"path": {"H": _ONE, "t": 1.0}}, "'path.H'"),
        ("cohering-power", {"dephasing": 5}, "'dephasing'"),
        ("cohering-power", {"dephasing": [pairs(np.diag(e)) for e in np.eye(3)]}, "'dephasing'"),
        ("complexity", {"metric": {"n": 2, "q": 2}}, "'metric.n'"),
        ("rode", {"noise": {"kind": "gaussian_pauli", "sigma": [0.1, 0.1]}}, "'noise.sigma'"),
        ("rode", {"path": {"H": pairs(np.diag([1.0, 2.0, 3.0])), "t": 1.0}}, "'path'"),
        ("rode", {"path": {"H": SIGMA_Z, "t": 5e-324}, "noise": {"kind": "gaussian_pauli", "sigma": 0.1}},
         "'path'"),
        # a noise step must divide every segment
        ("rode", {"noise": {**_MATCHED, "dt_noise": 0.3}}, "'noise.dt_noise'"),
        ("rode", {"path": {"segments": [{"H": SIGMA_Z, "ds": 0.3}, {"H": SIGMA_Z, "ds": 0.7}]},
                  "noise": {**_MATCHED, "dt_noise": None}}, "'path.segments[0].ds'"),
        ("rode", {"path": {"segments": [{"H": SIGMA_Z, "ds": 0.5}, {"H": SIGMA_Z, "ds": 0.7}]},
                  "noise": {**_MATCHED, "dt_noise": 0.25}}, "'noise.dt_noise'"),
        # the perturbative model needs commuting PSD H_S and A_S
        ("channel", {"perturbative": {**_PERTURBATIVE, "H_S": pairs(np.diag([2.0, 1.0])),
                                      "A_S": pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))}},
         "'perturbative.A_S'"),
        ("channel", {"perturbative": {**_PERTURBATIVE, "H_S": SIGMA_Z}}, "'perturbative.H_S'"),
        ("channel", {"perturbative": {**_PERTURBATIVE, "A_S": pairs(-np.eye(2))}}, "'perturbative.A_S'"),
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


_Z = np.diag([1.0, -1.0]).astype(np.complex128)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_GAUSS = NoiseModel(kind="gaussian_pauli", sigma=0.1)
_MATCHED_MODEL = NoiseModel(kind="bounded_matched", weights=np.ones(3), dt_noise=0.0625)
_SPEC = dict(d_S=2, d_E=2, H_S=_Z, H_I=np.zeros((4, 4)), H_E=np.zeros((2, 2)))
_PERT = dict(H_S=np.diag([1.0, 2.0]), A_S=np.eye(2), env_energies=np.array([0.0, 1.0]),
             weights=np.array([0.5, 0.5]), eps=0.01)


def _segments(*ds):
    return PiecewiseConstantPath(segments=tuple((_Z, d) for d in ds))


@pytest.mark.parametrize(
    "call, at, name, kind, fields",
    [
        # rode.segment_plan holds every rule of a run
        (lambda: rode.segment_plan(constant_path(np.diag([1.0, 2.0, 3.0]), 1.0), _GAUSS, 4),
         "", "path", "rode", {"path": {"H": pairs(np.diag([1.0, 2.0, 3.0])), "t": 1.0}}),
        (lambda: rode.segment_plan(constant_path(_Z, 5e-324), _GAUSS, 4), "", "path", "rode",
         {"path": {"H": SIGMA_Z, "t": 5e-324}, "noise": {"kind": "gaussian_pauli", "sigma": 0.1}}),
        (lambda: rode.segment_plan(constant_path(_Z, 1.0), _MATCHED_MODEL, rode.MAX_TRAJECTORIES + 1),
         "", "M", "rode", {"M": rode.MAX_TRAJECTORIES + 1}),
        (lambda: rode.segment_plan(constant_path(_Z, 1.0),
                                   NoiseModel(kind="gaussian_pauli", sigma=[0.1, 0.1]), 4),
         "", "noise.sigma", "rode", {"noise": {"kind": "gaussian_pauli", "sigma": [0.1, 0.1]}}),
        (lambda: rode.segment_plan(constant_path(_Z, 1.0),
                                   NoiseModel(kind="bounded_matched", weights=np.ones(2)), 4),
         "", "noise.weights", "rode", {"noise": {**_MATCHED, "weights": [1.0, 1.0]}}),
        (lambda: rode.segment_plan(constant_path(_Z, 1.0),
                                   NoiseModel(kind="bounded_matched", weights=np.ones(3),
                                              dt_noise=2**-17), 4),
         "", "noise.dt_noise", "rode", {"noise": {**_MATCHED, "dt_noise": 2**-17}}),
        (lambda: rode.segment_plan(constant_path(_Z, 1.0),
                                   NoiseModel(kind="bounded_matched", weights=np.ones(3),
                                              dt_noise=0.3), 4),
         "", "noise.dt_noise", "rode", {"noise": {**_MATCHED, "dt_noise": 0.3}}),
        (lambda: rode.segment_plan(_segments(0.3, 0.7), NoiseModel(kind="bounded_matched",
                                                                  weights=np.ones(3)), 4),
         "", "path.segments[0].ds", "rode",
         {"path": {"segments": [{"H": SIGMA_Z, "ds": 0.3}, {"H": SIGMA_Z, "ds": 0.7}]},
          "noise": {**_MATCHED, "dt_noise": None}}),
        # rode.NoiseModel, read under `noise`
        (lambda: NoiseModel(kind="gaussian_pauli"), "noise.", "sigma", "rode",
         {"noise": {"kind": "gaussian_pauli"}}),
        (lambda: NoiseModel(kind="bounded_matched"), "noise.", "weights", "rode",
         {"noise": {"kind": "bounded_matched"}}),
        # channel.ChannelSpec, the joint spec of `channel` and `noise`
        (lambda: channel.ChannelSpec(**{**_SPEC, "H_S": np.eye(3)}), "", "H_S", "noise",
         {"H_S": pairs(np.eye(3))}),
        (lambda: channel.ChannelSpec(**{**_SPEC, "H_I": np.eye(2)}), "", "H_I", "noise",
         {"H_I": pairs(np.eye(2))}),
        (lambda: channel.ChannelSpec(**{**_SPEC, "H_E": np.eye(3)}), "", "H_E", "channel",
         {**_BASE["noise"], "H_E": pairs(np.eye(3))}),
        (lambda: channel.ChannelSpec(**_SPEC, env_probs=[1.0]), "", "env_probs", "noise",
         {"env_probs": [1.0]}),
        (lambda: channel.ChannelSpec(**_SPEC, env_basis=np.eye(3)), "", "env_basis", "noise",
         {"env_basis": pairs(np.eye(3))}),
        # channel.check_perturbative, read under `perturbative`
        (lambda: channel.check_perturbative(**{**_PERT, "A_S": np.eye(3)}), "perturbative.",
         "A_S", "channel", {"perturbative": {**_PERTURBATIVE, "A_S": pairs(np.eye(3))}}),
        (lambda: channel.check_perturbative(**{**_PERT, "weights": np.ones(1)}), "perturbative.",
         "weights", "channel", {"perturbative": {**_PERTURBATIVE, "weights": [1.0]}}),
        (lambda: channel.check_perturbative(**{**_PERT, "H_S": np.diag([2.0, 1.0]), "A_S": _X}),
         "perturbative.", "A_S", "channel",
         {"perturbative": {**_PERTURBATIVE, "H_S": pairs(np.diag([2.0, 1.0])), "A_S": pairs(_X)}}),
        (lambda: channel.check_perturbative(**{**_PERT, "H_S": _Z}), "perturbative.", "H_S",
         "channel", {"perturbative": {**_PERTURBATIVE, "H_S": SIGMA_Z}}),
        (lambda: channel.check_perturbative(**{**_PERT, "A_S": -np.eye(2)}), "perturbative.",
         "A_S", "channel", {"perturbative": {**_PERTURBATIVE, "A_S": pairs(-np.eye(2))}}),
        # range and matrix rules, which the readers leave to the domain types
        (lambda: channel.ChannelSpec(**{**_SPEC, "H_S": 1j * _X}), "", "H_S", "noise",
         {"H_S": pairs(1j * _X)}),
        (lambda: channel.ChannelSpec(**_SPEC, env_basis=2 * np.eye(2)), "", "env_basis", "noise",
         {"env_basis": pairs(2 * np.eye(2))}),
        (lambda: channel.ChannelSpec(**_SPEC, env_probs=[-0.5, 1.5]), "", "env_probs", "noise",
         {"env_probs": [-0.5, 1.5]}),
        (lambda: channel.check_perturbative(**{**_PERT, "eps": -0.1}), "perturbative.", "eps",
         "channel", {"perturbative": {**_PERTURBATIVE, "eps": -0.1}}),
        (lambda: channel.check_perturbative(**{**_PERT, "env_energies": np.array([-1.0, 1.0])}),
         "perturbative.", "env_energies", "channel",
         {"perturbative": {**_PERTURBATIVE, "env_energies": [-1.0, 1.0]}}),
        (lambda: channel.check_perturbative(**{**_PERT, "weights": np.array([0.3, 0.3])}),
         "perturbative.", "weights", "channel",
         {"perturbative": {**_PERTURBATIVE, "weights": [0.3, 0.3]}}),
        (lambda: NoiseModel(kind="x"), "noise.", "kind", "rode", {"noise": {"kind": "x"}}),
        (lambda: NoiseModel(kind="gaussian_pauli", sigma=-0.1), "noise.", "sigma", "rode",
         {"noise": {"kind": "gaussian_pauli", "sigma": -0.1}}),
        (lambda: NoiseModel(kind="bounded_matched", weights=[1.0, 0.5, 1.0]), "noise.", "weights",
         "rode", {"noise": {**_MATCHED, "weights": [1.0, 0.5, 1.0]}}),
        (lambda: NoiseModel(kind="bounded_matched", weights=np.ones(3), dt_noise=0.0), "noise.",
         "dt_noise", "rode", {"noise": {**_MATCHED, "dt_noise": 0.0}}),
        (lambda: rode.segment_plan(constant_path(_Z, 1.0), _MATCHED_MODEL, 0), "", "M", "rode",
         {"M": 0}),
        (lambda: channel.ChannelSpec(**{**_SPEC, "d_E": 0}), "", "d_E", "noise", {"d_E": 0}),
        (lambda: build_penalty_metric(1, 0.5), "metric.", "q", "complexity",
         {"metric": {"n": 1, "q": 0.5}}),
        (lambda: build_penalty_metric(6, 2.0), "metric.", "n", "complexity",
         {"metric": {"n": 6, "q": 2.0}}),
        (lambda: MetricSpec(basis=build_pauli_basis(1), weights=[1.0, 0.5, 1.0]), "metric.",
         "weights", "complexity", {"metric": {"n": 1, "weights": [1.0, 0.5, 1.0]}}),
    ],
)
def test_domain_rule_names_the_field_the_cli_blames(tmp_path, capsys, call, at, name, kind, fields):
    with pytest.raises(ArgumentError) as info:
        call()
    assert info.value.name == name
    cfg = {"schema_version": 1, "kind": kind, "seed": 0, **_BASE[kind], **fields}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main([kind, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{at}{name}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: channel.ChannelSpec(**_SPEC, env_probs=[np.nan, 1.0]), "env_probs"),
        (lambda: NoiseModel(kind="gaussian_pauli", sigma=np.nan), "sigma"),
        (lambda: NoiseModel(kind="gaussian_pauli", sigma=0.1, dt_noise=np.nan), "dt_noise"),
        (lambda: MetricSpec(basis=build_pauli_basis(1), weights=[np.nan, 1.0, 1.0]), "weights"),
        (lambda: build_penalty_metric(3, np.nan), "q"),
        (lambda: constant_path(_Z, np.nan), None),
        (lambda: constant_path(_Z, np.inf), None),
        (lambda: geometric_complexity_const(_Z, np.nan), None),
    ],
)
def test_domain_rules_refuse_nan(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert getattr(info.value, "name", None) == name


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


@pytest.mark.parametrize(
    "kind, param, values, name",
    [
        ("complexity", "kind", ["bogus"], "'kind'"),
        ("cohering-power", "seed", ["x"], "'seed'"),
        ("cohering-power", "seed", ["1.5"], "'seed'"),
        ("cohering-power", "seed", ["-1"], "'seed'"),
        ("cohering-power", "seed", ["1", "x"], "'seed'"),
        ("cohering-power", "restarts", ["1", "1", "-1"], "'restarts'"),
        ("rode", "noise.dt_noise", ["0.25", "0.5", "0.3"], "'noise.dt_noise'"),
    ],
)
def test_sweep_validates_every_config_first(
    tmp_path, capsys, monkeypatch, kind, param, values, name
):
    ran = []
    monkeypatch.setitem(reports._RUNNERS, kind, lambda *args, **kwargs: ran.append(args))
    cfg = write_cfg(tmp_path, "s.json", {"schema_version": 1, "kind": kind, "seed": 0, **_BASE[kind]})
    out_dir = tmp_path / "out"
    argv = ["sweep", "--config", cfg, "--param", param, "--values", *values, "--out", str(out_dir)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err
    assert not out_dir.exists()
    assert ran == []  # nothing ran before the bad value was found


def test_sweep_prints_each_unread_field_note_once(tmp_path, capsys):
    fields = {"schema_version": 1, "kind": "complexity", "seed": 0, **_BASE["complexity"]}
    cfg = write_cfg(tmp_path, "s.json", {**fields, "extra": 1})
    assert cli.main(["sweep", "--config", cfg, "--param", "t", "--values", "0.5", "1.0"]) == 0
    err = capsys.readouterr().err
    assert err.count("config field 'extra' is not read by kind 'complexity'") == 1


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
    assert names == ["coherence_cap", "coherence_bracket", "decohering_bound"]
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
    reports, rows = run_sweep(cfg, "t", [0.5, 1.0])
    assert len(reports) == 2
    assert rows[0]["value"] == 0.5
    assert abs(rows[1]["G_hs"] - np.sqrt(2.0 / 3.0)) < 1e-12
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "value,G_hs,all_ok"
    assert len(lines) == 3


def test_perturbative_config_is_checked_once(monkeypatch):
    calls = []
    check = channel.check_perturbative

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(channel, "check_perturbative", counted)
    cfg = {"schema_version": 1, "kind": "channel", "seed": 0, "perturbative": _PERTURBATIVE}
    rep = run_experiment(validate_config(cfg))
    assert len(calls) == 1
    assert rep["scalars"]["exact"] == channel.perturbative_example(*calls[0])["exact"]


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


_NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from channelgeo import cli
print(json.dumps([cli.main([kind, "--config", path, "--out", out])
                  for kind, path, out in json.loads(sys.argv[1])]))
"""


def test_every_kind_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: every kind runs with scipy blocked."""
    runs = [
        ("complexity", _BASE["complexity"]),
        ("channel", _BASE["noise"]),
        ("channel", {"perturbative": _PERTURBATIVE}),
        ("noise", _BASE["noise"]),
        ("cohering-power", _BASE["cohering-power"]),
        ("rode", _BASE["rode"]),
        ("decompose", _BASE["decompose"]),
        ("verify-all", {}),
    ]
    argv = []
    for i, (kind, fields) in enumerate(runs):
        cfg = {"schema_version": 1, "kind": kind, "seed": 0, **fields}
        argv.append([kind, write_cfg(tmp_path, f"{i}.json", cfg), str(tmp_path / f"{i}-out.json")])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, json.dumps(argv)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(runs), proc.stderr


def test_nan_trajectories_exit_one(tmp_path, capsys):
    """A noise scale that overflows to NaN fails the unitarity check."""
    noise = {"kind": "gaussian_pauli", "sigma": 1e308, "dt_noise": 0.25}
    cfg = {"schema_version": 1, "kind": "rode", "seed": 0, **_BASE["rode"], "noise": noise}
    with np.errstate(all="ignore"):
        assert cli.main(["rode", "--config", write_cfg(tmp_path, "nan.json", cfg)]) == 1
    assert "rode failed: Trajectory lost unitarity" in capsys.readouterr().err


def test_nan_trajectories_exit_one_quietly_at_d4(tmp_path, capsys):
    """At d = 4 the overflow ends in the same message, with no numpy warning."""
    noise = {"kind": "gaussian_pauli", "sigma": 1e308, "dt_noise": 0.25}
    path = {"H": pairs(np.diag([1.0, -1.0, 1.0, -1.0])), "t": 1.0}
    cfg = {"schema_version": 1, "kind": "rode", "seed": 0, "path": path, "noise": noise, "M": 4}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["rode", "--config", write_cfg(tmp_path, "nan4.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "channelgeo: rode failed: Trajectory lost unitarity: max |U†U - I| = nan.\n"


def _field_names(schema) -> set:
    """Every field name in a KIND_FIELDS entry, nested ones included."""
    if isinstance(schema, tuple):
        return set().union(*map(_field_names, schema))
    if isinstance(schema, list):
        return _field_names(schema[0])
    if not hasattr(schema, "fields"):
        return set()
    return set(schema.fields).union(*map(_field_names, schema.fields.values()))


def test_readme_lists_the_fields_of_each_kind():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config fields per kind")[1].split("\n### ")[0]
    bullets = re.findall(r"^- \*\*([\w-]+)\*\*:(.*?)(?=^- \*\*|\Z)", section, re.M | re.S)
    assert [kind for kind, _ in bullets] == list(KINDS)
    every_field = set().union(*map(_field_names, KIND_FIELDS.values()))
    for kind, text in bullets:
        named = set()
        for span in re.findall(r"`([^`]*)`", text):
            keys = re.findall(r'"(\w+)"\s*:', span)
            named |= set(keys) if keys else set(re.split(r"[.\[\]]", span))
        fields = _field_names(KIND_FIELDS[kind])
        assert fields <= named, f"{kind}: README omits {sorted(fields - named)}"
        assert named & every_field <= fields, f"{kind}: README names {sorted(named & every_field - fields)}"


# One valid config per kind (two for a kind with two forms), small enough that
# any one run is quick.
_HADAMARD = pairs(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
_VALID = [
    ("complexity", {"H": SIGMA_Z, "t": 1.0, "metric": {"n": 1, "q": 2.0}}),
    ("channel", {"perturbative": {**_PERTURBATIVE, "t": 0.5}}),
    ("channel", {**_BASE["noise"], "env_probs": [0.5, 0.5]}),
    ("noise", _BASE["noise"]),
    ("cohering-power", {"U": _HADAMARD, "restarts": 1,
                        "dephasing": [pairs(np.diag([1.0, 0.0])), pairs(np.diag([0.0, 1.0]))]}),
    ("cohering-power", {"generator": SIGMA_Z, "t": 0.7, "restarts": 1, "pure_only": True}),
    ("rode", {"path": {"H": SIGMA_Z, "t": 1.0}, "noise": _MATCHED, "M": 3}),
    ("rode", {"path": {"segments": [{"H": SIGMA_Z, "ds": 0.5}, {"H": SIGMA_Z, "ds": 0.5}]},
              "noise": {"kind": "gaussian_pauli", "sigma": 0.1, "dt_noise": 0.125}, "M": 3}),
    ("decompose", {"U": _HADAMARD, "normalize_phase": True}),
    ("verify-all", {}),
]
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
_FLOAT = st.floats(-3.0, 3.0)
# Square matrices of [re, im] pairs, at most 3x3.
_MATRICES = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(st.lists(_FLOAT, min_size=2, max_size=2), min_size=d, max_size=d),
                       min_size=d, max_size=d)
)
_JSON = st.recursive(
    _SCALARS | _MATRICES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# Run sizes stay small: M and restarts get small integers or non-integers.
_SMALL = st.integers(-2, 6) | st.floats(allow_nan=False) | st.text(max_size=2) | st.none()


@st.composite
def _mutated_configs(draw):
    kind, fields = draw(st.sampled_from(_VALID))
    cfg = json.loads(json.dumps({"schema_version": 1, "kind": kind, "seed": 0, **fields}))
    # the config itself or one of its objects, e.g. `path` or `perturbative`
    holders = [cfg, *(v for v in cfg.values() if isinstance(v, dict))]
    holder = draw(st.sampled_from(holders))
    action = draw(st.sampled_from(["drop", "replace", "add"]))
    if action == "add":
        holder[draw(st.text(min_size=1, max_size=6))] = draw(_JSON)
    elif action == "drop":
        del holder[draw(st.sampled_from(sorted(holder)))]
    else:  # the header fields are mostly left to "drop" and "add"
        key = draw(st.sampled_from(sorted(set(holder) - {"kind", "schema_version"})))
        holder[key] = draw(_SMALL if key in ("M", "restarts") else _MATRICES | _JSON)
    return kind, cfg


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=_mutated_configs())
def test_fuzzed_configs_exit_cleanly(tmp_path, capsys, case):
    kind, cfg = case
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "fuzz_report.json"
    out.unlink(missing_ok=True)
    code = cli.main([kind, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert "config field '" in err, err
    if out.exists():  # json writes a NaN or an infinite number as a bare NaN or Infinity
        json.loads(out.read_text(), parse_constant=lambda word: pytest.fail(f"report holds {word}"))
