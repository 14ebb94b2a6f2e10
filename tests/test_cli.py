import argparse
import hashlib
import importlib.util
import inspect
import io
import json
import math
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import pairs, rand_unitary
from conftest import rand_hermitian as herm

import channelgeo
from channelgeo import channel, cli, coherence, operators, reports, rode
from channelgeo.geodesic import PiecewiseConstantPath, constant_path, geometric_complexity_const
from channelgeo.operators import ArgumentError
from channelgeo.pauli import MetricSpec, build_pauli_basis, build_penalty_metric
from channelgeo.reports import (
    CONVENTIONS,
    KINDS,
    ConfigError,
    assemble_report,
    make_check,
    read_config,
    report_bytes,
    run_experiment,
    run_sweep,
    validate_config,
    write_sweep_csv,
)
from channelgeo.rode import NoiseModel

SIGMA_Z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]


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


# The verify-all report pinned byte for byte, with its exit code. Seed 48
# fails noise_sandwich alone: the pin records that failure, not a pass.
@pytest.mark.parametrize(
    "seed, code, sha256",
    [
        (0, 0, "a0a6b1a6543d19ee2242cddfc0d6662031ff81f877b2054cf4f88ba34a15b002"),
        (1, 0, "def8e9c1336796bfbbd02c963582158792a1419eefdf41ef7636e464ebc861c7"),
        (48, 1, "00fc062c3c2e089b9ce77f157d5cbd9ba576d5ae58ecf1554de6b8c84ff126e7"),
    ],
    ids=["seed0", "seed1", "seed48"],
)
def test_verify_all_is_pinned(tmp_path, seed, code, sha256):
    cfg = write_cfg(tmp_path, "v.json", {"schema_version": 1, "kind": "verify-all", "seed": seed})
    out = tmp_path / "report.json"
    assert cli.main(["verify-all", "--config", cfg, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


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
    assert "'seed'" in err
    code, _, err = run_cli(
        "sweep", "--config", ok_cfg, "--param", "t", "--values", "1.0", "--seed", "-3"
    )
    assert code == 2
    assert "'seed'" in err

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
_ONE_BY_ONE = {"H_S": _ONE, "H_I": _ONE, "H_E": _ONE, "t": 1.0}


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
        ("noise", {"H_E": []}, "'H_E'"),
        ("noise", {"H_S": []}, "'H_S'"),
        ("decompose", {"U": pairs(2 * np.eye(2))}, "'U'"),
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
        ("channel", _ONE_BY_ONE, "'H_S'"),
        ("noise", _ONE_BY_ONE, "'H_S'"),
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
        # a segment of another dimension
        ("rode", {"path": {"segments": [{"H": SIGMA_Z, "ds": 0.5},
                                        {"H": pairs(np.eye(4)), "ds": 0.5}]}},
         "'path.segments[1].H'"),
        # the schema version is a JSON integer, not a flag or a float equal to 1
        ("complexity", {"schema_version": True}, "'schema_version'"),
        ("complexity", {"schema_version": 1.0}, "'schema_version'"),
        # a non-finite number in a field the kind does not read
        ("complexity", {"junk": float("nan")}, "'junk'"),
        ("complexity", {"junk": "INF"}, "'junk'"),
        ("complexity", {"extra": {"a": float("inf")}}, "'extra.a'"),
        ("complexity", {"x": [1, 2, float("-inf")]}, "'x[2]'"),
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
_SPEC = dict(H_S=_Z, H_I=np.zeros((4, 4)), H_E=np.zeros((2, 2)))
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
        (lambda: channel.ChannelSpec(**{**_SPEC, "H_S": np.zeros((0, 0))}), "", "H_S", "noise",
         {"H_S": []}),
        (lambda: channel.ChannelSpec(**{**_SPEC, "H_I": np.eye(2)}), "", "H_I", "noise",
         {"H_I": pairs(np.eye(2))}),
        (lambda: channel.ChannelSpec(**{**_SPEC, "H_E": np.zeros((0, 0))}), "", "H_E", "channel",
         {**_BASE["noise"], "H_E": []}),
        (lambda: channel.ChannelSpec(**{**_SPEC, "H_E": np.eye(3)}), "", "H_I", "noise",
         {"H_E": pairs(np.eye(3))}),  # H_I is blamed: it must be (d_S·d_E)×(d_S·d_E)
        (lambda: channel.ChannelSpec(**{**_SPEC, "H_S": np.ones((2, 3))}), "", "H_S", "noise",
         {"H_S": pairs(np.ones((2, 3)))}),
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
        (lambda: channel.ChannelSpec(**{**_SPEC, "H_I": 1j * np.kron(_X, _X)}), "", "H_I",
         "channel", {**_BASE["noise"], "H_I": pairs(1j * np.kron(_X, _X))}),
        (lambda: channel.ChannelSpec(**{**_SPEC, "H_E": 1j * _X}), "", "H_E", "noise",
         {"H_E": pairs(1j * _X)}),
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
        (lambda: channel.ChannelSpec(**{**_SPEC, "H_S": np.eye(3)}), "", "H_I", "noise",
         {"H_S": pairs(np.eye(3))}),
        (lambda: build_penalty_metric(1, 0.5), "metric.", "q", "complexity",
         {"metric": {"n": 1, "q": 0.5}}),
        (lambda: build_penalty_metric(6, 2.0), "metric.", "n", "complexity",
         {"metric": {"n": 6, "q": 2.0}}),
        (lambda: MetricSpec(basis=build_pauli_basis(1), weights=[1.0, 0.5, 1.0]), "metric.",
         "weights", "complexity", {"metric": {"n": 1, "weights": [1.0, 0.5, 1.0]}}),
        # each noise kind refuses the field only the other kind reads
        (lambda: NoiseModel(kind="gaussian_pauli", sigma=0.1, weights=[5.0, 5.0, 5.0]), "noise.",
         "weights", "rode",
         {"noise": {"kind": "gaussian_pauli", "sigma": 0.1, "weights": [5, 5, 5]}}),
        (lambda: NoiseModel(kind="bounded_matched", weights=np.ones(3), sigma=7.0), "noise.",
         "sigma", "rode",
         {"noise": {"kind": "bounded_matched", "weights": [1, 1, 1], "sigma": 7.0}}),
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
        (lambda: geometric_complexity_const(_Z, np.nan), "t"),
    ],
)
def test_domain_rules_refuse_nan(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert getattr(info.value, "name", None) == name


# A joint spec in the system-dominated regime, where every noise check holds.
_JOINT = {"H_S": pairs(12 * _Z), "H_I": pairs(0.2 * np.kron(_X, _Z)), "H_E": pairs(0.5 * _X),
          "t": 0.3}
# The same spec as a config once had to give it, with its dimensions and an
# environment state that is neither uniform nor diagonal.
_ENV_SPEC = {"d_S": 2, "d_E": 2, **_JOINT, "env_probs": [0.25, 0.75],
             "env_basis": pairs(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))}


def _noted_run(tmp_path, capsys, kind: str, fields: dict) -> tuple[list, str]:
    """The stderr notes and the report's sha256 of one run that exits 0."""
    cfg = write_cfg(tmp_path, "e.json", {"schema_version": 1, "kind": kind, "seed": 0, **fields})
    out = tmp_path / "report.json"
    assert cli.main([kind, "--config", cfg, "--out", str(out)]) == 0
    return capsys.readouterr().err.splitlines()[:-1], hashlib.sha256(out.read_bytes()).hexdigest()


def _notes(kind: str, fields) -> list:
    return [f"channelgeo: config field {f!r} is not read by kind {kind!r}; ignored" for f in fields]


# No complexity reads the environment state or the dimensions, so a joint spec
# that sets them gets one note per field and the report bytes it had when the
# fields were read.
@pytest.mark.parametrize(
    "kind, sha256",
    [
        ("channel", "9c2a7f9ecb0ee9ad2d7e44cd33b853d97ae2fa53a921832b822015f7241e7156"),
        ("noise", "b687724d6b9d6fcb55214744bfb0e0e52c6f693e6f9bd7a4c60c98d3441622d7"),
    ],
    ids=["channel", "noise"],
)
def test_env_fields_are_noted_and_leave_the_report_as_it_was(tmp_path, capsys, kind, sha256):
    notes, digest = _noted_run(tmp_path, capsys, kind, _ENV_SPEC)
    assert notes == _notes(kind, ("d_S", "d_E", "env_probs", "env_basis"))
    assert digest == sha256


# d_S and d_E are the sizes of H_S and H_E, so a config that still sets them
# gets one note per field and the report bytes it had when they were read.
@pytest.mark.parametrize(
    "kind, sha256",
    [
        ("channel", "0b26d41734f4895271c92e80f8aadb2b9583819502ecb770145e00fc021cbae1"),
        ("noise", "b87e94d867adfc1419e3d51e1e92c479e232f6d20c7341967501f88881aeb2b1"),
    ],
    ids=["channel", "noise"],
)
def test_dimension_fields_are_noted_and_leave_the_report_as_it_was(tmp_path, capsys, kind, sha256):
    notes, digest = _noted_run(tmp_path, capsys, kind, {"d_S": 2, "d_E": 2, **_JOINT})
    assert notes == _notes(kind, ("d_S", "d_E"))
    assert digest == sha256


@pytest.mark.parametrize(
    "field, value",
    [("env_probs", [1.0]), ("env_basis", np.eye(3)), ("env_basis", 2 * np.eye(2)),
     ("env_probs", [-0.5, 1.5])],
    ids=["env_probs-length", "env_basis-shape", "env_basis-not-unitary", "env_probs-negative"],
)
def test_env_fields_are_checked_by_the_api_only(tmp_path, capsys, field, value):
    """The Kraus route reads the environment state, so ChannelSpec refuses a
    bad one by name; the CLI reads none, so a config that sets it runs."""
    with pytest.raises(ArgumentError) as info:
        channel.ChannelSpec(**_SPEC, **{field: value})
    assert info.value.name == field
    fields = {**_BASE["noise"], field: pairs(value) if field == "env_basis" else value}
    cfg = write_cfg(tmp_path, "e.json", {"schema_version": 1, "kind": "noise", "seed": 0, **fields})
    assert cli.main(["noise", "--config", cfg]) == 0
    assert f"config field {field!r} is not read by kind 'noise'" in capsys.readouterr().err


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

    code, out, err = run_cli("sweep", "--config", cfg, "--param", "t")
    assert code == 2  # --values takes one or more
    assert out == ""
    assert "--values" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, out",
    [
        ("complexity", "taken"),  # a directory
        ("complexity", "file/r.json"),  # a path under a regular file
        ("rode", "r.json"),  # its trajectory sidecar is a directory
        ("rode", "pw/r.json"),  # the same, beside an earlier report that must stay
        ("sweep", "file"),
        ("sweep", "file/sweep"),
        ("sweep", "swept"),  # its sweep.csv is a directory
        ("complexity", "."),  # the working directory, which has no file name
        ("complexity", ""),  # the working directory too
    ],
)
def test_unwritable_out_exits_two(tmp_path, capsys, monkeypatch, command, out):
    (tmp_path / "taken").mkdir()
    (tmp_path / "r_trajectories.csv").mkdir()
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "pw" / "r_trajectories.csv").mkdir(parents=True)
    (tmp_path / "pw" / "r.json").write_text("earlier\n", encoding="utf-8")
    (tmp_path / "swept" / "sweep.csv").mkdir(parents=True)
    kind = "complexity" if command == "sweep" else command
    cfg = write_cfg(tmp_path, "c.json", {"schema_version": 1, "kind": kind, "seed": 0, **_BASE[kind]})
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", cfg, "--out", out]
    if command == "sweep":
        argv += ["--param", "t", "--values", "0.5", "1.0"]

    def tree():
        return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

    before = tree()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"channelgeo: cannot write {out}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert tree() == before  # no output is new or changed, no staging is left


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
        ("complexity", "label", ["1", "NaN"], "'label': expected"),
    ],
)
def test_sweep_validates_every_config_first(
    tmp_path, capsys, monkeypatch, kind, param, values, name
):
    ran = []
    fields = reports.KINDS[kind][1]
    monkeypatch.setitem(reports.KINDS, kind, (lambda *args, **kwargs: ran.append(args), fields))
    # label is read by no kind: a sweep of it is refused only for a value no report can hold
    cfg = write_cfg(tmp_path, "s.json", {"schema_version": 1, "kind": kind, "seed": 0,
                                         "label": "base", **_BASE[kind]})
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


def _nested(levels: int):
    """1.0 inside `levels` nested lists."""
    value = 1.0
    for _ in range(levels):
        value = [value]
    return value


_COMPLEXITY = json.dumps({"schema_version": 1, "kind": "complexity", "seed": 0,
                          **_BASE["complexity"]})


@pytest.mark.parametrize(
    "raw, argv, name",
    [
        (b"\xff\xfe{}", [], None),
        (b'{"x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", [], None),
        (_COMPLEXITY.replace('"complexity"', '["x"]').encode(), ["--param", "t", "--values", "1"],
         "'kind'"),
        (_COMPLEXITY.encode(), ["--param", "kind", "--values", '["x"]'], "'kind'"),
        (_COMPLEXITY.replace('"seed": 0', '"seed": ' + "9" * 5000).encode(), [], None),
        (_COMPLEXITY.encode(), ["--param", "t", "--values", "[" * 100_000 + "]" * 100_000],
         "--values"),
        (_COMPLEXITY.encode(), ["--param", "seed", "--values", "9" * 5000], "--values"),
    ],
    ids=["not-utf8", "too-deep", "kind-not-a-string", "swept-kind-not-a-string",
         "int-too-long", "swept-value-too-deep", "swept-int-too-long"],
)
def test_config_faults_exit_two_in_one_line(tmp_path, capsys, raw, argv, name):
    path = tmp_path / "c.json"
    path.write_bytes(raw)
    command = "sweep" if argv else "complexity"
    assert cli.main([command, "--config", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert (str(path) if name is None else name) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "levels, command, code",
    [(64, "complexity", 0), (65, "complexity", 2), (330, "complexity", 2), (500, "sweep", 2)],
)
def test_unread_fields_nest_at_most_64_deep(tmp_path, capsys, levels, command, code):
    cfg = write_cfg(tmp_path, "d.json", {**json.loads(_COMPLEXITY), "deep": _nested(levels)})
    sweep = ["--param", "t", "--values", "0.5", "1.0"] if command == "sweep" else []
    assert cli.main([command, "--config", cfg, *sweep, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err.splitlines()
    if code == 0:
        assert err[0] == "channelgeo: config field 'deep' is not read by kind 'complexity'; ignored"
        assert json.loads((tmp_path / "out").read_text())["inputs"]["deep"] == _nested(levels)
    else:
        assert err == [f"channelgeo: config field 'deep{'[0]' * 64}': nested more than 64 levels deep"]


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
    # a sweep stages each report with its sidecars, and leaves nothing else
    out_dir = tmp_path / "swept"
    code, _, _ = run_cli("sweep", "--config", cfg, "--param", "M", "--values", "8", "--out", str(out_dir))
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "report_000.json", "report_000_trajectories.csv", "report_000_trajectories.json", "sweep.csv"
    ]
    for ext in ("csv", "json"):
        swept = (out_dir / f"report_000_trajectories.{ext}").read_bytes()
        assert swept == (tmp_path / f"rode_report_trajectories.{ext}").read_bytes()


def test_rode_sidecars_go_where_the_stage_puts_them(tmp_path):
    cfg = validate_config({"schema_version": 1, "kind": "rode", "seed": 0, **_BASE["rode"]})
    staged = []

    def stage(dest):
        staged.append(dest.with_name(dest.name + ".tmp"))
        return staged[-1]

    reports.write_report(run_experiment(cfg), str(tmp_path / "r.json"), stage)
    assert [p.name for p in staged] == [
        "r.json.tmp", "r_trajectories.csv.tmp", "r_trajectories.json.tmp"
    ]
    assert sorted(tmp_path.iterdir()) == staged


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

    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    reflection = np.eye(4) - 2 * np.outer(v, v.conj())  # det -1
    cfg2 = write_cfg(
        tmp_path,
        "d2.json",
        {"schema_version": 1, "kind": "decompose", "seed": 0, "U": pairs(reflection)},
    )
    code, out, err = run_cli("decompose", "--config", cfg2)
    assert code == 0, err
    assert json.loads(out)["scalars"]["reconstruction_error"] <= 1e-9


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


def parse_metric(obj):
    """A `metric` config object, read as a complexity config reads it."""
    d = 2 ** (obj.get("n", 1) if isinstance(obj, dict) else 1)
    cfg = {"schema_version": 1, "kind": "complexity", "seed": 0, "t": 1.0, "metric": obj}
    return read_config(validate_config({**cfg, "H": pairs(np.zeros((d, d)))}))["metric"]


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


def test_out_of_memory_exits_one(tmp_path, capsys, monkeypatch):
    """A run that cannot allocate exits 1 with one line, not a traceback."""

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(rode, "_run_trajectories", exhausted)
    rode_cfg = {"schema_version": 1, "kind": "rode", "seed": 0, **_BASE["rode"]}
    cfg = write_cfg(tmp_path, "oom.json", rode_cfg)
    assert cli.main(["rode", "--config", cfg]) == 1
    assert cli.main(["sweep", "--config", cfg, "--param", "M", "--values", "2"]) == 1
    assert capsys.readouterr().err == "channelgeo: rode failed: out of memory\n" * 2


def test_non_finite_value_exits_one_and_names_it(tmp_path, capsys):
    """An overflowing H gives an infinite G_hs: a run and a sweep each exit 1
    with one line naming it, print nothing to stdout and warn nothing."""
    big = pairs(np.diag([1e200, -1e200]))
    cfg = write_cfg(tmp_path, "big.json",
                    {"schema_version": 1, "kind": "complexity", "seed": 0, "H": big, "t": 1.0})
    line = "channelgeo: complexity failed: scalar 'G_hs' is inf\n"
    for argv in (["complexity", "--config", cfg],
                 ["sweep", "--config", cfg, "--param", "t", "--values", "1.0", "2.0"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", line)


def test_noise_run_evaluates_the_joint_spec_once(tmp_path, monkeypatch):
    """The split and the sandwich of a noise report share one residual."""
    calls = []
    real = channel.sqrt_abs_diff
    monkeypatch.setattr(channel, "sqrt_abs_diff", lambda *a: calls.append(1) or real(*a))
    cfg = write_cfg(tmp_path, "n.json", {"schema_version": 1, "kind": "noise", "seed": 0,
                                         **_BASE["noise"]})
    assert cli.main(["noise", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


def _field_names(schema) -> set:
    """Every field name in the fields of a KINDS entry, nested ones included."""
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
    every_field = set().union(*(_field_names(fields) for _, fields in KINDS.values()))
    for kind, text in bullets:
        named = set()
        for span in re.findall(r"`([^`]*)`", text):
            keys = re.findall(r'"(\w+)"\s*:', span)
            named |= set(keys) if keys else set(re.split(r"[.\[\]]", span))
        fields = _field_names(KINDS[kind][1])
        assert fields <= named, f"{kind}: README omits {sorted(fields - named)}"
        assert named & every_field <= fields, f"{kind}: README names {sorted(named & every_field - fields)}"


# One valid config per kind (two for a kind with two forms), small enough that
# any one run is quick.
_HADAMARD = pairs(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
_VALID = [
    ("complexity", {"H": SIGMA_Z, "t": 1.0, "metric": {"n": 1, "q": 2.0}}),
    ("channel", {"perturbative": {**_PERTURBATIVE, "t": 0.5}}),
    ("channel", _BASE["noise"]),
    ("noise", _BASE["noise"]),
    ("cohering-power", {"U": _HADAMARD, "restarts": 1,
                        "dephasing": [pairs(np.diag([1.0, 0.0])), pairs(np.diag([0.0, 1.0]))]}),
    ("cohering-power", {"generator": SIGMA_Z, "t": 0.7, "restarts": 1, "pure_only": True}),
    ("rode", {"path": {"H": SIGMA_Z, "t": 1.0}, "noise": _MATCHED, "M": 3}),
    ("rode", {"path": {"segments": [{"H": SIGMA_Z, "ds": 0.5}, {"H": SIGMA_Z, "ds": 0.5}]},
              "noise": {"kind": "gaussian_pauli", "sigma": 0.1, "dt_noise": 0.125}, "M": 3}),
    ("decompose", {"U": _HADAMARD}),
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


def _json_bytes(value) -> bytes:
    """The writer's oracle: json's own indenting encoder."""
    return (json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


_REPORT_VALUES = st.recursive(
    _JSON
    | st.lists(st.lists(st.floats(allow_nan=False), max_size=3), max_size=3)
    | st.sampled_from([[], {}, [[]], {"": {}}, -0.0, 1e300, -1e300, 2**64, -(10**40)])
    | st.text(st.characters(min_codepoint=0x80), max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=_REPORT_VALUES)
def test_report_bytes_match_json(value):
    try:
        expected = _json_bytes(value)
    except ValueError:  # an infinite float, in any position
        with pytest.raises(ValueError, match="not JSON compliant"):
            report_bytes(value)
    else:
        assert report_bytes(value) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place",
    [lambda x: {"value": x}, lambda x: {"vector": [0.5, x, 1.0]},
     lambda x: {"U": [[[1.0, 0.0], [0.0, x]]]}],
    ids=["scalar", "float-list", "pair"],
)
def test_report_bytes_refuse_non_finite(place, bad):
    with pytest.raises(ValueError, match="not JSON compliant"):
        report_bytes(place(bad))


def test_complexity_report_never_reaches_the_json_fallback(monkeypatch):
    """Every scalar of a complexity report is a Python float, so report_bytes
    encodes it itself and never hands a value to json.dumps."""
    cfg = {"schema_version": 1, "kind": "complexity", "seed": 0, **_VALID[0][1]}
    report = run_experiment(validate_config(cfg))
    assert sorted(report["scalars"]) == ["G_hs", "G_omega"]
    assert {type(v) for v in report["scalars"].values()} == {float}
    expected = _json_bytes(report)
    monkeypatch.setattr(reports.json, "dumps", lambda value, **kw: pytest.fail(repr(value)))
    assert report_bytes(report) == expected


def test_report_bytes_peak_memory():
    """json's indenting encoder held 6.8 MB of tokens for this 1.25 MB report."""
    import tracemalloc

    U = rand_unitary(np.random.default_rng(3), 64)
    cfg = {"schema_version": 1, "kind": "decompose", "seed": 0, "U": pairs(U)}
    report = run_experiment(validate_config(cfg))
    tracemalloc.start()
    try:
        data = report_bytes(report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data) > 1.2e6
    assert peak <= 4e6


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


#: Exported functions that no CLI kind, sweep or verify-all calls, and why each stays.
_UNREACHED = {
    # perfbench/tracer.py wraps these three by name, so deleting one breaks
    # `perfbench/run.py --trace 1`.
    "estimate_cc_distance",
    "principal_log_generator",
    "distance_unitaries",
    # The time-dependent form of channel and noise complexity: a paper quantity
    # that no config routes yet.
    "complexity_split_td",
}


def test_every_export_is_reached_by_the_cli(tmp_path, capsys):
    """Every function `channelgeo` exports runs under one config of each kind
    and one sweep, except the few in _UNREACHED."""
    exported = {}
    for name, obj in vars(channelgeo).items():
        fn = inspect.unwrap(obj) if callable(obj) else None
        if isinstance(fn, types.FunctionType):
            exported[fn.__code__] = name
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()  # a cached call would not run the body
    argvs = []
    for i, (kind, fields) in enumerate(_VALID):
        cfg = write_cfg(tmp_path, f"{i}.json", {"schema_version": 1, "kind": kind, "seed": 0, **fields})
        argvs.append([kind, "--config", cfg, "--out", str(tmp_path / f"{i}-out.json")])
    argvs.append(["sweep", "--config", argvs[0][2], "--param", "t", "--values", "0.5", "1.0",
                  "--out", str(tmp_path / "sweep")])
    ran = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in exported:
            ran.add(exported[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(argvs), capsys.readouterr().err
    assert set(exported.values()) - ran == _UNREACHED


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str) -> types.ModuleType:
    """perfbench/<name>.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind, fields, count", [_VALID[0] + (4,), _VALID[3] + (7,)],
                         ids=["weighted-complexity", "noise"])
def test_cli_run_checks_each_matrix_where_it_enters(tmp_path, capsys, kind, fields, count):
    """The operators kernels check nothing, so a run calls operators.hermitian
    only where a matrix enters: a weighted complexity run in its reader and in
    three geometric_complexity_const calls; a noise run in ChannelSpec's H_S,
    H_I and H_E and in four geometric_complexity_const calls. Counted on the
    code object, since the readers' closures bind hermitian at import."""
    cfg = write_cfg(tmp_path, "c.json", {"schema_version": 1, "kind": kind, "seed": 0, **fields})
    code, calls = operators.hermitian.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_back.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exit_code = cli.main([kind, "--config", cfg, "--out", str(tmp_path / "out.json")])
    finally:
        sys.setprofile(previous)
    assert exit_code == 0, capsys.readouterr().err
    assert len(calls) == count, calls


def test_eigh_failure_ends_a_run_with_one_line_and_no_report(tmp_path, capsys, monkeypatch):
    """numpy.linalg.LinAlgError is a ValueError, so a LAPACK failure inside a
    kernel ends a run as any numerical error does."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    cfg = write_cfg(tmp_path, "n.json", {"schema_version": 1, "kind": "noise", "seed": 0,
                                         **_BASE["noise"]})
    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = cli.main(["noise", "--config", cfg, "--out", str(tmp_path / "out.json")])
    assert code == 1
    assert capsys.readouterr().err == "channelgeo: noise failed: Eigenvalues did not converge\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["n.json"]


def test_perfbench_tracer_names_exist():
    """perfbench/tracer.py wraps functions it looks up by name; deleting one
    would break `perfbench/run.py --trace 1`."""
    tracer = _perfbench_module("tracer")
    missing = [
        f"{layer}.{fn}"
        for layer, fns in tracer.LAYERS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"channelgeo.{layer}"), fn, None))
    ]
    assert missing == []


def test_perfbench_tracer_observers_read_the_result_types():
    """Each _OBSERVERS counter of perfbench/tracer.py reads a result field by
    name; renaming one would pass the name test above and break every traced
    run. Each function runs once on a tiny input under its own Tracer."""
    tracer = _perfbench_module("tracer")
    from channelgeo import algebra, geodesic, optimize

    U = rand_unitary(np.random.default_rng(3), 2)
    path = constant_path(np.diag([1.0, -1.0]), 1.0)
    matched = NoiseModel(kind="bounded_matched", weights=np.ones(3), dt_noise=0.25)
    spec = channel.ChannelSpec(H_S=np.diag([1.0, -1.0]),
                               H_I=herm(np.random.default_rng(4), 4), H_E=np.zeros((2, 2)))
    kinked = lambda X: np.sum((X - 0.3) ** 2 + np.abs(X), axis=1)  # noqa: E731
    calls = {
        "optimize.coordinate_search": lambda: optimize.coordinate_search(kinked, np.zeros((2, 3))),
        "geodesic.estimate_cc_distance": lambda: geodesic.estimate_cc_distance(
            np.eye(2), U, MetricSpec(build_pauli_basis(1), np.ones(3)), segments=2, restarts=1),
        "channel.noise_complexity_bounds": lambda: channel.noise_complexity_bounds(spec, 1.0),
        "coherence.cohering_power": lambda: coherence.cohering_power(
            U, coherence.computational_dephasing(2), restarts=1),
        "rode.ensemble_mean": lambda: rode.ensemble_mean(path, matched, 3, 0),
        "rode.fluctuation_report": lambda: rode.fluctuation_report(path, matched, M=5, seed=0),
        "algebra.decompose_two_level": lambda: algebra.decompose_two_level(
            algebra.random_special_unitary(4, np.random.default_rng(5))),
    }
    own = {
        "optimize.coordinate_search": lambda r: {
            "optimize.evals": r.evals, "optimize.sweeps": r.sweeps,
            "optimize.converged_ratio": float(r.converged)},
        "geodesic.estimate_cc_distance": lambda r: {
            "geodesic.restarts": r.restarts_used, "geodesic.endpoint_error_max": r.endpoint_error},
        "channel.noise_complexity_bounds": lambda r: {
            "channel.upper_skipped": float(r["upper"] is None)},
        "coherence.cohering_power": lambda r: {
            "coherence.starts": r.restarts, "coherence.converged_ratio": float(r.converged)},
        "rode.ensemble_mean": lambda r: {"rode.trajectories": r.trajectories_used},
        "rode.fluctuation_report": lambda r: {"rode.trajectories": r["n_trajectories"]},
        "algebra.decompose_two_level": lambda r: {"algebra.gates": len(r.gates)},
    }
    assert sorted(calls) == sorted(tracer._OBSERVERS)
    for name, call in calls.items():
        with tracer.Tracer() as trace:
            result = call()
        metrics = trace.derive()
        assert metrics[f"{name}.calls"] == 1
        expected = own[name](result)
        assert expected and {k: metrics[k] for k in expected} == expected, name


@pytest.mark.parametrize(
    "workload, count", [("search", 56), ("ensemble", 306)], ids=["search", "ensemble"]
)
def test_perfbench_reports_pass_the_reference_gate(tmp_path, workload, count):
    """The benchmark compares the scalars of its reference seed with the
    committed reference within oracle.REF_RTOL; every item of each corpus
    must pass that gate."""
    corpus, oracle = _perfbench_module("corpus"), _perfbench_module("oracle")
    reference_path = _PERFBENCH / "reference" / f"{workload}.json"
    reference = json.loads(reference_path.read_text(encoding="utf-8"))
    items = [item for group in corpus.build_corpus(workload, reference["seed"]) for item in group]
    assert len(items) == count
    corpus.write_configs(items, tmp_path / "configs")
    for item in items:
        report = tmp_path / f"{item['id']}.json"
        code = cli.main([item["kind"], "--config", item["config_path"], "--out", str(report)])
        assert oracle.check(item, code, report, reference["reports"][item["id"]]) == []
        data = report.read_bytes()
        assert data == _json_bytes(json.loads(data))
