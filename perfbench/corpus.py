"""Seeded config corpora for the benchmark workloads.

Every config is drawn from ``numpy.random.default_rng([seed, index])``, so a
workload seed fixes the whole corpus and items stay independent of each
other. The program only ever sees the JSON files written from these dicts.

The per-config options follow the mixes the workloads were specified with.
An optimizer run's work depends on the drawn matrices, but little: over 32
draws its evaluation count varied by 2-5% for cohering-power and 9% for a
two-restart noise estimate. A corpus is a list of groups, independent draws
of the same mix, and a run cycles through them one group a pass, so that
its time averages over several draws.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

def _pairs(M) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(M)]


def _herm(rng, d: int, scale: float = 1.0) -> np.ndarray:
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (A + A.conj().T) / 2.0


def _unitary(rng, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    diag = np.diagonal(R)
    return Q * (diag / np.abs(diag))


# Each maker takes (rng, base) and returns a complete config dict.


def _cohering_power(d: int, restarts: int, pure_only: bool = False):
    def make(rng, base):
        return {**base, "U": _pairs(_unitary(rng, d)), "restarts": restarts,
                "pure_only": pure_only}
    return "cohering-power", make


def _cohering_generator(restarts: int):
    def make(rng, base):
        return {**base, "generator": _pairs(_herm(rng, 2)),
                "t": float(rng.uniform(0.3, 1.2)), "restarts": restarts}
    return "cohering-power", make


def _joint_spec(rng, d_E: int, scale_S: float, scale_IE: float, norm_S=None) -> dict:
    H_S = _herm(rng, 2, scale_S)
    if norm_S is not None:
        H_S *= norm_S / np.linalg.norm(H_S)
    return {
        "d_S": 2,
        "d_E": d_E,
        "H_S": _pairs(H_S),
        "H_I": _pairs(_herm(rng, 2 * d_E, scale_IE)),
        "H_E": _pairs(_herm(rng, d_E, scale_IE)),
    }


def _noise(d_E: int, segments: int, restarts: int):
    # System-dominated regime: with |H_S|_F fixed at 16 against a coupling of
    # scale 0.25 the upper sandwich bound held with a margin of at least 0.8
    # on 4000 draws. A small random H_S leaves that regime, and there the
    # upper bound genuinely fails and the CLI rightly exits 1.
    def make(rng, base):
        return {**base, **_joint_spec(rng, d_E, 1.0, 0.25, norm_S=16.0), "t": 1.0,
                "estimate_segments": segments, "estimate_restarts": restarts}
    return "noise", make


def _channel_joint(d_E: int):
    def make(rng, base):
        return {**base, **_joint_spec(rng, d_E, 1.0, 0.5),
                "t": float(rng.uniform(0.2, 1.5))}
    return "channel", make


def _channel_perturbative():
    def make(rng, base):
        p = rng.uniform(0.1, 1.0, size=3)
        return {**base, "perturbative": {
            "H_S": _pairs(np.diag(rng.uniform(0.5, 2.0, size=2))),
            "A_S": _pairs(np.diag(rng.uniform(0.1, 1.0, size=2))),
            "env_energies": [float(x) for x in rng.uniform(0.0, 2.0, size=3)],
            "weights": [float(x) for x in p / p.sum()],
            "eps": float(10.0 ** rng.uniform(-4, -2)),
            "t": float(rng.uniform(0.5, 1.5)),
        }}
    return "channel", make


def _complexity_weighted(n: int):
    def make(rng, base):
        d = 2**n
        return {**base, "H": _pairs(_herm(rng, d)), "t": float(rng.uniform(0.2, 2.0)),
                "metric": {"n": n, "weights": [float(w) for w in rng.uniform(1.0, 4.0, d * d - 1)]}}
    return "complexity", make


def _decompose(N: int):
    def make(rng, base):
        return {**base, "U": _pairs(_unitary(rng, N))}
    return "decompose", make


def _verify_all():
    def make(rng, base):
        return dict(base)
    return "verify-all", make


def _rode_constant(d: int, noise: dict, M: int):
    def make(rng, base):
        return {**base, "path": {"H": _pairs(_herm(rng, d, 0.5)), "t": 1.0},
                "noise": dict(noise), "M": M}
    return "rode", make


def _rode_two_segment(d: int, noise: dict, M: int):
    def make(rng, base):
        segs = [{"H": _pairs(_herm(rng, d, 0.5)), "ds": 0.5} for _ in range(2)]
        return {**base, "path": {"segments": segs}, "noise": dict(noise), "M": M}
    return "rode", make


def _matched(d: int, dt_noise: float | None = None) -> dict:
    noise = {"kind": "bounded_matched", "weights": [1.0] * (d * d - 1)}
    if dt_noise is not None:
        noise["dt_noise"] = dt_noise
    return noise


#: (count, maker) per workload, in the order the pass runs them.
_PLANS = {
    # Optimizer-bound: coordinate_search drives coherence and geodesic
    # objectives through single small operator calls. verify-all runs the
    # acceptance battery, whose cost is mostly the same searches.
    "search": [
        (1, _cohering_power(4, restarts=4)),
        (1, _cohering_power(4, restarts=8, pure_only=True)),
        (1, _cohering_power(3, restarts=4)),
        (1, _cohering_generator(restarts=4)),
        (1, _noise(2, segments=2, restarts=2)),
        (1, _noise(4, segments=1, restarts=1)),
        (1, _verify_all()),
    ],
    # Never touches optimize. Batched trajectory kernels and sidecar writes,
    # then many small closed-form reports, where config parsing, validation
    # and report serialization take their largest share.
    "ensemble": [
        (1, _rode_constant(8, _matched(8), M=200)),
        (1, _rode_two_segment(4, {"kind": "gaussian_pauli", "sigma": 0.1}, M=400)),
        (1, _rode_constant(2, _matched(2, dt_noise=1.0 / 128.0), M=2000)),
        (100, _complexity_weighted(3)),
        (100, _channel_joint(4)),
        (100, _channel_perturbative()),
        (3, _decompose(64)),
    ],
}

#: Groups per workload. The optimizer-bound search mix varies a little with
#: its draws, so a run averages over several; the ensemble mix does not.
GROUPS = {"search": 8, "ensemble": 1}

#: One small config per kind, run once during set-up to warm lazy imports
#: and LAPACK paths before anything is timed.
_WARMUPS = {
    "complexity": _complexity_weighted(1),
    "channel": _channel_joint(2),
    "noise": _noise(2, segments=1, restarts=1),
    "cohering-power": _cohering_power(2, restarts=1),
    "rode": _rode_constant(2, _matched(2), M=10),
    "decompose": _decompose(4),
    "verify-all": _verify_all(),
}


def _item(seed: int, index: int, label: str, kind: str, make) -> dict:
    rng = np.random.default_rng([seed, index])
    cfg = make(rng, {"schema_version": 1, "kind": kind, "seed": seed})
    return {"id": f"{label}{index:03d}-{kind}", "kind": kind, "config": cfg}


def build_corpus(workload: str, seed: int) -> list[list[dict]]:
    """The timed experiments of a workload, as groups of {id, kind, config}
    items; item indices, and so ids and draws, run on across groups."""
    groups, index = [], 0
    for _ in range(GROUPS[workload]):
        group = []
        for count, (kind, make) in _PLANS[workload]:
            for _ in range(count):
                group.append(_item(seed, index, "", kind, make))
                index += 1
        groups.append(group)
    return groups


def build_warmups(workload: str, seed: int) -> list[dict]:
    """One small experiment for each kind the workload runs."""
    return [
        _item(seed, 1000 + i, "warmup", kind, _WARMUPS[kind][1])
        for i, kind in enumerate(workload_kinds(workload))
    ]


def workload_kinds(workload: str) -> list[str]:
    return list(dict.fromkeys(kind for _, (kind, _) in _PLANS[workload]))


def write_configs(items: list[dict], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for item in items:
        path = directory / f"{item['id']}.json"
        path.write_text(json.dumps(item["config"], sort_keys=True), encoding="utf-8")
        item["config_path"] = str(path)
