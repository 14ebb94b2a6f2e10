import json

import numpy as np
import pytest

from conftest import rand_hermitian

from channelgeo import reports, rode
from channelgeo.geodesic import (
    PiecewiseConstantPath,
    constant_path,
    log_distance,
    path_endpoint,
)
from channelgeo.operators import hs_norm, matrix_exp_unitary
from channelgeo.pauli import MetricSpec, build_pauli_basis, omega_norm_raw
from channelgeo.rode import (
    NoiseModel,
    distance_operator,
    distance_unitaries,
    ensemble_mean,
    fluctuation_report,
    integrate_rode,
    write_ensemble,
)


def traceless(H):
    d = H.shape[0]
    return H - np.trace(H) / d * np.eye(d)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(kind="pink")
    with pytest.raises(ValueError):
        NoiseModel(kind="gaussian_pauli")  # sigma missing
    with pytest.raises(ValueError):
        NoiseModel(kind="gaussian_pauli", sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(kind="bounded_matched")  # weights missing
    with pytest.raises(ValueError):
        NoiseModel(kind="bounded_matched", weights=np.array([0.5, 1.0, 1.0]))
    with pytest.raises(ValueError):
        NoiseModel(kind="gaussian_pauli", sigma=0.1, dt_noise=0.0)


def test_step_must_divide_segment(rng):
    path = constant_path(rand_hermitian(rng, 2), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=0.1, dt_noise=0.3)
    with pytest.raises(ValueError):
        integrate_rode(path, noise, 0)


def test_requires_qubit_dimension(rng):
    path = constant_path(rand_hermitian(rng, 3), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=0.1)
    with pytest.raises(ValueError):
        integrate_rode(path, noise, 0)


def test_integrate_deterministic_and_unitary(rng):
    path = constant_path(rand_hermitian(rng, 2), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=0.2, dt_noise=1.0 / 64)
    U1 = integrate_rode(path, noise, 42)
    U2 = integrate_rode(path, noise, 42)
    assert np.array_equal(U1, U2)
    assert np.abs(U1.conj().T @ U1 - np.eye(2)).max() < 1e-9
    U3 = integrate_rode(path, noise, 43)
    assert np.abs(U1 - U3).max() > 1e-6


def test_zero_sigma_reproduces_noiseless(rng):
    H = rand_hermitian(rng, 2)
    path = constant_path(H, 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=0.0, dt_noise=1.0 / 32)
    U = integrate_rode(path, noise, 5)
    assert np.abs(U - path_endpoint(path)).max() < 1e-10


def test_two_segment_paths_integrate(rng):
    segs = ((rand_hermitian(rng, 2), 0.5), (rand_hermitian(rng, 2), 0.25))
    from channelgeo.geodesic import PiecewiseConstantPath

    path = PiecewiseConstantPath(segments=segs)
    noise = NoiseModel(kind="gaussian_pauli", sigma=0.1, dt_noise=1.0 / 16)
    U = integrate_rode(path, noise, 9)
    assert np.abs(U.conj().T @ U - np.eye(2)).max() < 1e-9


def test_ensemble_matches_single_runs(rng):
    path = constant_path(rand_hermitian(rng, 2), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=0.15, dt_noise=1.0 / 32)
    seed = 11
    res = ensemble_mean(path, noise, M=3, seed=seed)
    children = np.random.SeedSequence(seed).spawn(3)
    singles = [integrate_rode(path, noise, c) for c in children]
    mean = sum(singles) / 3.0
    assert np.abs(res.mean_operator - mean).max() < 1e-12
    assert res.trajectories_used == 3
    assert res.distances.shape == (3,)
    for U_i, dist in zip(singles, res.distances):
        assert abs(hs_norm(U_i - res.mean_operator) - dist) < 1e-12


def test_ensemble_mean_is_contraction(rng):
    path = constant_path(rand_hermitian(rng, 2), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=0.4, dt_noise=1.0 / 32)
    res = ensemble_mean(path, noise, M=64, seed=2)
    assert float(np.linalg.norm(res.mean_operator, 2)) <= 1.0 + 1e-9
    # stronger noise contracts the mean more
    strong = NoiseModel(kind="gaussian_pauli", sigma=1.2, dt_noise=1.0 / 32)
    res2 = ensemble_mean(path, strong, M=64, seed=2)
    assert np.linalg.norm(res2.mean_operator, 2) < np.linalg.norm(res.mean_operator, 2)


def test_matched_noise_norm_equality(rng):
    basis = build_pauli_basis(1)
    H = traceless(rand_hermitian(rng, 2))
    path = constant_path(H, 1.0)
    weights = np.array([1.0, 2.0, 4.0])
    noise = NoiseModel(kind="bounded_matched", weights=weights, dt_noise=1.0 / 16)
    rep = fluctuation_report(path, noise, M=8, seed=3)
    # dual route to the target norm
    m = MetricSpec(basis=basis, weights=weights)
    target = omega_norm_raw(H, m)
    assert abs(rep["segment_targets"][0] - target) < 1e-12
    assert rep["matched_norm_ok"]
    assert rep["matched_norm_max_deviation"] <= 1e-9


def test_fluctuation_report_clean(rng):
    H = traceless(rand_hermitian(rng, 2))
    path = constant_path(H, 1.0)
    noise = NoiseModel(kind="bounded_matched", weights=np.ones(3), dt_noise=1.0 / 32)
    rep = fluctuation_report(path, noise, M=24, seed=7)
    assert rep["all_ok"]
    assert rep["violations_distance_bound"] == []
    assert rep["violations_complexity_gap"] == []
    assert rep["violations_triangle"] == []
    assert rep["n_trajectories"] == 24
    assert rep["max_distance_to_mean"] <= rep["noise_integral"] + 1e-6


def test_fluctuation_report_rejects_gaussian(rng):
    path = constant_path(rand_hermitian(rng, 2), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=0.1)
    with pytest.raises(ValueError):
        fluctuation_report(path, noise, M=4, seed=0)


def test_distance_functions(rng):
    from conftest import rand_unitary

    U = rand_unitary(rng, 2)
    W = rand_unitary(rng, 2)
    assert abs(distance_unitaries(U, W) - log_distance(U, W)) < 1e-15
    assert distance_operator(U, U) == 0.0
    assert abs(distance_operator(U, W) - hs_norm(U - W)) < 1e-15
    with pytest.raises(ValueError):
        distance_operator(U, np.eye(3))


def test_write_ensemble_round_trip(tmp_path, rng):
    path = constant_path(rand_hermitian(rng, 2), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=0.1, dt_noise=1.0 / 16)
    res = ensemble_mean(path, noise, M=5, seed=1)
    stem = str(tmp_path / "traj")
    csv_path, json_path = write_ensemble(res, stem)

    rows = open(csv_path, encoding="utf-8").read().strip().split("\n")
    assert rows[0] == "index,distance_to_mean,endpoint_deviation,noise_integral"
    assert len(rows) == 6
    for i, row in enumerate(rows[1:]):
        cells = row.split(",")
        assert int(cells[0]) == i
        assert abs(float(cells[1]) - res.distances[i]) < 1e-15

    summary = json.loads(open(json_path, encoding="utf-8").read())
    assert summary["trajectories_used"] == 5
    assert summary["seed"] == 1
    assert abs(summary["mean_distance"] - res.distances.mean()) < 1e-15


def test_ensemble_size_guard(rng):
    path = constant_path(rand_hermitian(rng, 2), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=0.1)
    with pytest.raises(ValueError):
        ensemble_mean(path, noise, M=0, seed=0)


def test_matched_ensemble_carries_fluctuation_report(rng):
    segs = tuple((traceless(rand_hermitian(rng, 2)), 0.5) for _ in range(2))
    path = PiecewiseConstantPath(segments=segs)
    matched = NoiseModel(kind="bounded_matched", weights=np.ones(3), dt_noise=1.0 / 32)
    res = ensemble_mean(path, matched, 12, 5)
    assert res.fluctuations == fluctuation_report(path, matched, 12, 5)
    assert res.fluctuations["n_trajectories"] == 12
    gauss = NoiseModel(kind="gaussian_pauli", sigma=0.1, dt_noise=1.0 / 32)
    assert ensemble_mean(path, gauss, 12, 5).fluctuations is None


def test_matched_rode_report_integrates_once(monkeypatch, rng):
    sizes = []
    original = rode._run_trajectories

    def counting(path, noise, rngs, *args, **kwargs):
        sizes.append(len(rngs))
        return original(path, noise, rngs, *args, **kwargs)

    monkeypatch.setattr(rode, "_run_trajectories", counting)
    cfg = reports.validate_config(
        {
            "schema_version": 1,
            "kind": "rode",
            "seed": 4,
            "path": {"H": reports.matrix_to_pairs(rand_hermitian(rng, 2)), "t": 1.0},
            "noise": {"kind": "bounded_matched", "weights": [1.0, 1.0, 1.0]},
            "M": 6,
        }
    )
    report = reports.run_experiment(cfg)
    assert sizes == [6]
    assert "rode_matched_norm" in {c["name"] for c in report["checks"]}


@pytest.mark.parametrize("d", [2, 4, 8])
def test_expm_batch_matches_matrix_exp_unitary(rng, d):
    A = np.stack([rand_hermitian(rng, d) for _ in range(6)])
    got = rode._expm_batch(A, 0.37)
    for a, g in zip(A, got):
        assert np.abs(g - matrix_exp_unitary(a, 0.37)).max() < 1e-14


def test_max_trajectories_bounds_stored_entries():
    assert rode.max_trajectories(2) == rode.max_trajectories(8) == rode.MAX_TRAJECTORIES
    assert rode.max_trajectories(32) == rode.MAX_TRAJECTORIES // 16
    for d in (2, 4, 8, 16, 32):
        assert rode.max_trajectories(d) * d * d <= rode.MAX_TRAJECTORIES * 64


def test_noise_block_is_held_once(rng):
    # 128 trajectories x 256 substeps x 15 coefficients is 3.9 MB; sampling
    # into a list and stacking it, or one norm over the block, held two copies.
    import tracemalloc

    H = traceless(rand_hermitian(rng, 4))
    noise = NoiseModel(kind="gaussian_pauli", sigma=np.array([0.1]))
    block = 128 * 256 * 15 * 8
    tracemalloc.start()
    try:
        ensemble_mean(constant_path(H, 1.0), noise, M=128, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block < peak < 1.5 * block
