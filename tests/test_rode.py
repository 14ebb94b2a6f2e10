import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from conftest import pairs, rand_hermitian

from channelgeo import reports, rode
from channelgeo.geodesic import (
    PiecewiseConstantPath,
    constant_path,
    log_distance,
    path_endpoint,
)
from channelgeo.operators import ArgumentError, hs_norm, matrix_exp_unitary
from channelgeo.pauli import MetricSpec, build_pauli_basis, omega_norm_raw
from channelgeo.rode import (
    NoiseModel,
    distance_unitaries,
    ensemble_mean,
    fluctuation_report,
    write_ensemble,
)


def integrate_rode(path: PiecewiseConstantPath, noise: NoiseModel, seed) -> np.ndarray:
    """One sample path of the noisy propagator, on the generator default_rng(seed)."""
    plan = rode.segment_plan(path, noise, 1)
    endpoints, _, _ = rode._run_trajectories(plan, noise, [np.random.default_rng(seed)])
    return endpoints[0]


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


def test_nan_trajectory_fails_unitarity(rng):
    path = constant_path(rand_hermitian(rng, 2), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=1e308, dt_noise=0.25)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="Trajectory lost unitarity"):
        integrate_rode(path, noise, 0)


def test_nan_trajectory_fails_unitarity_quietly_at_d4(rng):
    path = constant_path(rand_hermitian(rng, 4), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=1e308, dt_noise=0.25)
    with warnings.catch_warnings(), pytest.raises(ValueError, match="= nan"):
        warnings.simplefilter("error", RuntimeWarning)
        integrate_rode(path, noise, 0)


@pytest.mark.parametrize("poisoned", [0, 2])
def test_unitarity_is_checked_in_every_chunk(monkeypatch, rng, poisoned):
    # Five trajectories in chunks of two: a NaN in the first or the last
    # chunk fails the check, whatever the other chunks hold.
    calls = []
    original = rode._expm_batch

    def expm(A, tau):
        out = original(A, tau)
        if len(calls) == poisoned * 4:
            out[0, 0, 0] = np.nan
        calls.append(1)
        return out

    monkeypatch.setattr(rode, "_CHUNK", 2)
    monkeypatch.setattr(rode, "_expm_batch", expm)
    path = constant_path(rand_hermitian(rng, 2), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=0.1, dt_noise=0.25)
    with pytest.raises(ValueError, match="= nan"):
        ensemble_mean(path, noise, M=5, seed=0)
    assert len(calls) == 12


def test_sigma_size_is_checked_before_sampling(rng, monkeypatch):
    path = constant_path(rand_hermitian(rng, 2), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=[0.1, 0.2], dt_noise=0.25)
    with pytest.raises(ArgumentError, match="expected 1 or 3 entries, got 2") as info:
        rode.segment_plan(path, noise, 4)
    assert info.value.name == "noise.sigma"

    def sample(*args):
        raise AssertionError("noise was sampled before the sigma size was checked")

    monkeypatch.setattr(rode, "_sample_coeffs", sample)
    with pytest.raises(ArgumentError, match="expected 1 or 3 entries, got 2"):
        ensemble_mean(path, noise, M=4, seed=0)


_SIGMA = NoiseModel(kind="gaussian_pauli", sigma=0.1)


@pytest.mark.parametrize(
    "t, noise, M, name",
    [
        (5e-324, _SIGMA, 4, "path"),  # the default step, t / 256, underflows to 0
        (1.0, NoiseModel(kind="gaussian_pauli", sigma=0.1, dt_noise=2**-17), 4, "noise.dt_noise"),
        (1.0, _SIGMA, rode.max_trajectories(2) + 1, "M"),
    ],
)
def test_ensemble_refuses_a_run_before_spawning_streams(monkeypatch, t, noise, M, name):
    def spawn(*args, **kwargs):
        raise AssertionError("a seed stream was spawned before the run was checked")

    monkeypatch.setattr(np.random, "SeedSequence", spawn)
    path = constant_path(np.diag([1.0, -1.0]).astype(np.complex128), t)
    with pytest.raises(ArgumentError) as info:
        ensemble_mean(path, noise, M, seed=0)
    assert info.value.name == name


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


@pytest.mark.parametrize("d", [2, 4, 8])
def test_ensemble_matches_single_runs(rng, d):
    # A chunk's Pauli product, and above d = 2 its Taylor degree, depend on
    # the whole stack, so batched and single runs agree to rounding only.
    path = constant_path(rand_hermitian(rng, d), 1.0)
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


def test_write_ensemble_round_trip(tmp_path, rng):
    path = constant_path(rand_hermitian(rng, 2), 1.0)
    noise = NoiseModel(kind="gaussian_pauli", sigma=0.1, dt_noise=1.0 / 16)
    res = ensemble_mean(path, noise, M=5, seed=1)
    csv_path, json_path = tmp_path / "traj.csv", tmp_path / "traj.json"
    write_ensemble(res, csv_path, json_path)

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
            "path": {"H": pairs(rand_hermitian(rng, 2)), "t": 1.0},
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
    # Noise is drawn in 2 MiB pieces into one buffer per chunk. The whole
    # (M, 256, d²-1) block is 3.9 MB at d = 4, where the norms and stacks
    # held beside the piece stay under a quarter of it, and 25.8 MB at d = 8.
    import tracemalloc

    noise = NoiseModel(kind="gaussian_pauli", sigma=np.array([0.1]))
    for d, M, bound in ((4, 128, 0.75 * 128 * 256 * 15 * 8), (8, 200, 6e6)):
        H = traceless(rand_hermitian(rng, d))
        tracemalloc.start()
        try:
            ensemble_mean(constant_path(H, 1.0), noise, M=M, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (d, peak)


def _noise(kind, d, dt_noise):
    if kind == "gaussian_pauli":
        return NoiseModel(kind=kind, sigma=0.1, dt_noise=dt_noise)
    return NoiseModel(kind=kind, weights=np.linspace(1.0, 2.0, d * d - 1), dt_noise=dt_noise)


# Noise is drawn in pieces of max(1, 2**18 // (B * (d²-1))) substeps for a
# chunk of B trajectories: at d = 2, M = 600 spans two chunks and its first
# chunk takes two pieces (170 + 86 substeps); the d = 4 two-segment path
# takes pieces of 58 substeps, which divide neither of its 128 and 64; d = 8
# takes 65 + 63 and 41 + 23. Each case is (d, kind, M, durations, dt_noise).
_PIN_CASES = {
    "d2-gaussian": (2, "gaussian_pauli", 7, (1.0,), 1 / 64),
    "d2-matched-two-chunks": (2, "bounded_matched", 600, (1.0,), None),
    "d4-gaussian-two-segments": (4, "gaussian_pauli", 300, (0.5, 0.25), 1 / 256),
    "d4-matched": (4, "bounded_matched", 100, (1.0,), None),
    "d8-gaussian": (8, "gaussian_pauli", 64, (1.0,), 1 / 128),
    "d8-matched": (8, "bounded_matched", 100, (1.0,), 1 / 64),
}


def _pinned_run(monkeypatch, case):
    """Run a pinned case; returns its result, its endpoints and, per
    trajectory in index order, the noise rows it drew, piece after piece."""
    d, kind, M, durations, dt_noise = _PIN_CASES[case]
    rng = np.random.default_rng(d)
    path = PiecewiseConstantPath(segments=tuple((rand_hermitian(rng, d), ds) for ds in durations))
    endpoints, rows = [], {}
    run, sample = rode._run_trajectories, rode._sample_coeffs

    def capture(*args):
        out = run(*args)
        endpoints.append(out[0])
        return out

    def record(noise, out, target, stream):
        sample(noise, out, target, stream)
        rows.setdefault(id(stream), []).append(out.copy())

    monkeypatch.setattr(rode, "_run_trajectories", capture)
    monkeypatch.setattr(rode, "_sample_coeffs", record)
    res = ensemble_mean(path, _noise(kind, d, dt_noise), M, seed=5)
    return res, endpoints[0], [np.concatenate(r) for r in rows.values()]


@pytest.mark.parametrize(
    "case, digest",
    [
        ("d2-gaussian", "3a9f0ea1940d7776a97b5fffd1f4dbb01ab1c91c312e52e1c83de854f4a555d6"),
        ("d2-matched-two-chunks", "673047efdb379b871308fe1212464517d46b6718f533e337761e15e2ccedf21f"),
        ("d4-gaussian-two-segments", "3d105597b48d8c36597f6d7cfda3e343aa858fba275fe1e3fc2571067c417c4b"),
        ("d4-matched", "bdc2a3442e3c48d60d164ddaf858bd23d379856de0c3df88c5a59c986e8fa929"),
        ("d8-gaussian", "a0c767ec4ff4595ea98276d4e19662cb423446f325d1a32e7c94f98e97a865b1"),
        ("d8-matched", "efacc8ea0a1fdde8ca400553ecc1a5e45e64039af879f6ce317a94d9720ed206"),
    ],
    ids=list(_PIN_CASES),
)
def test_trajectories_are_pinned(monkeypatch, case, digest):
    res, endpoints, _ = _pinned_run(monkeypatch, case)
    h = hashlib.sha256()
    for a in (endpoints, res.hr_integrals, res.distances, res.endpoint_deviations):
        h.update(a.tobytes())
    h.update(json.dumps(res.fluctuations, sort_keys=True).encode())
    assert h.hexdigest() == digest


# sha256 of every drawn noise row, trajectory after trajectory. The digests
# were taken from the kernels as they were before each trajectory drew in
# place into the piece buffer, and they still hold: no sample moved.
@pytest.mark.parametrize(
    "case, digest",
    [
        ("d2-gaussian", "e0846e23cd0fcccc2999b54e6ed3b446f1f7be104af9b209aebfed403d5fc555"),
        ("d2-matched-two-chunks", "3bbe94644b9a7026ab46a6416f94c98b4f31385a321424317400f3e272ae2f74"),
        ("d4-gaussian-two-segments", "0dc183d3ce7be12bbb46c85a353cce095588f8be4215f20da5debe8bfb36011f"),
        ("d4-matched", "147a882a14334c0eb16491cfd207e2b27d262bffc3de45e215cd96d3a49f1271"),
        ("d8-gaussian", "e59ce578469f588401e5d258c13cd2fd4cbfe32108871590bebdc3570125fb58"),
        ("d8-matched", "d97f45e51543fad567fdddd82c8cfb7435023ad12b0bab276ba72e129b08de1f"),
    ],
    ids=list(_PIN_CASES),
)
def test_noise_draws_are_pinned(monkeypatch, case, digest):
    # Drawing in pieces changes no sample: each trajectory's rows equal one
    # whole-segment draw from its own stream, and their digest is pinned.
    d, kind, M, durations, dt_noise = _PIN_CASES[case]
    res, _, rows = _pinned_run(monkeypatch, case)
    noise = _noise(kind, d, dt_noise)
    h = hashlib.sha256()
    for child, drawn in zip(np.random.SeedSequence(5).spawn(M), rows, strict=True):
        stream, whole = np.random.default_rng(child), []
        n_subs = [round(ds / (dt_noise or sum(durations) / 256)) for ds in durations]
        for n_sub, target in zip(n_subs, res.fluctuations["segment_targets"]
                                 if res.fluctuations else [None] * len(n_subs)):
            g = stream.normal(size=(n_sub, d * d - 1))
            if target is None:
                whole.append(g * noise.sigma)
            else:
                whole.append(g / np.linalg.norm(g, axis=1, keepdims=True) * target)
        assert np.array_equal(drawn, np.concatenate(whole))
        h.update(drawn.tobytes())
    assert h.hexdigest() == digest


def test_noise_norms_are_held_per_piece():
    # The norms of a chunk's noise are summed piece by piece, so a long run
    # holds no (M, substeps) array: 512 trajectories of 16384 substeps each.
    import tracemalloc

    H = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.3]])
    noise = NoiseModel(kind="bounded_matched", weights=np.ones(3), dt_noise=2**-14)
    tracemalloc.start()
    try:
        res = ensemble_mean(constant_path(H, 1.0), noise, M=512, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.fluctuations["matched_norm_ok"]
    assert peak < 10e6, peak


def test_taylor_thresholds_bound_the_truncation():
    # theta_m is the largest theta with theta^(m+1)/(m+1)! e^theta <= 2^-53.
    def tail(m, theta):
        return theta ** (m + 1) / math.factorial(m + 1) * math.exp(theta)

    for m, theta_m in rode.TAYLOR_DEGREES:
        assert tail(m, theta_m * (1 - 1e-9)) <= 2.0**-53 < tail(m, theta_m * (1 + 1e-9))


def _unit_stack(rng, d, n=3):
    """Hermitian members of unit Frobenius norm, so that theta = tau."""
    A = np.stack([rand_hermitian(rng, d) for _ in range(n)])
    return A / np.linalg.norm(A, axis=(1, 2))[:, None, None]


def _check_exponentials(A, tau, got):
    expm = pytest.importorskip("scipy.linalg").expm
    d = A.shape[-1]
    for a, g in zip(A, got):
        assert np.abs(g - matrix_exp_unitary(a, tau)).max() <= 1e-14
        assert np.abs(g - expm(-1j * tau * a)).max() <= 1e-14
        assert np.abs(g.conj().T @ g - np.eye(d)).max() <= 1e-14


_BELOW, _ABOVE = 1 - 1e-6, 1 + 1e-6
_DEGREES = [m for m, _ in rode.TAYLOR_DEGREES]
# (tau, the Taylor degree used), with theta = tau: the default substep of a
# unit-time path, then each threshold from just below and just above; above
# the top one (and at tau = 3) the top degree runs on X / 2, and one squaring
# follows.
_TAUS = [
    (1 / 256, min(m for m, theta in rode.TAYLOR_DEGREES if 1 / 256 <= theta)),
    *(
        pair
        for k, (m, theta) in enumerate(rode.TAYLOR_DEGREES)
        for pair in ((theta * _BELOW, m), (theta * _ABOVE, _DEGREES[min(k + 1, len(_DEGREES) - 1)]))
    ),
    (3.0, _DEGREES[-1]),
]


def _taylor_products(m):
    """Matrix products that _taylor takes for degree m."""
    count = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            count.append(1)
            return np.matmul(np.asarray(self), np.asarray(other)).view(Counted)

    rode._taylor(np.zeros((1, 3, 3), dtype=np.complex128).view(Counted), m)
    return len(count)


def test_taylor_degrees_are_the_cheapest_at_their_product_count():
    # Paterson–Stockmeyer evaluation costs the same for a run of degrees; the
    # table takes the top of each run, which has the largest theta.
    counts = [_taylor_products(m) for m in range(1, _DEGREES[-1] + 2)]
    assert counts == sorted(counts)
    assert [counts[m - 1] for m in _DEGREES] == [3, 4, 5, 6, 8]
    for m in _DEGREES:
        assert counts[m] > counts[m - 1], m


@pytest.mark.parametrize("d", [3, 4, 8, 16])
@pytest.mark.parametrize("tau, degree", _TAUS)
def test_expm_batch_taylor_kernel(monkeypatch, rng, d, tau, degree):
    used = []
    original = rode._taylor

    def taylor(X, m):
        used.append((m, float(np.linalg.norm(X, axis=(1, 2)).max())))
        return original(X, m)

    monkeypatch.setattr(rode, "_taylor", taylor)
    A = _unit_stack(rng, d)
    got = rode._expm_batch(A, tau)
    [(m, theta)] = used
    assert m == degree
    assert theta <= dict(rode.TAYLOR_DEGREES)[m]
    _check_exponentials(A, tau, got)


@pytest.mark.parametrize("B", [1, 7, 512])
def test_d2_product_matches_matmul(rng, B):
    E, U = (rode._expm_batch(np.stack([rand_hermitian(rng, 2) for _ in range(B)]), 0.7)
            for _ in range(2))
    assert np.abs(rode._product(E, U) - E @ U).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("d", [3, 16])
def test_expm_batch_one_large_member_squares_the_stack(rng, d):
    # theta = 12 takes three squarings, which the small members go through too.
    A = _unit_stack(rng, d, n=4)
    A[0] *= 4.0
    A[1:] *= 1e-3
    _check_exponentials(A, 3.0, rode._expm_batch(A, 3.0))
