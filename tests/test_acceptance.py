"""Acceptance suite: one test per numbered criterion, run with -v for a
single pass/fail line each. Budgeted to finish in well under two minutes."""
import json
import subprocess
import sys

import numpy as np

from conftest import rand_density, rand_hermitian, rand_probs, rand_unitary

from channelgeo.algebra import (
    RandomVariable,
    algebraic_complexity,
    decompose_two_level,
    law,
    random_special_unitary,
    reconstruct,
)
from channelgeo.channel import (
    ChannelSpec,
    apply_channel,
    apply_channel_via_joint,
    channel_complexity_const,
    complexity_split,
    kraus_operators,
    noise_complexity_bounds,
    perturbative_example,
)
from channelgeo.coherence import (
    DephasingChannel,
    coherence_rate_bound,
    coherence_rate_exact,
    computational_dephasing,
    rel_entropy_coherence,
    verify_decohering_bound,
)
from channelgeo.geodesic import (
    PiecewiseConstantPath,
    check_cost_chain,
    constant_path,
    geometric_complexity_const,
    log_distance,
    path_endpoint,
    path_length,
)
from channelgeo.operators import (
    hs_norm,
    matrix_abs,
    matrix_exp_unitary,
    sqrt_abs_diff,
)
from channelgeo.pauli import build_pauli_basis
from channelgeo.rode import (
    NoiseModel,
    ensemble_mean,
    fluctuation_report,
)


def random_channel_spec(rng, scale_S=1.0, scale_IE=1.0):
    return ChannelSpec(
        H_S=rand_hermitian(rng, 2, scale_S),
        H_I=rand_hermitian(rng, 4, scale_IE),
        H_E=rand_hermitian(rng, 2, scale_IE),
        env_probs=rand_probs(rng, 2),
    )


def test_criterion_01_closed_form_matches_constant_path():
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(500):
        d = (2, 4, 8)[k % 3]
        H = rand_hermitian(rng, d, float(rng.uniform(0.2, 3.0)))
        t = float(rng.uniform(0.05, 2.5))
        closed = t * hs_norm(H) / np.sqrt(d**2 - 1)
        worst = max(worst, abs(closed - geometric_complexity_const(H, t)))
        worst = max(worst, abs(closed - path_length(constant_path(H, t))))
    assert worst <= 1e-10


def test_criterion_02_abs_spectrum_equality():
    rng = np.random.default_rng(102)
    worst = 0.0
    for k in range(300):
        d = (2, 3, 4)[k % 3]
        H = rand_hermitian(rng, d, float(rng.uniform(0.2, 3.0)))
        t = float(rng.uniform(0.05, 2.0))
        worst = max(
            worst,
            abs(
                geometric_complexity_const(H, t)
                - geometric_complexity_const(matrix_abs(H), t)
            ),
        )
    assert worst <= 1e-12


def test_criterion_03_subadditivity():
    rng = np.random.default_rng(103)
    worst = -np.inf
    for k in range(300):
        d = (2, 4)[k % 2]
        A = rand_hermitian(rng, d)
        B = rand_hermitian(rng, d)
        t = float(rng.uniform(0.05, 1.5))
        rhs = geometric_complexity_const(A, t) + geometric_complexity_const(B, t)
        # summed generator
        worst = max(worst, geometric_complexity_const(A + B, t) - rhs)
        # composed propagator
        product = matrix_exp_unitary(A, t) @ matrix_exp_unitary(B, t)
        worst = max(worst, log_distance(np.eye(d), product) - rhs)
    assert worst <= 1e-12


def test_criterion_04_split_and_monotonicity():
    rng = np.random.default_rng(104)
    worst_split = 0.0
    worst_monotone = -np.inf
    for _ in range(200):
        spec = random_channel_spec(rng)
        t = float(rng.uniform(0.1, 1.5))
        H_tot = spec.h_total()
        H_Se = spec.h_system_embedded()
        X = H_tot @ H_tot - H_Se @ H_Se
        oracle = (t / np.sqrt(15.0)) * (
            hs_norm(H_tot) - np.sqrt(float(np.trace(matrix_abs(X)).real))
        )
        g = channel_complexity_const(spec, t)
        worst_split = max(worst_split, abs(g - oracle))
        worst_monotone = max(worst_monotone, g - complexity_split(spec, t)["G_noiseless"])
    assert worst_split <= 1e-9
    assert worst_monotone <= 1e-9


def test_criterion_05_limit_cases():
    rng = np.random.default_rng(105)
    z2 = np.zeros((2, 2))
    z4 = np.zeros((4, 4))
    for _ in range(20):
        free = ChannelSpec(H_S=rand_hermitian(rng, 2), H_I=z4, H_E=z2)
        t = float(rng.uniform(0.1, 2.0))
        gap = complexity_split(free, t)["N_hs"]
        assert gap <= 1e-10
        lonely = ChannelSpec(H_S=z2, H_I=rand_hermitian(rng, 4), H_E=z2)
        assert abs(channel_complexity_const(lonely, t)) <= 1e-10


def test_criterion_06_sandwich_and_norm_gap():
    rng = np.random.default_rng(106)
    for _ in range(50):
        spec = random_channel_spec(rng, scale_S=12.0, scale_IE=0.25)
        n = complexity_split(spec, 1.0)["N_hs"]
        rng.integers(2**31)  # unused draw: keeps the data drawn after it unchanged
        bounds = noise_complexity_bounds(spec, 1.0)
        assert bounds["lower"] <= n + 1e-8
        assert bounds["upper"] is not None
        assert n <= bounds["upper"] + 1e-8
    worst = -np.inf
    for k in range(300):
        d = (2, 4)[k % 2]
        A = rand_hermitian(rng, d)
        B = rand_hermitian(rng, d)
        t = float(rng.uniform(0.1, 1.5))
        lhs = abs(
            geometric_complexity_const(A, t) - geometric_complexity_const(B, t)
        )
        rhs = geometric_complexity_const(sqrt_abs_diff(A, B), t)
        worst = max(worst, lhs - rhs)
    assert worst <= 1e-12


def test_criterion_07_rate_formula_and_cap():
    rng = np.random.default_rng(107)
    h = 1e-5
    for k in range(100):
        d = (2, 3)[k % 2]
        V = rand_unitary(rng, d)
        eye = np.eye(d, dtype=np.complex128)
        E = DephasingChannel(
            projectors=tuple(
                np.outer(V[:, j], V[:, j].conj()) for j in range(d)
            )
        )
        H = rand_hermitian(rng, d)
        rho = rand_density(rng, d)
        U_p = matrix_exp_unitary(H, h)
        U_m = matrix_exp_unitary(H, -h)
        fd = (
            rel_entropy_coherence(U_p @ rho @ U_p.conj().T, E)
            - rel_entropy_coherence(U_m @ rho @ U_m.conj().T, E)
        ) / (2 * h)
        assert abs(coherence_rate_exact(H, rho, E) - fd) <= 1e-6
    for k in range(500):
        d = (2, 4, 8)[k % 3]
        E = computational_dephasing(d)
        assert coherence_rate_bound(rand_density(rng, d), E) <= np.sqrt(2.0) + 1e-10


def test_criterion_08_decohering_power_bound():
    rng = np.random.default_rng(108)
    violations = 0
    for k in range(100):
        d = 2 if k < 60 else 4
        E = computational_dephasing(d)
        H = rand_hermitian(rng, d, float(rng.uniform(0.3, 2.0)))
        t = float(rng.uniform(0.1, 1.5))
        rec = verify_decohering_bound(
            H, t, E, restarts=4, seed=int(rng.integers(2**31)), pure_only=True
        )
        if not rec["holds"]:
            violations += 1
    assert violations == 0


def test_criterion_09_cost_chain():
    rng = np.random.default_rng(109)
    violations = 0
    for k in range(300):
        n = (1, 2)[k % 2]
        basis = build_pauli_basis(n)
        d = basis.dim
        segs = tuple(
            (rand_hermitian(rng, d), float(rng.uniform(0.05, 0.8)))
            for _ in range(int(rng.integers(1, 4)))
        )
        if not check_cost_chain(PiecewiseConstantPath(segments=segs), basis)["bound_holds"]:
            violations += 1
    assert violations == 0


def test_criterion_10_perturbative_error_rate():
    H_S = np.diag([1.0, 2.0])
    A_S = np.eye(2)
    E = np.array([0.0, 1.0])
    alpha = np.array([0.5, 0.5])
    errors = {}
    for eps in (1e-2, 1e-3, 1e-4):
        rec = perturbative_example(H_S, A_S, E, alpha, eps)
        errors[eps] = rec["error"]
        assert rec["error"] <= 0.2 * eps**1.5
    ratio = errors[1e-2] / errors[1e-4]
    assert 10.0 <= ratio <= 1e3


def test_criterion_11_rode_bounds_and_gaussian_shrink():
    rng = np.random.default_rng(11)
    H = rand_hermitian(rng, 2)
    path = constant_path(H, 1.0)

    matched = NoiseModel(kind="bounded_matched", weights=np.ones(3), dt_noise=1.0 / 64)
    rep = fluctuation_report(path, matched, M=100, seed=2024)
    assert rep["n_trajectories"] == 100
    assert rep["violations_distance_bound"] == []
    assert rep["violations_complexity_gap"] == []
    assert rep["matched_norm_ok"]

    gauss = NoiseModel(kind="gaussian_pauli", sigma=0.05)
    U_free = path_endpoint(path)
    small = ensemble_mean(path, gauss, M=100, seed=123)
    large = ensemble_mean(path, gauss, M=10_000, seed=123)
    d_small = hs_norm(small.mean_operator - U_free)
    d_large = hs_norm(large.mean_operator - U_free)
    factor = d_small / d_large
    assert 3.0 <= factor <= 30.0


def test_criterion_12_decomposition_and_law():
    rng = np.random.default_rng(112)
    for k in range(100):
        N = (2, 4, 8, 16)[k % 4]
        U = random_special_unitary(N, rng)
        circ = decompose_two_level(U)
        assert algebraic_complexity(circ) <= N * (N - 1) // 2
        assert hs_norm(reconstruct(circ, N) - U) <= 1e-9
    for _ in range(200):
        rv = RandomVariable(
            observable=rand_hermitian(rng, 4), state=rand_density(rng, 4)
        )
        total = sum(p for _, p in law(rv))
        assert abs(total - 1.0) <= 1e-9


def test_criterion_13_kraus_completeness_and_oracle():
    rng = np.random.default_rng(113)
    for k in range(200):
        d_S, d_E = ((2, 2), (2, 3), (3, 2))[k % 3]
        spec = ChannelSpec(
            H_S=rand_hermitian(rng, d_S),
            H_I=rand_hermitian(rng, d_S * d_E),
            H_E=rand_hermitian(rng, d_E),
            env_probs=rand_probs(rng, d_E),
            env_basis=rand_unitary(rng, d_E),
        )
        t = float(rng.uniform(0.1, 1.5))
        M = kraus_operators(spec, t)
        gram = np.einsum("kba,kbc->ac", M.conj(), M)
        assert np.abs(gram - np.eye(d_S)).max() <= 1e-9
        rho = rand_density(rng, d_S)
        out_k = apply_channel(spec, t, rho)
        out_j = apply_channel_via_joint(spec, t, rho)
        assert np.abs(out_k - out_j).max() <= 1e-9


def test_criterion_14_cli_determinism_and_failure_exit(tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(
        json.dumps({"schema_version": 1, "kind": "verify-all", "seed": 7}),
        encoding="utf-8",
    )
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "channelgeo.cli",
                "verify-all",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
    assert out_a.read_bytes() == out_b.read_bytes()

    # a genuine bound violation must surface as a nonzero exit code
    rng = np.random.default_rng(7)

    def herm(d):
        return rand_hermitian(rng, d)

    def pairs(M):
        return [[[float(x.real), float(x.imag)] for x in row] for row in M]

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "noise",
                "seed": 0,
                "d_S": 2,
                "d_E": 2,
                "H_S": pairs(herm(2)),
                "H_I": pairs(herm(4)),
                "H_E": pairs(herm(2)),
                "t": 0.7,
            }
        ),
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "channelgeo.cli", "noise", "--config", str(bad)],
        capture_output=True,
    )
    assert proc.returncode != 0
