import numpy as np
import pytest

from conftest import rand_density, rand_hermitian, rand_probs, rand_unitary

from channelgeo.channel import (
    ChannelSpec,
    TimeDependentSpec,
    apply_channel,
    apply_channel_via_joint,
    channel_complexity_const,
    channel_complexity_td,
    check_perturbative,
    kraus_operators,
    noise_complexity,
    noise_complexity_bounds,
    noise_complexity_td,
    noiseless_complexity,
    perturbative_example,
)
from channelgeo.geodesic import PiecewiseConstantPath
from channelgeo.operators import ArgumentError, hs_norm, matrix_abs, sqrt_abs_diff


def make_spec(rng, d_S=2, d_E=2, scale_S=1.0, scale_IE=1.0, uniform_env=True):
    return ChannelSpec(
        d_S=d_S,
        d_E=d_E,
        H_S=rand_hermitian(rng, d_S, scale_S),
        H_I=rand_hermitian(rng, d_S * d_E, scale_IE),
        H_E=rand_hermitian(rng, d_E, scale_IE),
        env_probs=None if uniform_env else rand_probs(rng, d_E),
        env_basis=None if uniform_env else rand_unitary(rng, d_E),
    )


def test_spec_validation(rng):
    H2 = rand_hermitian(rng, 2)
    H4 = rand_hermitian(rng, 4)
    with pytest.raises(ValueError):
        ChannelSpec(d_S=0, d_E=2, H_S=H2, H_I=H4, H_E=H2)
    with pytest.raises(ValueError):  # H_S wrong size
        ChannelSpec(d_S=2, d_E=2, H_S=rand_hermitian(rng, 3), H_I=H4, H_E=H2)
    with pytest.raises(ValueError):  # H_I wrong size
        ChannelSpec(d_S=2, d_E=2, H_S=H2, H_I=H2, H_E=H2)
    with pytest.raises(ValueError):  # probs wrong length
        ChannelSpec(d_S=2, d_E=2, H_S=H2, H_I=H4, H_E=H2, env_probs=np.ones(3) / 3)
    with pytest.raises(ValueError):  # negative prob
        ChannelSpec(d_S=2, d_E=2, H_S=H2, H_I=H4, H_E=H2, env_probs=np.array([1.5, -0.5]))
    with pytest.raises(ValueError):  # not normalized
        ChannelSpec(d_S=2, d_E=2, H_S=H2, H_I=H4, H_E=H2, env_probs=np.array([0.7, 0.7]))
    with pytest.raises(ValueError):  # env_basis not unitary
        ChannelSpec(d_S=2, d_E=2, H_S=H2, H_I=H4, H_E=H2, env_basis=np.ones((2, 2)))


def test_env_defaults(rng):
    spec = make_spec(rng)
    assert np.abs(spec.env_probs - 0.5).max() < 1e-15
    assert np.abs(spec.env_state() - np.eye(2) / 2).max() < 1e-15


def test_kraus_count_and_completeness(rng):
    for d_S, d_E in ((2, 2), (2, 3), (3, 2)):
        spec = make_spec(rng, d_S, d_E, uniform_env=False)
        ks = kraus_operators(spec, 0.8)
        assert ks.operators.shape == (d_E**2, d_S, d_S)
        total = np.einsum("kba,kbc->ac", ks.operators.conj(), ks.operators)
        assert np.abs(total - np.eye(d_S)).max() < 1e-9


def test_kraus_route_matches_joint_route(rng):
    for k in range(20):
        uniform = k % 2 == 0
        spec = make_spec(rng, 2, 2, uniform_env=uniform)
        rho = rand_density(rng, 2)
        t = float(rng.uniform(0.1, 2.0))
        out_k = apply_channel(spec, t, rho)
        out_j = apply_channel_via_joint(spec, t, rho)
        assert np.abs(out_k - out_j).max() < 1e-12


def test_channel_output_is_density(rng):
    spec = make_spec(rng, 2, 3, uniform_env=False)
    out = apply_channel(spec, 1.3, rand_density(rng, 2))
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out).min() > -1e-12


def test_split_matches_norm_oracle(rng):
    # G_tot - G_resid equals (t/sqrt(d^2-1)) * (||H_tot|| - sqrt(Tr|X|))
    for _ in range(25):
        spec = make_spec(rng)
        t = float(rng.uniform(0.2, 1.5))
        H_tot = spec.h_total()
        X = H_tot @ H_tot - spec.h_system_embedded() @ spec.h_system_embedded()
        oracle = (t / np.sqrt(15.0)) * (hs_norm(H_tot) - np.sqrt(np.trace(matrix_abs(X)).real))
        assert abs(channel_complexity_const(spec, t) - oracle) < 1e-9


def test_channel_never_exceeds_noiseless(rng):
    for _ in range(25):
        spec = make_spec(rng)
        t = float(rng.uniform(0.2, 1.5))
        assert channel_complexity_const(spec, t) <= noiseless_complexity(spec, t) + 1e-9


def test_noise_free_limit(rng):
    z2 = np.zeros((2, 2))
    spec = ChannelSpec(d_S=2, d_E=2, H_S=rand_hermitian(rng, 2), H_I=np.zeros((4, 4)), H_E=z2)
    t = 0.9
    assert abs(noise_complexity(spec, t)) < 1e-10
    assert abs(channel_complexity_const(spec, t) - noiseless_complexity(spec, t)) < 1e-10


def test_system_free_limit(rng):
    spec = ChannelSpec(
        d_S=2,
        d_E=2,
        H_S=np.zeros((2, 2)),
        H_I=rand_hermitian(rng, 4),
        H_E=rand_hermitian(rng, 2),
    )
    assert abs(channel_complexity_const(spec, 1.1)) < 1e-10
    assert abs(noiseless_complexity(spec, 1.1)) < 1e-15


def test_noise_sandwich_system_dominated(rng):
    # bounds hold when the system term dominates the interaction
    for _ in range(10):
        spec = make_spec(rng, scale_S=12.0, scale_IE=0.25)
        rec = noise_complexity_bounds(spec, 1.0)
        n = noise_complexity(spec, 1.0)
        assert rec["lower"] <= n + 1e-8
        assert rec["upper"] is not None
        assert n <= rec["upper"] + 1e-8


def test_td_single_segment_commuting_matches_const():
    # diagonal commuting family with sign-definite residual
    H_S = np.diag([1.0, 2.0])
    H_I = 0.3 * np.diag([0.0, 1.0, 0.0, 1.0])
    H_E = np.zeros((2, 2))
    spec = ChannelSpec(d_S=2, d_E=2, H_S=H_S, H_I=H_I, H_E=H_E)
    t = 1.4
    td = TimeDependentSpec(d_S=2, d_E=2, segments=((H_S, H_I, H_E, t),))
    assert abs(channel_complexity_td(td) - channel_complexity_const(spec, t)) < 1e-12
    assert abs(noise_complexity_td(td) - noise_complexity(spec, t)) < 1e-12


def test_td_segment_additivity(rng):
    H_S = np.diag([1.0, 2.0])
    H_I = 0.3 * np.diag([0.0, 1.0, 0.0, 1.0])
    H_E = np.zeros((2, 2))
    one = TimeDependentSpec(d_S=2, d_E=2, segments=((H_S, H_I, H_E, 1.0),))
    two = TimeDependentSpec(
        d_S=2, d_E=2, segments=((H_S, H_I, H_E, 0.4), (H_S, H_I, H_E, 0.6))
    )
    assert abs(channel_complexity_td(one) - channel_complexity_td(two)) < 1e-12


def test_td_validation():
    H_S = np.eye(2)
    with pytest.raises(ValueError):
        TimeDependentSpec(
            d_S=2, d_E=2, segments=((H_S, np.eye(4), np.eye(2), 0.0),)
        )
    with pytest.raises(ValueError):
        TimeDependentSpec(
            d_S=2, d_E=2, segments=((H_S, np.eye(3), np.eye(2), 1.0),)
        )


@pytest.mark.parametrize("ds", [float("nan"), float("inf"), 0.0, -1.0])
def test_td_refuses_a_duration_as_a_path_does(ds):
    with pytest.raises(ValueError) as td:
        TimeDependentSpec(d_S=2, d_E=2, segments=((np.eye(2), np.eye(4), np.eye(2), ds),))
    with pytest.raises(ValueError) as path:
        PiecewiseConstantPath(segments=((np.eye(2), ds),))
    assert str(td.value) == str(path.value)


_PINNED = dict(H_S=np.diag([1.0, 2.0]), A_S=np.eye(2), env_energies=np.array([0.0, 1.0]),
               weights=np.array([0.5, 0.5]), eps=0.01)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: ChannelSpec(d_S=2, d_E=2, H_S=np.eye(2), H_I=np.eye(4), H_E=np.eye(2),
                             env_probs=np.eye(2) / 2), "env_probs"),
        (lambda: check_perturbative(**{**_PINNED, "weights": np.eye(2) / 2}), "weights"),
        (lambda: check_perturbative(**{**_PINNED, "env_energies": np.eye(2)}), "env_energies"),
    ],
)
def test_vector_arguments_refuse_matrices(build, name):
    with pytest.raises(ArgumentError) as info:
        build()
    assert info.value.name == name


def pinned_exact_oracle(eps):
    # joint spectrum diag(1, 1+eps, 2, 2+eps) with system part diag(1,1,2,2)
    total_sq = 10.0 + 6.0 * eps + 2.0 * eps**2
    resid_sq = 6.0 * eps + 2.0 * eps**2
    return (np.sqrt(total_sq) - np.sqrt(resid_sq)) / np.sqrt(15.0)


def test_perturbative_pinned_instance():
    H_S = np.diag([1.0, 2.0])
    A_S = np.eye(2)
    E = np.array([0.0, 1.0])
    alpha = np.array([0.5, 0.5])
    for eps in (1e-2, 1e-3, 1e-4):
        rec = perturbative_example(H_S, A_S, E, alpha, eps)
        assert abs(rec["exact"] - pinned_exact_oracle(eps)) < 1e-12
        assert rec["error"] <= 0.2 * eps**1.5
    assert abs(rec["omega_coupling"] - np.sqrt(0.6)) < 1e-12


def test_perturbative_zero_eps_is_noiseless():
    H_S = np.diag([1.0, 2.0])
    rec = perturbative_example(H_S, np.eye(2), np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0.0)
    assert abs(rec["exact"] - rec["perturbative"]) < 1e-12
    assert abs(rec["error"]) < 1e-12


def test_perturbative_validation():
    H_S = np.diag([1.0, 2.0])
    E = np.array([0.0, 1.0])
    alpha = np.array([0.5, 0.5])
    sx = np.array([[0, 1], [1, 0]], dtype=float)
    with pytest.raises(ValueError):  # does not commute
        perturbative_example(H_S, sx, E, alpha, 0.01)
    with pytest.raises(ValueError):  # not PSD
        perturbative_example(np.diag([-1.0, 2.0]), np.eye(2), E, alpha, 0.01)
    with pytest.raises(ValueError):  # negative strength
        perturbative_example(H_S, np.eye(2), E, alpha, -0.1)
    with pytest.raises(ValueError):  # negative energy
        perturbative_example(H_S, np.eye(2), np.array([-1.0, 1.0]), alpha, 0.01)
    with pytest.raises(ValueError):  # weights not a distribution
        perturbative_example(H_S, np.eye(2), E, np.array([0.9, 0.9]), 0.01)


def test_residual_generator_consistency(rng):
    # sqrt_abs_diff feeds the split; squaring it back must reproduce |X|
    spec = make_spec(rng)
    H_tot = spec.h_total()
    H_Se = spec.h_system_embedded()
    R = sqrt_abs_diff(H_tot, H_Se)
    X = H_tot @ H_tot - H_Se @ H_Se
    assert np.abs(R @ R - matrix_abs(X)).max() < 1e-9
