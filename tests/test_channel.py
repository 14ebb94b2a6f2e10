import numpy as np
import pytest

from conftest import rand_density, rand_hermitian, rand_probs, rand_unitary

from channelgeo.channel import (
    ChannelSpec,
    TimeDependentSpec,
    apply_channel,
    apply_channel_via_joint,
    channel_complexity_const,
    check_perturbative,
    complexity_split,
    complexity_split_td,
    kraus_operators,
    noise_complexity_bounds,
    perturbative_example,
)
from channelgeo.geodesic import PiecewiseConstantPath, geometric_complexity_const
from channelgeo.operators import ArgumentError, hs_norm, matrix_abs, sqrt_abs_diff
from channelgeo.pauli import build_penalty_metric
from channelgeo.reports import _rand_spec, verify_all_battery


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
        assert ks.shape == (d_E**2, d_S, d_S)
        total = np.einsum("kba,kbc->ac", ks.conj(), ks)
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


def test_both_routes_refuse_a_state_of_another_dimension(rng):
    spec = make_spec(rng, 2, 2)
    rho = rand_density(rng, 3)
    with pytest.raises(ValueError) as kraus:
        apply_channel(spec, 1.0, rho)
    with pytest.raises(ValueError) as joint:
        apply_channel_via_joint(spec, 1.0, rho)
    assert str(kraus.value) == str(joint.value) == "State dim 3 does not match d_S=2."


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
        split = complexity_split(spec, t)
        assert split["G_hs"] == channel_complexity_const(spec, t)
        assert split["G_hs"] <= split["G_noiseless"] + 1e-9


def test_noise_free_limit(rng):
    z2 = np.zeros((2, 2))
    spec = ChannelSpec(d_S=2, d_E=2, H_S=rand_hermitian(rng, 2), H_I=np.zeros((4, 4)), H_E=z2)
    t = 0.9
    split = complexity_split(spec, t)
    assert split["N_hs"] < 1e-10
    assert split["N_hs"] == abs(split["G_hs"] - split["G_noiseless"])


def test_system_free_limit(rng):
    spec = ChannelSpec(
        d_S=2,
        d_E=2,
        H_S=np.zeros((2, 2)),
        H_I=rand_hermitian(rng, 4),
        H_E=rand_hermitian(rng, 2),
    )
    assert abs(channel_complexity_const(spec, 1.1)) < 1e-10
    assert abs(complexity_split(spec, 1.1)["G_noiseless"]) < 1e-15


def test_noise_sandwich_system_dominated(rng):
    # bounds hold when the system term dominates the interaction
    for _ in range(10):
        spec = make_spec(rng, scale_S=12.0, scale_IE=0.25)
        rec = noise_complexity_bounds(spec, 1.0)
        n = complexity_split(spec, 1.0)["N_hs"]
        assert rec["lower"] <= n + 1e-8
        assert rec["upper"] is not None
        assert n <= rec["upper"] + 1e-8


@pytest.mark.parametrize("scale_S", [0.1, 1.0, 12.0])
def test_noise_sandwich_identity(scale_S):
    """N_hs - upper = distance_estimate - G_hs wherever G_hs <= G_noiseless,
    which holds on every draw; so the upper bound holds iff G_hs >= distance_estimate."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        rec = noise_complexity_bounds(_rand_spec(rng, scale_S=scale_S), 1.0)
        assert rec["G_hs"] <= rec["G_noiseless"]
        excess = rec["N_hs"] - rec["upper"]
        assert abs(excess - (rec["distance_estimate"] - rec["G_hs"])) <= 1e-12


@pytest.mark.parametrize(
    "seed, margin",
    [(48, 0.0949288949589111), (77, 0.5511910997870678), (265, 0.15627239478665078),
     (305, 0.03929340731708475)],
)
def test_verify_all_sandwich_failures_are_the_identity(seed, margin):
    """The noise_sandwich draws that fail verify-all fail by distance_estimate - G_hs."""
    check = next(c for c in verify_all_battery(seed) if c["name"] == "noise_sandwich")
    assert not check["holds"]
    assert check["lhs"] == margin
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(20)[4])  # the battery's draws
    gaps = []
    for _ in range(3):
        spec = _rand_spec(rng, scale_S=12.0, scale_IE=0.25)
        rng.integers(2**31)
        rec = noise_complexity_bounds(spec, 1.0)
        gaps.append(rec["distance_estimate"] - rec["G_hs"])
    assert abs(max(gaps) - margin) <= 1e-12


@pytest.mark.parametrize("scale_S", [0.1, 1.0, 12.0])
def test_td_single_segment_matches_const(scale_S):
    # One segment is complexity_split itself, flat or under a metric, bit for bit.
    rng = np.random.default_rng(7)
    m = build_penalty_metric(2, 2.0)
    for _ in range(300):
        spec, t = _rand_spec(rng, scale_S=scale_S), float(rng.uniform(0.2, 1.5))
        split = complexity_split(spec, t)
        td = complexity_split_td(TimeDependentSpec(segments=((spec, t),)))
        assert td == {"G_td": split["G_hs"], "G_noiseless_td": split["G_noiseless"],
                      "N_td": split["N_hs"]}
        H_tot, H_Se = spec.h_total(), spec.h_system_embedded()
        g_tot = geometric_complexity_const(H_tot, t, m)
        g_hs = float(g_tot - geometric_complexity_const(sqrt_abs_diff(H_tot, H_Se), t, m))
        g_free = float(geometric_complexity_const(H_Se, t, m))
        weighted = complexity_split_td(TimeDependentSpec(segments=((spec, t),), metric=m))
        assert weighted == {"G_td": g_hs, "G_noiseless_td": g_free, "N_td": abs(g_hs - g_free)}


def test_td_segment_additivity(rng):
    H_S = np.diag([1.0, 2.0])
    H_I = 0.3 * np.diag([0.0, 1.0, 0.0, 1.0])
    spec = ChannelSpec(d_S=2, d_E=2, H_S=H_S, H_I=H_I, H_E=np.zeros((2, 2)))
    one = TimeDependentSpec(segments=((spec, 1.0),))
    two = TimeDependentSpec(segments=((spec, 0.4), (spec, 0.6)))
    assert abs(complexity_split_td(one)["G_td"] - complexity_split_td(two)["G_td"]) < 1e-12
    # Distinct segments: the split is the in-order sum of the per-segment splits.
    segments = tuple((_rand_spec(rng), float(rng.uniform(0.2, 1.5))) for _ in range(3))
    g_hs = g_free = 0.0
    for seg, ds in segments:
        split = complexity_split(seg, ds)
        g_hs += split["G_hs"]
        g_free += split["G_noiseless"]
    td = complexity_split_td(TimeDependentSpec(segments=segments))
    assert td == {"G_td": g_hs, "G_noiseless_td": g_free, "N_td": abs(g_hs - g_free)}


def test_td_validation():
    spec = ChannelSpec(d_S=2, d_E=2, H_S=np.eye(2), H_I=np.eye(4), H_E=np.eye(2))
    with pytest.raises(ValueError):
        TimeDependentSpec(segments=((spec, 0.0),))
    with pytest.raises(ArgumentError) as info:  # the segment's own rule, with its name
        ChannelSpec(d_S=2, d_E=2, H_S=np.eye(2), H_I=np.eye(3), H_E=np.eye(2))
    assert info.value.name == "H_I"
    other = ChannelSpec(d_S=2, d_E=3, H_S=np.eye(2), H_I=np.eye(6), H_E=np.eye(3))
    with pytest.raises(ArgumentError, match=r"segment 1 has \(d_S, d_E\) \(2, 3\)") as info:
        TimeDependentSpec(segments=((spec, 1.0), (other, 1.0)))
    assert info.value.name == "segments"
    with pytest.raises(ArgumentError) as info:
        TimeDependentSpec(segments=())
    assert info.value.name == "segments"


def test_td_refuses_a_metric_on_another_dimension():
    spec = ChannelSpec(d_S=2, d_E=2, H_S=np.eye(2), H_I=np.eye(4), H_E=np.eye(2))
    with pytest.raises(ArgumentError, match="basis dimension 2, not d_S·d_E = 4") as info:
        TimeDependentSpec(segments=((spec, 1.0),), metric=build_penalty_metric(1, 2.0))
    assert info.value.name == "metric"
    td = TimeDependentSpec(segments=((spec, 1.0),), metric=build_penalty_metric(2, 2.0))
    assert complexity_split_td(td)["G_td"] >= 0.0


@pytest.mark.parametrize("ds", [float("nan"), float("inf"), 0.0, -1.0])
def test_td_refuses_a_duration_as_a_path_does(ds):
    spec = ChannelSpec(d_S=2, d_E=2, H_S=np.eye(2), H_I=np.eye(4), H_E=np.eye(2))
    with pytest.raises(ValueError) as td:
        TimeDependentSpec(segments=((spec, ds),))
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
