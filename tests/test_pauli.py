import numpy as np
import pytest
from conftest import rand_hermitian
from hypothesis import given, settings
from hypothesis import strategies as st

from channelgeo.geodesic import geometric_complexity_const
from channelgeo.operators import hs_norm
from channelgeo.pauli import (
    MetricSpec,
    build_pauli_basis,
    build_penalty_metric,
    devectorize_rows,
    omega_norm_raw,
    string_weight,
    vectorize,
)


def test_string_weight():
    assert string_weight("I") == 0
    assert string_weight("XIZ") == 2
    assert string_weight("YYY") == 3


def test_single_qubit_basis():
    basis = build_pauli_basis(1)
    assert basis.labels == ("X", "Y", "Z")
    assert basis.dim == 2
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    assert np.abs(basis.elements[0] - sx / np.sqrt(2)).max() < 1e-15


def test_basis_orthonormal_traceless():
    for n in (1, 2):
        basis = build_pauli_basis(n)
        k = len(basis.labels)
        assert k == basis.dim**2 - 1
        for i in range(k):
            assert abs(np.trace(basis.elements[i])) < 1e-14
            for j in range(i, k):
                ip = np.vdot(basis.elements[i], basis.elements[j])
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-13


def test_two_qubit_ordering_by_weight():
    basis = build_pauli_basis(2)
    weights = [string_weight(lab) for lab in basis.labels]
    assert weights == sorted(weights)
    assert weights.count(1) == 6
    assert weights.count(2) == 9


def test_basis_dimension_guard():
    with pytest.raises(ValueError):
        build_pauli_basis(0)
    with pytest.raises(ValueError):
        build_pauli_basis(6)


def test_basis_is_built_once_and_read_only():
    basis = build_pauli_basis(2)
    assert build_pauli_basis(2) is basis
    with pytest.raises(ValueError):
        basis.elements[0, 0, 0] = 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_devectorize_rows_matches_dense_sum(rng, n):
    basis = build_pauli_basis(n)
    k = len(basis.labels)
    C = rng.normal(size=(5, 2, k))[:, 1]
    got = devectorize_rows(C, basis)
    dense = np.einsum("bk,kij->bij", C, basis.elements)
    # One product reorders the sum over k: each entry may round differently.
    tol = k * 2.0**-52 * np.abs(C).sum(axis=1).max()
    assert got.shape == (5, basis.dim, basis.dim)
    assert np.abs(got - dense).max() <= tol
    for row, g in zip(C, got):
        assert np.abs(g - devectorize_rows(row, basis)).max() <= tol  # a row alone
    with pytest.raises(ValueError):
        devectorize_rows(C + 0j, basis)


@pytest.mark.parametrize("size", [2, 4])
def test_devectorize_rows_refuses_wrong_row_length(size):
    with pytest.raises(ValueError, match=rf"3 coefficients at dim 2, got shape \({size},\)"):
        devectorize_rows(np.ones(size), build_pauli_basis(1))


def test_vectorize_round_trip(rng):
    basis = build_pauli_basis(2)
    H = rand_hermitian(rng, 4)
    coeffs = vectorize(H, basis)
    assert coeffs.dtype == np.float64 and coeffs.shape == (15,)
    back = devectorize_rows(coeffs, basis) + np.trace(H) / 4.0 * np.eye(4)
    assert np.abs(back - H).max() < 1e-12


def test_vectorize_rejects_nonhermitian(rng):
    basis = build_pauli_basis(1)
    M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    with pytest.raises(ValueError):
        vectorize(M, basis)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_coefficients_round_trip_property(seed):
    basis = build_pauli_basis(1)
    coeffs = np.random.default_rng(seed).normal(size=3)
    H = devectorize_rows(coeffs, basis)
    assert np.abs(vectorize(H, basis) - coeffs).max() < 1e-12


def test_flat_metric_matches_traceless_hs(rng):
    basis = build_pauli_basis(2)
    m = MetricSpec(basis, np.ones(len(basis.labels)))
    H = rand_hermitian(rng, 4)
    traceless = H - np.trace(H) / 4.0 * np.eye(4)
    assert abs(omega_norm_raw(H, m) - hs_norm(traceless)) < 1e-12


def test_raw_norm_carries_no_prefactor(rng):
    # complexity carries 1/sqrt(N^2-1); the raw norm does not
    basis = build_pauli_basis(1)
    m = MetricSpec(basis, np.ones(len(basis.labels)))
    H = rand_hermitian(rng, 2)
    H = H - np.trace(H) / 2.0 * np.eye(2)
    assert abs(geometric_complexity_const(H, 1.0, m) - hs_norm(H) / np.sqrt(3.0)) < 1e-12
    assert abs(omega_norm_raw(H, m) - hs_norm(H)) < 1e-12


def test_weighted_norm_hand_example():
    basis = build_pauli_basis(1)
    m = MetricSpec(basis=basis, weights=np.array([1.0, 4.0, 9.0]))
    # H = x*sigma_x/sqrt(2) pieces with coefficients (1, 2, 1)
    coeffs = np.array([1.0, 2.0, 1.0])
    H = devectorize_rows(coeffs, basis)
    expected = np.sqrt(1 * 1 + 4 * 4 + 9 * 1)
    assert abs(omega_norm_raw(H, m) - expected) < 1e-12


def test_penalty_metric_weights():
    m = build_penalty_metric(2, 16.0)
    w = [string_weight(lab) for lab in m.basis.labels]
    for weight, lam in zip(w, m.weights):
        assert lam == (1.0 if weight <= 2 else 16.0)
    m3 = build_penalty_metric(3, 5.0)
    n_light = sum(1 for lab in m3.basis.labels if string_weight(lab) <= 2)
    assert np.sum(m3.weights == 1.0) == n_light


def test_penalty_metric_rejects_small_q():
    with pytest.raises(ValueError):
        build_penalty_metric(2, 0.5)


def test_metric_spec_rejects_weights_below_one():
    basis = build_pauli_basis(1)
    with pytest.raises(ValueError):
        MetricSpec(basis=basis, weights=np.array([1.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        MetricSpec(basis=basis, weights=np.ones(2))
