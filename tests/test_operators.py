import numpy as np
import pytest
from conftest import rand_density, rand_hermitian, rand_unitary

from channelgeo.operators import (
    commutator,
    density,
    hermitian,
    hs_norm,
    matrix_abs,
    matrix_exp_unitary,
    partial_trace_env,
    projector_family,
    sqrt_abs_diff,
    tensor,
    unitary,
)


def taylor_exp(H: np.ndarray, t: float, order: int = 30) -> np.ndarray:
    """Series oracle for exp(-i t H), independent of eigendecomposition."""
    d = H.shape[0]
    out = np.eye(d, dtype=np.complex128)
    term = np.eye(d, dtype=np.complex128)
    for k in range(1, order + 1):
        term = term @ (-1j * t * H) / k
        out = out + term
    return out


def test_hermitian_accepts_and_fixes_nothing(rng):
    H = rand_hermitian(rng, 3)
    out = hermitian(H)
    assert np.array_equal(out, H.astype(np.complex128))


def test_hermitian_rejects_asymmetric(rng):
    H = rand_hermitian(rng, 3)
    H[0, 1] += 1e-6
    with pytest.raises(ValueError):
        hermitian(H)


def test_hermitian_rejects_nonsquare():
    with pytest.raises(ValueError):
        hermitian(np.zeros((2, 3)))


def test_unitary_accepts_and_rejects(rng):
    U = rand_unitary(rng, 4)
    unitary(U)
    with pytest.raises(ValueError):
        unitary(U * 1.01)


def test_density_checks_trace_and_positivity(rng):
    rho = rand_density(rng, 3)
    density(rho)
    with pytest.raises(ValueError):
        density(2.0 * rho)
    bad = rho - 0.5 * np.eye(3)
    bad = bad / np.trace(bad).real
    with pytest.raises(ValueError):
        density(bad)


def test_matrix_exp_against_series(rng):
    for d in (2, 3, 4):
        H = rand_hermitian(rng, d)
        t = rng.uniform(0.1, 1.0)
        U = matrix_exp_unitary(H, t)
        assert np.abs(U - taylor_exp(H, t)).max() < 1e-12
        assert np.abs(U @ U.conj().T - np.eye(d)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
def test_matrix_exp_of_a_stack_matches_each_matrix_bit_for_bit(rng, d):
    H = np.stack([np.stack([rand_hermitian(rng, d) for _ in range(3)]) for _ in range(5)])
    U = matrix_exp_unitary(H, 0.37)
    assert U.shape == (5, 3, d, d)
    for i, j in np.ndindex(5, 3):
        assert np.array_equal(U[i, j], matrix_exp_unitary(H[i, j], 0.37))


def test_matrix_abs_squares_back(rng):
    H = rand_hermitian(rng, 4)
    P = matrix_abs(H)
    w = np.linalg.eigvalsh(P)
    assert w.min() > -1e-12
    assert np.abs(P @ P - H @ H).max() < 1e-10
    assert np.abs(commutator(P, H)).max() < 1e-10


def test_sqrt_abs_diff_squares_to_abs_difference(rng):
    A = rand_hermitian(rng, 4)
    B = rand_hermitian(rng, 4)
    R = sqrt_abs_diff(A, B)
    X = A @ A - B @ B
    X = (X + X.conj().T) / 2
    assert np.abs(R @ R - matrix_abs(X)).max() < 1e-9
    assert hs_norm(sqrt_abs_diff(A, A)) == 0.0


def test_hs_inner_and_norm_match_trace_formula(rng):
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert abs(np.vdot(A, B) - np.trace(A.conj().T @ B)) < 1e-12
    assert abs(hs_norm(A) - np.sqrt(np.trace(A.conj().T @ A).real)) < 1e-12


def test_tensor_and_embedding():
    sz = np.diag([1.0, -1.0]).astype(np.complex128)
    assert np.array_equal(np.kron(sz, np.eye(2)), np.diag([1.0, 1.0, -1.0, -1.0]))
    A = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    assert np.array_equal(tensor(A, np.eye(2)), np.kron(A, np.eye(2)))


def test_embedding_scales_hs_norm(rng):
    H = rand_hermitian(rng, 3)
    for d_E in (2, 3, 4):
        assert abs(hs_norm(np.kron(H, np.eye(d_E))) - np.sqrt(d_E) * hs_norm(H)) < 1e-12


def partial_trace_loop(rho, d_S, d_E):
    out = np.zeros((d_S, d_S), dtype=np.complex128)
    for i in range(d_S):
        for j in range(d_S):
            for a in range(d_E):
                out[i, j] += rho[i * d_E + a, j * d_E + a]
    return out


def test_partial_trace_against_loop_oracle(rng):
    for d_S, d_E in ((2, 2), (2, 3), (3, 2)):
        rho = rand_density(rng, d_S * d_E)
        got = partial_trace_env(rho, d_S, d_E)
        assert np.abs(got - partial_trace_loop(rho, d_S, d_E)).max() < 1e-13


def test_partial_trace_of_product_state(rng):
    rho_S = rand_density(rng, 2)
    rho_E = rand_density(rng, 3)
    got = partial_trace_env(tensor(rho_S, rho_E), 2, 3)
    assert np.abs(got - rho_S).max() < 1e-12


def test_embedding_adjoint_identity(rng):
    # <A (x) I, X> = <A, Tr_E X> for all X
    A = rand_hermitian(rng, 2)
    X = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    lhs = np.vdot(np.kron(A, np.eye(3)), X)
    rhs = np.vdot(A, partial_trace_env(X, 2, 3))
    assert abs(lhs - rhs) < 1e-12


def test_commutator_antisymmetry(rng):
    A = rand_hermitian(rng, 3)
    B = rand_hermitian(rng, 3)
    assert np.abs(commutator(A, B) + commutator(B, A)).max() < 1e-14


def test_projector_family_names_the_first_overlapping_pair():
    e = [np.diag(np.eye(3)[k]) for k in range(3)]
    # Pairs (1, 4) and (2, 3) overlap; row order names (1, 4) first.
    msg = r"^Projectors 1 and 4 are not orthogonal \(deviation 1\.000e\+00\)\.$"
    with pytest.raises(ValueError, match=msg):
        projector_family([e[0], e[1], e[2], e[2], e[1]])
