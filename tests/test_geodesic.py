import hashlib

import numpy as np
import pytest
import scipy.linalg

from conftest import rand_hermitian, rand_unitary

from channelgeo import geodesic
from channelgeo.geodesic import (
    PiecewiseConstantPath,
    check_cost_chain,
    constant_path,
    cost_l1,
    estimate_cc_distance,
    geometric_complexity_const,
    log_distance,
    log_norms,
    path_endpoint,
    path_length,
    principal_log_generator,
)
from channelgeo.operators import hs_norm, matrix_abs
from channelgeo.pauli import MetricSpec, build_pauli_basis, build_penalty_metric

SIGMA_Z = np.diag([1.0, -1.0]).astype(np.complex128)


def test_sigma_z_closed_form():
    # ||sigma_z||_HS = sqrt(2), d = 2, so the value is sqrt(2/3)
    val = geometric_complexity_const(SIGMA_Z, 1.0)
    assert abs(val - np.sqrt(2.0 / 3.0)) < 1e-14
    assert type(val) is float  # a report scalar, not a numpy.float64


def test_constant_path_matches_closed_form(rng):
    for d in (2, 3, 4):
        H = rand_hermitian(rng, d)
        t = float(rng.uniform(0.1, 3.0))
        p = constant_path(H, t)
        assert abs(path_length(p) - geometric_complexity_const(H, t)) < 1e-12


def test_traceful_generator_counts_trace_part():
    H = np.diag([2.0, 2.0]).astype(np.complex128)
    val = geometric_complexity_const(H, 1.0)
    assert abs(val - hs_norm(H) / np.sqrt(3.0)) < 1e-14
    assert val > 0.0


def test_abs_spectrum_invariance(rng):
    for _ in range(20):
        H = rand_hermitian(rng, 3)
        t = float(rng.uniform(0.0, 2.0))
        a = geometric_complexity_const(H, t)
        b = geometric_complexity_const(matrix_abs(H), t)
        assert abs(a - b) < 1e-12


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        geometric_complexity_const(SIGMA_Z, -0.1)


def test_path_validation():
    with pytest.raises(ValueError, match="segments"):
        PiecewiseConstantPath(segments=())
    with pytest.raises(ValueError):
        PiecewiseConstantPath(segments=((SIGMA_Z, 0.0),))
    with pytest.raises(ValueError):
        PiecewiseConstantPath(segments=((SIGMA_Z, 1.0), (np.eye(3), 1.0)))


def test_path_endpoint_ordering(rng):
    A = rand_hermitian(rng, 3)
    B = rand_hermitian(rng, 3)
    p = PiecewiseConstantPath(segments=((A, 0.4), (B, 0.9)))
    oracle = scipy.linalg.expm(-0.9j * B) @ scipy.linalg.expm(-0.4j * A)
    assert np.abs(path_endpoint(p) - oracle).max() < 1e-12


def test_path_length_sums_segments(rng):
    A = rand_hermitian(rng, 2)
    B = rand_hermitian(rng, 2)
    p = PiecewiseConstantPath(segments=((A, 0.3), (B, 0.5)))
    expect = (0.3 * hs_norm(A) + 0.5 * hs_norm(B)) / np.sqrt(3.0)
    assert abs(path_length(p) - expect) < 1e-12
    assert type(path_length(p)) is float


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
def test_principal_log_round_trip(rng, d):
    for _ in range(10):
        U = rand_unitary(rng, d)
        G = principal_log_generator(U)
        assert np.abs(scipy.linalg.expm(-1j * G) - U).max() < 1e-13
        evals = np.linalg.eigvalsh(G)
        assert evals.min() >= -np.pi - 1e-12
        assert evals.max() < np.pi
        assert np.abs(G - 1j * scipy.linalg.logm(U)).max() < 1e-12


def _with_phases(rng, phases):
    Q = rand_unitary(rng, len(phases))
    return (Q * phases) @ Q.conj().T


@pytest.mark.parametrize("d", [4, 8, 16])
def test_principal_log_degenerate_spectrum(rng, d):
    for _ in range(10):
        U = _with_phases(rng, np.repeat(np.exp(1j * rng.uniform(-np.pi, np.pi, d // 2)), 2))
        G = principal_log_generator(U)
        assert np.abs(scipy.linalg.expm(-1j * G) - U).max() < 1e-13
        assert np.abs(G - 1j * scipy.linalg.logm(U)).max() < 1e-12


def test_principal_log_branch_at_minus_one(rng):
    U = np.diag([-1.0 + 0.0j, 1.0 + 0.0j])
    G = principal_log_generator(U)
    evals = np.sort(np.linalg.eigvalsh(G))
    assert abs(evals[0] + np.pi) < 1e-12
    assert abs(evals[1]) < 1e-12
    # -1 in a random basis takes the same branch
    for d in (2, 3, 4, 8, 16):
        for _ in range(10):
            phases = np.exp(1j * rng.uniform(-3.0, 3.0, d))
            phases[0] = -1.0
            G = principal_log_generator(_with_phases(rng, phases))
            evals = np.linalg.eigvalsh(G)
            assert abs(evals[0] + np.pi) < 1e-12
            assert evals[-1] < 3.0 + 1e-12
    for d in (2, 4):
        assert np.abs(principal_log_generator(np.eye(d))).max() == 0.0
        assert np.abs(principal_log_generator(-np.eye(d)) + np.pi * np.eye(d)).max() < 1e-15


def test_log_distance_properties(rng):
    U = rand_unitary(rng, 3)
    W = rand_unitary(rng, 3)
    V = rand_unitary(rng, 3)
    A = rand_unitary(rng, 3)
    assert log_distance(U, U) < 1e-12
    d0 = log_distance(U, W)
    assert abs(log_distance(A @ U, A @ W) - d0) < 1e-10
    assert abs(log_distance(U @ A, W @ A) - d0) < 1e-10
    assert d0 <= log_distance(U, V) + log_distance(V, W) + 1e-10


def test_log_norms_stack_matches_log_distance(rng):
    W = rand_unitary(rng, 4)
    Us = np.stack([rand_unitary(rng, 4) for _ in range(5)])
    got = log_norms(W.conj().T @ Us)
    assert got.shape == (5,)
    for U, g in zip(Us, got):
        assert abs(g - log_distance(W, U)) < 1e-14


def test_log_distance_shape_mismatch():
    with pytest.raises(ValueError):
        log_distance(np.eye(2), np.eye(3))


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_flat_estimate_is_principal_log_path(d):
    """The flat distance needs no search: the principal-log path from U to V
    ends on V U† and its length is log_distance."""
    rng = np.random.default_rng(d)
    U = rand_unitary(rng, d)
    V = rand_unitary(rng, d)
    path = constant_path(principal_log_generator(V @ U.conj().T), 1.0)
    assert abs(path_length(path) - log_distance(U, V)) <= 1e-12
    assert hs_norm(path_endpoint(path) - V @ U.conj().T) <= 1e-12


def test_estimate_weighted_not_above_log_init(rng):
    basis = build_pauli_basis(1)
    m = MetricSpec(basis=basis, weights=np.array([1.0, 1.0, 4.0]))
    U = rand_unitary(rng, 2)
    est = estimate_cc_distance(np.eye(2), U, m=m, segments=4, restarts=2)
    G = principal_log_generator(U)
    assert est.endpoint_error <= 1e-6
    assert est.length <= path_length(constant_path(G, 1.0), m) + 1e-9
    # reported length agrees with the public path functional
    assert abs(est.length - path_length(est.path, m)) < 1e-9


def _qubit_metric(weights):
    return MetricSpec(basis=build_pauli_basis(1), weights=np.array(weights, dtype=float))


def _path_sha1(path):
    h = hashlib.sha1()
    for H, ds in path.segments:
        h.update(H.tobytes())
        h.update(np.float64(ds).tobytes())
    return h.hexdigest()


# Weighted estimates pinned bit for bit: length.hex() and the SHA-1 of the
# path's segment bytes. Each floor is the length the penalty-method search
# gave for the same case before the endpoint was closed exactly; the closed
# search must not lose it.
@pytest.mark.parametrize(
    "metric, u_seed, segments, restarts, seed, length, path_sha1, floor",
    [
        (lambda: _qubit_metric([1, 1, 4]), 3, 4, 2, 0, "0x1.c0fb113bb8d5ep-1",
         "9253162d58fb177b4063223183333aba4bcc2fdf", "0x1.eba8b4faa42d0p-1"),
        (lambda: _qubit_metric([1, 2, 3]), 3, 3, 3, 5, "0x1.07ca2ee2ce520p+0",
         "bf8d835cda04e4383789ccf88cbdb5219bc64b90", "0x1.0c4dcc3d229edp+0"),
        (lambda: build_penalty_metric(2, 4.0), 3, 2, 2, 1, "0x1.f59b9cd71a180p-1",
         "1533300600c892f79e32fcda8b9149c5b6dff386", "0x1.0316519d1ee97p+0"),
        (lambda: _qubit_metric([1, 1, 4]), 4, 2, 3, 0, "0x1.63c5a7161d776p+0",
         "93d345ea0878ad0f847f8af1265a0a498247b395", "0x1.a00ddf7cdafcdp+0"),
    ],
    ids=["d2-weights-1-1-4", "d2-weights-1-2-3", "d4-penalty-q4", "d2-penalty-rounds"],
)
def test_weighted_estimate_is_pinned(
    metric, u_seed, segments, restarts, seed, length, path_sha1, floor
):
    m = metric()
    U = rand_unitary(np.random.default_rng(u_seed), m.basis.dim)
    est = estimate_cc_distance(
        np.eye(m.basis.dim), U, m=m, segments=segments, restarts=restarts, seed=seed
    )
    assert est.length <= float.fromhex(floor)
    assert est.length.hex() == length
    assert est.endpoint_error <= 1e-12
    assert _path_sha1(est.path) == path_sha1
    assert est.restarts_used == restarts


def _pu_distance(U):
    """The bi-invariant PU(d) distance from the identity: the flat traceless
    length of the shortest branch of log U, over the d cyclic cuts of its
    sorted eigenangles. Weights are at least 1 and the identity coordinate is
    free, so it bounds every weighted distance from below."""
    d = len(U)
    a = np.sort(np.angle(np.linalg.eigvals(U)))
    cuts = a + 2 * np.pi * (np.arange(d)[:, None] > np.arange(d))  # row c lifts the first c
    spread = np.sqrt(np.sum((cuts - cuts.mean(axis=1, keepdims=True)) ** 2, axis=1))
    return float(spread.min()) / np.sqrt(d**2 - 1)


@pytest.mark.parametrize("n, segments, restarts", [(1, 3, 2), (2, 2, 1)])
def test_weighted_estimate_is_bracketed(n, segments, restarts):
    rng = np.random.default_rng(19 + n)
    basis = build_pauli_basis(n)
    for _ in range(20):
        m = MetricSpec(basis=basis, weights=rng.uniform(1.0, 4.0, size=len(basis.labels)))
        U = rand_unitary(rng, basis.dim)
        est = estimate_cc_distance(
            np.eye(basis.dim), U, m=m, segments=segments, restarts=restarts,
            seed=int(rng.integers(2**31)),
        )
        log_path = path_length(constant_path(principal_log_generator(U), 1.0), m)
        assert _pu_distance(U) <= est.length <= log_path + 1e-12
        assert est.endpoint_error <= 1e-12
        assert abs(est.length - path_length(est.path, m)) <= 1e-12


def test_weighted_restarts_search_in_lockstep(monkeypatch):
    search = geodesic.coordinate_search
    stacks = []

    def counted(f, x0, **kwargs):
        stacks.append(np.shape(x0))
        return search(f, x0, **kwargs)

    monkeypatch.setattr(geodesic, "coordinate_search", counted)
    est = estimate_cc_distance(
        np.eye(2), rand_unitary(np.random.default_rng(3), 2), m=_qubit_metric([1, 1, 4]),
        segments=3, restarts=4,
    )
    assert est.endpoint_error <= 1e-12
    # one call on the stack of every restart's K - 1 free segments
    assert stacks == [(4, 2 * 4)]


def test_weighted_estimate_needs_two_segments():
    with pytest.raises(ValueError, match="segments"):
        estimate_cc_distance(np.eye(2), np.eye(2), m=_qubit_metric([1, 1, 4]), segments=1)


def test_estimate_argument_guards():
    m = _qubit_metric([1, 1, 4])
    with pytest.raises(ValueError, match="segments"):
        estimate_cc_distance(np.eye(2), np.eye(2), m=m, segments=0)
    with pytest.raises(ValueError, match="restarts"):
        estimate_cc_distance(np.eye(2), np.eye(2), m=m, restarts=0)
    with pytest.raises(ValueError):
        estimate_cc_distance(np.eye(2), np.eye(3), m=m)


def test_cost_l1_hand_example():
    basis = build_pauli_basis(1)
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    H = (1.5 * sx + 2.0 * SIGMA_Z) / np.sqrt(2.0)
    p = constant_path(H, 2.0)
    assert abs(cost_l1(p, basis) - 2.0 * (1.5 + 2.0)) < 1e-12


def test_cost_chain_holds(rng):
    basis = build_pauli_basis(2)
    for _ in range(10):
        segs = tuple(
            (rand_hermitian(rng, 4), float(rng.uniform(0.1, 1.0))) for _ in range(3)
        )
        rec = check_cost_chain(PiecewiseConstantPath(segments=segs), basis)
        assert rec["bound_holds"]
        assert rec["cost"] <= rec["bound"] + 1e-12
