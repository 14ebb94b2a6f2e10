import numpy as np
import pytest

from conftest import rand_density, rand_pure

from channelgeo.algebra import (
    RandomVariable,
    SpectralEvents,
    TwoLevelCircuit,
    TwoLevelGate,
    algebraic_complexity,
    circuit_from_records,
    circuit_records,
    decompose_two_level,
    embed_gate,
    law,
    random_special_unitary,
    reconstruct,
    spectral_events,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(np.complex128)


def test_spectral_events_sigma_z():
    ev = spectral_events(SIGMA_Z)
    assert ev.outcomes == (-1.0, 1.0)
    assert np.abs(ev.projectors[0] - np.diag([0.0, 1.0])).max() < 1e-14
    assert np.abs(ev.projectors[1] - np.diag([1.0, 0.0])).max() < 1e-14


def test_spectral_events_merges_degenerate():
    ev = spectral_events(np.eye(3))
    assert len(ev.outcomes) == 1
    assert abs(ev.outcomes[0] - 1.0) < 1e-14
    assert np.abs(ev.projectors[0] - np.eye(3)).max() < 1e-14


def test_spectral_events_clustering_threshold():
    # middle eigenvalue sits within the clustering gap of the lowest
    A = np.diag([1.0, 1.0 + 1e-9, 3.0])
    ev = spectral_events(A, tol=1e-8)
    assert len(ev.outcomes) == 2
    assert ev.projectors[0].trace().real == pytest.approx(2.0, abs=1e-12)
    # tighten the tolerance and the pair separates
    ev_fine = spectral_events(A, tol=1e-12)
    assert len(ev_fine.outcomes) == 3


def test_spectral_events_reconstruct_observable(rng):
    from conftest import rand_hermitian

    A = rand_hermitian(rng, 4)
    ev = spectral_events(A)
    rebuilt = sum(x * P for x, P in zip(ev.outcomes, ev.projectors))
    assert np.abs(rebuilt - A).max() < 1e-8
    for x, P in zip(ev.outcomes, ev.projectors):
        assert np.abs(A @ P - x * P).max() < 1e-8


def test_spectral_events_tol_guard():
    with pytest.raises(ValueError):
        spectral_events(SIGMA_Z, tol=0.0)


@pytest.mark.parametrize(
    "projectors",
    [
        (2 * np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),  # not idempotent
        (np.diag([1.0, 1.0]), np.diag([0.0, 1.0])),  # overlapping
        (np.diag([1.0, 0.0]), np.zeros((2, 2))),  # sums short of I
        (np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 1.0]])),  # oblique
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 0.0])),  # mixed dimensions
    ],
    ids=["idempotent", "overlap", "incomplete", "hermitian", "dimension"],
)
def test_spectral_events_rejects_bad_projectors(projectors):
    with pytest.raises(ValueError):
        SpectralEvents(outcomes=(-1.0, 1.0), projectors=projectors, degeneracy_tol=1e-8)


def test_law_ground_state():
    probs = law(RandomVariable(observable=SIGMA_Z, state=np.diag([1.0, 0.0])))
    assert len(probs) == 2
    assert probs[0][0] == pytest.approx(-1.0)
    assert probs[0][1] == pytest.approx(0.0, abs=1e-14)
    assert probs[1][0] == pytest.approx(1.0)
    assert probs[1][1] == pytest.approx(1.0, abs=1e-14)


def test_law_sigma_x_mixed():
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    probs = law(RandomVariable(observable=sx, state=np.eye(2) / 2))
    assert [x for x, _ in probs] == [pytest.approx(-1.0), pytest.approx(1.0)]
    assert all(abs(p - 0.5) < 1e-14 for _, p in probs)


def test_law_sums_to_one(rng):
    from conftest import rand_hermitian

    for _ in range(10):
        rv = RandomVariable(observable=rand_hermitian(rng, 4), state=rand_density(rng, 4))
        probs = law(rv)
        assert abs(sum(p for _, p in probs) - 1.0) < 1e-9
        assert all(p >= -1e-10 for _, p in probs)


def test_random_variable_dim_mismatch(rng):
    with pytest.raises(ValueError):
        RandomVariable(observable=SIGMA_Z, state=rand_density(rng, 3))


def test_gate_validation():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)  # det = -1
    with pytest.raises(ValueError):
        TwoLevelGate(0, 1, h)
    with pytest.raises(ValueError):
        TwoLevelGate(1, 1, np.eye(2))
    with pytest.raises(ValueError):
        TwoLevelGate(0, 1, np.ones((2, 2)))
    g = TwoLevelGate(0, 1, 1j * h)  # det = +1
    assert np.abs(g.adjoint().block - (1j * h).conj().T).max() < 1e-15


def test_embed_gate_oracle():
    block = np.array([[0, 1j], [1j, 0]], dtype=np.complex128)
    g = TwoLevelGate(0, 2, block)
    E = embed_gate(g, 4)
    expect = np.eye(4, dtype=np.complex128)
    expect[0, 0] = 0.0
    expect[2, 2] = 0.0
    expect[0, 2] = 1j
    expect[2, 0] = 1j
    assert np.array_equal(E, expect)
    with pytest.raises(ValueError):
        embed_gate(g, 2)


def test_embed_gate_adjoint_commutes(rng):
    g = TwoLevelGate(1, 3, random_special_unitary(2, rng))
    assert np.abs(embed_gate(g.adjoint(), 4) - embed_gate(g, 4).conj().T).max() < 1e-12


def test_circuit_reduction(rng):
    g = TwoLevelGate(0, 1, random_special_unitary(2, rng))
    circ = TwoLevelCircuit(gates=(g, g.adjoint()))
    assert algebraic_complexity(circ) == 0
    circ2 = TwoLevelCircuit(gates=(TwoLevelGate(0, 1, np.eye(2)), g))
    assert algebraic_complexity(circ2) == 1
    # different index pairs do not cancel
    g2 = TwoLevelGate(0, 2, g.adjoint().block)
    assert algebraic_complexity(TwoLevelCircuit(gates=(g, g2))) == 2


def test_reconstruct_empty_is_identity():
    assert np.array_equal(reconstruct(TwoLevelCircuit(gates=()), 3), np.eye(3))


def test_reconstruct_order(rng):
    g1 = TwoLevelGate(0, 1, random_special_unitary(2, rng))
    g2 = TwoLevelGate(1, 2, random_special_unitary(2, rng))
    circ = TwoLevelCircuit(gates=(g1, g2))
    expect = embed_gate(g2, 3) @ embed_gate(g1, 3)
    assert np.abs(reconstruct(circ, 3) - expect).max() < 1e-14


def test_reconstruct_matches_embedded_product(rng):
    N = 16
    gates = []
    for _ in range(40):
        a, b = sorted(int(i) for i in rng.choice(N, size=2, replace=False))
        gates.append(TwoLevelGate(a, b, random_special_unitary(2, rng)))
    circ = TwoLevelCircuit(gates=tuple(gates))
    expect = np.eye(N, dtype=np.complex128)
    for g in circ.gates:
        expect = embed_gate(g, N) @ expect
    assert np.abs(reconstruct(circ, N) - expect).max() < 1e-14
    with pytest.raises(ValueError):
        reconstruct(circ, max(g.b for g in circ.gates))


def test_decompose_identity_is_empty():
    circ = decompose_two_level(np.eye(4))
    assert algebraic_complexity(circ) == 0


def test_decompose_su2_single_gate(rng):
    U = random_special_unitary(2, rng)
    circ = decompose_two_level(U)
    assert algebraic_complexity(circ) <= 1
    assert np.abs(reconstruct(circ, 2) - U).max() < 1e-9


def test_decompose_diagonal_is_sparse():
    th = 0.7
    U = np.diag(np.exp(1j * np.array([th, -th, 0.5, -0.5])))
    circ = decompose_two_level(U)
    # nothing to eliminate below the diagonal; only phase gates remain
    assert algebraic_complexity(circ) <= 3
    assert np.abs(reconstruct(circ, 4) - U).max() < 1e-9


def test_decompose_round_trip(rng):
    for N in (2, 4, 8):
        for _ in range(10):
            U = random_special_unitary(N, rng)
            circ = decompose_two_level(U)
            assert algebraic_complexity(circ) <= N * (N - 1) // 2
            assert np.abs(reconstruct(circ, N) - U).max() < 1e-9


def test_decompose_rejects_nonspecial():
    U = np.diag([1j, 1.0]).astype(np.complex128)  # det = 1j
    with pytest.raises(ValueError):
        decompose_two_level(U)


def test_serialization_round_trip(rng):
    U = random_special_unitary(4, rng)
    circ = decompose_two_level(U)
    records = circuit_records(circ)
    back = circuit_from_records(records)
    assert algebraic_complexity(back) == algebraic_complexity(circ)
    assert np.abs(reconstruct(back, 4) - U).max() < 1e-9
    # records are plain JSON types
    import json

    json.dumps(records)


def test_random_special_unitary_properties(rng):
    for N in (2, 5):
        U = random_special_unitary(N, rng)
        assert np.abs(U.conj().T @ U - np.eye(N)).max() < 1e-12
        assert abs(np.linalg.det(U) - 1.0) < 1e-10


def test_projector_weighting_matches_state(rng):
    # P_k rho P_k traces recover the law probabilities
    from conftest import rand_hermitian

    A = rand_hermitian(rng, 3)
    rho = rand_pure(rng, 3)
    ev = spectral_events(A)
    probs = law(RandomVariable(observable=A, state=rho))
    for (x, p), P in zip(probs, ev.projectors):
        assert abs(p - float(np.trace(P @ rho).real)) < 1e-12


def test_decompose_validates_each_block_once(rng, monkeypatch):
    from channelgeo import algebra

    calls = []
    checked = algebra.unitary

    def counting(M):
        calls.append(1)
        return checked(M)

    monkeypatch.setattr(algebra, "unitary", counting)
    U = random_special_unitary(6, rng)
    circ = decompose_two_level(U)
    # the input once, then each Givens or phase block once; adjoints are not re-checked
    assert len(calls) == 1 + algebraic_complexity(circ)
    for g in circ.gates:
        same = TwoLevelGate(g.a, g.b, g.block)
        assert np.array_equal(same.block, g.block)
    assert np.abs(reconstruct(circ, 6) - U).max() < 1e-9
