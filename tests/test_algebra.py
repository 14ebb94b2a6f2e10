import numpy as np
import pytest

from conftest import rand_density, rand_pure

from channelgeo.algebra import (
    ELIMINATION_SKIP_TOL,
    GATE_IDENTITY_TOL,
    RandomVariable,
    SpectralEvents,
    TwoLevelCircuit,
    algebraic_complexity,
    circuit_records,
    decompose_two_level,
    law,
    random_special_unitary,
    reconstruct,
    spectral_events,
)
from channelgeo.operators import hs_norm

SIGMA_Z = np.diag([1.0, -1.0]).astype(np.complex128)


def embed_gate(a: int, b: int, block: np.ndarray, N: int) -> np.ndarray:
    """Dense oracle: the 2x2 block at rows/columns (a, b) of an N x N identity."""
    if b >= N:
        raise ValueError(f"Gate touches index {b}, matrix has dimension {N}.")
    out = np.eye(N, dtype=np.complex128)
    out[a, a] = block[0, 0]
    out[a, b] = block[0, 1]
    out[b, a] = block[1, 0]
    out[b, b] = block[1, 1]
    return out


def circuit_from_records(records: list[dict]) -> TwoLevelCircuit:
    """Inverse of circuit_records, through the checked TwoLevelCircuit."""
    pairs = [(rec["a"], rec["b"]) for rec in records]
    blocks = [[[complex(re, im) for re, im in row] for row in rec["block"]] for rec in records]
    return TwoLevelCircuit(pairs, blocks)


def circuit(*gates) -> TwoLevelCircuit:
    """A circuit from (a, b, block) gates, in application order."""
    return TwoLevelCircuit([(a, b) for a, b, _ in gates], [B for _, _, B in gates])


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


_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)  # det = -1


def test_gate_validation():
    # Two good gates first, so each message must name the bad one's index.
    good_pairs, good_blocks = [(0, 1), (1, 2)], [1j * _H, 1j * _H]
    for pair, block, why in [
        ((0.5, 1), 1j * _H, "indices must be 64-bit integers"),
        ((True, 2), 1j * _H, "indices must be 64-bit integers"),
        ((0, 2**63), 1j * _H, "indices must be 64-bit integers"),
        ((1, 1), np.eye(2), "need 0 <= a < b"),
        ((-1, 1), np.eye(2), "need 0 <= a < b"),
        ((0, 1), np.diag([np.nan, 1.0]), "block entries must be finite"),
        ((0, 1), np.ones((2, 2)), "block is not unitary"),
        ((0, 1), _H, "block determinant is not 1"),
    ]:
        with pytest.raises(ValueError, match=rf"^Gate 2 on \({pair[0]!r}, {pair[1]!r}\): {why}"):
            TwoLevelCircuit(good_pairs + [pair], good_blocks + [block])


def test_circuit_shapes_and_adjoint():
    with pytest.raises(ValueError, match="Need"):
        TwoLevelCircuit([(0, 1), (0, 2)], [1j * _H])
    with pytest.raises(ValueError, match="Need"):
        TwoLevelCircuit([0, 1], [1j * _H])
    g = TwoLevelCircuit([(0, 1)], [1j * _H])  # det = +1
    inverse = TwoLevelCircuit(g.pairs, g.gates.conj().transpose(0, 2, 1))  # special unitary too
    assert np.abs(inverse.gates[0] - (1j * _H).conj().T).max() < 1e-15
    assert g.pairs.dtype == np.int64 and g.gates.dtype == np.complex128
    with pytest.raises(ValueError):  # checked once, then read-only
        g.gates[0, 0, 0] = 0.0


def test_embed_gate_oracle():
    block = np.array([[0, 1j], [1j, 0]], dtype=np.complex128)
    E = embed_gate(0, 2, block, 4)
    expect = np.eye(4, dtype=np.complex128)
    expect[0, 0] = 0.0
    expect[2, 2] = 0.0
    expect[0, 2] = 1j
    expect[2, 0] = 1j
    assert np.array_equal(E, expect)
    with pytest.raises(ValueError):
        embed_gate(0, 2, block, 2)


def test_embed_gate_adjoint_commutes(rng):
    B = random_special_unitary(2, rng)
    assert np.abs(embed_gate(1, 3, B.conj().T, 4) - embed_gate(1, 3, B, 4).conj().T).max() < 1e-12


def test_circuit_reduction(rng):
    B = random_special_unitary(2, rng)
    circ = circuit((0, 1, B), (0, 1, B.conj().T))
    assert algebraic_complexity(circ) == 0
    circ2 = circuit((0, 1, np.eye(2)), (0, 1, B))
    assert algebraic_complexity(circ2) == 1
    # different index pairs do not cancel
    assert algebraic_complexity(circuit((0, 1, B), (0, 2, B.conj().T))) == 2


def test_reconstruct_empty_is_identity():
    assert np.array_equal(reconstruct(TwoLevelCircuit([], []), 3), np.eye(3))


def test_reconstruct_order(rng):
    B1, B2 = random_special_unitary(2, rng), random_special_unitary(2, rng)
    circ = circuit((0, 1, B1), (1, 2, B2))
    expect = embed_gate(1, 2, B2, 3) @ embed_gate(0, 1, B1, 3)
    assert np.abs(reconstruct(circ, 3) - expect).max() < 1e-14


def test_reconstruct_matches_embedded_product(rng):
    N = 16
    gates = []
    for _ in range(40):
        a, b = sorted(int(i) for i in rng.choice(N, size=2, replace=False))
        gates.append((a, b, random_special_unitary(2, rng)))
    circ = circuit(*gates)
    expect = np.eye(N, dtype=np.complex128)
    for (a, b), B in zip(circ.pairs.tolist(), circ.gates):
        expect = embed_gate(a, b, B, N) @ expect
    assert np.abs(reconstruct(circ, N) - expect).max() < 1e-14
    with pytest.raises(ValueError):
        reconstruct(circ, int(circ.pairs[:, 1].max()))


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
    # the input once; the circuit checks the Givens and phase blocks as one stack
    assert len(calls) == 1
    same = TwoLevelCircuit(circ.pairs, circ.gates)
    assert np.array_equal(same.pairs, circ.pairs) and np.array_equal(same.gates, circ.gates)
    assert np.abs(reconstruct(circ, 6) - U).max() < 1e-9


def _sequential_decompose(U: np.ndarray) -> TwoLevelCircuit:
    """Reference: Givens elimination one rotation at a time, as decompose_two_level
    computed it before it took a column's cascade at once."""
    N = U.shape[0]
    A = np.array(U, dtype=np.complex128)
    applied = []
    for c in range(N - 1):
        for b in range(N - 1, c, -1):
            if abs(A[b, c]) <= ELIMINATION_SKIP_TOL:
                A[b, c] = 0.0
                continue
            r = float(np.hypot(abs(A[c, c]), abs(A[b, c])))
            alpha = A[c, c].conj() / r
            beta = A[b, c].conj() / r
            G = np.array([[alpha, beta], [-beta.conj(), alpha.conj()]])
            A[[c, b], :] = G @ A[[c, b], :]
            A[b, c] = 0.0
            applied.append((c, b, G))
    for k in range(N - 1):
        mag = abs(A[k, k])
        phase = A[k, k] / mag if mag > 0 else 1.0
        if abs(phase - 1.0) <= GATE_IDENTITY_TOL:
            continue
        applied.append((k, k + 1, np.diag([phase.conj(), phase]).astype(np.complex128)))
        A[k + 1, k + 1] = A[k + 1, k + 1] * phase
        A[k, k] = 1.0
    return circuit(*((a, b, B.conj().T) for a, b, B in reversed(applied)))


def _block_diag(*blocks):
    N = sum(len(b) for b in blocks)
    out = np.zeros((N, N), dtype=np.complex128)
    i = 0
    for b in blocks:
        out[i : i + len(b), i : i + len(b)] = b
        i += len(b)
    return out


def _small_rotation(N, x, rng):
    """A rotation by x in rows (0, 3) after a Haar SU(N-1) on rows 1..N-1, so
    that column 0 holds cos x and sin x and nothing else."""
    G = np.eye(N, dtype=np.complex128)
    G[[0, 0, 3, 3], [0, 3, 0, 3]] = np.cos(x), -np.sin(x), np.sin(x), np.cos(x)
    return G @ _block_diag(np.eye(1), random_special_unitary(N - 1, rng))


def _oracle_inputs():
    rng = np.random.default_rng(2027)
    cases = [(f"haar-{N}-{k}", random_special_unitary(N, rng))
             for N in (2, 3, 4, 8, 16, 64) for k in range(1 if N == 64 else 3)]
    shift = np.roll(np.eye(5, dtype=np.complex128), 1, axis=0)  # every pivot a_c = 0
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
    phases[-1] /= np.prod(phases) * np.linalg.det(shift)
    cases.append(("permutation", shift * phases))
    diag = np.exp(1j * np.array([0.7, -0.2, 1.1, 0.4, -0.3, 0.2]))
    cases.append(("diagonal", np.diag(diag / np.prod(diag) ** (1 / 6))))
    blocks = [random_special_unitary(n, rng) for n in (3, 2, 3)]
    cases.append(("block-sparse", _block_diag(*blocks)))
    for scale in (0.5, 2.0):
        cases.append((f"skip-tol-x{scale}", _small_rotation(6, scale * ELIMINATION_SKIP_TOL, rng)))
    return cases


_ORACLE = _oracle_inputs()


@pytest.mark.parametrize("U", [u for _, u in _ORACLE], ids=[name for name, _ in _ORACLE])
def test_decompose_matches_the_sequential_elimination(U):
    got, want = decompose_two_level(U), _sequential_decompose(U)
    assert np.array_equal(got.pairs, want.pairs)
    for g, w in zip(got.gates, want.gates):
        assert np.abs(g - w).max() <= 1e-13
    assert hs_norm(reconstruct(got, len(U)) - U) <= 1e-12


def test_oracle_inputs_reach_the_skip_rule(monkeypatch):
    # Below the skip tolerance column 0 takes no rotation; above it, one,
    # which the circuit then drops as an identity block.
    from channelgeo import algebra

    made = []
    make = algebra.TwoLevelCircuit
    monkeypatch.setattr(algebra, "TwoLevelCircuit",
                        lambda pairs, gates: made.extend(pairs) or make(pairs, gates))
    for scale, rotated in ((0.5, False), (2.0, True)):
        U = dict(_ORACLE)[f"skip-tol-x{scale}"]
        assert abs(U[3, 0]) == scale * ELIMINATION_SKIP_TOL
        made.clear()
        word = decompose_two_level(U)
        assert ((0, 3) in made) == rotated
        assert [0, 3] not in word.pairs.tolist()
