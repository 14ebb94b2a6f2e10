"""Operator-valued probability and two-level gate synthesis.

An observable paired with a state is a noncommutative random variable:
its spectral projectors are the events, the induced trace weights are
the law. Unitaries factor into two-level special unitaries by Givens
elimination, giving a constructive gate dictionary with at most
N(N-1)/2 factors. A gate word is two arrays, the (G, 2) index pairs and
the (G, 2, 2) blocks, checked once when the circuit is built.

A column's cascade of rotations is computed at once. A rotation takes the
pivot row P (entry p) and row R_b (entry a_b) to (conj(p) P + conj(a_b) R_b)/r,
r = sqrt(|p|^2 + |a_b|^2), and leaves the pivot entry r real. So the alphas
telescope: after rows N-1 down to b the pivot row is
(conj(a_c) R_c + sum_{j>=b} conj(a_j) R_j) / r_b, with r_b the reverse
cumulative norm of the column.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import UNITARY_TOL, density, hermitian, projector_family, unitary

PROB_FLOOR = -1e-10
PROB_SUM_TOL = 1e-9
BLOCK_DET_TOL = 1e-10
GATE_IDENTITY_TOL = 1e-10
DECOMPOSE_DET_TOL = 1e-8
ELIMINATION_SKIP_TOL = 1e-13
DEGENERACY_TOL_DEFAULT = 1e-8


@dataclass(frozen=True)
class RandomVariable:
    """Observable and state on the same matrix algebra."""

    observable: np.ndarray
    state: np.ndarray

    def __post_init__(self) -> None:
        A = hermitian(self.observable)
        rho = density(self.state)
        if A.shape != rho.shape:
            raise ValueError(
                f"Observable is {A.shape}, state is {rho.shape}; dimensions differ."
            )
        object.__setattr__(self, "observable", A)
        object.__setattr__(self, "state", rho)


@dataclass(frozen=True)
class SpectralEvents:
    """Clustered eigenprojectors of an observable.

    Outcomes are strictly increasing; projectors pass
    operators.projector_family. Eigenvalues closer than the clustering
    threshold share one projector.
    """

    outcomes: tuple
    projectors: tuple
    degeneracy_tol: float

    def __post_init__(self) -> None:
        if len(self.outcomes) != len(self.projectors):
            raise ValueError("One projector per outcome required.")
        if len(self.outcomes) == 0:
            raise ValueError("At least one spectral event required.")
        vals = np.asarray(self.outcomes, dtype=float)
        if np.any(np.diff(vals) <= 0):
            raise ValueError("Outcomes must be strictly increasing.")
        projector_family(self.projectors)


def spectral_events(A: np.ndarray, tol: float = DEGENERACY_TOL_DEFAULT) -> SpectralEvents:
    """Eigen-decompose A and merge eigenvalues within tol of each other,
    measured relative to the spectral range."""
    if tol <= 0:
        raise ValueError(f"Clustering tolerance must be positive, got {tol!r}.")
    w, V = np.linalg.eigh(hermitian(A))
    spread = float(w[-1] - w[0])
    gap = tol * spread
    outcomes = []
    projectors = []
    start = 0
    for k in range(1, len(w) + 1):
        if k < len(w) and w[k] - w[k - 1] <= gap:
            continue
        block = V[:, start:k]
        outcomes.append(float(w[start:k].mean()))
        projectors.append(block @ block.conj().T)
        start = k
    return SpectralEvents(
        outcomes=tuple(outcomes), projectors=tuple(projectors), degeneracy_tol=tol
    )


def law(rv: RandomVariable, tol: float = DEGENERACY_TOL_DEFAULT) -> list[tuple[float, float]]:
    """Outcome probabilities Tr(P_k rho), ordered by outcome."""
    events = spectral_events(rv.observable, tol)
    probs = []
    for x, P in zip(events.outcomes, events.projectors):
        p = float(np.trace(P @ rv.state).real)
        if p < PROB_FLOOR:
            raise ValueError(f"Probability for outcome {x!r} is {p!r} < 0.")
        probs.append((x, p))
    total = sum(p for _, p in probs)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"Probabilities sum to {total!r}, not 1.")
    return probs


def _is_identity_block(B: np.ndarray) -> bool:
    return bool(np.abs(B - np.eye(2)).max() <= GATE_IDENTITY_TOL)


@dataclass(frozen=True)
class TwoLevelCircuit:
    """Ordered gate word as two arrays: pairs, an integer (G, 2) array of
    basis indices a < b, and gates, the complex (G, 2, 2) stack of their
    special-unitary blocks; gate 0 acts first.

    Construction checks every gate at once and names the first bad one,
    then drops identity blocks and cancels adjacent inverse pairs, so no
    neighbouring product is the identity.
    """

    pairs: np.ndarray
    gates: np.ndarray

    def __post_init__(self) -> None:
        P = np.asarray(self.pairs, dtype=object)
        B = np.asarray(self.gates, dtype=np.complex128)
        if not P.size and not B.size:
            P, B = P.reshape(0, 2), B.reshape(0, 2, 2)
        if P.ndim != 2 or P.shape[1] != 2 or B.shape != (len(P), 2, 2):
            raise ValueError(f"Need (G, 2) pairs and (G, 2, 2) gates, got {P.shape} and {B.shape}.")

        def refuse(bad: np.ndarray, why: str) -> None:
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"Gate {i} on {tuple(P[i].tolist())}: {why}.")

        whole = [isinstance(x, (int, np.integer)) and not isinstance(x, bool) and abs(x) < 2**63
                 for x in P.flat]
        refuse(~np.reshape(whole, P.shape).all(axis=1), "indices must be 64-bit integers")
        P = P.astype(np.int64)
        refuse(~((0 <= P[:, 0]) & (P[:, 0] < P[:, 1])), "need 0 <= a < b")
        refuse(~np.isfinite(B).all(axis=(1, 2)), "block entries must be finite")
        dev = np.abs(B.conj().transpose(0, 2, 1) @ B - np.eye(2)).max(axis=(1, 2))
        refuse(dev > UNITARY_TOL, f"block is not unitary within {UNITARY_TOL:.1e}")
        det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        refuse(np.abs(det - 1.0) > BLOCK_DET_TOL, "block determinant is not 1")

        identity = np.abs(B - np.eye(2)).max(axis=(1, 2)) <= GATE_IDENTITY_TOL
        rows = P.tolist()
        kept: list[int] = []
        for i in np.flatnonzero(~identity).tolist():
            if kept and rows[kept[-1]] == rows[i] and _is_identity_block(B[i] @ B[kept[-1]]):
                kept.pop()
                continue
            kept.append(i)
        pairs, gates = P[kept], B[kept]
        pairs.flags.writeable = gates.flags.writeable = False  # checked once, then frozen
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "gates", gates)


def reconstruct(circuit: TwoLevelCircuit, N: int) -> np.ndarray:
    """Multiply the embedded gates in application order.

    A two-level gate only mixes rows a and b, so each one is applied as
    a 2 x N row update rather than a dense N x N product.
    """
    if len(circuit.pairs) and circuit.pairs[:, 1].max() >= N:
        raise ValueError(
            f"Gate touches index {circuit.pairs[:, 1].max()}, matrix has dimension {N}."
        )
    out = np.eye(N, dtype=np.complex128)
    for rows, B in zip(circuit.pairs.tolist(), circuit.gates):
        out[rows] = B @ out[rows]
    return out


def algebraic_complexity(circuit: TwoLevelCircuit) -> int:
    """Word length after cancellation; zero only for the identity."""
    return len(circuit.gates)


def decompose_two_level(U: np.ndarray) -> TwoLevelCircuit:
    """Factor a special unitary into at most N(N-1)/2 two-level gates.

    Givens rotations clear each column below the diagonal; a closing
    cascade of diagonal two-level phases moves the leftover diagonal
    phases onto the last entry, which is the determinant and hence 1.
    Near-zero entries are skipped, so sparse inputs give short words.
    """
    U = unitary(U)
    N = U.shape[0]
    det = np.linalg.det(U)
    if abs(det - 1.0) > DECOMPOSE_DET_TOL:
        raise ValueError(
            f"Determinant is {det!r}; normalize the global phase to det 1 first."
        )
    A = U.copy()
    # (a, b) and the adjoint block of each gate, in the order they are applied.
    pairs: list[tuple[int, int]] = []
    adjoints = [np.empty((0, 2, 2), dtype=np.complex128)]
    for c in range(N - 1):
        rows = c + 1 + np.flatnonzero(np.abs(A[c + 1 :, c]) > ELIMINATION_SKIP_TOL)[::-1]
        if not rows.size:
            continue
        a_c, a = A[c, c], A[rows, c]
        R = A[rows, c:]
        r = np.sqrt(abs(a_c) ** 2 + np.cumsum(np.abs(a) ** 2))
        T = a_c.conj() * A[c, c:] + np.cumsum(a.conj()[:, None] * R, axis=0)
        # The pivot entry and row that each rotation meets: U's own before the
        # first, then the real r and the row T / r that the last one left.
        p = np.concatenate(([a_c], r[:-1]))
        P = np.vstack((A[c, c:], T[:-1] / r[:-1, None]))
        A[rows, c:] = (p[:, None] * R - a[:, None] * P) / r[:, None]
        A[c, c:] = T[-1] / r[-1]
        alpha, beta = p.conj() / r, a.conj() / r
        pairs += [(c, b) for b in rows.tolist()]
        adjoints.append(np.stack([alpha.conj(), -beta, beta.conj(), alpha], -1).reshape(-1, 2, 2))
    # A is now diagonal with unit-modulus entries multiplying to det(U).
    for k in range(N - 1):
        d_k = A[k, k]
        mag = abs(d_k)
        phase = d_k / mag if mag > 0 else 1.0
        if abs(phase - 1.0) <= GATE_IDENTITY_TOL:
            continue
        pairs.append((k, k + 1))
        adjoints.append(np.array([[[phase, 0.0], [0.0, phase.conj()]]], dtype=np.complex128))
        A[k + 1, k + 1] = A[k + 1, k + 1] * phase
        A[k, k] = 1.0
    return TwoLevelCircuit(pairs[::-1], np.concatenate(adjoints)[::-1])


def circuit_records(circuit: TwoLevelCircuit) -> list[dict]:
    """Serialize as ordered {a, b, block} records with [re, im] entries."""
    entries = circuit.gates.view(np.float64).reshape(-1, 2, 2, 2).tolist()
    return [{"a": a, "b": b, "block": e} for (a, b), e in zip(circuit.pairs.tolist(), entries)]


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    """Scale times the Hermitian part of a complex Gaussian matrix."""
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (A + A.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar sample via QR with phase fixing."""
    Z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R)
    return Q * (diag / np.abs(diag))


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """L L† / Tr(L L†) for a complex Gaussian matrix L."""
    L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = L @ L.conj().T
    return rho / np.trace(rho).real


def random_special_unitary(N: int, rng: np.random.Generator) -> np.ndarray:
    """Haar sample normalized to det 1."""
    Q = random_unitary(rng, N)
    det = np.linalg.det(Q)
    return Q * det ** (-1.0 / N)
