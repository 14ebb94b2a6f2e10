"""Operator-valued probability and two-level gate synthesis.

An observable paired with a state is a noncommutative random variable:
its spectral projectors are the events, the induced trace weights are
the law. Unitaries factor into two-level special unitaries by Givens
elimination, giving a constructive gate dictionary with at most
N(N-1)/2 factors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import as_square, density, hermitian, hermitian_eig, projector_family, unitary

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
    A = hermitian(A)
    w, V = hermitian_eig(A)
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


@dataclass(frozen=True)
class TwoLevelGate:
    """Special-unitary 2x2 block acting on basis indices a < b."""

    a: int
    b: int
    block: np.ndarray

    def __post_init__(self) -> None:
        if not (0 <= self.a < self.b):
            raise ValueError(f"Need 0 <= a < b, got ({self.a}, {self.b}).")
        B = unitary(self.block)
        if B.shape != (2, 2):
            raise ValueError(f"Gate block must be 2x2, got {B.shape}.")
        det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
        if abs(det - 1.0) > BLOCK_DET_TOL:
            raise ValueError(f"Gate block determinant {det!r} is not 1.")
        object.__setattr__(self, "block", B)

    def adjoint(self) -> "TwoLevelGate":
        return TwoLevelGate(self.a, self.b, self.block.conj().T)


def _unchecked_adjoint(gate: TwoLevelGate) -> TwoLevelGate:
    """gate.adjoint() without validating the block again; for gates whose
    block already passed TwoLevelGate's checks."""
    adj = object.__new__(TwoLevelGate)
    object.__setattr__(adj, "a", gate.a)
    object.__setattr__(adj, "b", gate.b)
    object.__setattr__(adj, "block", gate.block.conj().T)
    return adj


def _check_fits(gate: TwoLevelGate, N: int) -> None:
    if gate.b >= N:
        raise ValueError(f"Gate touches index {gate.b}, matrix has dimension {N}.")


def embed_gate(gate: TwoLevelGate, N: int) -> np.ndarray:
    """Place the 2x2 block at rows/columns (a, b) of an N x N identity."""
    _check_fits(gate, N)
    out = np.eye(N, dtype=np.complex128)
    out[gate.a, gate.a] = gate.block[0, 0]
    out[gate.a, gate.b] = gate.block[0, 1]
    out[gate.b, gate.a] = gate.block[1, 0]
    out[gate.b, gate.b] = gate.block[1, 1]
    return out


def _is_identity_block(B: np.ndarray) -> bool:
    return bool(np.abs(B - np.eye(2)).max() <= GATE_IDENTITY_TOL)


@dataclass(frozen=True)
class TwoLevelCircuit:
    """Ordered gate word; gates[0] acts first.

    Construction drops identity blocks and cancels adjacent
    inverse pairs, so no neighbouring product is the identity.
    """

    gates: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        reduced: list[TwoLevelGate] = []
        for g in self.gates:
            if not isinstance(g, TwoLevelGate):
                raise TypeError(f"Expected TwoLevelGate, got {type(g).__name__}.")
            if _is_identity_block(g.block):
                continue
            if reduced and (reduced[-1].a, reduced[-1].b) == (g.a, g.b):
                if _is_identity_block(g.block @ reduced[-1].block):
                    reduced.pop()
                    continue
            reduced.append(g)
        object.__setattr__(self, "gates", tuple(reduced))


def reconstruct(circuit: TwoLevelCircuit, N: int) -> np.ndarray:
    """Multiply the embedded gates in application order.

    A two-level gate only mixes rows a and b, so each one is applied as
    a 2 x N row update rather than a dense N x N product.
    """
    out = np.eye(N, dtype=np.complex128)
    for g in circuit.gates:
        _check_fits(g, N)
        rows = [g.a, g.b]
        out[rows] = g.block @ out[rows]
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
    applied: list[TwoLevelGate] = []
    for c in range(N - 1):
        for b in range(N - 1, c, -1):
            if abs(A[b, c]) <= ELIMINATION_SKIP_TOL:
                A[b, c] = 0.0
                continue
            r = float(np.hypot(abs(A[c, c]), abs(A[b, c])))
            alpha = A[c, c].conj() / r
            beta = A[b, c].conj() / r
            G = np.array([[alpha, beta], [-beta.conj(), alpha.conj()]])
            rows = A[[c, b], :]
            A[[c, b], :] = G @ rows
            A[b, c] = 0.0
            applied.append(TwoLevelGate(c, b, G))
    # A is now diagonal with unit-modulus entries multiplying to det(U).
    for k in range(N - 1):
        d_k = A[k, k]
        mag = abs(d_k)
        phase = d_k / mag if mag > 0 else 1.0
        if abs(phase - 1.0) <= GATE_IDENTITY_TOL:
            continue
        C = np.diag([phase.conj(), phase]).astype(np.complex128)
        applied.append(TwoLevelGate(k, k + 1, C))
        A[k + 1, k + 1] = A[k + 1, k + 1] * phase
        A[k, k] = 1.0
    gates = [_unchecked_adjoint(g) for g in reversed(applied)]
    return TwoLevelCircuit(gates=tuple(gates))


def circuit_records(circuit: TwoLevelCircuit) -> list[dict]:
    """Serialize as ordered {a, b, block} records with [re, im] entries."""
    records = []
    for g in circuit.gates:
        records.append(
            {
                "a": g.a,
                "b": g.b,
                "block": [
                    [[float(x.real), float(x.imag)] for x in row] for row in g.block
                ],
            }
        )
    return records


def circuit_from_records(records: list[dict]) -> TwoLevelCircuit:
    gates = []
    for rec in records:
        block = np.array(
            [[complex(re, im) for re, im in row] for row in rec["block"]]
        )
        gates.append(TwoLevelGate(int(rec["a"]), int(rec["b"]), block))
    return TwoLevelCircuit(gates=tuple(gates))


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
    return as_square(Q * det ** (-1.0 / N))
