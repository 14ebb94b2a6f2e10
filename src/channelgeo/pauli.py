"""Pauli-string operator bases and the weighted trace metric.

An ordered, HS-orthonormal, traceless basis of the qubit operator space,
the coefficient vectorization it induces, the diagonally weighted
coefficient norm built on it, and the two-local penalty weighting.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .operators import ArgumentError, at_least

_SIGMA = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

#: Imaginary residue allowed when reading coefficients off a Hermitian input.
COEFF_IMAG_TOL = 1e-10


def string_weight(label: str) -> int:
    """Number of non-identity tensor factors in a Pauli string label."""
    return sum(1 for c in label if c != "I")


@dataclass(frozen=True)
class PauliBasis:
    """Ordered orthonormal traceless basis of the n-qubit operator space.

    Elements are Pauli strings divided by sqrt(2^n), ordered by string
    weight ascending and lexicographically within each weight. The all-I
    string is excluded, so there are 4^n - 1 elements.
    """

    n_qubits: int
    dim: int
    labels: tuple[str, ...]
    elements: np.ndarray  # shape (dim^2 - 1, dim, dim)

    def __post_init__(self) -> None:
        if len(self.labels) != self.dim**2 - 1:
            raise ValueError(
                f"Basis for dim {self.dim} needs {self.dim ** 2 - 1} elements, "
                f"got {len(self.labels)}."
            )


@dataclass(frozen=True)
class MetricSpec:
    """Diagonal metric weights over a Pauli basis; every weight is >= 1."""

    basis: PauliBasis
    weights: np.ndarray

    def __post_init__(self) -> None:
        w, n = np.asarray(self.weights, dtype=float), len(self.basis.labels)
        if w.shape != (n,):
            raise ArgumentError("weights", f"expected {n} entries, got shape {w.shape}")
        object.__setattr__(self, "weights", at_least("weights", w, 1.0))


@functools.lru_cache(maxsize=None)
def build_pauli_basis(n: int) -> PauliBasis:
    """All n-qubit Pauli strings except the identity, orthonormalized.

    Built once per qubit count and shared by every caller, so the
    elements are read-only.
    """
    if not 1 <= n <= 5:
        raise ArgumentError("n", f"supported qubit counts are 1..5, got {n}")
    dim = 2**n
    # Sorted by (weight, label); the all-I string, of weight 0, comes first.
    labels = sorted(map("".join, itertools.product("IXYZ", repeat=n)),
                    key=lambda lab: (string_weight(lab), lab))[1:]
    norm = np.sqrt(dim)
    elements = np.empty((dim**2 - 1, dim, dim), dtype=np.complex128)
    for k, label in enumerate(labels):
        M = np.ones((1, 1), dtype=np.complex128)
        for c in label:
            M = np.kron(M, _SIGMA[c])
        elements[k] = M / norm
    elements.flags.writeable = False
    return PauliBasis(n_qubits=n, dim=dim, labels=tuple(labels), elements=elements)


def build_penalty_metric(n: int, q: float) -> MetricSpec:
    """Weight 1 on strings of weight <= 2, penalty q on strings of weight >= 3.

    At n <= 2 no string has weight 3 or more, so every weight is 1 and the
    metric is the flat traceless one, whatever q.
    """
    basis = build_pauli_basis(n)
    if not q >= 1.0:
        raise ArgumentError("q", f"expected a number >= 1, got {q!r}")
    weights = np.array(
        [1.0 if string_weight(lab) <= 2 else float(q) for lab in basis.labels]
    )
    return MetricSpec(basis=basis, weights=weights)


def vectorize(A: np.ndarray, basis: PauliBasis) -> np.ndarray:
    """Real coefficients Tr{E_k A} over the basis, shape (d²-1,).

    The identity component tr(A)/d is not among them: A equals
    devectorize_rows(vectorize(A, basis), basis) + tr(A)/d I. The
    coefficients are real exactly when that traceless part is Hermitian,
    so an imaginary residue above COEFF_IMAG_TOL is refused.
    """
    A = np.asarray(A)
    if A.shape[0] != basis.dim:
        raise ValueError(f"Operator dim {A.shape[0]} does not match basis dim {basis.dim}.")
    coeffs = np.einsum("kab,ba->k", basis.elements, A)
    resid = float(np.max(np.abs(coeffs.imag))) if coeffs.size else 0.0
    if resid > COEFF_IMAG_TOL:
        raise ValueError(
            f"Traceless part is not Hermitian: coefficient residue {resid:.3e}."
        )
    return coeffs.real.copy()


def devectorize_rows(C: np.ndarray, basis: PauliBasis) -> np.ndarray:
    """sum_k C[..., k] E_k for every row of real coefficients, (..., d, d).

    One real matrix product of the rows with the real and imaginary parts
    of the flattened elements, side by side. It agrees with the dense sum
    over k, and a row inside a stack with the same row alone, to within
    (d²-1) 2^-52 max Σ_k |C[..., k]|, but not bit for bit: the product's
    summation order may depend on the stack.
    """
    C = np.asarray(C)
    if np.iscomplexobj(C):
        raise ValueError("Pauli coefficients must be real.")
    k, d = len(basis.labels), basis.dim
    if C.shape[-1:] != (k,):
        raise ValueError(f"Expected rows of {k} coefficients at dim {d}, got shape {C.shape}.")
    parts = basis.elements.reshape(k, d * d).view(np.float64)
    return (C @ parts).view(np.complex128).reshape(C.shape[:-1] + (d, d))


def omega_norm_raw(A: np.ndarray, m: MetricSpec) -> float:
    """Weighted coefficient norm sqrt(sum l_k c_k²), with no prefactor.

    With unit weights this equals the HS norm of the traceless part of A.
    Complexity integrands use this raw norm together with one global
    1/sqrt(d²-1) factor; see the geodesic module.
    """
    a = vectorize(A, m.basis)
    return float(np.sqrt(np.sum(m.weights * a * a)))

