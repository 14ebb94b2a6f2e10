"""Dense complex-matrix substrate: validators and the kernels they guard.

Validators check, kernels assume. ``hermitian``, ``unitary``, ``density``
and ``projector_family`` check a matrix where it enters the program: in a
config reader, a domain type, or a quantity-level entry point that takes a
raw matrix. The kernels below them (spectrally defined matrix functions,
Hilbert-Schmidt geometry, tensor products, the environment partial trace)
check nothing: they take square complex128 matrices that a validator has
passed, and a mismatch of shapes surfaces as numpy's own ValueError.
"""
from __future__ import annotations

import numpy as np
import numpy.linalg as npl

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10
#: Idempotency, pairwise orthogonality (|Tr P_i P_j|) and completeness of a projector family.
PROJECTOR_TOL = 1e-10
#: Eigenvalues this close to zero are clamped to zero before square roots.
EIG_CLAMP = 1e-10


class ArgumentError(ValueError):
    """A value refused by the rule of one named argument.

    name is the argument, or a dotted path under one (``noise.sigma``);
    message says what the rule wants. str() gives both.
    """

    def __init__(self, name: str, message: str) -> None:
        super().__init__(f"{name}: {message}")
        self.name, self.message = name, message


def named(name: str, check, value):
    """check(value), with any ValueError it raises refused as argument name."""
    try:
        return check(value)
    except ValueError as exc:
        raise ArgumentError(name, str(exc)) from None


def at_least(name: str, v, floor: float) -> np.ndarray:
    """v as a float array, refused as argument name unless every entry is >= floor."""
    v = np.asarray(v, dtype=float)
    if not np.all(v >= floor):
        raise ArgumentError(name, f"entries must be >= {floor}, min is {float(np.min(v))!r}")
    return v


def as_square(M: np.ndarray) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"Expected a square matrix, got shape {A.shape}.")
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise ValueError("Matrix entries must be finite.")
    return A


def hermitian(M: np.ndarray) -> np.ndarray:
    """Validate a Hermitian matrix.

    Inputs that miss the tolerance are rejected, never symmetrized;
    silent symmetrization hides caller bugs.
    """
    A = as_square(M)
    dev = float(np.max(np.abs(A - A.conj().T))) if A.size else 0.0
    if dev > HERMITIAN_TOL:
        raise ValueError(
            f"Matrix is not Hermitian: max deviation {dev:.3e} exceeds {HERMITIAN_TOL:.1e}."
        )
    return A


def unitary(M: np.ndarray) -> np.ndarray:
    """Validate a unitary matrix (``max |U†U - I|`` within UNITARY_TOL)."""
    U = as_square(M)
    dev = float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))
    if dev > UNITARY_TOL:
        raise ValueError(
            f"Matrix is not unitary: max |U†U - I| = {dev:.3e} exceeds {UNITARY_TOL:.1e}."
        )
    return U


def density(M: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD within tolerance."""
    rho = hermitian(M)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise ValueError(f"Density trace is {tr!r}, expected 1 within {DENSITY_TRACE_TOL:.1e}.")
    w_min = float(npl.eigvalsh(rho)[0])
    if w_min < DENSITY_EIG_FLOOR:
        raise ValueError(
            f"Density has negative eigenvalue {w_min:.3e} below floor {DENSITY_EIG_FLOOR:.1e}."
        )
    return rho


def projector_family(projectors) -> np.ndarray:
    """Validate Hermitian, idempotent, pairwise orthogonal projectors that
    sum to the identity; returns them stacked as a (k, d, d) array.

    Orthogonality is |Tr(P_i P_j)| <= PROJECTOR_TOL for every i < j; the
    first pair that fails, in row order, is named.
    """
    projs = [hermitian(P) for P in projectors]
    if not projs:
        raise ValueError("At least one projector is required.")
    d = projs[0].shape[0]
    for i, P in enumerate(projs):
        if P.shape[0] != d:
            raise ValueError(f"Projector {i} dimension {P.shape[0]} differs from {d}.")
        dev = float(np.max(np.abs(P @ P - P)))
        if dev > PROJECTOR_TOL:
            raise ValueError(f"Projector {i} is not idempotent (deviation {dev:.3e}).")
    stack = np.stack(projs)
    # For Hermitian idempotents Tr(P_i P_j) = ||P_i P_j||_F^2, so one Gram
    # product of the flattened stack measures every pair at once.
    flat = stack.reshape(len(projs), d * d)
    gram = np.abs(flat.conj() @ flat.T)
    bad = np.argwhere(np.triu(gram > PROJECTOR_TOL, 1))
    if bad.size:
        i, j = bad[0]
        raise ValueError(
            f"Projectors {i} and {j} are not orthogonal (deviation {gram[i, j]:.3e})."
        )
    dev = float(np.max(np.abs(stack.sum(axis=0) - np.eye(d))))
    if dev > PROJECTOR_TOL:
        raise ValueError(f"Projectors do not sum to identity (deviation {dev:.3e}).")
    return stack


def matrix_exp_unitary(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H, or each of a (..., d, d) stack of them,
    via the spectral decomposition."""
    w, V = npl.eigh(H)
    return (V * np.exp(-1j * t * w)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def matrix_abs(H: np.ndarray) -> np.ndarray:
    """|H| = V |diag(w)| V†; positive semidefinite, same eigenvectors."""
    w, V = npl.eigh(H)
    return (V * np.abs(w)) @ V.conj().T


def sqrt_abs_diff(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sqrt(|A² - B²|) computed spectrally from the Hermitian matrix A² - B².

    Eigenvalues within EIG_CLAMP of zero are clamped to zero before the
    square root.
    """
    D = A @ A - B @ B
    # A² and B² are Hermitian exactly; only rounding noise is folded back.
    D = (D + D.conj().T) / 2
    w, V = npl.eigh(D)
    w = np.abs(w)
    w[w <= EIG_CLAMP] = 0.0
    return (V * np.sqrt(w)) @ V.conj().T


def hs_norm(A: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(Tr{A†A})."""
    return float(npl.norm(np.asarray(A)))


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of conj(a) * b over the last axis, row by row.

    The (1, n) @ (n, 1) products go to the same BLAS dot as np.vdot and
    np.linalg.norm on one row, so each row rounds as it would alone.
    """
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def tensor(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product."""
    return np.kron(np.asarray(A, dtype=np.complex128), np.asarray(B, dtype=np.complex128))


def partial_trace_env(rho: np.ndarray, d_S: int, d_E: int) -> np.ndarray:
    """Trace out the environment factor of an operator on a d_S*d_E space.

    Index convention: the joint basis is |s⟩⊗|e⟩ with the environment
    index fastest, matching ``numpy.kron``.
    """
    R = rho.reshape(d_S, d_E, d_S, d_E)
    return np.einsum("iaja->ij", R)


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B - B @ A
