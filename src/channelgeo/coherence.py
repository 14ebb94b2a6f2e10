"""Dephasing channels, purity-based coherence, cohering power, and the
exact coherence rate with its bounds.

The cohering-power optimizer returns a certified lower bound: whatever
the search finds is re-evaluated exactly at the reported state, so the
value is always achievable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesic import geometric_complexity_const
from .operators import (
    commutator, density, hermitian, hs_norm, matrix_exp_unitary, projector_family, unitary
)
from .optimize import coordinate_search

RATE_IMAG_TOL = 1e-10
DECOHERING_SLACK = 1e-9
#: Most seeded random restarts a config may ask for.
MAX_RESTARTS = 1000


@dataclass(frozen=True)
class DephasingChannel:
    """Pinching map rho -> sum_i P_i rho P_i over orthogonal projectors."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        stack = projector_family(self.projectors)
        object.__setattr__(self, "projectors", tuple(stack))
        object.__setattr__(self, "_stack", stack)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


def computational_dephasing(d: int) -> DephasingChannel:
    """Rank-1 projectors onto the standard basis."""
    eye = np.eye(d, dtype=np.complex128)
    return DephasingChannel(projectors=tuple(np.outer(eye[:, k], eye[:, k]) for k in range(d)))


@dataclass(frozen=True)
class CoheringPowerResult:
    value: float
    argmax_state: np.ndarray
    restarts: int
    converged: bool


def dephase(rho: np.ndarray, E: DephasingChannel) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[0] != E.dim:
        raise ValueError(f"State dimension {rho.shape[0]} does not match channel {E.dim}.")
    P = E._stack
    return np.einsum("kab,bc,kdc->ad", P, rho, P.conj())


def purity(rho: np.ndarray) -> float:
    """Tr{rho^2} for a density matrix."""
    rho = np.asarray(rho)
    return float(np.vdot(rho, rho).real)


def linear_entropy(rho: np.ndarray) -> float:
    return 1.0 - purity(rho)


def rel_entropy_coherence(rho: np.ndarray, E: DephasingChannel) -> float:
    """Purity lost under dephasing: purity(rho) - purity(dephase(rho))."""
    return purity(rho) - purity(dephase(rho, E))


def _coherence_gap(U: np.ndarray, rho: np.ndarray, E: DephasingChannel) -> float:
    after = U @ rho @ U.conj().T
    return abs(rel_entropy_coherence(after, E) - rel_entropy_coherence(rho, E))


def _state_from_params(x: np.ndarray, d: int, pure_only: bool) -> np.ndarray | None:
    if pure_only:
        v = x[:d] + 1j * x[d:]
        nrm = float(np.linalg.norm(v))
        if nrm < 1e-150:
            return None
        v = v / nrm
        return np.outer(v, v.conj())
    L = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
    G = L @ L.conj().T
    tr = float(np.trace(G).real)
    if tr < 1e-150:
        return None
    return G / tr


def cohering_power(
    U: np.ndarray,
    E: DephasingChannel,
    restarts: int = 32,
    seed: int = 0,
    pure_only: bool = False,
) -> CoheringPowerResult:
    """Maximize |coherence(U rho U†) - coherence(rho)| over density matrices.

    Multi-start derivative-free ascent over the chart rho = L L† / Tr{L L†}
    (or normalized vectors with pure_only). Deterministic basis-state
    starts run before the seeded random restarts. The reported value is
    re-evaluated exactly at the winning state, so it certifies a lower
    bound on the true maximum.
    """
    U = unitary(U)
    d = U.shape[0]
    if d != E.dim:
        raise ValueError(f"Unitary dimension {d} does not match channel {E.dim}.")
    n_params = 2 * d if pure_only else 2 * d * d

    def objective(x: np.ndarray) -> float:
        rho = _state_from_params(x, d, pure_only)
        if rho is None:
            return 0.0
        return -_coherence_gap(U, rho, E)

    starts = []
    for k in range(d):  # basis states |k><k|
        x = np.zeros(n_params)
        x[k if pure_only else k * d + k] = 1.0
        starts.append((x, 0.3))
    children = np.random.SeedSequence(seed).spawn(restarts)
    for r in range(restarts):
        rng = np.random.default_rng(children[r])
        starts.append((rng.normal(scale=1.0, size=n_params), 0.3))

    best_x, best_f, any_converged = None, 0.0, False
    for x0, step in starts:
        res = coordinate_search(objective, x0, step=step, step_tol=1e-7, max_sweeps=40)
        any_converged = any_converged or res.converged
        if best_x is None or res.fun < best_f:
            best_x, best_f = res.x, res.fun
    rho_star = _state_from_params(best_x, d, pure_only)
    if rho_star is None:  # pragma: no cover - every start has unit trace mass
        rho_star = np.eye(d, dtype=np.complex128) / d
    rho_star = density(rho_star)
    value = _coherence_gap(U, rho_star, E)
    return CoheringPowerResult(
        value=value, argmax_state=rho_star, restarts=len(starts), converged=any_converged
    )


def coherence_rate_exact(H: np.ndarray, rho_t: np.ndarray, E: DephasingChannel) -> float:
    """Instantaneous rate of coherence change: 2i Tr{[rho, dephase(rho)] H}.

    The raw trace is purely imaginary up to rounding; a residue above
    tolerance signals inconsistent inputs and raises.
    """
    H = hermitian(H)
    rho_t = np.asarray(rho_t, dtype=np.complex128)
    raw = 2j * np.trace(commutator(rho_t, dephase(rho_t, E)) @ H)
    if abs(raw.imag) > RATE_IMAG_TOL:
        raise ValueError(
            f"Rate evaluation left imaginary residue {raw.imag:.3e}; "
            "inputs are numerically inconsistent."
        )
    return float(raw.real)


def coherence_rate_bound(rho_t: np.ndarray, E: DephasingChannel) -> float:
    """HS norm of [rho, dephase(rho)]; never exceeds sqrt(2)."""
    rho_t = np.asarray(rho_t, dtype=np.complex128)
    return hs_norm(commutator(rho_t, dephase(rho_t, E)))


def verify_decohering_bound(
    H: np.ndarray,
    t: float,
    E: DephasingChannel,
    restarts: int = 8,
    seed: int = 0,
    pure_only: bool = False,
) -> dict:
    """Check cohering_power(exp(-itH)) / (sqrt(2) N) <= flat complexity.

    The left side uses a certified lower bound on the cohering power, so
    holds=true is the necessary direction; a failure would be a genuine
    counterexample. Both normalizing constants in circulation are
    reported: sqrt(2)*N is the one checked, sqrt(2(N^2-1)) is logged.
    """
    H = hermitian(H)
    N = H.shape[0]
    U = matrix_exp_unitary(H, t)
    cp = cohering_power(U, E, restarts=restarts, seed=seed, pure_only=pure_only)
    lhs = cp.value / (np.sqrt(2.0) * N)
    rhs = geometric_complexity_const(H, t, None)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "holds": bool(lhs <= rhs + DECOHERING_SLACK),
        "cohering_power": cp.value,
        "constant": "sqrt(2)*N",
        "lhs_variant_sqrt_2_dim_sq_minus_1": cp.value / np.sqrt(2.0 * (N**2 - 1)),
    }
