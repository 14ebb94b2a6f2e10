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
    ArgumentError, commutator, density, hermitian, hs_norm, matrix_exp_unitary,
    projector_family, rowdot, unitary,
)
from .optimize import coordinate_search

RATE_IMAG_TOL = 1e-10
DECOHERING_SLACK = 1e-9
#: Most seeded random restarts a config may ask for.
MAX_RESTARTS = 1000


@dataclass(frozen=True)
class DephasingChannel:
    """Pinching map rho -> sum_i P_i rho P_i over orthogonal projectors.

    The map is stored as its d²×d² superoperator sum_i kron(P_i, conj(P_i)),
    which acts on row-major vec(rho); it takes d⁴·16 bytes (64 KB at d = 8).
    """

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        stack = projector_family(self.projectors)
        d = stack.shape[-1]
        sup = np.einsum("kab,kcd->acbd", stack, stack.conj()).reshape(d * d, d * d)
        object.__setattr__(self, "projectors", tuple(stack))
        object.__setattr__(self, "_super", sup)

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
    """Pinch a state, or each state of a (..., d, d) stack.

    One product of the channel's d²×d² superoperator with each row-major
    vec(rho). `einsum` never hands this to BLAS, so each state of a stack
    rounds exactly as it does alone.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[-1] != E.dim:
        raise ValueError(f"State dimension {rho.shape[-1]} does not match channel {E.dim}.")
    flat = rho.reshape(*rho.shape[:-2], -1)
    return np.einsum("ij,...j->...i", E._super, flat).reshape(rho.shape)


def purity(rho: np.ndarray) -> float | np.ndarray:
    """Tr{rho^2} for a density matrix, or for each matrix of a (..., d, d) stack."""
    rho = np.asarray(rho)
    flat = rho.reshape(*rho.shape[:-2], -1)
    p = rowdot(flat, flat).real
    return float(p) if rho.ndim == 2 else p


def linear_entropy(rho: np.ndarray) -> float:
    return 1.0 - purity(rho)


def rel_entropy_coherence(rho: np.ndarray, E: DephasingChannel) -> float:
    """Purity lost under dephasing: purity(rho) - purity(dephase(rho))."""
    return purity(rho) - purity(dephase(rho, E))


def _coherence_gap(U: np.ndarray, rho: np.ndarray, E: DephasingChannel) -> float | np.ndarray:
    """|coherence change| under U of a state, or of each state of a stack."""
    after = U @ rho @ U.conj().T
    return abs(rel_entropy_coherence(after, E) - rel_entropy_coherence(rho, E))


def _states_from_params(X: np.ndarray, d: int, pure_only: bool) -> tuple[np.ndarray, np.ndarray]:
    """Chart points (m, n) -> (states of the rows with mass, mask of those rows).

    A row has no state when its vector norm (pure_only) or the trace of
    L L† is below 1e-150.
    """
    if pure_only:
        v = X[:, :d] + 1j * X[:, d:]
        re, im = v.real, v.imag
        nrm = np.sqrt(rowdot(re, re) + rowdot(im, im))
        ok = ~(nrm < 1e-150)
        v = v[ok] / nrm[ok, None]
        return v[:, :, None] * v.conj()[:, None, :], ok
    L = (X[:, : d * d] + 1j * X[:, d * d :]).reshape(-1, d, d)
    G = L @ L.conj().transpose(0, 2, 1)
    tr = np.trace(G, axis1=1, axis2=2).real
    ok = ~(tr < 1e-150)
    return G[ok] / tr[ok, None, None], ok


def _negative_gaps(
    X: np.ndarray, U: np.ndarray, E: DephasingChannel, pure_only: bool
) -> np.ndarray:
    """Search objective: -_coherence_gap at each chart point of X, 0.0 where
    a row has no state."""
    rho, ok = _states_from_params(X, U.shape[0], pure_only)
    out = np.zeros(len(X))
    if ok.any():
        out[ok] = -_coherence_gap(U, rho, E)
    return out


def cohering_power(
    U: np.ndarray,
    E: DephasingChannel,
    restarts: int = 32,
    seed: int = 0,
    pure_only: bool = False,
) -> CoheringPowerResult:
    """Maximize |coherence(U rho U†) - coherence(rho)| over density matrices.

    Multi-start derivative-free ascent over the chart rho = L L† / Tr{L L†}
    (or normalized vectors with pure_only). The d basis-state starts come
    first, then the seeded random restarts; all of them advance together
    in one lockstep coordinate_search, each start exactly as it would run
    alone, and the first best start wins. The reported value is
    re-evaluated exactly at the winning state, so it certifies a lower
    bound on the true maximum.
    """
    if not 0 <= restarts <= MAX_RESTARTS:
        raise ArgumentError("restarts", f"expected an integer 0..{MAX_RESTARTS}, got {restarts}")
    U = unitary(U)
    d = U.shape[0]
    if d != E.dim:
        raise ValueError(f"Unitary dimension {d} does not match channel {E.dim}.")
    n_params = 2 * d if pure_only else 2 * d * d

    x0 = np.zeros((d + restarts, n_params))
    for k in range(d):  # basis states |k><k|
        x0[k, k if pure_only else k * d + k] = 1.0
    children = np.random.SeedSequence(seed).spawn(restarts)
    for r in range(restarts):
        x0[d + r] = np.random.default_rng(children[r]).normal(scale=1.0, size=n_params)

    res = coordinate_search(
        lambda X: _negative_gaps(X, U, E, pure_only), x0, step=0.3, step_tol=1e-7, max_sweeps=40
    )
    best = int(np.argmin(res.fun))  # first of the best, in start order
    states, ok = _states_from_params(res.x[best : best + 1], d, pure_only)
    if ok[0]:
        rho_star = states[0]
    else:  # pragma: no cover - every start has unit trace mass
        rho_star = np.eye(d, dtype=np.complex128) / d
    rho_star = density(rho_star)
    value = _coherence_gap(U, rho_star, E)
    return CoheringPowerResult(
        value=value, argmax_state=rho_star, restarts=len(x0), converged=res.converged
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
    rhs = geometric_complexity_const(H, t, None)  # rejects a bad H or t before the search
    U = matrix_exp_unitary(H, t)
    N = U.shape[0]
    cp = cohering_power(U, E, restarts=restarts, seed=seed, pure_only=pure_only)
    lhs = cp.value / (np.sqrt(2.0) * N)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "holds": bool(lhs <= rhs + DECOHERING_SLACK),
        "cohering_power": cp.value,
        "constant": "sqrt(2)*N",
        "lhs_variant_sqrt_2_dim_sq_minus_1": cp.value / np.sqrt(2.0 * (N**2 - 1)),
    }
