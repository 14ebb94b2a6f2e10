"""Dephasing channels, purity-based coherence, cohering power, and the
exact coherence rate with its bounds.

Cohering power comes as a certified bracket. The upper end is one
eigendecomposition of a d²×d² operator. The lower end is the gap of an
actual state, found by a shifted power method over pure states and then
Frank-Wolfe over density matrices, and re-evaluated exactly there, so it is
always achievable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .geodesic import geometric_complexity_const
from .operators import (
    ArgumentError, commutator, density, hermitian, hs_norm, matrix_exp_unitary,
    projector_family, rowdot, unitary,
)

RATE_IMAG_TOL = 1e-10
DECOHERING_SLACK = 1e-9
#: Most seeded random restarts a config may ask for.
MAX_RESTARTS = 1000
#: A cohering-power start stops once a step gains no more than this.
GAIN_TOL = 1e-15
#: Most steps a start takes in each of the pure and mixed climbs.
MAX_STEPS = 500
#: The climbs stop once the best value is this close to the upper bound.
BRACKET_TOL = 1e-12


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
    """value <= cohering power <= upper; value is the gap at argmax_state.

    restarts is the number of starts, steps the lockstep steps taken, and
    converged_starts the starts that stopped before MAX_STEPS; converged
    says that every start did.
    """

    value: float
    argmax_state: np.ndarray
    restarts: int
    converged: bool
    upper: float
    steps: int
    converged_starts: int


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


def rel_entropy_coherence(rho: np.ndarray, E: DephasingChannel) -> float:
    """Purity lost under dephasing: purity(rho) - purity(dephase(rho))."""
    return purity(rho) - purity(dephase(rho, E))


def _coherence_gap(U: np.ndarray, rho: np.ndarray, E: DephasingChannel) -> float | np.ndarray:
    """|coherence change| under U of a state, or of each state of a stack."""
    after = U @ rho @ U.conj().T
    return abs(rel_entropy_coherence(after, E) - rel_entropy_coherence(rho, E))


def _apply(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The d²×d² operator M on each matrix of an (n, d, d) stack (row-major vec).

    One (1, d²) @ (d², d²) product per matrix, as in `operators.rowdot`, so a
    stacked row rounds as it does alone and a start climbs the same whichever
    other starts share its stack.
    """
    n, d, _ = X.shape
    return (X.reshape(n, 1, d * d) @ M.T).reshape(n, d, d)


def _form(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Re <X, Y> for each pair of matrices of two (n, d, d) stacks."""
    return rowdot(X.reshape(len(X), -1), Y.reshape(len(Y), -1)).real


def _outer(psi: np.ndarray) -> np.ndarray:
    """psi psi† for each row of an (n, d) stack."""
    return psi[:, :, None] * psi.conj()[:, None, :]


def _gap_operator(U: np.ndarray, E: DephasingChannel) -> np.ndarray:
    """The Hermitian d²×d² M = S - W†SW, W = U ⊗ Ū: the gap of rho is |<rho, M rho>|."""
    W = np.kron(U, U.conj())
    M = E._super - W.conj().T @ E._super @ W
    return (M + M.conj().T) / 2.0


def _quad(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """<X, M X> for each matrix of an (n, d, d) stack."""
    return _form(X, _apply(M, X))


def _power_step(M: np.ndarray, alpha: float, psi: np.ndarray, s: np.ndarray):
    """One shifted power step psi <- normalize(s M(P) psi + alpha psi),
    P = psi psi†, on each row of an (n, d) stack, with its new s <P, M P>."""
    A = s[:, None, None] * _apply(M, _outer(psi))
    psi = np.einsum("nab,nb->na", A, psi) + alpha * psi
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return psi, s * _quad(M, _outer(psi))


def _frank_wolfe_step(M: np.ndarray, rho: np.ndarray, s: np.ndarray):
    """One Frank-Wolfe step on each state of an (n, d, d) stack toward the
    top eigenvector of s M(rho), with the exact line search of the quadratic
    s <rho, M rho> on [0, 1]; returns the states and their new objective."""
    G = s[:, None, None] * _apply(M, rho)
    D = _outer(np.linalg.eigh(G)[1][:, :, -1]) - rho
    a = s * _quad(M, D)
    b = 2.0 * _form(D, G)
    vertex = np.divide(-b, 2.0 * a, out=np.ones_like(a), where=a < 0)
    rho = rho + np.clip(vertex, 0.0, 1.0)[:, None, None] * D
    return rho, s * _quad(M, rho)


def _eigen_states(vecs: np.ndarray, d: int) -> np.ndarray:
    """Top and bottom eigenvectors of the Hermitian matrices behind the
    columns of vecs, eigenvectors of M: tops first, as a (2k, d) stack.

    M maps Hermitian matrices to Hermitian ones, so for an eigenvector V
    (read as a d×d matrix) V + V† and i(V - V†) are eigenvectors too. Their
    halves sum to V, so the larger has norm at least 1; it is kept.
    """
    V = vecs.T.reshape(-1, d, d)
    Vh = V.conj().transpose(0, 2, 1)
    herm, anti = V + Vh, 1j * (V - Vh)
    keep = np.linalg.norm(herm, axis=(1, 2)) >= np.linalg.norm(anti, axis=(1, 2))
    Q = np.linalg.eigh(np.where(keep[:, None, None], herm, anti))[1]
    return np.concatenate([Q[:, :, -1], Q[:, :, 0]])


def _climb(step, x: np.ndarray, sign: np.ndarray, f: np.ndarray, upper: float):
    """Step the rows of x in lockstep; step(rows, sign) returns them stepped
    with their objective. A row takes a step only while it gains more than
    GAIN_TOL; the climb ends when no row does, after MAX_STEPS, or once the
    best objective is within BRACKET_TOL of upper, which settles every row.

    Returns x, f, the number of steps and the mask of settled rows.
    """
    active = np.ones(len(f), dtype=bool)
    steps = 0
    while active.any() and steps < MAX_STEPS and f.max() < upper - BRACKET_TOL:
        rows = np.flatnonzero(active)
        x_new, f_new = step(x[rows], sign[rows])
        up = f_new - f[rows] > GAIN_TOL
        x[rows[up]], f[rows[up]] = x_new[up], f_new[up]
        active[rows[~up]] = False
        steps += 1
    if f.max() >= upper - BRACKET_TOL:
        active[:] = False
    return x, f, steps, ~active


def cohering_power(
    U: np.ndarray,
    E: DephasingChannel,
    restarts: int = 32,
    seed: int = 0,
    pure_only: bool = False,
) -> CoheringPowerResult:
    """Bracket max |coherence(U rho U†) - coherence(rho)| over density matrices.

    Purity is unitarily invariant, so the gap is |<X, M X>| with
    X = rho - I/d and the Hermitian d²×d² operator M = S - W†SW, where S is
    the pinch and W = U ⊗ Ū. M(I) = 0 and ||X||² <= 1 - 1/d, so the gap is
    at most (1 - 1/d) max|eig M|. It is also at most 1 - 1/k for k
    projectors: C(rho) = ||rho - S(rho)||²_HS is convex, so it peaks on pure
    states, where it is 1 - sum_i <P_i>² <= 1 - 1/k; a gap of two values in
    [0, 1 - 1/k] is at most that. upper is the smaller of the two.

    The starts are the d basis states, the extreme eigenvectors of the
    Hermitian matrices behind M's two lowest and two highest eigenvectors,
    and the seeded restarts. Each climbs <P, ±M P>, P = psi psi†, for both
    signs by the shifted power method psi <- normalize(±M(P) psi + alpha psi),
    alpha = 2 max|eig M| (Kolda and Mayo, SIAM J. Matrix Anal. Appl. 32,
    2011); unless pure_only, Frank-Wolfe over density matrices goes on from
    there (Jaggi, ICML 2013), stepping toward the top eigenvector of ±M(rho)
    with an exact line search. At d = 2 the quadratic form peaks on the
    Bloch sphere, at an eigenvector state, so no step is taken.

    The first best state is validated and re-scored exactly, so value is a
    certified lower bound.
    """
    if not 0 <= restarts <= MAX_RESTARTS:
        raise ArgumentError("restarts", f"expected an integer 0..{MAX_RESTARTS}, got {restarts}")
    U = unitary(U)
    d = U.shape[0]
    if d != E.dim:
        raise ValueError(f"Unitary dimension {d} does not match channel {E.dim}.")
    M = _gap_operator(U, E)
    w, V = np.linalg.eigh(M)
    scale = float(np.abs(w).max())
    upper = min((1.0 - 1.0 / d) * scale, 1.0 - 1.0 / len(E.projectors))

    children = np.random.SeedSequence(seed).spawn(restarts)
    x = np.array([np.random.default_rng(c).normal(size=2 * d) for c in children])
    x = x.reshape(restarts, 2 * d)
    seeded = x[:, :d] + 1j * x[:, d:]
    seeded /= np.linalg.norm(seeded, axis=1, keepdims=True)
    starts = np.concatenate([np.eye(d), _eigen_states(V[:, [0, 1, -2, -1]], d), seeded])
    R = len(starts)
    sign = np.repeat([1.0, -1.0], R)
    alpha = 2.0 * scale

    psi = np.concatenate([starts, starts])
    f = sign * _quad(M, _outer(psi))
    psi, f, steps, settled = _climb(partial(_power_step, M, alpha), psi, sign, f, upper)
    rho = _outer(psi)
    if not pure_only:
        rho, f, more, settled_fw = _climb(partial(_frank_wolfe_step, M), rho, sign, f, upper)
        steps += more
        settled &= settled_fw
    rho_star = density(rho[int(np.argmax(f))])  # first of the best, in start order
    converged_starts = int(np.sum(settled[:R] & settled[R:]))
    return CoheringPowerResult(
        value=_coherence_gap(U, rho_star, E),
        argmax_state=rho_star,
        restarts=R,
        converged=converged_starts == R,
        upper=upper,
        steps=steps,
        converged_starts=converged_starts,
    )


def coherence_rate_exact(H: np.ndarray, rho_t: np.ndarray, E: DephasingChannel) -> float:
    """Instantaneous rate of coherence change: 2i Tr{[rho, dephase(rho)] H}.

    The raw trace is purely imaginary up to rounding; a residue above
    tolerance signals inconsistent inputs and raises.
    """
    H = hermitian(H)
    rho_t = density(rho_t)
    raw = 2j * np.trace(commutator(rho_t, dephase(rho_t, E)) @ H)
    if abs(raw.imag) > RATE_IMAG_TOL:
        raise ValueError(
            f"Rate evaluation left imaginary residue {raw.imag:.3e}; "
            "inputs are numerically inconsistent."
        )
    return float(raw.real)


def coherence_rate_bound(rho_t: np.ndarray, E: DephasingChannel) -> float:
    """HS norm of [rho, dephase(rho)]; never exceeds sqrt(2)."""
    rho_t = density(rho_t)
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

    holds compares the certified lower bound on the cohering power, so a
    failure would be a genuine counterexample; proved compares the upper
    bound, so it settles the inequality for this H and t. The constant
    checked is sqrt(2)*N, which every report states under
    reports.CONVENTIONS["decohering_constant"].
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
        "proved": bool(cp.upper / (np.sqrt(2.0) * N) <= rhs + DECOHERING_SLACK),
        "cohering_power": cp.value,
        "cohering_power_upper": cp.upper,
    }
