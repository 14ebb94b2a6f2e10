"""Geometric complexity on the unitary group.

Closed form for constant generators, the length functional and endpoint
map for piecewise-constant controls, the right-invariant control distance
between two unitaries (exact principal-log geodesic for the flat metric,
a lockstep multi-start upper-bound search for weighted metrics), and the
l1-cost inequality chain.

Normalization convention used throughout: integrands are raw weighted
coefficient norms (no prefactor) and one global 1/sqrt(d^2-1) factor is
applied to lengths and complexities. For a constant flat-metric
generator this reduces to t*||H||_HS/sqrt(d^2-1), which depends only on
eigenvalue magnitudes, so replacing H by |H| leaves the value unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import hermitian, hs_norm, matrix_exp_unitary, rowdot, unitary
from .optimize import coordinate_search
from .pauli import MetricSpec, PauliBasis, omega_norm_raw, vectorize

#: Endpoint error a searched path may leave: ||endpoint - target||_HS.
ENDPOINT_TOL = 1e-6
#: Penalty rounds per restart; each multiplies the endpoint weight by 4.
MAX_ROUNDS = 22


@dataclass(frozen=True)
class PiecewiseConstantPath:
    """Ordered (generator, duration) segments; durations strictly positive."""

    segments: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self) -> None:
        checked = []
        dim = None
        for k, (H, ds) in enumerate(self.segments):
            H = hermitian(H)
            if not 0 < ds < np.inf:  # NaN fails too
                raise ValueError(f"Segment {k} duration must be positive and finite, got {ds!r}.")
            if dim is None:
                dim = H.shape[0]
            elif H.shape[0] != dim:
                raise ValueError(
                    f"Segment {k} dimension {H.shape[0]} differs from {dim}."
                )
            checked.append((H, float(ds)))
        object.__setattr__(self, "segments", tuple(checked))

    @property
    def total_time(self) -> float:
        return sum(ds for _, ds in self.segments)

    @property
    def dim(self) -> int:
        if not self.segments:
            raise ValueError("Empty path has no dimension.")
        return self.segments[0][0].shape[0]


def constant_path(H: np.ndarray, t: float) -> PiecewiseConstantPath:
    return PiecewiseConstantPath(segments=((H, t),))


@dataclass(frozen=True)
class GeodesicEstimate:
    """Upper bound on the control distance, with its certificate path."""

    length: float
    endpoint_error: float
    path: PiecewiseConstantPath
    restarts_used: int


def generator_norm(H: np.ndarray, m: MetricSpec | None) -> float:
    """Metric norm of a generator.

    Flat (m=None) means the full ambient HS norm, keeping single-segment
    paths exactly consistent with geometric_complexity_const and keeping
    path lengths comparable with the principal-log distance even when
    the target carries a global phase. A MetricSpec weighs the traceless
    coefficients only.
    """
    if m is None:
        return hs_norm(H)
    return omega_norm_raw(H, m)


def geometric_complexity_const(H: np.ndarray, t: float, m: MetricSpec | None = None) -> float:
    """Complexity of exp(-i t H): (t/sqrt(d^2-1)) times the generator norm.

    Under the flat metric the norm is the full HS norm, matching the
    closed form for constant generators; it is invariant under H -> |H|
    and vanishes only for H = 0. A MetricSpec weighs the traceless
    coefficients instead.
    """
    H = hermitian(H)
    if not t >= 0:  # NaN fails too
        raise ValueError(f"Time must be nonnegative, got {t!r}.")
    d = H.shape[0]
    return t * generator_norm(H, m) / np.sqrt(d**2 - 1)


def path_length(p: PiecewiseConstantPath, m: MetricSpec | None = None) -> float:
    """(1/sqrt(d^2-1)) * sum of duration * generator norm over segments."""
    if not p.segments:
        return 0.0
    d = p.dim
    total = sum(ds * generator_norm(H, m) for H, ds in p.segments)
    return total / np.sqrt(d**2 - 1)


def path_endpoint(p: PiecewiseConstantPath) -> np.ndarray:
    """Ordered product exp(-i H_K ds_K) ... exp(-i H_1 ds_1)."""
    if not p.segments:
        raise ValueError("Cannot evaluate the endpoint of an empty path.")
    U = np.eye(p.dim, dtype=np.complex128)
    for H, ds in p.segments:
        U = matrix_exp_unitary(H, ds) @ U
    return U


def principal_log_generator(U: np.ndarray) -> np.ndarray:
    """Hermitian G with exp(-i G) = U and eigenvalues of G in [-pi, pi).

    A global phase puts -1 in the middle of U's widest eigen-angle gap, so the
    Cayley transform i (I + V)^-1 (I - V) of the rotated V is Hermitian and well
    conditioned; its eigh basis Q gives the angles as diag(Q† U Q), and -1 gives -pi.
    """
    U = unitary(U)
    theta = np.sort(np.angle(np.linalg.eigvals(U)))
    gaps = np.diff(theta, append=theta[0] + 2 * np.pi)
    k = np.argmax(gaps)
    V = U * np.exp(1j * (np.pi - theta[k] - gaps[k] / 2))
    eye = np.eye(len(U))
    _, Q = np.linalg.eigh(1j * np.linalg.solve(eye + V, eye - V))
    g = -np.angle(np.einsum("ji,jk,ki->i", Q.conj(), U, Q))
    g[g == np.pi] = -np.pi
    return (Q * g) @ Q.conj().T


def log_norms(X: np.ndarray) -> np.ndarray:
    """Flat geodesic distance from the identity to each unitary of a
    (..., d, d) stack: (1/sqrt(d^2-1)) * ||principal log(X)||_HS.

    Only the eigenvalue angles are needed: the log of a normal matrix
    has HS norm equal to the l2 norm of its branch angles.
    """
    d = X.shape[-1]
    lam = np.linalg.eigvals(X)
    lam = lam / np.abs(lam)
    theta = np.angle(lam)
    return np.sqrt(np.sum(theta**2, axis=-1)) / np.sqrt(d**2 - 1)


def log_distance(U: np.ndarray, W: np.ndarray) -> float:
    """Flat geodesic distance (1/sqrt(d^2-1)) * ||principal log(U†W)||_HS."""
    U = np.asarray(U)
    W = np.asarray(W)
    if U.shape != W.shape:
        raise ValueError(f"Dimension mismatch: {U.shape} vs {W.shape}.")
    return float(log_norms(U.conj().T @ W))


class _Chart:
    """Isometric real coordinates for weighted-metric segment generators.

    Pauli coefficients plus one identity coordinate. The weighted norm
    covers the traceless sector only, so the identity coordinate costs
    nothing; it still moves the endpoint (a global phase), which the
    endpoint penalty constrains. This keeps the reported length equal
    to path_length of the returned path under the same metric.
    """

    def __init__(self, d: int, m: MetricSpec):
        if m.basis.dim != d:
            raise ValueError(
                f"Metric basis dim {m.basis.dim} does not match operator dim {d}."
            )
        self.d = d
        self.m = m
        self.size = d * d  # (d^2 - 1) traceless coefficients + identity
        self._sq_weights = np.concatenate([m.weights, [0.0]])

    def to_matrices(self, X: np.ndarray) -> np.ndarray:
        """Generators of a (..., size) stack of coordinates, as (..., d, d)."""
        d = self.d
        flat = X.reshape(-1, self.size)
        H = np.einsum("mk,kab->mab", flat[:, :-1].astype(np.complex128), self.m.basis.elements)
        H = H + (flat[:, -1] / np.sqrt(d))[:, None, None] * np.eye(d)
        return H.reshape(*X.shape[:-1], d, d)

    def norms(self, X: np.ndarray) -> np.ndarray:
        """Weighted norms of a (..., size) stack of coordinates."""
        return np.sqrt(np.sum(self._sq_weights * X * X, axis=-1))

    def from_matrix(self, G: np.ndarray) -> np.ndarray:
        vec = vectorize(G, self.m.basis)
        return np.concatenate(
            [vec.coefficients, [vec.identity_component.real * np.sqrt(self.d)]]
        )


def _penalized(
    X: np.ndarray, target: np.ndarray, chart: _Chart, K: int, lam: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Penalized length of each K-segment path of an (m, K * chart.size) stack.

    Returns (value, length, err) per row: the weighted path length, the
    endpoint error ||endpoint - target||_HS, and value = length + lam * err^2.
    Each segment runs for 1/K. Every row is computed as it would be alone.
    """
    d = chart.d
    segs = X.reshape(len(X), K, chart.size)
    w, V = np.linalg.eigh(chart.to_matrices(segs))
    exps = (V * np.exp(-1j * (1.0 / K) * w)[..., None, :]) @ V.conj().swapaxes(-1, -2)
    U = np.eye(d, dtype=np.complex128)
    for k in range(K):
        U = exps[:, k] @ U
    diff = (U - target).reshape(len(X), d * d)
    re, im = diff.real, diff.imag
    err = np.sqrt(rowdot(re, re) + rowdot(im, im))
    length = np.sum(chart.norms(segs), axis=-1) * (1.0 / K) / np.sqrt(d**2 - 1)
    return length + lam * err * err, length, err


def estimate_cc_distance(
    U: np.ndarray,
    V: np.ndarray,
    m: MetricSpec | None = None,
    segments: int = 8,
    restarts: int = 16,
    seed: int = 0,
    search_sweeps: int = 60,
    search_step_tol: float = 1e-8,
) -> GeodesicEstimate:
    """Control distance from U to V, with a certificate path of `segments`
    equal pieces.

    Right-invariance is used exactly: the path connects the identity to
    V U†. Under the flat metric (m=None) the principal-log one-parameter
    group is the geodesic, so the length is exact, log_norms(V U†); no search
    runs, restarts_used is 0, and restarts, seed and the search knobs are ignored.

    A MetricSpec runs a numerical search for an upper bound instead: a
    penalty method over K-segment paths, with the endpoint error squared
    as the penalty. Restart 0 starts from the principal-log path, which
    already meets the endpoint; the remaining restarts are random. All
    restarts advance in lockstep, so each penalty round is one
    coordinate_search over the stack of restarts still in play (at most
    MAX_ROUNDS calls), and each restart ends where it would alone. The
    best feasible path (endpoint error within ENDPOINT_TOL) of minimal
    length wins, the first in start order on a tie. Deterministic for a
    fixed seed. search_sweeps and search_step_tol trade polish for speed.
    """
    U = unitary(U)
    V = unitary(V)
    if U.shape != V.shape:
        raise ValueError(f"Dimension mismatch: {U.shape} vs {V.shape}.")
    if segments < 1 or restarts < 1:
        raise ValueError("segments and restarts must both be >= 1.")
    d = U.shape[0]
    target = V @ U.conj().T
    G = principal_log_generator(target)
    if m is None:
        path = PiecewiseConstantPath(segments=((G, 1.0 / segments),) * segments)
        return GeodesicEstimate(
            length=float(log_norms(target)),
            endpoint_error=hs_norm(path_endpoint(path) - target),
            path=path,
            restarts_used=0,
        )
    chart = _Chart(d, m)
    K = segments
    g_coords = chart.from_matrix(G)
    scale = max(float(np.linalg.norm(g_coords)), 0.5)
    x = np.empty((restarts, K * chart.size))
    x[0] = np.tile(g_coords, K)  # constant path: each segment runs G for 1/K
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(restarts - 1), start=1):
        x[r] = np.random.default_rng(child).normal(scale=scale, size=K * chart.size)
    step = np.full(restarts, 0.25 * max(scale, 1.0))
    step[0] = 0.08 * max(scale, 1.0) / K

    # Penalty loop: round r minimizes every restart still in play at endpoint
    # weight 32 * 4^r, each from where its last round ended and with its own
    # step. A restart's start is its first candidate, so the feasible
    # principal-log path can never be lost to a search that wanders off. A
    # restart leaves once its best is feasible and a round brought no gain.
    _, best_len, best_err = _penalized(x, target, chart, K, 0.0)
    best_x = x.copy()
    active = np.arange(restarts)
    lam = 32.0
    for _ in range(MAX_ROUNDS):
        res = coordinate_search(
            lambda X, lam=lam: _penalized(X, target, chart, K, lam)[0],
            x[active],
            step=step[active, None],
            step_tol=search_step_tol,
            max_sweeps=search_sweeps,
        )
        _, length, err = _penalized(res.x, target, chart, K, lam)
        was_ok = best_err[active] <= ENDPOINT_TOL
        improved = (
            (err <= ENDPOINT_TOL) & (~was_ok | (length < best_len[active] - 1e-10))
        ) | (~was_ok & (err < best_err[active]))
        won = active[improved]
        best_x[won] = res.x[improved]
        best_len[won], best_err[won] = length[improved], err[improved]
        x[active] = res.x
        keep = (best_err[active] > ENDPOINT_TOL) | improved
        active = active[keep]
        if not active.size:
            break
        lam *= 4.0
        step[active] = np.maximum(step[active] * 0.5, 1e-3)

    best, feasible = 0, bool(best_err[0] <= ENDPOINT_TOL)
    for r in range(1, restarts):  # in start order: the first of the shortest wins
        if best_err[r] <= ENDPOINT_TOL and (not feasible or best_len[r] < best_len[best]):
            best, feasible = r, True
        elif not feasible and best_err[r] < best_err[best]:
            best = r
    if not feasible:
        raise ValueError(
            f"No restart reached endpoint tolerance {ENDPOINT_TOL:.1e}; "
            f"best endpoint error was {best_err[best]:.3e}."
        )
    Hs = chart.to_matrices(best_x[best].reshape(K, chart.size))
    return GeodesicEstimate(
        length=float(best_len[best]),
        endpoint_error=float(best_err[best]),
        path=PiecewiseConstantPath(segments=tuple((H, 1.0 / K) for H in Hs)),
        restarts_used=restarts,
    )


def cost_l1(p: PiecewiseConstantPath, basis: PauliBasis) -> float:
    """Integrated l1 norm of the control coefficients."""
    total = 0.0
    for H, ds in p.segments:
        coeffs = vectorize(H, basis).coefficients
        total += ds * float(np.sum(np.abs(coeffs)))
    return total


def check_cost_chain(p: PiecewiseConstantPath, basis: PauliBasis) -> dict:
    """Verify cost_l1(p) <= N^2 * flat path length for this path."""
    N = basis.dim
    cost = cost_l1(p, basis)
    complexity = path_length(p, None)
    bound = N**2 * complexity
    return {
        "cost": cost,
        "complexity": complexity,
        "bound": bound,
        "bound_holds": bool(cost <= bound + 1e-12),
    }
