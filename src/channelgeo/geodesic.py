"""Geometric complexity on the unitary group.

Closed form for constant generators, the length functional and endpoint
map for piecewise-constant controls, the right-invariant control distance
between two unitaries, and the l1-cost inequality chain. The flat distance
is exact: the principal-log geodesic, whose length is log_distance. A
weighted metric gets an upper bound instead, from a multi-start search over
exactly closed paths (estimate_cc_distance).

Normalization convention used throughout: integrands are raw weighted
coefficient norms (no prefactor) and one global 1/sqrt(d^2-1) factor is
applied to lengths and complexities. For a constant flat-metric
generator this reduces to t*||H||_HS/sqrt(d^2-1), which depends only on
eigenvalue magnitudes, so replacing H by |H| leaves the value unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import ArgumentError, hermitian, hs_norm, matrix_exp_unitary, rowdot, unitary
from .optimize import coordinate_search
from .pauli import MetricSpec, PauliBasis, omega_norm_raw, vectorize

#: Endpoint error a searched path may leave: ||endpoint - target||_HS. The
#: closing segment meets the target to rounding, so a miss means a bug.
ENDPOINT_TOL = 1e-6
#: Sweeps and final probe step of the weighted estimate's coordinate search.
SEARCH_SWEEPS = 25
SEARCH_STEP_TOL = 1e-6


def segment_duration(k: int, ds: float) -> float:
    """Segment k's duration as a float, refused unless positive and finite."""
    if not 0 < ds < np.inf:  # NaN fails too
        raise ValueError(f"Segment {k} duration must be positive and finite, got {ds!r}.")
    return float(ds)


def check_time(t: float) -> None:
    """Refuse a time t, as argument t, unless it is finite and >= 0."""
    if not 0 <= t < np.inf:  # NaN fails too
        raise ArgumentError("t", f"expected a finite number >= 0, got {t!r}")


@dataclass(frozen=True)
class PiecewiseConstantPath:
    """Ordered (generator, duration) segments, at least one; durations
    strictly positive."""

    segments: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ArgumentError("segments", "expected at least one segment")
        checked = []
        dim = None
        for k, (H, ds) in enumerate(self.segments):
            H = hermitian(H)
            ds = segment_duration(k, ds)
            if dim is None:
                dim = H.shape[0]
            elif H.shape[0] != dim:
                raise ArgumentError(f"segments[{k}].H", f"dimension {H.shape[0]}, not {dim}")
            checked.append((H, ds))
        object.__setattr__(self, "segments", tuple(checked))

    @property
    def total_time(self) -> float:
        return sum(ds for _, ds in self.segments)

    @property
    def dim(self) -> int:
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
    check_time(t)
    d = H.shape[0]
    return float(t * generator_norm(H, m) / np.sqrt(d**2 - 1))


def path_length(p: PiecewiseConstantPath, m: MetricSpec | None = None) -> float:
    """(1/sqrt(d^2-1)) * sum of duration * generator norm over segments."""
    d = p.dim
    total = sum(ds * generator_norm(H, m) for H, ds in p.segments)
    return float(total / np.sqrt(d**2 - 1))


def path_endpoint(p: PiecewiseConstantPath) -> np.ndarray:
    """Ordered product exp(-i H_K ds_K) ... exp(-i H_1 ds_1)."""
    U = np.eye(p.dim, dtype=np.complex128)
    for H, ds in p.segments:
        U = matrix_exp_unitary(H, ds) @ U
    return U


def principal_log_generator(U: np.ndarray) -> np.ndarray:
    """Hermitian G with exp(-i G) = U and eigenvalues of G in [-pi, pi)."""
    return _principal_logs(unitary(U)[None])[0]


def _principal_logs(U: np.ndarray) -> np.ndarray:
    """Principal-log generators of an unchecked (n, d, d) stack of unitaries.

    A global phase puts -1 in the middle of U's widest eigen-angle gap, so the
    Cayley transform i (I + V)^-1 (I - V) of the rotated V is Hermitian and well
    conditioned; its eigh basis Q gives the angles as diag(Q† U Q), and -1 gives -pi.
    """
    theta = np.sort(np.angle(np.linalg.eigvals(U)), axis=-1)
    gaps = np.diff(theta, axis=-1, append=theta[:, :1] + 2 * np.pi)
    rows, k = np.arange(len(U)), np.argmax(gaps, axis=-1)
    V = U * np.exp(1j * (np.pi - theta[rows, k] - gaps[rows, k] / 2))[:, None, None]
    eye = np.eye(U.shape[-1])
    _, Q = np.linalg.eigh(1j * np.linalg.solve(eye + V, eye - V))
    g = -np.angle(np.einsum("nji,njk,nki->ni", Q.conj(), U, Q))
    g[g == np.pi] = -np.pi
    return (Q * g[:, None, :]) @ Q.conj().swapaxes(-1, -2)


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
    closing segment absorbs. This keeps the reported length equal to
    path_length of the returned path under the same metric.
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
        frame = np.concatenate([m.basis.elements, np.eye(d)[None] / np.sqrt(d)])
        self._frame = frame.reshape(self.size, self.size)

    def to_matrices(self, X: np.ndarray) -> np.ndarray:
        """Generators of a (..., size) stack of coordinates, as (..., d, d)."""
        d = self.d
        flat = X.reshape(-1, self.size)
        H = np.einsum("mk,kab->mab", flat[:, :-1].astype(np.complex128), self.m.basis.elements)
        H = H + (flat[:, -1] / np.sqrt(d))[:, None, None] * np.eye(d)
        return H.reshape(*X.shape[:-1], d, d)

    def coords(self, G: np.ndarray) -> np.ndarray:
        """Coordinates of a (..., d, d) stack of Hermitian generators, Tr(E_k G)
        row by row."""
        return rowdot(self._frame, G.reshape(*G.shape[:-2], 1, self.size)).real

    def norms(self, X: np.ndarray) -> np.ndarray:
        """Weighted norms of a (..., size) stack of coordinates."""
        return np.sqrt(np.sum(self._sq_weights * X * X, axis=-1))


def _closed(
    X: np.ndarray, target: np.ndarray, chart: _Chart, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted length of each closed K-segment path of an (n, (K-1) * chart.size)
    stack of free segments, each running for 1/K.

    The last segment runs K L for 1/K, with L the principal log of target P†
    and P the product of the free segments, so every path ends on the target.
    Returns (length, L) per row; every row is computed as it would be alone.
    """
    d = chart.d
    segs = X.reshape(len(X), K - 1, chart.size)
    exps = matrix_exp_unitary(chart.to_matrices(segs), 1.0 / K)
    P = np.eye(d, dtype=np.complex128)
    for k in range(K - 1):
        P = exps[:, k] @ P
    L = _principal_logs(target @ P.conj().swapaxes(-1, -2))
    free = np.sum(chart.norms(segs), axis=-1) * (1.0 / K)
    return (free + chart.norms(chart.coords(L))) / np.sqrt(d**2 - 1), L


def estimate_cc_distance(
    U: np.ndarray,
    V: np.ndarray,
    m: MetricSpec,
    segments: int = 8,
    restarts: int = 16,
    seed: int = 0,
) -> GeodesicEstimate:
    """Upper bound on the weighted control distance from U to V, with a
    certificate path of `segments` equal pieces. The flat distance is exact
    and needs no search: log_distance.

    Right-invariance is used exactly: the path connects the identity to
    V U†. The search runs over the first K - 1 = segments - 1 segments (so
    segments must be at least 2); the last segment closes each path exactly
    on the target (_closed), and the objective is the weighted length
    alone. Restart 0 starts from the principal-log path, which the closure
    returns unchanged, so the estimate is never above it; the remaining
    restarts are random. One coordinate_search runs every restart in
    lockstep, and each ends where it would alone. The shortest wins, the
    first in start order on a tie. Deterministic for a fixed seed.
    """
    U = unitary(U)
    V = unitary(V)
    if U.shape != V.shape:
        raise ValueError(f"Dimension mismatch: {U.shape} vs {V.shape}.")
    if segments < 2:
        raise ArgumentError("segments", f"expected at least 2, got {segments}; the last closes")
    if restarts < 1:
        raise ArgumentError("restarts", f"expected at least 1, got {restarts}")
    target = V @ U.conj().T
    chart = _Chart(U.shape[0], m)
    K = segments
    g_coords = chart.coords(principal_log_generator(target))
    scale = max(float(np.linalg.norm(g_coords)), 0.5)
    x = np.empty((restarts, (K - 1) * chart.size))
    x[0] = np.tile(g_coords, K - 1)  # each free segment runs G for 1/K; the closure too
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(restarts - 1), start=1):
        x[r] = np.random.default_rng(child).normal(scale=scale, size=x.shape[1])
    step = np.full((restarts, 1), 0.25 * max(scale, 1.0))
    step[0] = 0.08 * max(scale, 1.0) / K
    res = coordinate_search(
        lambda X: _closed(X, target, chart, K)[0],
        x,
        step=step,
        step_tol=SEARCH_STEP_TOL,
        max_sweeps=SEARCH_SWEEPS,
    )
    best = res.x[np.argmin(res.fun)]
    length, L = _closed(best[None], target, chart, K)
    Hs = chart.to_matrices(best.reshape(K - 1, chart.size))
    path = PiecewiseConstantPath(segments=tuple((H, 1.0 / K) for H in (*Hs, K * L[0])))
    err = hs_norm(path_endpoint(path) - target)
    if not err <= ENDPOINT_TOL:
        raise ValueError(f"Closed path misses the target by {err:.3e} > {ENDPOINT_TOL:.1e}.")
    return GeodesicEstimate(
        length=float(length[0]), endpoint_error=err, path=path, restarts_used=restarts
    )


def cost_l1(p: PiecewiseConstantPath, basis: PauliBasis) -> float:
    """Integrated l1 norm of the control coefficients."""
    total = 0.0
    for H, ds in p.segments:
        coeffs = vectorize(H, basis)
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
