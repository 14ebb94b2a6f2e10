"""Random-generator Schrödinger integration and ensemble statistics.

Noise is piecewise constant over a correlation step, each substep is an
exact Hermitian exponential, so every trajectory stays unitary and there
is no integrator drift. Trajectories own independent RNG streams spawned
from one seed, which makes single runs and batched ensembles agree
trajectory for trajectory. An ensemble is integrated once: the mean, the
per-trajectory statistics and, for norm-matched noise, the fluctuation
checks all come from the same pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesic import PiecewiseConstantPath, log_distance, log_norms, path_endpoint
from .operators import hs_norm
from .pauli import PauliBasis, build_pauli_basis, devectorize_rows, vectorize

TRAJECTORY_UNITARITY_TOL = 1e-9
MEAN_OP_NORM_TOL = 1e-9
MATCHED_NORM_TOL = 1e-9
DISTANCE_BOUND_SLACK = 1e-6
TRIANGLE_SLACK = 1e-9
#: Most noise substeps a config may ask for: 256 times the default count.
MAX_SUBSTEPS = 65536
#: Most trajectories a config may ask for up to d = 8; see max_trajectories.
MAX_TRAJECTORIES = 200_000
_CHUNK = 512


@dataclass(frozen=True)
class NoiseModel:
    """Random traceless Hermitian generator model.

    gaussian_pauli: independent zero-mean coefficients with per-basis
    standard deviations sigma (scalar or per-coefficient vector).

    bounded_matched: an isotropic random direction rescaled so the HS
    norm of every sample equals sqrt(sum_j l_j h_j(t)^2), with h_j the
    coefficients of the current deterministic segment generator and l_j
    the supplied weights. The norm condition is realized as an equality;
    samples are on the bound, not merely under it.
    """

    kind: str
    sigma: np.ndarray | float | None = None
    weights: np.ndarray | None = None
    dt_noise: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian_pauli", "bounded_matched"):
            raise ValueError(f"Unknown noise kind {self.kind!r}.")
        if self.kind == "gaussian_pauli":
            if self.sigma is None:
                raise ValueError("gaussian_pauli requires sigma.")
            sig = np.atleast_1d(np.asarray(self.sigma, dtype=float))
            if np.any(sig < 0):
                raise ValueError(f"Noise sigma must be >= 0, min {sig.min()!r}.")
            object.__setattr__(self, "sigma", sig)
        else:
            if self.weights is None:
                raise ValueError("bounded_matched requires weights.")
            w = np.asarray(self.weights, dtype=float)
            if np.any(w < 1.0):
                raise ValueError(f"Matched-noise weights must be >= 1, min {w.min()!r}.")
            object.__setattr__(self, "weights", w)
        if self.dt_noise is not None and self.dt_noise <= 0:
            raise ValueError(f"dt_noise must be positive, got {self.dt_noise!r}.")


@dataclass(frozen=True)
class EnsembleResult:
    """Arithmetic mean of trajectory endpoints plus per-trajectory stats.

    distances are ambient HS distances from each endpoint to the mean;
    endpoint_deviations are distances to the noiseless endpoint.
    fluctuations holds the fluctuation_report checks of the same
    trajectories for bounded_matched noise, and is None otherwise.
    """

    mean_operator: np.ndarray
    trajectories_used: int
    distances: np.ndarray
    endpoint_deviations: np.ndarray
    hr_integrals: np.ndarray
    seed: int
    fluctuations: dict | None = None

    def __post_init__(self) -> None:
        op = float(np.linalg.norm(self.mean_operator, 2))
        if op > 1.0 + MEAN_OP_NORM_TOL:
            raise ValueError(
                f"Mean of unitaries has operator norm {op!r} above 1; "
                "trajectories were inconsistent."
            )


def max_trajectories(d: int) -> int:
    """Largest ensemble a config may ask for at dimension d.

    MAX_TRAJECTORIES up to d = 8, then scaled by 64/d^2, so that the
    stored endpoints never take more than about 205 MB at any d.
    """
    return MAX_TRAJECTORIES * 64 // max(64, d * d)


def _noise_basis(d: int) -> PauliBasis:
    n = int(round(np.log2(d)))
    if 2**n != d:
        raise ValueError(f"Noise sampling needs a qubit dimension, got {d}.")
    return build_pauli_basis(n)


def _expm_batch(A: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i tau A) for a batch of Hermitian matrices."""
    d = A.shape[-1]
    if d == 2:
        a01 = A[..., 0, 1]
        vx = a01.real
        vy = -a01.imag
        vz = (A[..., 0, 0].real - A[..., 1, 1].real) / 2.0
        a0 = (A[..., 0, 0].real + A[..., 1, 1].real) / 2.0
        r = np.sqrt(vx * vx + vy * vy + vz * vz)
        cos = np.cos(r * tau)
        # sin(r tau)/r, finite at r = 0
        snc = tau * np.sinc(r * tau / np.pi)
        phase = np.exp(-1j * a0 * tau)
        out = np.empty_like(A)
        out[..., 0, 0] = phase * (cos - 1j * snc * vz)
        out[..., 1, 1] = phase * (cos + 1j * snc * vz)
        out[..., 0, 1] = phase * (-1j * snc * (vx - 1j * vy))
        out[..., 1, 0] = phase * (-1j * snc * (vx + 1j * vy))
        return out
    w, V = np.linalg.eigh(A)
    ph = np.exp(-1j * tau * w)
    return np.einsum("...ij,...j,...kj->...ik", V, ph, V.conj())


def _segment_plan(
    path: PiecewiseConstantPath, noise: NoiseModel, basis: PauliBasis
) -> list[tuple[np.ndarray, int, float, float | None]]:
    """Per segment: generator, substep count, substep length, matched target."""
    dt = noise.dt_noise if noise.dt_noise is not None else path.total_time / 256.0
    plan = []
    for k, (H, ds) in enumerate(path.segments):
        n_sub = int(round(ds / dt))
        if n_sub < 1 or abs(n_sub * dt - ds) > 1e-9 * max(1.0, ds):
            raise ValueError(
                f"Noise step {dt!r} does not divide segment {k} duration {ds!r}."
            )
        target = None
        if noise.kind == "bounded_matched":
            h = vectorize(H, basis).coefficients
            if noise.weights.shape != h.shape:
                raise ValueError(
                    f"Need {h.size} matched-noise weights, got {noise.weights.size}."
                )
            target = float(np.sqrt(np.sum(noise.weights * h * h)))
        plan.append((H, n_sub, ds / n_sub, target))
    return plan


def _sample_coeffs(
    noise: NoiseModel, n_sub: int, n_coeff: int, target: float | None, rng
) -> np.ndarray:
    if noise.kind == "gaussian_pauli":
        sig = noise.sigma
        if sig.size not in (1, n_coeff):
            raise ValueError(f"sigma has {sig.size} entries, expected 1 or {n_coeff}.")
        return rng.normal(0.0, 1.0, size=(n_sub, n_coeff)) * sig
    g = rng.normal(size=(n_sub, n_coeff))
    nrm = np.linalg.norm(g, axis=1, keepdims=True)
    nrm[nrm == 0.0] = 1.0
    return (g / nrm) * target


def _run_trajectories(
    path: PiecewiseConstantPath, noise: NoiseModel, rngs: list
) -> tuple[np.ndarray, np.ndarray, float, list]:
    """Evolve one trajectory per RNG; returns endpoints, noise-norm
    integrals, the worst matched-norm deviation seen, and the segment plan."""
    d = path.dim
    basis = _noise_basis(d)
    plan = _segment_plan(path, noise, basis)
    M = len(rngs)
    endpoints = np.empty((M, d, d), dtype=np.complex128)
    integrals = np.zeros(M)
    worst_dev = 0.0
    for lo in range(0, M, _CHUNK):
        hi = min(lo + _CHUNK, M)
        B = hi - lo
        U = np.broadcast_to(np.eye(d, dtype=np.complex128), (B, d, d)).copy()
        for H, n_sub, tau, target in plan:
            # Filled row by row: a list of samples plus np.stack, or one norm
            # over the whole block, would hold a second copy of C at once.
            C = np.empty((B, n_sub, len(basis.labels)))
            norms = np.empty((B, n_sub))
            for i in range(B):
                C[i] = _sample_coeffs(noise, n_sub, len(basis.labels), target, rngs[lo + i])
                norms[i] = np.linalg.norm(C[i], axis=1)
            integrals[lo:hi] += tau * norms.sum(axis=1)
            if target is not None:
                worst_dev = max(worst_dev, float(np.max(np.abs(norms - target))))
            for s in range(n_sub):
                A = H + devectorize_rows(C[:, s], basis)
                U = _expm_batch(A, tau) @ U
        endpoints[lo:hi] = U
    dev = np.abs(
        np.einsum("bji,bjk->bik", endpoints.conj(), endpoints) - np.eye(d)
    ).max()
    if dev > TRAJECTORY_UNITARITY_TOL:
        raise ValueError(f"Trajectory lost unitarity: max |U†U - I| = {dev:.3e}.")
    return endpoints, integrals, worst_dev, plan


def integrate_rode(
    path: PiecewiseConstantPath, noise: NoiseModel, seed
) -> np.ndarray:
    """One sample path of the noisy propagator. Deterministic given seed."""
    endpoints, _, _, _ = _run_trajectories(path, noise, [np.random.default_rng(seed)])
    return endpoints[0]


def _ensemble(
    path: PiecewiseConstantPath, noise: NoiseModel, M: int, seed: int
) -> EnsembleResult:
    """Integrate M seeded trajectories once and derive every statistic,
    including the matched-noise fluctuation checks, from that pass."""
    if M < 1:
        raise ValueError(f"Ensemble size must be >= 1, got {M}.")
    children = np.random.SeedSequence(seed).spawn(M)
    rngs = [np.random.default_rng(c) for c in children]
    endpoints, integrals, worst_dev, plan = _run_trajectories(path, noise, rngs)
    V = endpoints.mean(axis=0)
    U_free = path_endpoint(path)
    distances = np.linalg.norm(endpoints - V, axis=(1, 2))
    deviations = np.linalg.norm(endpoints - U_free, axis=(1, 2))
    fluctuations = None
    if noise.kind == "bounded_matched":
        G_free = float(log_norms(U_free))
        mean_to_free = distance_operator(V, U_free)
        viol_distance = [
            i for i in range(M) if distances[i] > integrals[i] + DISTANCE_BOUND_SLACK
        ]
        viol_gap = []
        for lo in range(0, M, _CHUNK):
            chunk = endpoints[lo : lo + _CHUNK]
            gap = np.abs(G_free - log_norms(chunk))
            to_free = log_norms(U_free.conj().T @ chunk)
            viol_gap += [lo + int(i) for i in np.flatnonzero(gap > to_free + TRIANGLE_SLACK)]
        viol_triangle = [
            i for i in range(M) if deviations[i] > distances[i] + mean_to_free + TRIANGLE_SLACK
        ]
        matched_ok = bool(worst_dev <= MATCHED_NORM_TOL)
        fluctuations = {
            "n_trajectories": M,
            "matched_norm_max_deviation": worst_dev,
            "matched_norm_ok": matched_ok,
            "segment_targets": [target for _, _, _, target in plan],
            "noise_integral": sum(tau * n_sub * tgt for _, n_sub, tau, tgt in plan),
            "violations_distance_bound": viol_distance,
            "violations_complexity_gap": viol_gap,
            "violations_triangle": viol_triangle,
            "max_distance_to_mean": float(distances.max()),
            "all_ok": not (viol_distance or viol_gap or viol_triangle) and matched_ok,
        }
    return EnsembleResult(
        mean_operator=V,
        trajectories_used=M,
        distances=distances,
        endpoint_deviations=deviations,
        hr_integrals=integrals,
        seed=seed,
        fluctuations=fluctuations,
    )


def ensemble_mean(
    path: PiecewiseConstantPath, noise: NoiseModel, M: int, seed: int
) -> EnsembleResult:
    """Mean of M independent trajectories with per-trajectory statistics;
    matched noise also fills in the fluctuation checks."""
    return _ensemble(path, noise, M, seed)


def distance_unitaries(U: np.ndarray, W: np.ndarray) -> float:
    """Geodesic distance (1/sqrt(d^2-1)) ||principal log(U†W)||_HS.

    An eigenvalue at exactly -1 takes the +pi branch angle.
    """
    return log_distance(U, W)


def distance_operator(U: np.ndarray, V: np.ndarray) -> float:
    """Ambient HS distance ||U - V||, used whenever an argument may be
    non-unitary (ensemble means are contractions, not unitaries)."""
    U = np.asarray(U)
    V = np.asarray(V)
    if U.shape != V.shape:
        raise ValueError(f"Dimension mismatch: {U.shape} vs {V.shape}.")
    return hs_norm(U - V)


def fluctuation_report(
    path: PiecewiseConstantPath, noise: NoiseModel, M: int, seed: int
) -> dict:
    """Per-trajectory bound checks for norm-matched noise.

    For each trajectory: the ambient distance to the ensemble mean must
    stay within the integrated noise norm, the complexity gap to the
    noise-free propagator must stay within the geodesic distance, and
    the ambient triangle route through the mean must close. Violations
    are listed by trajectory index. The same dict is
    ensemble_mean(...).fluctuations.
    """
    if noise.kind != "bounded_matched":
        raise ValueError("fluctuation_report requires bounded_matched noise.")
    return _ensemble(path, noise, M, seed).fluctuations


def write_ensemble(result: EnsembleResult, stem: str) -> tuple[str, str]:
    """Persist per-trajectory rows to <stem>.csv and a summary to <stem>.json."""
    import json

    csv_path = f"{stem}.csv"
    json_path = f"{stem}.json"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("index,distance_to_mean,endpoint_deviation,noise_integral\n")
        for i in range(result.trajectories_used):
            fh.write(
                f"{i},{float(result.distances[i])!r},"
                f"{float(result.endpoint_deviations[i])!r},"
                f"{float(result.hr_integrals[i])!r}\n"
            )
    summary = {
        "trajectories_used": result.trajectories_used,
        "seed": result.seed,
        "mean_operator_norm": float(np.linalg.norm(result.mean_operator, 2)),
        "mean_distance": float(result.distances.mean()),
        "max_distance": float(result.distances.max()),
        "mean_endpoint_deviation": float(result.endpoint_deviations.mean()),
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
