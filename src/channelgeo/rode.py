"""Random-generator Schrödinger integration and ensemble statistics.

Noise is piecewise constant over a correlation step, and each substep is
the exponential of a Hermitian generator: closed form at d = 2, where the
step's product is also taken entry by entry over the stack, and above that a
Paterson–Stockmeyer Taylor polynomial of the cheapest degree truncated below
2^-53, so every trajectory stays unitary to rounding and there is no
integrator drift. Trajectories own independent RNG streams spawned from one
seed, so single runs and batched ensembles draw the same noise; they agree
to rounding, not bit for bit, because the Taylor degree and the Pauli sum's
matrix product are chosen per stack of trajectories. Noise is drawn in place
into a bounded piece buffer and its norms are summed piece by piece, so a
run's memory does not grow with its length. An ensemble is integrated once:
the mean, the per-trajectory statistics and, for norm-matched noise, the
fluctuation checks all come from the same pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geodesic import PiecewiseConstantPath, log_distance, log_norms, path_endpoint
from .operators import ArgumentError, at_least, hs_norm
from .pauli import MetricSpec, build_pauli_basis, devectorize_rows, omega_norm_raw

TRAJECTORY_UNITARITY_TOL = 1e-9
MEAN_OP_NORM_TOL = 1e-9
MATCHED_NORM_TOL = 1e-9
DISTANCE_BOUND_SLACK = 1e-6
TRIANGLE_SLACK = 1e-9
#: Most noise substeps a run may ask for: 256 times the default count.
MAX_SUBSTEPS = 65536
#: Most trajectories a run may ask for up to d = 8; see max_trajectories.
MAX_TRAJECTORIES = 200_000
_CHUNK = 512
#: Most bytes of noise coefficients a chunk of trajectories holds at once.
_PIECE_BYTES = 2**21
#: Taylor degrees m of the d >= 3 substep exponential, each with the largest
#: theta for which theta^(m+1)/(m+1)! e^theta <= 2^-53, a bound on the
#: truncation error of exp(X) for ||X||_2 <= theta. Each m is the largest
#: degree at its Paterson–Stockmeyer cost of 3, 4, 5, 6 and 8 products.
TAYLOR_DEGREES = (
    (6, 0.017725227918169606),
    (9, 0.11365313850770731),
    (12, 0.32748371310275276),
    (16, 0.7893586814173489),
    (25, 2.3466949464971947),
)


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

    Each kind reads only its own field and refuses the other one.
    """

    kind: str
    sigma: np.ndarray | float | None = None
    weights: np.ndarray | None = None
    dt_noise: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian_pauli", "bounded_matched"):
            raise ArgumentError("kind", f"unknown noise kind {self.kind!r}")
        gauss = self.kind == "gaussian_pauli"
        need, floor, unread = ("sigma", 0.0, "weights") if gauss else ("weights", 1.0, "sigma")
        if getattr(self, need) is None:
            raise ArgumentError(need, f"missing; noise kind {self.kind!r} needs it")
        if getattr(self, unread) is not None:
            raise ArgumentError(unread, f"noise kind {self.kind!r} does not read it")
        object.__setattr__(self, need, np.atleast_1d(at_least(need, getattr(self, need), floor)))
        if self.dt_noise is not None and not self.dt_noise > 0:
            raise ArgumentError("dt_noise", f"expected a number > 0, got {self.dt_noise!r}")


@dataclass(frozen=True)
class EnsembleResult:
    """Arithmetic mean of trajectory endpoints plus per-trajectory stats.

    distances are ambient HS distances from each endpoint to the mean;
    endpoint_deviations are distances to the noiseless endpoint, and
    mean_to_free is the mean's. mean_operator_norm, the mean's operator
    2-norm, is computed and checked on construction.
    fluctuations holds the fluctuation_report checks of the same
    trajectories for bounded_matched noise, and is None otherwise.
    """

    mean_operator: np.ndarray
    trajectories_used: int
    distances: np.ndarray
    endpoint_deviations: np.ndarray
    mean_to_free: float
    hr_integrals: np.ndarray
    seed: int
    fluctuations: dict | None = None
    mean_operator_norm: float = field(init=False)

    def __post_init__(self) -> None:
        op = float(np.linalg.norm(self.mean_operator, 2))
        if not op <= 1.0 + MEAN_OP_NORM_TOL:  # NaN fails too
            raise ValueError(
                f"Mean of unitaries has operator norm {op!r} above 1; "
                "trajectories were inconsistent."
            )
        object.__setattr__(self, "mean_operator_norm", op)


def max_trajectories(d: int) -> int:
    """Largest ensemble a run may ask for at dimension d.

    MAX_TRAJECTORIES up to d = 8, then scaled by 64/d^2, so that the
    stored endpoints never take more than about 205 MB at any d.
    """
    return MAX_TRAJECTORIES * 64 // max(64, d * d)


def _expm_batch(A: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i tau A) for a batch of Hermitian matrices.

    d = 2 is closed form. Larger d is a Taylor polynomial whose degree, and
    scaling-and-squaring count, follow from one norm bound on the stack, so
    truncation stays below 2^-53; a non-finite stack gives NaN.
    """
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
    # The largest Frobenius norm in the stack bounds the 2-norm of every
    # member; the squares of the real and imaginary parts sum to its square.
    parts = A.reshape(-1, d * d).view(np.float64)
    theta = tau * math.sqrt(np.einsum("bi,bi->b", parts, parts).max())
    if not np.isfinite(theta):
        return np.full_like(A, np.nan)
    for m, theta_m in TAYLOR_DEGREES:
        if theta <= theta_m:
            return _taylor((-1j * tau) * A, m)
    # Past the top degree: scale by 2^-s, where theta / theta_m < 2^s, then square.
    m, theta_m = TAYLOR_DEGREES[-1]
    s = math.frexp(theta / theta_m)[1]
    U = _taylor((-1j * tau / 2.0**s) * A, m)
    for _ in range(s):
        U = U @ U
    return U


def _taylor(X: np.ndarray, m: int) -> np.ndarray:
    """sum_{k<=m} X^k / k! for a (B, d, d) stack, in Paterson–Stockmeyer form:
    Horner's rule in X^p over blocks of degree below p, p = ceil(sqrt(m)).
    Blocks are added in place, so the stack-sized temporaries are the powers
    of X, the running sum, one product and one term."""
    p = math.isqrt(m - 1) + 1
    c = [1.0 / math.factorial(k) for k in range(m + 1)]
    pows = [None, X]
    for _ in range(p - 1):
        pows.append(pows[-1] @ X)

    def add_block(acc: np.ndarray, j: int) -> np.ndarray:
        np.einsum("...ii->...i", acc)[...] += c[j * p]  # c I: a view of the diagonal
        for i in range(1, min(p, m - j * p + 1)):
            acc += c[j * p + i] * pows[i]
        return acc

    top = m // p
    if m % p:
        acc = add_block(np.zeros_like(X), top)
    else:
        # The top block is c_m I alone: its product with X^p is a scaling.
        top -= 1
        acc = add_block(c[m] * pows[p], top)
    for j in range(top - 1, -1, -1):
        acc = add_block(acc @ pows[p], j)
    return acc


def segment_plan(
    path: PiecewiseConstantPath, noise: NoiseModel, M: int
) -> list[tuple[np.ndarray, int, float, float | None]]:
    """Per segment of a run of M trajectories: generator, substep count,
    substep length and matched-noise target.

    Every rule of a run is checked here, before anything is sampled, and the
    first one broken raises ArgumentError naming what to blame: `path` for
    a dimension other than 2, 4, ..., 32 (the noise is drawn in a Pauli basis
    of 1..5 qubits); `M` outside 1..max_trajectories(d); `noise.sigma` (1 or
    d²-1 entries) or `noise.weights` (d²-1) of the wrong size; and, for a noise
    step that underflows, gives more than MAX_SUBSTEPS substeps or does not
    divide a segment, `noise.dt_noise`, or else, under the default step of
    total time / 256, `path` or `path.segments[k].ds`.
    """
    d = path.dim
    n = d * d - 1
    if d < 2 or d & (d - 1) or d > 2**5:
        raise ArgumentError("path", f"noise sampling needs a dimension 2, 4, 8, 16 or 32, got {d}")
    if not 1 <= M <= max_trajectories(d):
        raise ArgumentError("M", f"expected an integer from 1 to {max_trajectories(d)}, got {M}")
    if noise.kind == "gaussian_pauli" and noise.sigma.size not in (1, n):
        raise ArgumentError("noise.sigma", f"expected 1 or {n} entries, got {noise.sigma.size}")
    if noise.kind == "bounded_matched" and noise.weights.shape != (n,):
        raise ArgumentError("noise.weights", f"expected {n} entries, got {noise.weights.size}")
    step = "path" if noise.dt_noise is None else "noise.dt_noise"  # the argument that sets dt
    dt = path.total_time / 256.0 if noise.dt_noise is None else noise.dt_noise
    if not dt > 0 or path.total_time / dt > MAX_SUBSTEPS:  # dt is 0 if it underflows
        raise ArgumentError(step, f"a noise step of {dt!r} gives more than {MAX_SUBSTEPS} "
                                  f"substeps over total time {path.total_time!r}")
    basis = build_pauli_basis(d.bit_length() - 1)
    metric = MetricSpec(basis, noise.weights) if noise.kind == "bounded_matched" else None
    plan = []
    for k, (H, ds) in enumerate(path.segments):
        n_sub = int(round(ds / dt))
        if n_sub < 1 or abs(n_sub * dt - ds) > 1e-9 * max(1.0, ds):
            raise ArgumentError(f"path.segments[{k}].ds" if step == "path" else step,
                                f"noise step {dt!r} does not divide segment duration {ds!r}")
        target = None if metric is None else omega_norm_raw(H, metric)
        plan.append((H, n_sub, ds / n_sub, target))
    return plan


def _sample_coeffs(noise: NoiseModel, out: np.ndarray, target: float | None, rng) -> None:
    """Draw one trajectory's (substeps, coefficients) noise into out, in place."""
    rng.standard_normal(out=out)
    if noise.kind == "gaussian_pauli":
        out *= noise.sigma
        return
    nrm = np.linalg.norm(out, axis=1, keepdims=True)
    nrm[nrm == 0.0] = 1.0
    out /= nrm
    out *= target


def _product(E: np.ndarray, U: np.ndarray) -> np.ndarray:
    """E @ U for (B, d, d) stacks; at d = 2 from the stacked entries, since
    numpy's stacked matmul takes ~0.25 us per 2x2 matrix."""
    if U.shape[-1] != 2:
        return E @ U
    return E[:, :, :1] * U[:, :1] + E[:, :, 1:] * U[:, 1:]


def _run_trajectories(
    plan: list, noise: NoiseModel, rngs: list
) -> tuple[np.ndarray, np.ndarray, float]:
    """Evolve one trajectory per RNG along a segment_plan; returns endpoints,
    noise-norm integrals and the worst matched-norm deviation seen.

    Trajectories run in chunks of up to _CHUNK. Per chunk of B, besides its
    (B, d, d) stacks, a segment holds at most _PIECE_BYTES (2 MiB) of noise
    coefficients, or one substep's if that is more, and their norms: the
    coefficients are drawn piece by piece into one buffer, and the norms are
    summed and checked piece by piece, so nothing grows with the run's length.
    Each trajectory draws from its own generator in substep order, so the
    pieces hold the same samples as one whole-segment draw.
    """
    d = len(plan[0][0])
    basis = build_pauli_basis(d.bit_length() - 1)
    n = len(basis.labels)
    longest = max(n_sub for _, n_sub, _, _ in plan)
    M = len(rngs)
    endpoints = np.empty((M, d, d), dtype=np.complex128)
    integrals = np.zeros(M)
    worst_dev = 0.0
    dev = 0.0
    # An overflowing noise scale turns into NaN, which the unitarity check
    # below reports; numpy's warnings on the way there would only clutter stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, M, _CHUNK):
            hi = min(lo + _CHUNK, M)
            B = hi - lo
            piece = min(longest, max(1, _PIECE_BYTES // (8 * B * n)))
            C = np.empty((B, piece, n))
            norms = np.empty((B, piece))
            U = np.broadcast_to(np.eye(d, dtype=np.complex128), (B, d, d)).copy()
            for H, n_sub, tau, target in plan:
                total = np.zeros(B)
                for s0 in range(0, n_sub, piece):
                    m = min(piece, n_sub - s0)
                    # Filled row by row: a list of samples plus np.stack, or one
                    # norm over the whole piece, would hold a second copy of it.
                    for i in range(B):
                        _sample_coeffs(noise, C[i, :m], target, rngs[lo + i])
                        norms[i, :m] = np.linalg.norm(C[i, :m], axis=1)
                    total += norms[:, :m].sum(axis=1)
                    if target is not None:
                        worst_dev = max(worst_dev, float(np.abs(norms[:, :m] - target).max()))
                    for s in range(m):
                        A = H + devectorize_rows(C[:, s], basis)
                        U = _product(_expm_batch(A, tau), U)
                integrals[lo:hi] += tau * total
            del C, norms  # so that the next chunk's buffers are not allocated beside them
            endpoints[lo:hi] = U
            # np.maximum, unlike max(), keeps a NaN.
            dev = np.maximum(dev, np.abs(U.conj().transpose(0, 2, 1) @ U - np.eye(d)).max())
    if not dev <= TRAJECTORY_UNITARITY_TOL:  # NaN fails too
        raise ValueError(f"Trajectory lost unitarity: max |U†U - I| = {dev:.3e}.")
    return endpoints, integrals, worst_dev


def _ensemble(
    path: PiecewiseConstantPath, noise: NoiseModel, M: int, seed: int
) -> EnsembleResult:
    """Integrate M seeded trajectories once and derive every statistic,
    including the matched-noise fluctuation checks, from that pass."""
    plan = segment_plan(path, noise, M)  # every rule, before any stream is spawned
    children = np.random.SeedSequence(seed).spawn(M)
    rngs = [np.random.default_rng(c) for c in children]
    endpoints, integrals, worst_dev = _run_trajectories(plan, noise, rngs)
    V = endpoints.mean(axis=0)
    U_free = path_endpoint(path)
    distances = np.linalg.norm(endpoints - V, axis=(1, 2))
    deviations = np.linalg.norm(endpoints - U_free, axis=(1, 2))
    mean_to_free = hs_norm(V - U_free)
    fluctuations = None
    if noise.kind == "bounded_matched":
        G_free = float(log_norms(U_free))
        viol_distance = np.flatnonzero(distances > integrals + DISTANCE_BOUND_SLACK).tolist()
        viol_gap = []
        for lo in range(0, M, _CHUNK):
            chunk = endpoints[lo : lo + _CHUNK]
            gap = np.abs(G_free - log_norms(chunk))
            to_free = log_norms(U_free.conj().T @ chunk)
            viol_gap += (lo + np.flatnonzero(gap > to_free + TRIANGLE_SLACK)).tolist()
        viol_triangle = np.flatnonzero(
            deviations > distances + mean_to_free + TRIANGLE_SLACK
        ).tolist()
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
        mean_to_free=mean_to_free,
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
    """Geodesic distance (1/sqrt(d^2-1)) ||principal log(U†W)||_HS: log_distance."""
    return log_distance(U, W)


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


def write_ensemble(result: EnsembleResult, csv_path, json_path) -> None:
    """Persist per-trajectory rows to csv_path and a summary to json_path."""
    import json

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
        "mean_operator_norm": result.mean_operator_norm,
        "mean_distance": float(result.distances.mean()),
        "max_distance": float(result.distances.max()),
        "mean_endpoint_deviation": float(result.endpoint_deviations.mean()),
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
