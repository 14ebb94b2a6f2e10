"""System+environment channels and their complexity measures.

Kraus extraction from the joint propagator, channel application with an
independent partial-trace route, channel and noise complexity for
constant and piecewise-constant generators, the noise sandwich bounds,
and the commuting-dephasing perturbative benchmark.

Conventions (also emitted in every CLI report):
- The system Hamiltonian inside every complexity formula means
  H_S ⊗ I on the joint space, and all complexities use d = d_S * d_E.
- The joint propagator is exp(-i t H_tot) wherever it appears,
  including inside the Kraus sandwich.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesic import geometric_complexity_const, log_distance, segment_duration
from .operators import (
    ArgumentError,
    at_least,
    density,
    hermitian,
    hs_norm,
    matrix_abs,
    matrix_exp_unitary,
    named,
    partial_trace_env,
    sqrt_abs_diff,
    tensor,
    unitary,
)
from .pauli import MetricSpec

KRAUS_COMPLETENESS_TOL = 1e-9
PROB_TOL = 1e-9
COMMUTE_TOL = 1e-10
PSD_TOL = -1e-10


def _check_shape(name: str, A: np.ndarray, shape: tuple[int, ...]) -> None:
    """Refuse argument `name`, A, unless its shape is `shape`: (d,) for a
    vector, (d, d) for a matrix."""
    A = np.asarray(A)
    if A.shape != shape:
        raise ArgumentError(name, f"expected shape {shape}, got {A.shape}")


def _check_probabilities(name: str, p, d: int) -> np.ndarray:
    """Refuse argument `name`, p, unless it is a probability d-vector."""
    p = at_least(name, p, 0)
    _check_shape(name, p, (d,))
    if abs(float(p.sum()) - 1.0) > PROB_TOL:
        raise ArgumentError(name, f"entries sum to {float(p.sum())!r}, not 1")
    return p


@dataclass(frozen=True)
class ChannelSpec:
    """System+environment split defining the reduced dynamics.

    env_probs are the eigenweights of the initial environment state in
    the env_basis columns; env_basis defaults to the standard basis and
    env_probs to the uniform distribution.
    """

    d_S: int
    d_E: int
    H_S: np.ndarray
    H_I: np.ndarray
    H_E: np.ndarray
    env_probs: np.ndarray | None = None
    env_basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.d_S < 1 or self.d_E < 1:
            raise ArgumentError("d_S" if self.d_S < 1 else "d_E", "expected a positive dimension")
        for name, d in (("H_S", self.d_S), ("H_I", self.d_S * self.d_E), ("H_E", self.d_E)):
            H = named(name, hermitian, getattr(self, name))
            _check_shape(name, H, (d, d))
            object.__setattr__(self, name, H)
        if self.env_probs is None:
            p = np.full(self.d_E, 1.0 / self.d_E)
        else:
            p = _check_probabilities("env_probs", self.env_probs, self.d_E)
        B = self.env_basis
        B = np.eye(self.d_E, dtype=np.complex128) if B is None else named("env_basis", unitary, B)
        _check_shape("env_basis", B, (self.d_E, self.d_E))
        object.__setattr__(self, "env_probs", p)
        object.__setattr__(self, "env_basis", B)

    def h_system_embedded(self) -> np.ndarray:
        return np.kron(self.H_S, np.eye(self.d_E))

    def h_total(self) -> np.ndarray:
        return (
            self.h_system_embedded()
            + self.H_I
            + tensor(np.eye(self.d_S), self.H_E)
        )

    def env_state(self) -> np.ndarray:
        B = self.env_basis
        return (B * self.env_probs) @ B.conj().T


def kraus_operators(spec: ChannelSpec, t: float) -> np.ndarray:
    """The (d_E², d_S, d_S) Kraus stack at time t; completeness is enforced.

    M[j·d_E + i] = sqrt(p_i) <E_j| exp(-i t H_tot) |E_i>, the
    environment-indexed blocks of the joint propagator in row-major (j, i)
    order.
    """
    U = matrix_exp_unitary(spec.h_total(), t)
    R = U.reshape(spec.d_S, spec.d_E, spec.d_S, spec.d_E)
    B = spec.env_basis
    # blocks[j, i] = <E_j| U |E_i> acting on the system factor
    blocks = np.einsum("ej,setf,fi->jist", B.conj(), R, B)
    M = blocks * np.sqrt(spec.env_probs)[None, :, None, None]
    M = M.reshape(spec.d_E**2, spec.d_S, spec.d_S)
    total = np.einsum("kba,kbc->ac", M.conj(), M)
    dev = float(np.max(np.abs(total - np.eye(spec.d_S))))
    if dev > KRAUS_COMPLETENESS_TOL:
        raise ValueError(f"Kraus completeness violated: max |sum M†M - I| = {dev:.3e}.")
    return M


def _system_state(spec: ChannelSpec, rho_S: np.ndarray) -> np.ndarray:
    """rho_S checked as a density matrix on the system of spec."""
    rho_S = density(rho_S)
    if rho_S.shape[0] != spec.d_S:
        raise ValueError(f"State dim {rho_S.shape[0]} does not match d_S={spec.d_S}.")
    return rho_S


def apply_channel(spec: ChannelSpec, t: float, rho_S: np.ndarray) -> np.ndarray:
    """Reduced dynamics via the Kraus sum."""
    rho_S = _system_state(spec, rho_S)
    M = kraus_operators(spec, t)
    out = np.einsum("kab,bc,kdc->ad", M, rho_S, M.conj())
    return density(out)


def apply_channel_via_joint(spec: ChannelSpec, t: float, rho_S: np.ndarray) -> np.ndarray:
    """Independent route: evolve the joint product state, trace out the
    environment. Kept separate from the Kraus route on purpose so the
    two stay cross-checkable."""
    rho_S = _system_state(spec, rho_S)
    joint = tensor(rho_S, spec.env_state())
    U = matrix_exp_unitary(spec.h_total(), t)
    evolved = U @ joint @ U.conj().T
    return partial_trace_env(evolved, spec.d_S, spec.d_E)


def _joint(spec: ChannelSpec, t: float, m: MetricSpec | None = None) -> tuple[dict, tuple]:
    """The one evaluation of a joint spec at time t that every constant-
    generator quantity reads: complexity_split's dict under metric m (flat
    when None), and (H_tot, H_Se, resid, G_tot) for the sandwich bounds,
    where H_Se = H_S ⊗ I and resid is the residual generator
    sqrt(|H_tot^2 - H_Se^2|)."""
    H_tot = spec.h_total()
    H_Se = spec.h_system_embedded()
    resid = sqrt_abs_diff(H_tot, H_Se)
    g_tot = geometric_complexity_const(H_tot, t, m)
    g_channel = float(g_tot - geometric_complexity_const(resid, t, m))
    g_free = float(geometric_complexity_const(H_Se, t, m))
    split = {"G_hs": g_channel, "G_noiseless": g_free, "N_hs": abs(g_channel - g_free)}
    return split, (H_tot, H_Se, resid, g_tot)


def channel_complexity_const(spec: ChannelSpec, t: float) -> float:
    """Joint complexity minus the complexity of the residual generator
    sqrt(|H_tot^2 - (H_S ⊗ I)^2|)."""
    return _joint(spec, t)[0]["G_hs"]


def complexity_split(spec: ChannelSpec, t: float) -> dict:
    """G_hs, the channel complexity; G_noiseless, the complexity of the
    embedded system generator alone; and N_hs, the noise complexity, the
    absolute gap between the two."""
    return _joint(spec, t)[0]


def noise_complexity_bounds(spec: ChannelSpec, t: float) -> dict:
    """complexity_split's G_hs, G_noiseless and N_hs, with a lower and an
    upper envelope for N_hs, all from one evaluation of the joint spec.

    lower: complexity of exp(-it(sqrt(|H_tot^2 - H_Se^2|) + |H_Se|))
    minus the joint complexity. upper: G_noiseless minus distance_estimate,
    the flat geodesic distance between the joint propagator and the
    residual propagator. That distance is log_distance, the principal-log
    closed form, so it is exact and upper is always a number.

    When the upper bound holds. Write G_0 for G_noiseless and D for
    distance_estimate, so upper = G_0 - D.
      1. If G_hs <= G_0 (the channel_below_system check), then
         N_hs = |G_hs - G_0| = G_0 - G_hs.
      2. So N_hs - upper = (G_0 - G_hs) - (G_0 - D) = D - G_hs.
      3. So N_hs <= upper holds iff G_hs >= D, that is iff
         G_tot - G_resid >= d_flat(U_tot, U_resid).
    G_tot and G_resid are lengths of constant paths, not distances, so
    nothing forces step 3: on a spec where G_hs < D the upper bound fails,
    by exactly D - G_hs.
    """
    split, (H_tot, H_Se, resid, g_tot) = _joint(spec, t)
    lower = geometric_complexity_const(resid + matrix_abs(H_Se), t, None) - g_tot
    distance = float(log_distance(matrix_exp_unitary(H_tot, t), matrix_exp_unitary(resid, t)))
    return split | {
        "lower": float(lower),
        "upper": split["G_noiseless"] - distance,
        "distance_estimate": distance,
    }


@dataclass(frozen=True)
class TimeDependentSpec:
    """A piecewise-constant channel family: each ChannelSpec segment holds
    for its duration. Every segment has the first one's d_S and d_E, and a
    metric acts on their joint space."""

    segments: tuple[tuple[ChannelSpec, float], ...]
    metric: MetricSpec | None = None

    def __post_init__(self) -> None:
        if not self.segments:
            raise ArgumentError("segments", "expected at least one segment")
        dims = [(spec.d_S, spec.d_E) for spec, _ in self.segments]
        for k, dk in enumerate(dims):
            if dk != dims[0]:
                raise ArgumentError("segments", f"segment {k} has (d_S, d_E) {dk}, not {dims[0]}")
        m, d = self.metric, dims[0][0] * dims[0][1]
        if m is not None and m.basis.dim != d:
            raise ArgumentError("metric", f"basis dimension {m.basis.dim}, not d_S·d_E = {d}")
        checked = [(spec, segment_duration(k, ds)) for k, (spec, ds) in enumerate(self.segments)]
        object.__setattr__(self, "segments", tuple(checked))


def complexity_split_td(spec: TimeDependentSpec) -> dict:
    """The time-dependent split: complexity_split on each segment, under
    spec.metric, summed in segment order.

    G_td is the sum of the segments' G_hs and G_noiseless_td the sum of
    their G_noiseless, so a path length adds up segment by segment and a
    single flat segment reproduces complexity_split exactly. Like G_hs,
    G_td may be negative. N_td = |G_td - G_noiseless_td| is taken once,
    on the sums, not per segment.
    """
    g_td = g_free = 0.0
    for seg, ds in spec.segments:
        split = _joint(seg, ds, spec.metric)[0]
        g_td += split["G_hs"]
        g_free += split["G_noiseless"]
    return {"G_td": g_td, "G_noiseless_td": g_free, "N_td": abs(g_td - g_free)}


def check_perturbative(
    H_S: np.ndarray, A_S: np.ndarray, env_energies: np.ndarray, weights: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refuse, naming the argument, the first perturbative-model rule broken:
    H_S and A_S are Hermitian, of one dimension, commuting (blamed on A_S)
    and PSD; env_energies are >= 0; weights are a probability vector with
    one entry per energy; eps >= 0. Returns H_S, A_S, env_energies and
    weights as checked arrays."""
    H_S = named("H_S", hermitian, H_S)
    A_S = named("A_S", hermitian, A_S)
    _check_shape("A_S", A_S, H_S.shape)
    E = at_least("env_energies", env_energies, 0)
    _check_shape("env_energies", E, (E.size,))
    weights = _check_probabilities("weights", weights, len(E))
    if not eps >= 0:
        raise ArgumentError("eps", f"expected a number >= 0, got {eps!r}")
    comm_dev = float(np.max(np.abs(H_S @ A_S - A_S @ H_S)))
    if comm_dev > COMMUTE_TOL:
        raise ArgumentError("A_S", f"H_S and A_S do not commute (deviation {comm_dev:.3e}).")
    for name, M in (("H_S", H_S), ("A_S", A_S)):
        w_min = float(np.linalg.eigvalsh(M)[0])
        if w_min < PSD_TOL:
            raise ArgumentError(name, f"{name} is not PSD (min eigenvalue {w_min:.3e}).")
    return H_S, A_S, E, weights


def perturbative_example(
    H_S: np.ndarray,
    A_S: np.ndarray,
    env_energies: np.ndarray,
    weights: np.ndarray,
    eps: float,
    t: float = 1.0,
) -> dict:
    """Commuting PSD perturbation benchmark.

    The joint generator is H_S ⊗ I + eps * A_S ⊗ diag(E). The exact
    value is channel_complexity_const; the closed-form prediction is

        (t/sqrt(d^2-1)) * h * (1 - sqrt(eps) w (1 - sqrt(eps) w / 2))

    with h the HS norm of the embedded system generator and coupling
    w = sqrt(2 <A_S, H_S> <E>) / ||H_S||. The inner factor uses w/2, not
    w: the exact eps-order coefficient is c/h = h w^2 / 2, which the w/2
    form reproduces while the plain form is off by a factor 2. The outer
    sqrt(eps) coefficient fixes w itself; a leading (d^2-1) factor under
    w's square root is empirically inconsistent with the exact route and
    is not used. The match is O(eps^{3/2}) when the environment weights
    are uniform (then Tr diag(E) = d_E <E>).
    """
    return perturbative_values(*check_perturbative(H_S, A_S, env_energies, weights, eps), eps, t)


def perturbative_values(
    H_S: np.ndarray, A_S: np.ndarray, E: np.ndarray, alpha: np.ndarray, eps: float, t: float
) -> dict:
    """perturbative_example on the arrays that check_perturbative returned."""
    d_S = H_S.shape[0]
    d_E = E.size
    spec = ChannelSpec(
        d_S=d_S,
        d_E=d_E,
        H_S=H_S,
        H_I=eps * tensor(A_S, np.diag(E)),
        H_E=np.zeros((d_E, d_E)),
        env_probs=alpha,
    )
    exact = channel_complexity_const(spec, t)
    d = d_S * d_E
    h = np.sqrt(d_E) * hs_norm(H_S)
    mean_E = float(np.sum(alpha * E))
    inner = float(np.trace(A_S @ H_S).real)
    omega = np.sqrt(max(2.0 * inner * mean_E, 0.0)) / hs_norm(H_S)
    se = np.sqrt(eps)
    perturbative = (t / np.sqrt(d**2 - 1)) * h * (1.0 - se * omega * (1.0 - se * omega / 2.0))
    return {
        "exact": exact,
        "perturbative": float(perturbative),
        "omega_coupling": float(omega),
        "error": float(abs(exact - perturbative)),
    }
