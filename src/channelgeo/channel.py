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
- For time-dependent generators, the squared-norm symbol is read as the
  square of the metric norm of H(s), not a norm of H(s)^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesic import (
    PiecewiseConstantPath,
    generator_norm,
    geometric_complexity_const,
    log_distance,
    segment_duration,
)
from .operators import (
    ArgumentError,
    at_least,
    density,
    embed_system,
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

    @property
    def dim(self) -> int:
        return self.d_S * self.d_E

    def h_system_embedded(self) -> np.ndarray:
        return embed_system(self.H_S, self.d_E)

    def h_total(self) -> np.ndarray:
        return (
            self.h_system_embedded()
            + self.H_I
            + tensor(np.eye(self.d_S), self.H_E)
        )

    def env_state(self) -> np.ndarray:
        B = self.env_basis
        return (B * self.env_probs) @ B.conj().T


@dataclass(frozen=True)
class KrausSet:
    """Environment-indexed blocks of the joint propagator.

    operators[j, i] = sqrt(p_i) <E_j| exp(-i t H_tot) |E_i>, flattened in
    row-major (j, i) order.
    """

    operators: np.ndarray  # (d_E^2, d_S, d_S)
    t: float


def kraus_operators(spec: ChannelSpec, t: float) -> KrausSet:
    """Extract the Kraus family at time t; completeness is enforced."""
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
        raise ValueError(
            f"Kraus completeness violated: max |sum M†M - I| = {dev:.3e}."
        )
    return KrausSet(operators=M, t=float(t))


def apply_channel(spec: ChannelSpec, t: float, rho_S: np.ndarray) -> np.ndarray:
    """Reduced dynamics via the Kraus sum."""
    rho_S = density(rho_S)
    if rho_S.shape[0] != spec.d_S:
        raise ValueError(f"State dim {rho_S.shape[0]} does not match d_S={spec.d_S}.")
    M = kraus_operators(spec, t).operators
    out = np.einsum("kab,bc,kdc->ad", M, rho_S, M.conj())
    return density(out)


def apply_channel_via_joint(spec: ChannelSpec, t: float, rho_S: np.ndarray) -> np.ndarray:
    """Independent route: evolve the joint product state, trace out the
    environment. Kept separate from the Kraus route on purpose so the
    two stay cross-checkable."""
    rho_S = density(rho_S)
    joint = tensor(rho_S, spec.env_state())
    U = matrix_exp_unitary(spec.h_total(), t)
    evolved = U @ joint @ U.conj().T
    return partial_trace_env(evolved, spec.d_S, spec.d_E)


def channel_complexity_const(spec: ChannelSpec, t: float) -> float:
    """Joint complexity minus the complexity of the residual generator
    sqrt(|H_tot^2 - (H_S ⊗ I)^2|)."""
    H_tot = spec.h_total()
    H_Se = spec.h_system_embedded()
    G_tot = geometric_complexity_const(H_tot, t, None)
    G_resid = geometric_complexity_const(sqrt_abs_diff(H_tot, H_Se), t, None)
    return G_tot - G_resid


def noiseless_complexity(spec: ChannelSpec, t: float) -> float:
    return geometric_complexity_const(spec.h_system_embedded(), t, None)


def noise_complexity(spec: ChannelSpec, t: float) -> float:
    """Absolute gap between channel complexity and the noiseless value."""
    return abs(channel_complexity_const(spec, t) - noiseless_complexity(spec, t))


def noise_complexity_bounds(spec: ChannelSpec, t: float) -> dict:
    """Lower and upper envelope for the noise complexity.

    lower: complexity of exp(-it(sqrt(|H_tot^2 - H_Se^2|) + |H_Se|))
    minus the joint complexity. upper: noiseless complexity minus the
    flat geodesic distance between the joint propagator and the
    residual propagator. That distance is log_distance, the principal-log
    closed form, so it is exact and upper is always a number.
    """
    H_tot = spec.h_total()
    H_Se = spec.h_system_embedded()
    resid = sqrt_abs_diff(H_tot, H_Se)
    lower = geometric_complexity_const(resid + matrix_abs(H_Se), t, None) - (
        geometric_complexity_const(H_tot, t, None)
    )
    distance = log_distance(matrix_exp_unitary(H_tot, t), matrix_exp_unitary(resid, t))
    return {
        "lower": lower,
        "upper": noiseless_complexity(spec, t) - distance,
        "distance_estimate": distance,
    }


@dataclass(frozen=True)
class TimeDependentSpec:
    """Per-segment split of a piecewise-constant joint generator."""

    d_S: int
    d_E: int
    segments: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, float], ...]
    #: (H_S on d_S, H_I on joint, H_E on d_E, duration) per segment
    metric: MetricSpec | None = None

    def __post_init__(self) -> None:
        checked = []
        for k, (H_S, H_I, H_E, ds) in enumerate(self.segments):
            H_S = hermitian(H_S)
            H_I = hermitian(H_I)
            H_E = hermitian(H_E)
            ds = segment_duration(k, ds)
            if H_S.shape[0] != self.d_S or H_E.shape[0] != self.d_E:
                raise ValueError(f"Segment {k} factor dimensions are wrong.")
            if H_I.shape[0] != self.d_S * self.d_E:
                raise ValueError(f"Segment {k} interaction dimension is wrong.")
            checked.append((H_S, H_I, H_E, ds))
        object.__setattr__(self, "segments", tuple(checked))

    def joint_segment(self, k: int) -> tuple[np.ndarray, float]:
        H_S, H_I, H_E, ds = self.segments[k]
        H = embed_system(H_S, self.d_E) + H_I + tensor(np.eye(self.d_S), H_E)
        return H, ds

    def joint_path(self) -> PiecewiseConstantPath:
        return PiecewiseConstantPath(
            segments=tuple(self.joint_segment(k) for k in range(len(self.segments)))
        )


def channel_complexity_td(spec: TimeDependentSpec) -> float:
    """Integrated |a - sqrt(|a^2 - b^2|)| where a is the metric norm of the
    joint generator and b the norm of the embedded system generator.

    The squared-norm symbol in the defining integrand is read as the
    square of the generator norm; with that reading a single flat
    segment whose residual H_tot^2 - H_Se^2 is sign-definite reproduces
    channel_complexity_const exactly.
    """
    d = spec.d_S * spec.d_E
    m = spec.metric
    total = 0.0
    for k in range(len(spec.segments)):
        H_S, _, _, ds = spec.segments[k]
        H_joint, _ = spec.joint_segment(k)
        a = generator_norm(H_joint, m)
        b = generator_norm(embed_system(H_S, spec.d_E), m)
        total += ds * abs(a - np.sqrt(abs(a * a - b * b)))
    return total / np.sqrt(d**2 - 1)


def noise_complexity_td(spec: TimeDependentSpec) -> float:
    """Absolute gap between the time-dependent channel complexity and the
    noiseless system path length (embedded-system convention)."""
    d = spec.d_S * spec.d_E
    m = spec.metric
    noiseless = sum(
        ds * generator_norm(embed_system(H_S, spec.d_E), m)
        for H_S, _, _, ds in spec.segments
    ) / np.sqrt(d**2 - 1)
    return abs(channel_complexity_td(spec) - noiseless)


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
        "perturbative": perturbative,
        "omega_coupling": float(omega),
        "error": abs(exact - perturbative),
    }
