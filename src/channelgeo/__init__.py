"""Geometric complexity of unitary channels, coherence dynamics, random
noise ensembles, and two-level gate synthesis."""

from .algebra import (
    RandomVariable,
    SpectralEvents,
    TwoLevelCircuit,
    algebraic_complexity,
    decompose_two_level,
    law,
    random_special_unitary,
    reconstruct,
    spectral_events,
)
from .channel import (
    ChannelSpec,
    TimeDependentSpec,
    apply_channel,
    apply_channel_via_joint,
    channel_complexity_const,
    complexity_split,
    complexity_split_td,
    kraus_operators,
    noise_complexity_bounds,
    perturbative_example,
)
from .coherence import (
    CoheringPowerResult,
    DephasingChannel,
    cohering_power,
    coherence_rate_bound,
    coherence_rate_exact,
    computational_dephasing,
    dephase,
    purity,
    rel_entropy_coherence,
    verify_decohering_bound,
)
from .geodesic import (
    GeodesicEstimate,
    PiecewiseConstantPath,
    check_cost_chain,
    constant_path,
    cost_l1,
    estimate_cc_distance,
    geometric_complexity_const,
    log_distance,
    log_norms,
    path_endpoint,
    path_length,
    principal_log_generator,
)
from .operators import ArgumentError, density, hermitian, unitary
from .pauli import (
    MetricSpec,
    PauliBasis,
    build_pauli_basis,
    build_penalty_metric,
    devectorize_rows,
    omega_norm_raw,
    string_weight,
    vectorize,
)
from .rode import (
    EnsembleResult,
    NoiseModel,
    distance_unitaries,
    ensemble_mean,
    fluctuation_report,
    segment_plan,
    write_ensemble,
)

__version__ = "0.1.0"
