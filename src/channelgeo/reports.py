"""Config parsing, experiment dispatch, and deterministic report assembly.

Configs and reports are JSON; ensembles and sweeps also emit CSV. A
report is byte-stable for a given config and seed: scalars come from
deterministic seeded computations, keys are sorted, and timing is kept
out of the payload (the CLI prints wall time to stderr instead).
"""
from __future__ import annotations

import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import algebra, channel, coherence, geodesic, rode
from .algebra import random_density, random_hermitian
from .operators import (
    hs_norm,
    matrix_abs,
    matrix_exp_unitary,
    partial_trace_env,
    sqrt_abs_diff,
    tensor,
    unitary,
)
from .pauli import MetricSpec, build_pauli_basis, build_penalty_metric

SCHEMA_VERSION = 1
_SPEC_FIELDS = ("d_S", "d_E", "H_S", "H_I", "H_E", "env_probs", "env_basis", "t")
#: Top-level fields each kind reads, besides schema_version, kind and seed.
_FIELDS = {
    "complexity": ("H", "t", "metric"),
    "channel": ("perturbative", *_SPEC_FIELDS),
    "noise": _SPEC_FIELDS,
    "cohering-power": ("U", "generator", "t", "dephasing", "restarts", "pure_only"),
    "rode": ("path", "noise", "M"),
    "decompose": ("U", "normalize_phase"),
    "verify-all": (),
}
KINDS = tuple(_FIELDS)

#: Emitted in every report so numbers are interpretable without the source.
CONVENTIONS = {
    "complexity_normalization": (
        "path length = sum over segments of duration * generator norm, "
        "scaled once by 1/sqrt(d^2 - 1); the flat norm is the full "
        "Hilbert-Schmidt norm of the generator"
    ),
    "kraus_sign": "propagator exp(-i t H); Kraus blocks inherit this sign",
    "td_norm_squared_reading": (
        "time-dependent residual integrand is sqrt(|n(H_tot)^2 - n(H_S)^2|) "
        "with n the metric norm of the generator, i.e. the squared-norm gap"
    ),
    "perturbative_omega": (
        "omega = sqrt(2 Tr(A_S H_S) <E>) / hs_norm(H_S) with <E> the mean "
        "environment energy; the epsilon-order term carries omega/2"
    ),
    "decohering_constant": (
        "cohering power is compared against sqrt(2) * dim * complexity"
    ),
}


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


def _fail(field: str, message: str) -> ConfigError:
    return ConfigError(f"config field {field!r}: {message}")


def matrix_from_pairs(obj, field: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _fail(field, f"not a numeric array: {exc}") from None
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise _fail(field, "expected a matrix of [re, im] pairs")
    if not np.isfinite(arr).all():
        raise _fail(field, "entries must be finite")
    return (arr[..., 0] + 1j * arr[..., 1]).astype(np.complex128)


def matrix_to_pairs(M: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(M)]


def vector_from_json(obj, field: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _fail(field, f"not a numeric vector: {exc}") from None
    if arr.ndim != 1:
        raise _fail(field, "expected a flat list of reals")
    if not np.isfinite(arr).all():
        raise _fail(field, "entries must be finite")
    return arr


# Field readers. `at` is the dotted path of cfg itself, e.g. "path.", so
# that errors name the full field path.


def _require(cfg: dict, field: str, at: str = ""):
    if field not in cfg:
        raise _fail(at + field, "missing")
    return cfg[field]


def _number(cfg: dict, field: str, default=None, at: str = "", minimum=None) -> float:
    val = cfg.get(field, default)
    if val is None:
        raise _fail(at + field, "missing")
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise _fail(at + field, f"expected a number, got {type(val).__name__}")
    if not abs(val) <= sys.float_info.max:  # inf, nan, or an int too big for a float
        raise _fail(at + field, f"expected a finite number, got {val!r}")
    if minimum is not None and val < minimum:
        raise _fail(at + field, f"expected a number >= {minimum}, got {val!r}")
    return float(val)


def _integer(cfg: dict, field: str, default, minimum: int, maximum: int | None = None) -> int:
    val = cfg.get(field, default)
    if val is None:
        raise _fail(field, "missing")
    if not isinstance(val, int) or isinstance(val, bool):
        raise _fail(field, f"expected an integer, got {type(val).__name__}")
    if val < minimum:
        raise _fail(field, f"expected an integer >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise _fail(field, f"expected an integer <= {maximum}, got {val}")
    return val


def _flag(cfg: dict, field: str, default: bool) -> bool:
    val = cfg.get(field, default)
    if not isinstance(val, bool):
        raise _fail(field, f"expected true or false, got {type(val).__name__}")
    return val


def parse_metric(obj) -> MetricSpec | None:
    if obj is None:
        return None
    if not isinstance(obj, dict) or "n" not in obj:
        raise _fail("metric", "expected null or an object with 'n'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= 5:
        raise _fail("metric.n", "expected an integer qubit count in 1..5")
    if "weights" in obj:
        weights = vector_from_json(obj["weights"], "metric.weights")
        try:
            return MetricSpec(basis=build_pauli_basis(n), weights=weights)
        except ValueError as exc:
            raise _fail("metric.weights", str(exc)) from None
    if "q" in obj:
        try:
            return build_penalty_metric(n, _number(obj, "q", at="metric."))
        except ValueError as exc:
            raise _fail("metric.q", str(exc)) from None
    raise _fail("metric", "needs either 'q' or 'weights'")


def _duration(cfg: dict, field: str, at: str) -> float:
    """A path duration: a finite number > 0."""
    val = _number(cfg, field, at=at)
    if not val > 0.0:
        raise _fail(at + field, f"expected a number > 0, got {val!r}")
    return val


def parse_path(obj, field: str = "path") -> geodesic.PiecewiseConstantPath:
    if not isinstance(obj, dict):
        raise _fail(field, "expected an object")
    try:
        if "segments" in obj:
            if not isinstance(obj["segments"], list) or not obj["segments"]:
                raise _fail(f"{field}.segments", "expected a non-empty list of segments")
            segs = []
            for i, seg in enumerate(obj["segments"]):
                if not isinstance(seg, dict):
                    raise _fail(f"{field}.segments[{i}]", "expected an object")
                at = f"{field}.segments[{i}]."
                H = matrix_from_pairs(_require(seg, "H", at), at + "H")
                segs.append((H, _duration(seg, "ds", at)))
            return geodesic.PiecewiseConstantPath(segments=tuple(segs))
        H = matrix_from_pairs(_require(obj, "H", f"{field}."), f"{field}.H")
        return geodesic.constant_path(H, _duration(obj, "t", f"{field}."))
    except ValueError as exc:
        raise _fail(field, str(exc)) from None


def parse_noise(obj, field: str = "noise") -> rode.NoiseModel:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise _fail(field, "expected an object with 'kind'")
    at = f"{field}."
    try:
        sigma = obj.get("sigma")
        if isinstance(sigma, list):
            sigma = vector_from_json(sigma, at + "sigma")
        elif sigma is not None:
            sigma = _number(obj, "sigma", at=at)
        weights = obj.get("weights")
        if weights is not None:
            weights = vector_from_json(weights, at + "weights")
        dt_noise = obj.get("dt_noise")
        if dt_noise is not None:
            dt_noise = _number(obj, "dt_noise", at=at)
        return rode.NoiseModel(
            kind=obj["kind"], sigma=sigma, weights=weights, dt_noise=dt_noise
        )
    except ValueError as exc:
        raise _fail(field, str(exc)) from None


def parse_channel_spec(cfg: dict) -> channel.ChannelSpec:
    try:
        d_S = _integer(cfg, "d_S", None, 1)
        d_E = _integer(cfg, "d_E", None, 1)
        probs = cfg.get("env_probs")
        basis = cfg.get("env_basis")
        return channel.ChannelSpec(
            d_S=d_S,
            d_E=d_E,
            H_S=matrix_from_pairs(_require(cfg, "H_S"), "H_S"),
            H_I=matrix_from_pairs(_require(cfg, "H_I"), "H_I"),
            H_E=matrix_from_pairs(_require(cfg, "H_E"), "H_E"),
            env_probs=None if probs is None else vector_from_json(probs, "env_probs"),
            env_basis=None if basis is None else matrix_from_pairs(basis, "env_basis"),
        )
    except ValueError as exc:
        raise ConfigError(f"channel spec: {exc}") from None


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path}: root must be a JSON object")
    return obj


def validate_config(cfg: dict, kind: str | None = None, noted: set | None = None) -> dict:
    """The config with its kind filled in, after the schema, kind and seed
    checks. Each field the kind does not read gets a note on stderr, unless
    the note is already in `noted`; printed notes are added to it."""
    noted = set() if noted is None else noted
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise _fail("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    cfg_kind = cfg.get("kind")
    if cfg_kind is None and kind is None:
        raise _fail("kind", "missing and not given on the command line")
    if cfg_kind is not None and kind is not None and cfg_kind != kind:
        raise _fail("kind", f"config says {cfg_kind!r} but command line says {kind!r}")
    effective = dict(cfg)
    effective["kind"] = cfg_kind or kind
    if effective["kind"] not in KINDS:
        raise _fail("kind", f"unknown kind {effective['kind']!r}")
    _integer(effective, "seed", None, 0)
    read = {"schema_version", "kind", "seed", *_FIELDS[effective["kind"]]}
    for field in effective:
        note = (
            f"channelgeo: config field {field!r} is not read by kind "
            f"{effective['kind']!r}; ignored"
        )
        if field not in read and note not in noted:
            print(note, file=sys.stderr)
            noted.add(note)
    return effective


def make_check(name: str, lhs: float, rhs: float) -> dict:
    """Bound-check record; holds iff lhs <= rhs (slack baked into rhs)."""
    lhs = float(lhs)
    rhs = float(rhs)
    return {"name": name, "lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs)}


def assemble_report(cfg: dict, scalars: dict, checks: list, extras: dict | None = None) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": cfg["kind"],
        "inputs": cfg,
        "conventions": dict(CONVENTIONS),
        "scalars": scalars,
        "checks": checks,
        "all_ok": bool(all(c["holds"] for c in checks)),
        "timings": None,
    }
    if extras:
        report.update(extras)  # a rode "_ensemble" rides along; write_report strips it
    return report


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Experiment runners. Each returns (scalars, checks, extras).


def _run_complexity(cfg: dict):
    H = matrix_from_pairs(_require(cfg, "H"), "H")
    t = _number(cfg, "t", minimum=0)
    metric = parse_metric(cfg.get("metric"))
    g_flat = geodesic.geometric_complexity_const(H, t, None)
    scalars = {"G_hs": g_flat}
    if metric is not None:
        scalars["G_omega"] = geodesic.geometric_complexity_const(H, t, metric)
    gap = abs(geodesic.geometric_complexity_const(matrix_abs(H), t, None) - g_flat)
    checks = [make_check("abs_spectrum_invariance", gap, 1e-12)]
    return scalars, checks, None


def _run_channel(cfg: dict):
    if "perturbative" in cfg:
        p = cfg["perturbative"]
        if not isinstance(p, dict):
            raise _fail("perturbative", "expected an object")
        at = "perturbative."
        out = channel.perturbative_example(
            H_S=matrix_from_pairs(_require(p, "H_S", at), at + "H_S"),
            A_S=matrix_from_pairs(_require(p, "A_S", at), at + "A_S"),
            env_energies=vector_from_json(
                _require(p, "env_energies", at), at + "env_energies"
            ),
            weights=vector_from_json(_require(p, "weights", at), at + "weights"),
            eps=_number(p, "eps", at=at),
            t=_number(p, "t", 1.0, at=at, minimum=0),
        )
        scalars = {
            "exact": float(out["exact"]),
            "perturbative": float(out["perturbative"]),
            "error": float(out["error"]),
            "omega_coupling": float(out["omega_coupling"]),
        }
        return scalars, [], None
    spec = parse_channel_spec(cfg)
    t = _number(cfg, "t", minimum=0)
    g_channel = channel.channel_complexity_const(spec, t)
    g_free = channel.noiseless_complexity(spec, t)
    scalars = {
        "G_hs": g_channel,
        "G_noiseless": g_free,
        "N_hs": channel.noise_complexity(spec, t),
    }
    checks = [make_check("channel_below_system", g_channel, g_free + 1e-9)]
    return scalars, checks, None


def _run_noise(cfg: dict):
    spec = parse_channel_spec(cfg)
    t = _number(cfg, "t", minimum=0)
    n_hs = channel.noise_complexity(spec, t)
    bounds = channel.noise_complexity_bounds(spec, t)
    scalars = {
        "N_hs": float(n_hs),
        "G_hs": float(channel.channel_complexity_const(spec, t)),
        "G_noiseless": float(channel.noiseless_complexity(spec, t)),
        "noise_lower": float(bounds["lower"]),
        "noise_upper": float(bounds["upper"]),
        "distance_estimate": float(bounds["distance_estimate"]),
    }
    checks = [
        make_check("noise_lower_bound", bounds["lower"], n_hs + 1e-8),
        make_check("noise_upper_bound", n_hs, bounds["upper"] + 1e-8),
    ]
    return scalars, checks, None


def _run_cohering_power(cfg: dict):
    if "U" in cfg:
        U = unitary(matrix_from_pairs(cfg["U"], "U"))
        d = U.shape[0]
    else:
        generator = matrix_from_pairs(_require(cfg, "generator"), "generator")
        t = _number(cfg, "t", minimum=0)
        d = generator.shape[0]
    dephasing = cfg.get("dephasing")
    if dephasing is None:
        E = coherence.computational_dephasing(d)
    else:
        projs = tuple(
            matrix_from_pairs(P, f"dephasing[{i}]") for i, P in enumerate(dephasing)
        )
        E = coherence.DephasingChannel(projectors=projs)
    options = {
        "restarts": _integer(cfg, "restarts", 32, 0, coherence.MAX_RESTARTS),
        "seed": cfg["seed"],
        "pure_only": _flag(cfg, "pure_only", False),
    }
    if "U" in cfg:
        scalars = {"C_power": coherence.cohering_power(U, E, **options).value}
        checks = []
    else:
        out = coherence.verify_decohering_bound(generator, t, E, **options)
        scalars = {"C_power": out["cohering_power"], "G_hs": out["rhs"]}
        slack = coherence.DECOHERING_SLACK
        checks = [make_check("decohering_bound", out["lhs"], out["rhs"] + slack)]
    cap = make_check("coherence_cap", scalars["C_power"], (1.0 - 1.0 / d) + 1e-12)
    return scalars, [cap, *checks], None


def _run_rode(cfg: dict):
    path = parse_path(_require(cfg, "path"))
    noise = parse_noise(_require(cfg, "noise"))
    if noise.dt_noise is not None and path.total_time / noise.dt_noise > rode.MAX_SUBSTEPS:
        raise _fail(
            "noise.dt_noise",
            f"more than {rode.MAX_SUBSTEPS} substeps over total time {path.total_time!r}",
        )
    M = _integer(cfg, "M", 100, 1, rode.max_trajectories(path.dim))
    result = rode.ensemble_mean(path, noise, M, cfg["seed"])
    U_free = geodesic.path_endpoint(path)
    scalars = {
        "distance": rode.distance_operator(result.mean_operator, U_free),
        "mean_trajectory_distance": float(result.distances.mean()),
        "max_trajectory_distance": float(result.distances.max()),
        "mean_endpoint_deviation": float(result.endpoint_deviations.mean()),
        "mean_operator_norm": float(np.linalg.norm(result.mean_operator, 2)),
    }
    checks = [
        make_check("mean_contraction", scalars["mean_operator_norm"], 1.0 + 1e-9)
    ]
    fluct = result.fluctuations
    if fluct is not None:
        checks.extend(
            [
                make_check(
                    "rode_distance_bound_violations",
                    len(fluct["violations_distance_bound"]),
                    0,
                ),
                make_check(
                    "rode_complexity_gap_violations",
                    len(fluct["violations_complexity_gap"]),
                    0,
                ),
                make_check(
                    "rode_triangle_violations", len(fluct["violations_triangle"]), 0
                ),
                make_check(
                    "rode_matched_norm",
                    fluct["matched_norm_max_deviation"],
                    rode.MATCHED_NORM_TOL,
                ),
            ]
        )
        scalars["noise_integral"] = float(fluct["noise_integral"])
    return scalars, checks, {"_ensemble": result}


def _run_decompose(cfg: dict):
    U = unitary(matrix_from_pairs(_require(cfg, "U"), "U"))
    N = U.shape[0]
    if _flag(cfg, "normalize_phase", True):
        det = np.linalg.det(U)
        U = U * det ** (-1.0 / N)
    circuit = algebra.decompose_two_level(U)
    err = hs_norm(algebra.reconstruct(circuit, N) - U)
    bound = N * (N - 1) // 2
    scalars = {
        "gate_count": float(algebra.algebraic_complexity(circuit)),
        "gate_bound": float(bound),
        "reconstruction_error": err,
    }
    checks = [
        make_check("gate_count_bound", scalars["gate_count"], float(bound)),
        make_check("reconstruction", err, 1e-9),
    ]
    return scalars, checks, {"circuit": algebra.circuit_records(circuit)}


# ---------------------------------------------------------------------------
# verify-all: a fast deterministic battery across every module.


def _rand_spec(
    rng: np.random.Generator, scale_S: float = 1.0, scale_IE: float = 1.0
) -> channel.ChannelSpec:
    p = rng.uniform(0.1, 1.0, size=2)
    return channel.ChannelSpec(
        d_S=2,
        d_E=2,
        H_S=random_hermitian(rng, 2, scale_S),
        H_I=random_hermitian(rng, 4, scale_IE),
        H_E=random_hermitian(rng, 2, scale_IE),
        env_probs=p / p.sum(),
    )


def verify_all_battery(seed: int) -> list[dict]:
    """Deterministic cross-module checks, small enough to run in seconds."""
    keys = np.random.SeedSequence(seed).spawn(20)
    rngs = [np.random.default_rng(k) for k in keys]
    checks = []

    # Reference value: sigma_z for unit time.
    sigma_z = np.diag([1.0, -1.0]).astype(np.complex128)
    g_ref = geodesic.geometric_complexity_const(sigma_z, 1.0, None)
    checks.append(
        make_check("reference_value_sigma_z", abs(g_ref - np.sqrt(2.0 / 3.0)), 1e-12)
    )

    # Constant paths realize the closed form; spectrum signs do not matter.
    rng = rngs[0]
    worst_path = 0.0
    worst_abs = 0.0
    for d in (2, 4):
        for _ in range(8):
            H = random_hermitian(rng, d, rng.uniform(0.2, 3.0))
            t = rng.uniform(0.1, 2.0)
            g = geodesic.geometric_complexity_const(H, t, None)
            worst_path = max(
                worst_path, abs(g - geodesic.path_length(geodesic.constant_path(H, t)))
            )
            worst_abs = max(
                worst_abs,
                abs(g - geodesic.geometric_complexity_const(matrix_abs(H), t, None)),
            )
    checks.append(make_check("constant_path_closed_form", worst_path, 1e-10))
    checks.append(make_check("abs_spectrum_invariance", worst_abs, 1e-12))

    # Products are subadditive in complexity.
    rng = rngs[1]
    worst = 0.0
    for _ in range(20):
        d = 4
        A = random_hermitian(rng, d)
        B = random_hermitian(rng, d)
        t = rng.uniform(0.1, 1.5)
        lhs = geodesic.log_distance(
            np.eye(d), matrix_exp_unitary(A, t) @ matrix_exp_unitary(B, t)
        )
        rhs = geodesic.geometric_complexity_const(
            A, t, None
        ) + geodesic.geometric_complexity_const(B, t, None)
        worst = max(worst, lhs - rhs)
    checks.append(make_check("product_subadditivity", worst, 1e-12))

    # Channel complexity sits below the system complexity; limits close.
    rng = rngs[2]
    worst = 0.0
    for _ in range(10):
        spec = _rand_spec(rng)
        t = rng.uniform(0.2, 1.5)
        worst = max(
            worst,
            channel.channel_complexity_const(spec, t)
            - channel.noiseless_complexity(spec, t),
        )
    checks.append(make_check("channel_below_system", worst, 1e-9))

    rng = rngs[3]
    H_S = random_hermitian(rng, 2)
    zero4 = np.zeros((4, 4), dtype=np.complex128)
    zero2 = np.zeros((2, 2), dtype=np.complex128)
    free = channel.ChannelSpec(d_S=2, d_E=2, H_S=H_S, H_I=zero4, H_E=zero2)
    dev_free = abs(
        channel.channel_complexity_const(free, 1.0)
        - channel.noiseless_complexity(free, 1.0)
    )
    checks.append(make_check("limit_noise_free", dev_free, 1e-10))
    lonely = channel.ChannelSpec(
        d_S=2, d_E=2, H_S=zero2, H_I=random_hermitian(rng, 4), H_E=zero2
    )
    checks.append(
        make_check(
            "limit_system_free", abs(channel.channel_complexity_const(lonely, 1.0)), 1e-10
        )
    )

    # Noise sandwich in the system-dominated regime.
    rng = rngs[4]
    worst = 0.0
    for _ in range(3):
        spec = _rand_spec(rng, scale_S=12.0, scale_IE=0.25)
        n_hs = channel.noise_complexity(spec, 1.0)
        rng.integers(2**31)  # unused draw: keeps the specs drawn after it unchanged
        bounds = channel.noise_complexity_bounds(spec, 1.0)
        worst = max(worst, bounds["lower"] - n_hs, n_hs - bounds["upper"])
    checks.append(make_check("noise_sandwich", worst, 1e-8))

    # Norm gap bound: complexity differences against the square-root residual.
    rng = rngs[5]
    worst = 0.0
    for _ in range(20):
        A = random_hermitian(rng, 4)
        B = random_hermitian(rng, 4)
        lhs = abs(hs_norm(A) - hs_norm(B))
        worst = max(worst, lhs - hs_norm(sqrt_abs_diff(A, B)))
    checks.append(make_check("norm_gap_bound", worst, 1e-12))

    # Coherence rate: analytic derivative vs finite difference, plus cap.
    rng = rngs[6]
    worst = 0.0
    for _ in range(5):
        d = int(rng.choice([2, 3]))
        E = coherence.computational_dephasing(d)
        H = random_hermitian(rng, d)
        rho = random_density(rng, d)
        h = 1e-5
        c_plus = coherence.rel_entropy_coherence(
            matrix_exp_unitary(H, h) @ rho @ matrix_exp_unitary(H, h).conj().T, E
        )
        c_minus = coherence.rel_entropy_coherence(
            matrix_exp_unitary(H, -h) @ rho @ matrix_exp_unitary(H, -h).conj().T, E
        )
        fd = (c_plus - c_minus) / (2 * h)
        worst = max(worst, abs(fd - coherence.coherence_rate_exact(H, rho, E)))
    checks.append(make_check("coherence_rate_fd", worst, 1e-6))

    rng = rngs[7]
    worst = 0.0
    for _ in range(20):
        d = int(rng.choice([2, 4]))
        E = coherence.computational_dephasing(d)
        worst = max(worst, coherence.coherence_rate_bound(random_density(rng, d), E))
    checks.append(make_check("coherence_rate_cap", worst, np.sqrt(2.0) + 1e-10))

    # Decohering power stays below the scaled complexity.
    rng = rngs[8]
    worst = -np.inf
    for _ in range(3):
        H = random_hermitian(rng, 2, rng.uniform(0.5, 2.0))
        t = rng.uniform(0.2, 1.5)
        out = coherence.verify_decohering_bound(
            H,
            t,
            coherence.computational_dephasing(2),
            restarts=4,
            seed=int(rng.integers(2**31)),
            pure_only=True,
        )
        worst = max(worst, out["lhs"] - out["rhs"])
    checks.append(make_check("decohering_margin", worst, 1e-9))

    # Cost chain on random piecewise paths.
    rng = rngs[9]
    basis = build_pauli_basis(1)
    violations = 0
    for _ in range(20):
        segs = tuple(
            (random_hermitian(rng, 2), rng.uniform(0.1, 0.6))
            for _ in range(int(rng.integers(1, 4)))
        )
        path = geodesic.PiecewiseConstantPath(segments=segs)
        if not geodesic.check_cost_chain(path, basis)["bound_holds"]:
            violations += 1
    checks.append(make_check("cost_chain_violations", violations, 0))

    # Perturbative weak-coupling example: error size and decay rate.
    pinned = dict(
        H_S=np.diag([1.0, 2.0]).astype(np.complex128),
        A_S=np.eye(2, dtype=np.complex128),
        env_energies=np.array([0.0, 1.0]),
        weights=np.array([0.5, 0.5]),
    )
    err_lo = channel.perturbative_example(eps=1e-4, **pinned)["error"]
    err_hi = channel.perturbative_example(eps=1e-2, **pinned)["error"]
    checks.append(make_check("perturbative_error_small", err_lo, 1e-5))
    ratio = err_hi / err_lo if err_lo > 0 else np.inf
    checks.append(make_check("perturbative_ratio_lower", 10.0, ratio))
    checks.append(make_check("perturbative_ratio_upper", ratio, 1e3))

    # Matched random noise obeys the trajectory bounds.
    rng = rngs[10]
    H = random_hermitian(rng, 2)
    path = geodesic.constant_path(H, 1.0)
    noise = rode.NoiseModel(
        kind="bounded_matched", weights=np.ones(3), dt_noise=1.0 / 64.0
    )
    fluct = rode.fluctuation_report(path, noise, 10, int(rng.integers(2**31)))
    checks.append(
        make_check(
            "rode_distance_bound_violations",
            len(fluct["violations_distance_bound"]),
            0,
        )
    )
    checks.append(
        make_check(
            "rode_complexity_gap_violations",
            len(fluct["violations_complexity_gap"]),
            0,
        )
    )
    checks.append(
        make_check(
            "rode_matched_norm",
            fluct["matched_norm_max_deviation"],
            rode.MATCHED_NORM_TOL,
        )
    )

    rng = rngs[11]
    gauss = rode.NoiseModel(kind="gaussian_pauli", sigma=0.1, dt_noise=1.0 / 64.0)
    res = rode.ensemble_mean(path, gauss, 30, int(rng.integers(2**31)))
    checks.append(
        make_check(
            "rode_mean_contraction",
            float(np.linalg.norm(res.mean_operator, 2)),
            1.0 + 1e-9,
        )
    )

    # Two-level synthesis: count bound and reconstruction.
    rng = rngs[12]
    worst_err = 0.0
    count_viol = 0
    for N in (2, 4, 8):
        for _ in range(2):
            U = algebra.random_special_unitary(N, rng)
            circuit = algebra.decompose_two_level(U)
            if algebra.algebraic_complexity(circuit) > N * (N - 1) // 2:
                count_viol += 1
            worst_err = max(worst_err, hs_norm(algebra.reconstruct(circuit, N) - U))
    checks.append(make_check("decompose_count_violations", count_viol, 0))
    checks.append(make_check("decompose_reconstruction", worst_err, 1e-9))

    rng = rngs[13]
    worst = 0.0
    for _ in range(10):
        rv = algebra.RandomVariable(
            observable=random_hermitian(rng, 3), state=random_density(rng, 3)
        )
        total = sum(p for _, p in algebra.law(rv))
        worst = max(worst, abs(total - 1.0))
    checks.append(make_check("law_normalization", worst, 1e-9))

    # Kraus route agrees with the joint-propagation oracle.
    rng = rngs[14]
    worst_complete = 0.0
    worst_agree = 0.0
    for _ in range(10):
        spec = _rand_spec(rng)
        t = rng.uniform(0.2, 1.2)
        ks = channel.kraus_operators(spec, t)
        gram = np.einsum("kba,kbc->ac", ks.operators.conj(), ks.operators)
        worst_complete = max(
            worst_complete, float(np.abs(gram - np.eye(spec.d_S)).max())
        )
        rho = random_density(rng, spec.d_S)
        worst_agree = max(
            worst_agree,
            float(
                np.abs(
                    channel.apply_channel(spec, t, rho)
                    - channel.apply_channel_via_joint(spec, t, rho)
                ).max()
            ),
        )
    checks.append(make_check("kraus_completeness", worst_complete, 1e-9))
    checks.append(make_check("kraus_vs_joint_oracle", worst_agree, 1e-9))

    # Adjoint compatibility of the system embedding.
    rng = rngs[15]
    worst = 0.0
    for _ in range(10):
        A = random_hermitian(rng, 2)
        X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = np.vdot(tensor(A, np.eye(2)), X)
        rhs = np.vdot(A, partial_trace_env(X, 2, 2))
        worst = max(worst, abs(lhs - rhs))
    checks.append(make_check("embedding_adjoint", worst, 1e-12))

    return checks


def _run_verify_all(cfg: dict):
    checks = verify_all_battery(cfg["seed"])
    n_failed = sum(1 for c in checks if not c["holds"])
    scalars = {"n_checks": float(len(checks)), "n_failed": float(n_failed)}
    return scalars, checks, None


_RUNNERS = {
    "complexity": _run_complexity,
    "channel": _run_channel,
    "noise": _run_noise,
    "cohering-power": _run_cohering_power,
    "rode": _run_rode,
    "decompose": _run_decompose,
    "verify-all": _run_verify_all,
}


def run_experiment(cfg: dict) -> dict:
    """Dispatch a validated config to its runner and assemble the report."""
    return assemble_report(cfg, *_RUNNERS[cfg["kind"]](cfg))


def write_report(report: dict, out: str | None) -> None:
    """Serialize to out (or stdout); rode ensembles get sidecar CSVs."""
    ensemble = report.pop("_ensemble", None)
    data = report_bytes(report)
    if out is None:
        sys.stdout.write(data.decode("utf-8"))
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    if ensemble is not None:
        stem = str(path)
        if stem.endswith(".json"):
            stem = stem[: -len(".json")]
        rode.write_ensemble(ensemble, stem + "_trajectories")


def _config_path_get(cfg: dict, dotted: str):
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"sweep parameter {dotted!r} not found in config")
        node = node[part]
    return node


def _config_path_set(cfg: dict, dotted: str, value) -> dict:
    import copy

    out = copy.deepcopy(cfg)
    node = out
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = value
    return out


def run_sweep(cfg: dict, param: str, values: list, threads: int = 1) -> tuple[list, list]:
    """One report per value plus aggregate rows for the CSV.

    The config and every swept config are validated before any of them
    runs; each unread-field note is printed once per sweep.
    """
    noted: set = set()
    cfg = validate_config(cfg, noted=noted)
    _config_path_get(cfg, param)  # existence check
    configs = [validate_config(_config_path_set(cfg, param, v), noted=noted) for v in values]
    if threads > 1 and len(configs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(run_experiment, configs))
    else:
        reports = [run_experiment(c) for c in configs]
    rows = []
    for v, rep in zip(values, reports):
        row = {"value": v}
        row.update(rep["scalars"])
        row["all_ok"] = rep["all_ok"]
        rows.append(row)
    return reports, rows


def write_sweep_csv(rows: list, out) -> None:
    keys = sorted({k for row in rows for k in row} - {"value", "all_ok"})
    columns = ["value", *keys, "all_ok"]
    writer = csv.DictWriter(out, fieldnames=columns, restval="", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
