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
from pathlib import Path

import numpy as np

from . import algebra, channel, coherence, geodesic, rode
from .algebra import random_density, random_hermitian
from .operators import (
    ArgumentError,
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
from .pauli import MetricSpec, build_pauli_basis, build_penalty_metric

SCHEMA_VERSION = 1

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


def matrix_to_pairs(M: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(M)]


# Field readers. Each takes a JSON value and the dotted path it was found at,
# and returns the value checked for JSON type and shape, or raises a ConfigError
# naming that path. Value rules belong to the domain types the builds make,
# except those of every t and ds, d_S, restarts, and each H, U and generator.


def _number(minimum: float | None = None, strict: bool = False):
    """A finite number >= minimum (> minimum when strict), as a float."""
    def read(val, at: str) -> float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise _fail(at, f"expected a number, got {type(val).__name__}")
        if not abs(val) <= sys.float_info.max:  # inf, nan, or an int too big for a float
            raise _fail(at, f"expected a finite number, got {val!r}")
        if minimum is not None and (val <= minimum if strict else val < minimum):
            raise _fail(at, f"expected a number {'>' if strict else '>='} {minimum}, got {val!r}")
        return float(val)
    return read


def _integer(minimum: int | None = None, maximum: int | None = None):
    """A JSON integer in minimum..maximum."""
    def read(val, at: str) -> int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise _fail(at, f"expected an integer, got {type(val).__name__}")
        if minimum is not None and val < minimum:
            raise _fail(at, f"expected an integer >= {minimum}, got {val}")
        if maximum is not None and val > maximum:
            raise _fail(at, f"expected an integer <= {maximum}, got {val}")
        return val
    return read


def _flag(val, at: str) -> bool:
    if not isinstance(val, bool):
        raise _fail(at, f"expected true or false, got {type(val).__name__}")
    return val


def _string(val, at: str) -> str:
    if not isinstance(val, str):
        raise _fail(at, f"expected a string, got {type(val).__name__}")
    return val


def _array(val, at: str) -> np.ndarray:
    try:
        arr = np.asarray(val, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _fail(at, f"not a numeric array: {exc}") from None
    if not np.isfinite(arr).all():
        raise _fail(at, "entries must be finite")
    return arr


def _vector(val, at: str) -> np.ndarray:
    """A non-empty list of reals."""
    arr = _array(val, at)
    if arr.ndim != 1 or not arr.size:
        raise _fail(at, "expected a non-empty list of reals")
    return arr


def _matrix(check=None, min_dim: int = 2):
    """A square matrix of [re, im] pairs, at least min_dim × min_dim, that
    passes check (operators.hermitian or operators.unitary)."""
    def read(val, at: str) -> np.ndarray:
        arr = _array(val, at)
        if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
            raise _fail(at, "expected a square matrix of [re, im] pairs")
        if len(arr) < min_dim:
            raise _fail(at, f"expected at least {min_dim}×{min_dim}, got {len(arr)}×{len(arr)}")
        M = (arr[..., 0] + 1j * arr[..., 1]).astype(np.complex128)
        try:
            return M if check is None else check(M)
        except ValueError as exc:
            raise _fail(at, str(exc)) from None
    return read


def _sigma(val, at: str):
    """One standard deviation, or a list of them."""
    return (_vector if isinstance(val, list) else _number())(val, at)


_HERMITIAN = _matrix(hermitian)
_UNITARY = _matrix(unitary)
_TIME = _number(0)
_DURATION = _number(0, strict=True)


class _Form:
    """One shape of a config object: its fields (name -> schema, in reading
    order), the defaults of the optional ones, and a build that takes the
    read values and returns the object's value, mostly a domain object that
    checks their values."""

    def __init__(self, fields: dict, defaults: dict | None = None, build=None):
        self.fields, self.defaults = fields, defaults or {}
        self.build = build or (lambda values: values)


def _read(val, at: str, schema, note):
    """val, found at the dotted path `at`, read through schema: a reader; a
    _Form; two _Forms, of which the first is read when its first field is
    given; or a one-item list, for a non-empty list of that item. `note` is
    called with the path of each field that the chosen form does not read."""
    if callable(schema):
        return schema(val, at)
    if isinstance(schema, list):
        if not isinstance(val, list) or not val:
            raise _fail(at, "expected a non-empty list")
        return [_read(v, f"{at}[{i}]", schema[0], note) for i, v in enumerate(val)]
    if not isinstance(val, dict):
        raise _fail(at, "expected an object")
    if isinstance(schema, tuple):
        schema = schema[0] if next(iter(schema[0].fields)) in val else schema[1]
    prefix = f"{at}." if at else ""
    for name in val:
        if name not in schema.fields:
            note(prefix + name)
    values = {}
    for name, sub in schema.fields.items():
        if name in val and not (val[name] is None and schema.defaults.get(name, ...) is None):
            values[name] = _read(val[name], prefix + name, sub, note)
        elif name in schema.defaults:  # absent, or null where null is the default
            values[name] = schema.defaults[name]
        else:
            raise _fail(prefix + name, "missing")
    try:
        return schema.build(values)
    except ArgumentError as exc:  # a domain rule refused the named argument
        raise _fail(prefix + exc.name, exc.message) from None
    except ValueError as exc:  # a domain constructor refused this object's values
        raise _fail(at, str(exc)) from None


# Builds: the domain objects the runners take. A domain rule that refuses a
# value names its argument, and _read maps that name to the field path.


def _complexity(v: dict) -> dict:
    metric, d = v["metric"], len(v["H"])
    if metric is not None and metric.basis.dim != d:
        n, dim = metric.basis.n_qubits, metric.basis.dim
        raise _fail("metric.n", f"a metric on {n} qubits needs a {dim}×{dim} H, got {d}×{d}")
    return v


def _channel_spec(v: dict) -> dict:
    t = v.pop("t")
    return {"spec": channel.ChannelSpec(**v), "t": t}


def _dephasing(v: dict) -> dict:
    d, projs = len(v["U"] if "U" in v else v["generator"]), v["dephasing"]
    if projs is None:
        v["dephasing"] = coherence.computational_dephasing(d)
        return v
    if any(len(P) != d for P in projs):
        raise _fail("dephasing", f"expected {d}×{d} projectors")
    v["dephasing"] = named("dephasing", coherence.DephasingChannel, tuple(projs))
    return v


def _perturbative(v: dict) -> tuple:
    """The arguments of channel.perturbative_values, checked once here."""
    checked = channel.check_perturbative(
        v["H_S"], v["A_S"], v["env_energies"], v["weights"], v["eps"]
    )
    return (*checked, v["eps"], v["t"])


def _path(v: dict) -> geodesic.PiecewiseConstantPath:
    segs = [(s["H"], s["ds"]) for s in v["segments"]] if "segments" in v else [(v["H"], v["t"])]
    return geodesic.PiecewiseConstantPath(segments=tuple(segs))


def _rode(v: dict) -> dict:
    rode.segment_plan(v["path"], v["noise"], v["M"])
    return v


_METRIC = (
    _Form(
        {"weights": _vector, "n": _integer()},
        build=lambda v: MetricSpec(basis=build_pauli_basis(v["n"]), weights=v["weights"]),
    ),
    _Form({"n": _integer(), "q": _number()}, build=lambda v: build_penalty_metric(**v)),
)
_JOINT_SPEC = _Form(
    {"d_S": _integer(2), "d_E": _integer(), "H_S": _matrix(), "H_I": _matrix(),
     "H_E": _matrix(min_dim=1), "env_probs": _vector, "env_basis": _matrix(min_dim=1),
     "t": _TIME},
    {"env_probs": None, "env_basis": None},
    _channel_spec,
)
_PERTURBATIVE = _Form(
    {"H_S": _matrix(), "A_S": _matrix(), "env_energies": _vector, "weights": _vector,
     "eps": _number(), "t": _TIME},
    {"t": 1.0},
    _perturbative,
)
_POWER = {
    "dephasing": [_matrix()], "restarts": _integer(0, coherence.MAX_RESTARTS), "pure_only": _flag
}
_POWER_DEFAULTS = {"dephasing": None, "restarts": 32, "pure_only": False}
_PATH = (
    _Form({"segments": [_Form({"H": _HERMITIAN, "ds": _DURATION})]}, build=_path),
    _Form({"H": _HERMITIAN, "t": _DURATION}, build=_path),
)
_NOISE = _Form(
    {"kind": _string, "sigma": _sigma, "weights": _vector, "dt_noise": _number()},
    {"sigma": None, "weights": None, "dt_noise": None},
    lambda v: rode.NoiseModel(**v),
)

#: The one table of the fields each kind reads besides schema_version, kind
#: and seed: a form, or two of which the first is read when its first field
#: is given. KINDS, the unread-field notes and README's field list follow it.
KIND_FIELDS = {
    "complexity": _Form(
        {"H": _HERMITIAN, "t": _TIME, "metric": _METRIC}, {"metric": None}, _complexity
    ),
    "channel": (_Form({"perturbative": _PERTURBATIVE}), _JOINT_SPEC),
    "noise": _JOINT_SPEC,
    "cohering-power": (
        _Form({"U": _UNITARY, **_POWER}, _POWER_DEFAULTS, _dephasing),
        _Form({"generator": _HERMITIAN, "t": _TIME, **_POWER}, _POWER_DEFAULTS, _dephasing),
    ),
    "rode": _Form({"path": _PATH, "noise": _NOISE, "M": _integer()}, {"M": 100}, _rode),
    "decompose": _Form({"U": _UNITARY, "normalize_phase": _flag}, {"normalize_phase": True}),
    "verify-all": _Form({}),
}
KINDS = tuple(KIND_FIELDS)
_HEADER = ("schema_version", "kind", "seed")


def parse_metric(obj) -> MetricSpec | None:
    """A `metric` config object read on its own; None for null."""
    return None if obj is None else _read(obj, "metric", _METRIC, lambda field: None)


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


def validate_config(cfg: dict, kind: str | None = None) -> dict:
    """The config with its kind filled in, after the schema, kind and seed
    checks; read_config reads the kind's own fields."""
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
    if effective.get("seed") is None:
        raise _fail("seed", "missing")
    _integer(0)(effective["seed"], "seed")
    return effective


def read_config(cfg: dict, noted: set | None = None) -> dict:
    """The checked values of a validated config's fields, read through
    KIND_FIELDS. Each field the kind does not read gets a note on stderr,
    unless the note is already in `noted`; printed notes are added to it."""
    noted = set() if noted is None else noted

    def note(field: str) -> None:
        msg = f"channelgeo: config field {field!r} is not read by kind {cfg['kind']!r}; ignored"
        if field not in _HEADER and msg not in noted:
            print(msg, file=sys.stderr)
            noted.add(msg)

    return _read(cfg, "", KIND_FIELDS[cfg["kind"]], note)


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
    """Canonical JSON; a NaN or infinite number raises ValueError, so no
    written report holds one."""
    return (json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Experiment runners. Each takes the seed and the values read_config gave
# for its kind, and returns (scalars, checks, extras).


def _run_complexity(seed: int, H: np.ndarray, t: float, metric: MetricSpec | None):
    g_flat = geodesic.geometric_complexity_const(H, t, None)
    scalars = {"G_hs": g_flat}
    if metric is not None:
        scalars["G_omega"] = geodesic.geometric_complexity_const(H, t, metric)
    gap = abs(geodesic.geometric_complexity_const(matrix_abs(H), t, None) - g_flat)
    checks = [make_check("abs_spectrum_invariance", gap, 1e-12)]
    return scalars, checks, None


def _run_channel(seed: int, perturbative: tuple | None = None, spec=None, t=None):
    if perturbative is not None:
        out = channel.perturbative_values(*perturbative)
        scalars = {
            "exact": float(out["exact"]),
            "perturbative": float(out["perturbative"]),
            "error": float(out["error"]),
            "omega_coupling": float(out["omega_coupling"]),
        }
        return scalars, [], None
    scalars = _complexities(spec, t)
    checks = [make_check("channel_below_system", scalars["G_hs"], scalars["G_noiseless"] + 1e-9)]
    return scalars, checks, None


def _complexities(spec: channel.ChannelSpec, t: float) -> dict:
    """G_hs, G_noiseless and N_hs, each computed once; N_hs is the gap that
    channel.noise_complexity returns."""
    g_channel = float(channel.channel_complexity_const(spec, t))
    g_free = float(channel.noiseless_complexity(spec, t))
    return {"G_hs": g_channel, "G_noiseless": g_free, "N_hs": abs(g_channel - g_free)}


def _run_noise(seed: int, spec: channel.ChannelSpec, t: float):
    scalars = _complexities(spec, t)
    n_hs = scalars["N_hs"]
    bounds = channel.noise_complexity_bounds(spec, t)
    scalars |= {
        "noise_lower": float(bounds["lower"]),
        "noise_upper": float(bounds["upper"]),
        "distance_estimate": float(bounds["distance_estimate"]),
    }
    checks = [
        make_check("noise_lower_bound", bounds["lower"], n_hs + 1e-8),
        make_check("noise_upper_bound", n_hs, bounds["upper"] + 1e-8),
    ]
    return scalars, checks, None


def _run_cohering_power(
    seed: int, dephasing, restarts: int, pure_only: bool, U=None, generator=None, t=None
):
    options = {"restarts": restarts, "seed": seed, "pure_only": pure_only}
    d = len(U if U is not None else generator)
    if U is not None:
        cp = coherence.cohering_power(U, dephasing, **options)
        scalars, upper, checks = {"C_power": cp.value}, cp.upper, []
    else:
        out = coherence.verify_decohering_bound(generator, t, dephasing, **options)
        scalars = {"C_power": out["cohering_power"], "G_hs": out["rhs"]}
        upper = out["cohering_power_upper"]
        slack = coherence.DECOHERING_SLACK
        checks = [make_check("decohering_bound", out["lhs"], out["rhs"] + slack)]
    cap = make_check("coherence_cap", scalars["C_power"], (1.0 - 1.0 / d) + 1e-12)
    bracket = make_check("coherence_bracket", scalars["C_power"], upper + 1e-12)
    return scalars, [cap, bracket, *checks], None


def _run_rode(seed: int, path: geodesic.PiecewiseConstantPath, noise: rode.NoiseModel, M: int):
    result = rode.ensemble_mean(path, noise, M, seed)
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
        checks += _fluctuation_checks(fluct, ("distance_bound", "complexity_gap", "triangle"))
        scalars["noise_integral"] = float(fluct["noise_integral"])
    return scalars, checks, {"_ensemble": result}


def _fluctuation_checks(fluct: dict, counts: tuple) -> list:
    """A zero-violation check per named count, then the matched-norm check."""
    return [
        *(make_check(f"rode_{c}_violations", len(fluct[f"violations_{c}"]), 0) for c in counts),
        make_check("rode_matched_norm", fluct["matched_norm_max_deviation"], rode.MATCHED_NORM_TOL),
    ]


def _run_decompose(seed: int, U: np.ndarray, normalize_phase: bool):
    N = U.shape[0]
    if normalize_phase:
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
    checks += _fluctuation_checks(fluct, ("distance_bound", "complexity_gap"))

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


def _run_verify_all(seed: int):
    checks = verify_all_battery(seed)
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


def _report(cfg: dict, values: dict) -> dict:
    return assemble_report(cfg, *_RUNNERS[cfg["kind"]](cfg["seed"], **values))


def run_experiment(cfg: dict) -> dict:
    """Read a validated config's fields, run its kind and assemble the report."""
    return _report(cfg, read_config(cfg))


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


def run_sweep(cfg: dict, param: str, values: list) -> tuple[list, list]:
    """One report per value plus aggregate rows for the CSV.

    Every swept config is validated and read before any of them runs; each
    unread-field note is printed once per sweep.
    """
    cfg = validate_config(cfg)
    _config_path_get(cfg, param)  # existence check
    configs = [validate_config(_config_path_set(cfg, param, v)) for v in values]
    noted: set = set()
    read = [read_config(c, noted) for c in configs]
    reports = list(map(_report, configs, read))
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
