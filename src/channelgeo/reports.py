"""Config parsing, experiment dispatch, and deterministic report assembly.

Configs and reports are JSON; ensembles and sweeps also emit CSV. A
report is byte-stable for a given config and seed: scalars come from
deterministic seeded computations, keys are sorted, and timing is kept
out of the payload (the CLI prints wall time to stderr instead).
"""
from __future__ import annotations

import contextlib
import csv
import errno
import json
import math
import os
import sys
from functools import partial
from json.encoder import encode_basestring_ascii
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
#: Deepest nesting of an unread field; numpy's own cap of 64 dimensions
#: bounds every field that is read.
MAX_UNREAD_DEPTH = 64

#: Emitted in every report so numbers are interpretable without the source.
CONVENTIONS = {
    "complexity_normalization": (
        "path length = sum over segments of duration * generator norm, "
        "scaled once by 1/sqrt(d^2 - 1); the flat norm is the full "
        "Hilbert-Schmidt norm of the generator"
    ),
    "kraus_sign": "propagator exp(-i t H); Kraus blocks inherit this sign",
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


# Field readers. Each takes a JSON value and the dotted path it was found at,
# and returns the value checked for JSON type and shape, or raises a ConfigError
# naming that path. Value rules belong to the domain types the builds make,
# except those of every t and ds, restarts, and each H, U and generator.


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
            _finite(val[name], prefix + name)
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


def _finite(val, at: str, depth: int = 0) -> None:
    """Refuse a NaN or inf anywhere in val, an unread field the report echoes,
    and a list or object nested in val more than MAX_UNREAD_DEPTH deep."""
    if isinstance(val, float) and not math.isfinite(val):
        raise _fail(at, f"expected a finite number, got {val!r}")
    if isinstance(val, (dict, list)) and depth == MAX_UNREAD_DEPTH:
        raise _fail(at, f"nested more than {MAX_UNREAD_DEPTH} levels deep")
    if isinstance(val, dict):
        for key, sub in val.items():
            _finite(sub, f"{at}.{key}", depth + 1)
    elif isinstance(val, list):
        for i, sub in enumerate(val):
            _finite(sub, f"{at}[{i}]", depth + 1)


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
    {"H_S": _matrix(), "H_I": _matrix(), "H_E": _matrix(min_dim=1), "t": _TIME},
    build=_channel_spec,
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

_HEADER = ("schema_version", "kind", "seed")


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    except (RecursionError, ValueError) as exc:  # nested too deeply, or an integer too long
        raise ConfigError(f"config {path}: cannot parse JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path}: root must be a JSON object")
    return obj


def validate_config(cfg: dict, kind: str | None = None) -> dict:
    """The config with its kind filled in, after the schema, kind and seed
    checks; read_config reads the kind's own fields."""
    version = cfg.get("schema_version")
    if _integer()(version, "schema_version") != SCHEMA_VERSION:
        raise _fail("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    cfg_kind = cfg.get("kind")
    if cfg_kind is None and kind is None:
        raise _fail("kind", "missing and not given on the command line")
    if cfg_kind is not None and kind is not None and cfg_kind != kind:
        raise _fail("kind", f"config says {cfg_kind!r} but command line says {kind!r}")
    effective = dict(cfg)
    effective["kind"] = _string(kind if cfg_kind is None else cfg_kind, "kind")
    if effective["kind"] not in KINDS:
        raise _fail("kind", f"unknown kind {effective['kind']!r}")
    if effective.get("seed") is None:
        raise _fail("seed", "missing")
    _integer(0)(effective["seed"], "seed")
    return effective


def read_config(cfg: dict, noted: set | None = None) -> dict:
    """The checked values of a validated config's fields, read through
    KINDS. Each field the kind does not read gets a note on stderr,
    unless the note is already in `noted`; printed notes are added to it."""
    noted = set() if noted is None else noted

    def note(field: str) -> None:
        msg = f"channelgeo: config field {field!r} is not read by kind {cfg['kind']!r}; ignored"
        if field not in _HEADER and msg not in noted:
            print(msg, file=sys.stderr)
            noted.add(msg)

    return _read(cfg, "", KINDS[cfg["kind"]][1], note)


def make_check(name: str, lhs: float, rhs: float) -> dict:
    """Bound-check record; holds iff lhs <= rhs (slack baked into rhs)."""
    lhs = float(lhs)
    rhs = float(rhs)
    return {"name": name, "lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs)}


def assemble_report(cfg: dict, scalars: dict, checks: list, extras: dict | None = None) -> dict:
    """The report of a run; a NaN or infinite scalar or check value is
    refused with a ValueError that names the first one."""
    for name, value in scalars.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"scalar {name!r} is {float(value)!r}")
    for c in checks:
        for side in ("lhs", "rhs"):
            if not math.isfinite(c[side]):
                raise ValueError(f"check {c['name']!r} {side} is {c[side]!r}")
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
    """Canonical JSON, byte-equal to json.dumps(report, indent=2,
    sort_keys=True, allow_nan=False) plus a newline; a NaN or infinite
    number raises ValueError, so no written report holds one.

    json's indenting encoder holds one string per token until it joins
    them, several times the report's size; this one joins each container
    as soon as its items are encoded, and a list of floats (a vector, or a
    matrix entry's [re, im] pair) in one join.
    """
    return (_encode(report, "\n") + "\n").encode("utf-8")


def _encode(value, newline: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    writes it, where newline is a line break and the indent of value's line."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        return _floats((value,), "")
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else ("true" if value else "false")
    if (kind is list or kind is dict and all(type(k) is str for k in value)) and value:
        inner = newline + "  "
        sep = "," + inner
        if kind is dict:
            body = sep.join(encode_basestring_ascii(k) + ": " + _encode(value[k], inner)
                            for k in sorted(value))
            return "".join(("{", inner, body, newline, "}"))
        if all(type(x) is float for x in value):
            body = _floats(value, sep)
        else:
            body = sep.join(_encode(x, inner) for x in value)
        return "".join(("[", inner, body, newline, "]"))
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", newline)


def _floats(values, sep: str) -> str:
    """Finite floats joined by sep; a float's repr holds an n only for nan and inf."""
    text = sep.join(map(float.__repr__, values))
    if "n" in text:
        bad = next(x for x in values if not math.isfinite(x))
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return text


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
        return channel.perturbative_values(*perturbative), [], None
    scalars = channel.complexity_split(spec, t)
    checks = [make_check("channel_below_system", scalars["G_hs"], scalars["G_noiseless"] + 1e-9)]
    return scalars, checks, None


def _run_noise(seed: int, spec: channel.ChannelSpec, t: float):
    b = channel.noise_complexity_bounds(spec, t)
    scalars = {k: b[k] for k in ("G_hs", "G_noiseless", "N_hs", "distance_estimate")}
    scalars |= {"noise_lower": b["lower"], "noise_upper": b["upper"]}
    checks = [
        make_check("noise_lower_bound", b["lower"], b["N_hs"] + 1e-8),
        make_check("noise_upper_bound", b["N_hs"], b["upper"] + 1e-8),
    ]
    return scalars, checks, None


def _run_cohering_power(
    seed: int, dephasing, restarts: int, pure_only: bool, U=None, generator=None, t=None
):
    options = {"restarts": restarts, "seed": seed, "pure_only": pure_only}
    if U is not None:
        cp = coherence.cohering_power(U, dephasing, **options)
        scalars, upper, checks = {"C_power": cp.value}, cp.upper, []
    else:
        out = coherence.verify_decohering_bound(generator, t, dephasing, **options)
        scalars = {"C_power": out["cohering_power"], "G_hs": out["rhs"]}
        upper = out["cohering_power_upper"]
        slack = coherence.DECOHERING_SLACK
        checks = [make_check("decohering_bound", out["lhs"], out["rhs"] + slack)]
    k = len(dephasing.projectors)
    cap = make_check("coherence_cap", scalars["C_power"], (1.0 - 1.0 / k) + 1e-12)
    bracket = make_check("coherence_bracket", scalars["C_power"], upper + 1e-12)
    return scalars, [cap, bracket, *checks], None


def _run_rode(seed: int, path: geodesic.PiecewiseConstantPath, noise: rode.NoiseModel, M: int):
    result = rode.ensemble_mean(path, noise, M, seed)
    scalars = {
        "distance": result.mean_to_free,
        "mean_trajectory_distance": float(result.distances.mean()),
        "max_trajectory_distance": float(result.distances.max()),
        "mean_endpoint_deviation": float(result.endpoint_deviations.mean()),
        "mean_operator_norm": result.mean_operator_norm,
    }
    checks = [
        make_check("mean_contraction", scalars["mean_operator_norm"], 1.0 + rode.MEAN_OP_NORM_TOL)
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


def _run_decompose(seed: int, U: np.ndarray):
    N = U.shape[0]
    U = U * np.linalg.det(U) ** (-1.0 / N)  # onto SU(N), where the synthesis works
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
# verify-all: a fast deterministic battery across every module. Each
# deviation below is one draw of one check, or of two that share draws.


def _rand_spec(rng, scale_S: float = 1.0, scale_IE: float = 1.0) -> channel.ChannelSpec:
    p = rng.uniform(0.1, 1.0, size=2)
    H_S = random_hermitian(rng, 2, scale_S)
    H_I, H_E = random_hermitian(rng, 4, scale_IE), random_hermitian(rng, 2, scale_IE)
    return channel.ChannelSpec(H_S=H_S, H_I=H_I, H_E=H_E, env_probs=p / p.sum())


def _worst(rng: np.random.Generator, draws: int, deviation, start=0.0):
    """The running Python max of `start` and deviation(rng) over `draws`
    calls, in draw order; entry by entry when `start` is a tuple."""
    worst = start
    for _ in range(draws):
        dev = deviation(rng)
        worst = tuple(map(max, worst, dev)) if isinstance(start, tuple) else max(worst, dev)
    return worst


def _closed_form_gaps(d: int, rng) -> tuple:
    """Constant paths realize the closed form; spectrum signs do not matter."""
    H = random_hermitian(rng, d, rng.uniform(0.2, 3.0))
    t = rng.uniform(0.1, 2.0)
    g = geodesic.geometric_complexity_const(H, t, None)
    flat = geodesic.path_length(geodesic.constant_path(H, t))
    return abs(g - flat), abs(g - geodesic.geometric_complexity_const(matrix_abs(H), t, None))


def _product_excess(rng) -> float:
    """Products are subadditive in complexity."""
    A, B = random_hermitian(rng, 4), random_hermitian(rng, 4)
    t = rng.uniform(0.1, 1.5)
    lhs = geodesic.log_distance(np.eye(4), matrix_exp_unitary(A, t) @ matrix_exp_unitary(B, t))
    g = geodesic.geometric_complexity_const
    return lhs - (g(A, t, None) + g(B, t, None))


def _channel_excess(rng) -> float:
    """Channel complexity sits below the system complexity."""
    split = channel.complexity_split(_rand_spec(rng), rng.uniform(0.2, 1.5))
    return split["G_hs"] - split["G_noiseless"]


def _limit_gaps(rng) -> tuple:
    """Without coupling there is no noise; without a system, no complexity."""
    z4, z2 = np.zeros((4, 4), dtype=np.complex128), np.zeros((2, 2), dtype=np.complex128)
    free = channel.ChannelSpec(H_S=random_hermitian(rng, 2), H_I=z4, H_E=z2)
    lonely = channel.ChannelSpec(H_S=z2, H_I=random_hermitian(rng, 4), H_E=z2)
    free_noise = channel.complexity_split(free, 1.0)["N_hs"]
    return free_noise, abs(channel.channel_complexity_const(lonely, 1.0))


def _sandwich_excess(rng) -> float:
    """Noise sandwich in the system-dominated regime."""
    spec = _rand_spec(rng, scale_S=12.0, scale_IE=0.25)
    rng.integers(2**31)  # unused draw: keeps the specs drawn after it unchanged
    b = channel.noise_complexity_bounds(spec, 1.0)
    return max(b["lower"] - b["N_hs"], b["N_hs"] - b["upper"])


def _norm_gap_excess(rng) -> float:
    """Complexity differences against the square-root residual."""
    A, B = random_hermitian(rng, 4), random_hermitian(rng, 4)
    return abs(hs_norm(A) - hs_norm(B)) - hs_norm(sqrt_abs_diff(A, B))


def _rate_fd_gap(pinch: dict, rng) -> float:
    """Coherence rate: analytic derivative against a central difference."""
    d = int(rng.choice([2, 3]))
    H, rho, h = random_hermitian(rng, d), random_density(rng, d), 1e-5
    Vs = [matrix_exp_unitary(H, s) for s in (h, -h)]
    c_plus, c_minus = (coherence.rel_entropy_coherence(V @ rho @ V.conj().T, pinch[d]) for V in Vs)
    return abs((c_plus - c_minus) / (2 * h) - coherence.coherence_rate_exact(H, rho, pinch[d]))


def _rate_bound(pinch: dict, rng) -> float:
    """The coherence rate's state-only bound, capped at sqrt(2)."""
    d = int(rng.choice([2, 4]))
    return coherence.coherence_rate_bound(random_density(rng, d), pinch[d])


def _decohering_excess(E: coherence.DephasingChannel, rng) -> float:
    """Decohering power stays below the scaled complexity."""
    H = random_hermitian(rng, 2, rng.uniform(0.5, 2.0))
    t = rng.uniform(0.2, 1.5)
    seed = int(rng.integers(2**31))
    out = coherence.verify_decohering_bound(H, t, E, restarts=4, seed=seed, pure_only=True)
    return out["lhs"] - out["rhs"]


def _cost_chain_fails(rng) -> bool:
    """The cost chain on a random piecewise path."""
    n = int(rng.integers(1, 4))
    segs = tuple((random_hermitian(rng, 2), rng.uniform(0.1, 0.6)) for _ in range(n))
    path = geodesic.PiecewiseConstantPath(segments=segs)
    return not geodesic.check_cost_chain(path, build_pauli_basis(1))["bound_holds"]


def _perturbative_checks() -> list:
    """Perturbative weak-coupling example: error size and decay rate."""
    pinned = dict(H_S=np.diag([1.0, 2.0]).astype(np.complex128), A_S=np.eye(2, dtype=np.complex128),
                  env_energies=np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]))
    err_lo = channel.perturbative_example(eps=1e-4, **pinned)["error"]
    err_hi = channel.perturbative_example(eps=1e-2, **pinned)["error"]
    ratio = err_hi / err_lo if err_lo > 0 else np.inf
    return [make_check("perturbative_error_small", err_lo, 1e-5),
            make_check("perturbative_ratio_lower", 10.0, ratio),
            make_check("perturbative_ratio_upper", ratio, 1e3)]


def _rode_checks(rng_matched, rng_gauss) -> list:
    """Matched random noise obeys the trajectory bounds, and a Gaussian
    ensemble mean contracts, both on the matched generator's path."""
    path = geodesic.constant_path(random_hermitian(rng_matched, 2), 1.0)
    matched = rode.NoiseModel(kind="bounded_matched", weights=np.ones(3), dt_noise=1.0 / 64.0)
    fluct = rode.fluctuation_report(path, matched, 10, int(rng_matched.integers(2**31)))
    gauss = rode.NoiseModel(kind="gaussian_pauli", sigma=0.1, dt_noise=1.0 / 64.0)
    res = rode.ensemble_mean(path, gauss, 30, int(rng_gauss.integers(2**31)))
    checks = _fluctuation_checks(fluct, ("distance_bound", "complexity_gap"))
    return [*checks, make_check("rode_mean_contraction", res.mean_operator_norm,
                                   1.0 + rode.MEAN_OP_NORM_TOL)]


def _synthesis_checks(rng) -> list:
    """Two-level synthesis: gate count bound and reconstruction."""
    over = []
    def error(N: int, rng) -> float:
        U = algebra.random_special_unitary(N, rng)
        circuit = algebra.decompose_two_level(U)
        over.append(algebra.algebraic_complexity(circuit) > N * (N - 1) // 2)
        return hs_norm(algebra.reconstruct(circuit, N) - U)
    err = _worst(rng, 2, partial(error, 2))
    err = _worst(rng, 2, partial(error, 4), err)
    err = _worst(rng, 2, partial(error, 8), err)
    count = make_check("decompose_count_violations", sum(over), 0)
    return [count, make_check("decompose_reconstruction", err, 1e-9)]


def _law_gap(rng) -> float:
    """The law of a random observable sums to one."""
    rv = algebra.RandomVariable(observable=random_hermitian(rng, 3), state=random_density(rng, 3))
    return abs(sum(p for _, p in algebra.law(rv)) - 1.0)


def _kraus_gaps(rng) -> tuple:
    """Kraus route: completeness, and agreement with the joint-propagation oracle."""
    spec = _rand_spec(rng)
    t = rng.uniform(0.2, 1.2)
    ks = channel.kraus_operators(spec, t)
    gram = np.einsum("kba,kbc->ac", ks.conj(), ks)
    rho = random_density(rng, spec.d_S)
    gap = channel.apply_channel(spec, t, rho) - channel.apply_channel_via_joint(spec, t, rho)
    return float(np.abs(gram - np.eye(spec.d_S)).max()), float(np.abs(gap).max())


def _embedding_gap(rng) -> float:
    """Adjoint compatibility of the system embedding."""
    A = random_hermitian(rng, 2)
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return abs(np.vdot(tensor(A, np.eye(2)), X) - np.vdot(A, partial_trace_env(X, 2, 2)))


def verify_all_battery(seed: int) -> list[dict]:
    """Deterministic cross-module checks, small enough to run in seconds.
    Each check draws from its own SeedSequence child of `seed`."""
    rngs = [np.random.default_rng(k) for k in np.random.SeedSequence(seed).spawn(20)]
    pinch = {d: coherence.computational_dephasing(d) for d in (2, 3, 4)}
    g_ref = geodesic.geometric_complexity_const(np.diag([1.0, -1.0]) + 0j, 1.0, None)  # sigma_z
    closed = _worst(rngs[0], 8, partial(_closed_form_gaps, 2), (0.0, 0.0))
    closed = _worst(rngs[0], 8, partial(_closed_form_gaps, 4), closed)
    limits = _limit_gaps(rngs[3])
    rate_cap = _worst(rngs[7], 20, partial(_rate_bound, pinch))
    margin = _worst(rngs[8], 3, partial(_decohering_excess, pinch[2]), -np.inf)
    cost_fails = sum(_cost_chain_fails(rngs[9]) for _ in range(20))
    kraus = _worst(rngs[14], 10, _kraus_gaps, (0.0, 0.0))
    return [
        make_check("reference_value_sigma_z", abs(g_ref - np.sqrt(2.0 / 3.0)), 1e-12),
        make_check("constant_path_closed_form", closed[0], 1e-10),
        make_check("abs_spectrum_invariance", closed[1], 1e-12),
        make_check("product_subadditivity", _worst(rngs[1], 20, _product_excess), 1e-12),
        make_check("channel_below_system", _worst(rngs[2], 10, _channel_excess), 1e-9),
        make_check("limit_noise_free", limits[0], 1e-10),
        make_check("limit_system_free", limits[1], 1e-10),
        make_check("noise_sandwich", _worst(rngs[4], 3, _sandwich_excess), 1e-8),
        make_check("norm_gap_bound", _worst(rngs[5], 20, _norm_gap_excess), 1e-12),
        make_check("coherence_rate_fd", _worst(rngs[6], 5, partial(_rate_fd_gap, pinch)), 1e-6),
        make_check("coherence_rate_cap", rate_cap, np.sqrt(2.0) + 1e-10),
        make_check("decohering_margin", margin, coherence.DECOHERING_SLACK),
        make_check("cost_chain_violations", cost_fails, 0),
        *_perturbative_checks(),
        *_rode_checks(rngs[10], rngs[11]),
        *_synthesis_checks(rngs[12]),
        make_check("law_normalization", _worst(rngs[13], 10, _law_gap), algebra.PROB_SUM_TOL),
        make_check("kraus_completeness", kraus[0], channel.KRAUS_COMPLETENESS_TOL),
        make_check("kraus_vs_joint_oracle", kraus[1], 1e-9),
        make_check("embedding_adjoint", _worst(rngs[15], 10, _embedding_gap), 1e-12),
    ]


def _run_verify_all(seed: int):
    checks = verify_all_battery(seed)
    n_failed = sum(1 for c in checks if not c["holds"])
    scalars = {"n_checks": float(len(checks)), "n_failed": float(n_failed)}
    return scalars, checks, None


#: The one table of kinds: each kind's runner, and the fields it reads besides
#: schema_version, kind and seed (a form, or two of which the first is read when
#: its first field is given). cli's subcommands and README's field list follow it.
KINDS = {
    "complexity": (_run_complexity, _Form({"H": _HERMITIAN, "t": _TIME, "metric": _METRIC},
                                          {"metric": None}, _complexity)),
    "channel": (_run_channel, (_Form({"perturbative": _PERTURBATIVE}), _JOINT_SPEC)),
    "noise": (_run_noise, _JOINT_SPEC),
    "cohering-power": (_run_cohering_power, (
        _Form({"U": _UNITARY, **_POWER}, _POWER_DEFAULTS, _dephasing),
        _Form({"generator": _HERMITIAN, "t": _TIME, **_POWER}, _POWER_DEFAULTS, _dephasing),
    )),
    "rode": (_run_rode, _Form({"path": _PATH, "noise": _NOISE, "M": _integer()}, {"M": 100},
                              _rode)),
    "decompose": (_run_decompose, _Form({"U": _UNITARY})),
    "verify-all": (_run_verify_all, _Form({})),
}


def _report(cfg: dict, values: dict) -> dict:
    # An overflow shows as a non-finite value, which assemble_report names;
    # numpy's warnings on the way there would only clutter stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        result = KINDS[cfg["kind"]][0](cfg["seed"], **values)
    return assemble_report(cfg, *result)


def run_experiment(cfg: dict) -> dict:
    """Read a validated config's fields, run its kind and assemble the report."""
    return _report(cfg, read_config(cfg))


@contextlib.contextmanager
def staging():
    """Yield stage(dest), the temporary name beside dest to write it under;
    a dest that is a directory, `.` and the empty path among them, is refused.

    When the block succeeds, every staged file replaces its destination;
    otherwise none does and the temporaries are removed, so a failed write
    leaves each destination as it was.
    """
    moves = []

    def stage(dest: Path) -> Path:
        if dest.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(dest))
        tmp = dest.with_name(".partial-" + dest.name)
        moves.append((tmp, dest))
        return tmp

    try:
        yield stage
        for tmp, dest in moves:
            os.replace(tmp, dest)
        moves.clear()
    finally:
        for tmp, _ in moves:
            with contextlib.suppress(FileNotFoundError):  # the block failed before it
                tmp.unlink()


def write_report(report: dict, out: str | None, stage=None) -> None:
    """Serialize to out (or stdout); a rode ensemble also gets its two
    sidecars, <stem>_trajectories.csv and .json, named here. The report and
    its sidecars are staged together, under a caller's stage (a sweep's) or
    a staging of their own, so they land together or not at all."""
    ensemble = report.pop("_ensemble", None)
    data = report_bytes(report)
    if out is None:
        sys.stdout.write(data.decode("utf-8"))
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with contextlib.nullcontext(stage) if stage else staging() as stage:
        stage(path).write_bytes(data)
        if ensemble is not None:
            stem = path.name.removesuffix(".json") + "_trajectories"
            rode.write_ensemble(ensemble, stage(path.with_name(stem + ".csv")),
                                stage(path.with_name(stem + ".json")))


def _config_path_set(cfg: dict, dotted: str, value) -> dict:
    """cfg with the field at a dotted path set to value, copying only the
    objects along the path, since nothing downstream mutates a config; a
    path that is not in cfg is refused."""
    *parents, leaf = dotted.split(".")
    out = node = dict(cfg)
    for part in parents:
        child = node.get(part)
        node[part] = dict(child) if isinstance(child, dict) else {}  # {}: the leaf is not found
        node = node[part]
    if leaf not in node:
        raise ConfigError(f"sweep parameter {dotted!r} not found in config")
    node[leaf] = value
    return out


def run_sweep(cfg: dict, param: str, values: list) -> tuple[list, list]:
    """One report per value plus aggregate rows for the CSV.

    Every swept config is validated and read before any of them runs; each
    unread-field note is printed once per sweep.
    """
    cfg = validate_config(cfg)
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
