"""Correctness oracle for one CLI experiment.

Each kind gets checks recomputed here with plain numpy from the config,
independent of the package's own code paths. At the reference seed every
scalar is also compared with the committed reference values.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

#: Reference scalars may drift by this much (relative, with an absolute
#: floor) before a report counts as wrong; byte identity is only counted.
REF_RTOL = 1e-9
REF_ATOL = 1e-12
#: Scalars that are certified lower bounds: they may rise, never fall.
LOWER_BOUND_SCALARS = {("cohering-power", "C_power")}
LOWER_BOUND_SLACK = 1e-9


def _matrix(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _close(a: float, b: float, rtol: float = 1e-12, atol: float = 1e-15) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _expm(H: np.ndarray, t: float) -> np.ndarray:
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * t * w)) @ V.conj().T


def _log_distance(U: np.ndarray, W: np.ndarray) -> float:
    d = U.shape[0]
    theta = np.angle(np.linalg.eigvals(U.conj().T @ W))
    return float(np.linalg.norm(theta) / np.sqrt(d * d - 1))


def _joint(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    d_S, d_E = cfg["d_S"], cfg["d_E"]
    H_Se = np.kron(_matrix(cfg["H_S"]), np.eye(d_E))
    H_tot = H_Se + _matrix(cfg["H_I"]) + np.kron(np.eye(d_S), _matrix(cfg["H_E"]))
    return H_tot, H_Se


def _check_complexity(cfg, rep, csv_rows):
    H = _matrix(cfg["H"])
    d = H.shape[0]
    expected = cfg["t"] * np.linalg.norm(H) / np.sqrt(d * d - 1)
    if not _close(rep["scalars"]["G_hs"], expected):
        yield f"G_hs {rep['scalars']['G_hs']!r} != t*|H|_F/sqrt(d^2-1) {expected!r}"


def _check_channel(cfg, rep, csv_rows):
    s = rep["scalars"]
    if "perturbative" in cfg:
        p = cfg["perturbative"]
        H_S, A_S = _matrix(p["H_S"]), _matrix(p["A_S"])
        E, w = np.asarray(p["env_energies"]), np.asarray(p["weights"])
        d = H_S.shape[0] * E.size
        h = np.sqrt(E.size) * np.linalg.norm(H_S)
        omega = np.sqrt(max(2.0 * np.trace(A_S @ H_S).real * float(w @ E), 0.0))
        omega /= np.linalg.norm(H_S)
        se = np.sqrt(p["eps"])
        pert = p.get("t", 1.0) / np.sqrt(d * d - 1) * h * (1 - se * omega * (1 - se * omega / 2))
        if not _close(s["perturbative"], pert, rtol=1e-10):
            yield f"perturbative {s['perturbative']!r} != closed form {pert!r}"
        if not _close(s["error"], abs(s["exact"] - s["perturbative"]), rtol=1e-10):
            yield "error != |exact - perturbative|"
        return
    if not s["G_hs"] <= s["G_noiseless"] + 1e-9:
        yield f"G_hs {s['G_hs']!r} above G_noiseless {s['G_noiseless']!r}"
    d = cfg["d_S"] * cfg["d_E"]
    free = cfg["t"] * np.sqrt(cfg["d_E"]) * np.linalg.norm(_matrix(cfg["H_S"])) / np.sqrt(d * d - 1)
    if not _close(s["G_noiseless"], free):
        yield f"G_noiseless {s['G_noiseless']!r} != closed form {free!r}"


def _check_noise(cfg, rep, csv_rows):
    s = rep["scalars"]
    H_tot, H_Se = _joint(cfg)
    D = H_tot @ H_tot - H_Se @ H_Se
    w, V = np.linalg.eigh((D + D.conj().T) / 2)
    w = np.abs(w)
    w[w <= 1e-10] = 0.0
    resid = (V * np.sqrt(w)) @ V.conj().T
    t = cfg["t"]
    floor = _log_distance(_expm(H_tot, t), _expm(resid, t))
    if s["distance_estimate"] is None or not s["distance_estimate"] >= floor - 1e-12:
        yield f"distance_estimate {s['distance_estimate']!r} below log distance {floor!r}"
    if not s["noise_lower"] <= s["N_hs"] + 1e-8:
        yield f"noise_lower {s['noise_lower']!r} above N_hs {s['N_hs']!r}"


def _check_cohering_power(cfg, rep, csv_rows):
    d = len(cfg["U"]) if "U" in cfg else len(cfg["generator"])
    if not rep["scalars"]["C_power"] <= 1.0 - 1.0 / d + 1e-12:
        yield f"C_power {rep['scalars']['C_power']!r} above 1 - 1/d"


def _check_decompose(cfg, rep, csv_rows):
    U = _matrix(cfg["U"])
    N = U.shape[0]
    if cfg.get("normalize_phase", True):
        U = U * np.linalg.det(U) ** (-1.0 / N)
    gates = rep["circuit"]
    if len(gates) > N * (N - 1) // 2 or rep["scalars"]["gate_count"] != len(gates):
        yield f"{len(gates)} gates against the bound {N * (N - 1) // 2}"
    W = np.eye(N, dtype=np.complex128)
    for g in gates:
        rows = [g["a"], g["b"]]
        W[rows, :] = _matrix(g["block"]) @ W[rows, :]
    err = float(np.linalg.norm(W - U))
    if not err <= 1e-9:
        yield f"rebuilt circuit is {err:.3e} away from U"


def _check_verify_all(cfg, rep, csv_rows):
    s = rep["scalars"]
    if s["n_failed"] != 0 or s["n_checks"] != len(rep["checks"]):
        yield f"verify-all n_failed={s['n_failed']!r} of {s['n_checks']!r}"


def _check_rode(cfg, rep, csv_rows):
    M = cfg.get("M", 100)
    if csv_rows != M:
        yield f"sidecar CSV has {csv_rows} rows, expected M={M}"


_CHECKS = {
    "complexity": _check_complexity,
    "channel": _check_channel,
    "noise": _check_noise,
    "cohering-power": _check_cohering_power,
    "decompose": _check_decompose,
    "verify-all": _check_verify_all,
    "rode": _check_rode,
}


def output_paths(report_path: Path, kind: str) -> list[Path]:
    """The report and, for rode, its two trajectory sidecars."""
    if kind != "rode":
        return [report_path]
    stem = str(report_path)[: -len(".json")] + "_trajectories"
    return [report_path, Path(stem + ".csv"), Path(stem + ".json")]


def check(item: dict, code: int, report_path: Path, reference: dict | None) -> list[str]:
    """Problems found with one experiment; an empty list means it passed.

    reference is the committed entry for this item at the reference seed,
    or None at any other seed.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        rep = json.loads(report_path.read_text(encoding="utf-8"))
        csv_rows = None
        if item["kind"] == "rode":
            with open(output_paths(report_path, "rode")[1], encoding="utf-8") as fh:
                csv_rows = sum(1 for _ in fh) - 1
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if rep.get("all_ok") is not True or rep.get("kind") != item["kind"]:
        problems.append(f"all_ok={rep.get('all_ok')!r} kind={rep.get('kind')!r}")
    try:
        problems.extend(_CHECKS[item["kind"]](item["config"], rep, csv_rows))
    except (KeyError, TypeError, ValueError, np.linalg.LinAlgError) as exc:
        problems.append(f"report does not match its kind: {exc!r}")
    if reference is not None:
        problems.extend(_compare_reference(item["kind"], rep["scalars"], reference["scalars"]))
    return problems


def _compare_reference(kind: str, scalars: dict, ref: dict):
    if set(scalars) != set(ref):
        yield f"scalar names {sorted(scalars)} differ from reference {sorted(ref)}"
        return
    for name, want in ref.items():
        got = scalars[name]
        if want is None or got is None:
            ok = want is got
        elif (kind, name) in LOWER_BOUND_SCALARS:
            ok = got >= want - LOWER_BOUND_SLACK
        else:
            ok = _close(got, want, REF_RTOL, REF_ATOL)
        if not ok:
            yield f"scalar {name} = {got!r}, reference {want!r}"


def digest(report_path: Path) -> str:
    return hashlib.sha256(report_path.read_bytes()).hexdigest()
