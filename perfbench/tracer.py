"""Out-of-program tracing of channelgeo's public functions.

The package binds its dependencies with ``from .operators import ...``, so a
function object is reachable under several module namespaces. ``Tracer``
replaces every binding of each wrapped function in every ``channelgeo.*``
module and puts the originals back on exit. Spans are kept in memory as
(name, start, end, parent span, experiment id) and turned into per-layer
metrics afterwards; nothing inside the package is edited.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: Wrapped public functions per layer; a layer is ``channelgeo.<module>``.
LAYERS = {
    "cli": ["main"],
    "reports": ["load_config", "validate_config", "run_experiment", "write_report"],
    "optimize": ["coordinate_search"],
    "geodesic": [
        "estimate_cc_distance",
        "log_distance",
        "principal_log_generator",
        "path_endpoint",
        "geometric_complexity_const",
    ],
    "channel": ["noise_complexity_bounds", "channel_complexity_const", "kraus_operators"],
    "coherence": ["cohering_power", "dephase", "purity"],
    "rode": ["ensemble_mean", "fluctuation_report", "distance_unitaries", "write_ensemble"],
    "operators": [
        "hermitian",
        "unitary",
        "density",
        "matrix_exp_unitary",
        "matrix_abs",
        "sqrt_abs_diff",
        "hs_norm",
    ],
    "pauli": ["build_pauli_basis", "vectorize", "omega_norm_raw"],
    "algebra": ["decompose_two_level", "reconstruct"],
}

#: Counts read from return values and arguments: (metric, unit, better).
DERIVED = [
    ("optimize.evals", "count", "lower"),
    ("optimize.sweeps", "count", "lower"),
    ("optimize.converged_ratio", "ratio", "higher"),
    ("optimize.evals_per_s", "1/s", "higher"),
    ("geodesic.restarts", "count", "lower"),
    ("geodesic.endpoint_error_max", "1", "lower"),
    ("channel.upper_skipped", "count", "lower"),
    ("coherence.starts", "count", "lower"),
    ("coherence.converged_ratio", "ratio", "higher"),
    ("rode.trajectories", "count", "lower"),
    ("rode.trajectories_per_s", "1/s", "higher"),
    ("algebra.gates", "count", "lower"),
    ("trace.spans", "count", "lower"),
]


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric ``derive`` emits."""
    specs = []
    for name in function_names():
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.s", "s", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    return specs + DERIVED


def _search(counters, args, kwargs, result) -> None:
    counters["optimize.evals"] += result.evals
    counters["optimize.sweeps"] += result.sweeps
    counters["optimize.converged"] += bool(result.converged)


def _estimate(counters, args, kwargs, result) -> None:
    counters["geodesic.restarts"] += result.restarts_used
    counters["geodesic.endpoint_error_max"] = max(
        counters["geodesic.endpoint_error_max"], float(result.endpoint_error)
    )


def _bounds(counters, args, kwargs, result) -> None:
    counters["channel.upper_skipped"] += result["upper"] is None


def _power(counters, args, kwargs, result) -> None:
    counters["coherence.starts"] += result.restarts
    counters["coherence.converged"] += bool(result.converged)


def _ensemble(counters, args, kwargs, result) -> None:
    counters["rode.trajectories"] += int(kwargs["M"] if "M" in kwargs else args[2])


def _decomposition(counters, args, kwargs, result) -> None:
    counters["algebra.gates"] += len(result.gates)


#: Wrapped functions whose arguments or result feed a counter.
_OBSERVERS = {
    "optimize.coordinate_search": _search,
    "geodesic.estimate_cc_distance": _estimate,
    "channel.noise_complexity_bounds": _bounds,
    "coherence.cohering_power": _power,
    "rode.ensemble_mean": _ensemble,
    "rode.fluctuation_report": _ensemble,
    "algebra.decompose_two_level": _decomposition,
}


class Tracer:
    """Context manager that wraps the LAYERS functions while it is open.

    Set ``experiment`` before each experiment so its spans carry the id.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.experiment = ""
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        observer = _OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.experiment)
            if observer is not None:
                observer(counters, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "channelgeo" or key.startswith("channelgeo."))
        ]
        try:
            for layer, fns in LAYERS.items():
                home = sys.modules[f"channelgeo.{layer}"]
                for fn in fns:
                    original = getattr(home, fn)
                    wrapper = self._wrap(f"{layer}.{fn}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self._patched.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def derive(self) -> dict[str, float]:
        """Per-function calls, inclusive and self time, plus derived counts."""
        calls: dict = defaultdict(int)
        inclusive: dict = defaultdict(float)
        nested = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            if parent >= 0:
                nested[parent] += end - start
        self_time: dict = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, nested):
            self_time[name] += end - start - inner
        out = {}
        for name in function_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.self_s"] = self_time[name]
        c = self.counters
        searches = calls["optimize.coordinate_search"]
        powers = calls["coherence.cohering_power"]
        rode_s = inclusive["rode.ensemble_mean"] + inclusive["rode.fluctuation_report"]
        out.update({
            "optimize.evals": c["optimize.evals"],
            "optimize.sweeps": c["optimize.sweeps"],
            "optimize.converged_ratio": c["optimize.converged"] / searches if searches else 0.0,
            "optimize.evals_per_s": c["optimize.evals"] / inclusive["optimize.coordinate_search"]
            if searches else 0.0,
            "geodesic.restarts": c["geodesic.restarts"],
            "geodesic.endpoint_error_max": c["geodesic.endpoint_error_max"],
            "channel.upper_skipped": c["channel.upper_skipped"],
            "coherence.starts": c["coherence.starts"],
            "coherence.converged_ratio": c["coherence.converged"] / powers if powers else 0.0,
            "rode.trajectories": c["rode.trajectories"],
            "rode.trajectories_per_s": c["rode.trajectories"] / rode_s if rode_s else 0.0,
            "algebra.gates": c["algebra.gates"],
            "trace.spans": len(self.spans),
        })
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span: name, start, end, parent, experiment."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,experiment\n")
            for sid, (name, start, end, parent, exp) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{exp}\n")
