"""Derivative-free local search shared by the geodesic and coherence optimizers.

Cyclic coordinate descent with a per-coordinate quadratic fit: each move
tries the two probe points and, when the fitted parabola is convex, its
vertex. Probe steps adapt per coordinate. No gradients, so objectives
with absolute-value kinks are handled without special casing.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Probe-step factors after a full-length move and after a failed one.
EXPAND = 1.6
SHRINK = 0.45


@dataclass
class SearchResult:
    x: np.ndarray
    fun: float
    sweeps: int
    evals: int
    converged: bool


def coordinate_search(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    step: float | np.ndarray = 0.25,
    step_tol: float = 1e-7,
    max_sweeps: int = 80,
) -> SearchResult:
    """Minimize f by adaptive coordinate-wise quadratic-fit search.

    Stops when every probe step has shrunk below step_tol (converged)
    or after max_sweeps full passes (converged=False).
    """
    x = np.array(x0, dtype=float)
    n = x.size
    h = np.full(n, float(step)) if np.isscalar(step) else np.array(step, dtype=float)
    if h.shape != (n,):
        raise ValueError(f"Expected {n} step sizes, got shape {h.shape}.")
    f0 = float(f(x))
    evals = 1
    sweeps = 0
    converged = False
    for sweep in range(max_sweeps):
        sweeps = sweep + 1
        for i in range(n):
            hi = h[i]
            xi = x[i]
            x[i] = xi + hi
            f_plus = float(f(x))
            x[i] = xi - hi
            f_minus = float(f(x))
            evals += 2
            best_f, best_s = f0, 0.0
            if f_plus < best_f:
                best_f, best_s = f_plus, hi
            if f_minus < best_f:
                best_f, best_s = f_minus, -hi
            curv = f_plus + f_minus - 2.0 * f0
            if curv > 1e-300:
                s = float(np.clip(-(f_plus - f_minus) * hi / (2.0 * curv), -2 * hi, 2 * hi))
                if s != 0.0 and abs(abs(s) - hi) > 1e-15 * hi:
                    x[i] = xi + s
                    f_s = float(f(x))
                    evals += 1
                    if f_s < best_f:
                        best_f, best_s = f_s, s
            x[i] = xi + best_s
            if best_s != 0.0:
                f0 = best_f
                if abs(best_s) >= 0.9 * hi:
                    h[i] = hi * EXPAND
            else:
                h[i] = hi * SHRINK
        if float(np.max(h)) < step_tol:
            converged = True
            break
    return SearchResult(x=x, fun=f0, sweeps=sweeps, evals=evals, converged=converged)
