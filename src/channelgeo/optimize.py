"""Derivative-free local search for the weighted-metric geodesic estimate.

Cyclic coordinate descent with a per-coordinate quadratic fit: each move
tries the two probe points and, when the fitted parabola is convex, its
vertex. Probe steps adapt per coordinate. No gradients, so objectives
with absolute-value kinks are handled without special casing.

Starts run in lockstep: a stack of starts advances over the same
coordinate together, so each move costs one objective call on the
stacked probes (plus one on the rows that try a vertex), while every
start keeps its own steps, value and stopping rule. The weighted
geodesic estimate, the one caller, makes one call per estimate on the
stack of all its restarts.
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
    fun: np.ndarray
    sweeps: int
    evals: int
    converged: bool


def coordinate_search(
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    step: float | np.ndarray = 0.25,
    step_tol: float = 1e-7,
    max_sweeps: int = 80,
) -> SearchResult:
    """Minimize f by adaptive coordinate-wise quadratic-fit search.

    A start stops when every one of its probe steps has shrunk below
    step_tol (converged) or after max_sweeps full passes; a stopped start
    is frozen while the others go on.

    x0 is a stack of starts of shape (R, n), and f maps an (m, n) stack of
    points to m values. step, the initial probe steps, is broadcast to
    (R, n), so each start may have its own. x comes back as (R, n) and fun
    as (R,), with sweeps and evals summed over the starts and converged
    true when any start converged. The search does the same arithmetic for
    each start as for that start alone, so when f gives every row the
    value it gives that point alone, each start ends bit for bit where it
    would alone.
    """
    x = np.array(x0, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"Expected an (R, n) stack of starts, got shape {x.shape}.")
    R, n = x.shape
    h = np.array(np.broadcast_to(step, (R, n)), dtype=float)

    def stacked(P: np.ndarray) -> np.ndarray:
        return np.asarray(f(P), dtype=float)

    X = x.copy()  # the result: active rows are written back after every sweep
    fun = stacked(x)
    f0 = fun.copy()
    active = np.arange(R)
    converged = np.zeros(R, dtype=bool)
    evals = R
    sweeps = 0
    for _ in range(max_sweeps):
        m = active.size
        sweeps += m
        for i in range(n):
            hi = h[:, i]
            xi = x[:, i]
            probes = np.concatenate((x, x))
            probes[:m, i] = xi + hi
            probes[m:, i] = xi - hi
            f_probe = stacked(probes)
            f_plus, f_minus = f_probe[:m], f_probe[m:]
            evals += 2 * m
            up = f_plus < f0
            best_f = np.where(up, f_plus, f0)
            best_s = np.where(up, hi, 0.0)
            down = f_minus < best_f
            best_f = np.where(down, f_minus, best_f)
            best_s = np.where(down, -hi, best_s)
            curv = f_plus + f_minus - 2.0 * f0
            fit = np.flatnonzero(curv > 1e-300)
            h_fit = hi[fit]
            s = -(f_plus[fit] - f_minus[fit]) * h_fit / (2.0 * curv[fit])
            s = np.minimum(np.maximum(s, -2 * h_fit), 2 * h_fit)  # np.clip, without its overhead
            try_s = (s != 0.0) & (np.abs(np.abs(s) - h_fit) > 1e-15 * h_fit)
            fit, s = fit[try_s], s[try_s]
            if fit.size:
                vertex = x[fit]
                vertex[:, i] = xi[fit] + s
                f_s = stacked(vertex)
                evals += fit.size
                win = f_s < best_f[fit]
                best_f[fit[win]] = f_s[win]
                best_s[fit[win]] = s[win]
            x[:, i] = xi + best_s
            moved = best_s != 0.0
            f0 = np.where(moved, best_f, f0)
            h[:, i] = np.where(
                moved, np.where(np.abs(best_s) >= 0.9 * hi, hi * EXPAND, hi), hi * SHRINK
            )
        done = h.max(axis=1) < step_tol
        converged[active[done]] = True
        X[active], fun[active] = x, f0
        keep = ~done
        active, x, h, f0 = active[keep], x[keep], h[keep], f0[keep]
        if not active.size:
            break
    return SearchResult(
        x=X, fun=fun, sweeps=sweeps, evals=evals, converged=bool(converged.any())
    )
