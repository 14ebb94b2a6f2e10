"""Lockstep (stacked) search and stack-aware coherence kernels against their
one-state forms, bit for bit."""
import numpy as np
import pytest

from conftest import rand_density, rand_pure, rand_unitary

from channelgeo.coherence import (
    DephasingChannel,
    _coherence_gap,
    _negative_gaps,
    cohering_power,
    computational_dephasing,
    dephase,
    purity,
)
from channelgeo.operators import density
from channelgeo.optimize import coordinate_search


def _scalar_state(x, d, pure_only):
    """One chart point -> state, or None without mass (the one-state chart)."""
    if pure_only:
        v = x[:d] + 1j * x[d:]
        nrm = float(np.linalg.norm(v))
        if nrm < 1e-150:
            return None
        v = v / nrm
        return np.outer(v, v.conj())
    L = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
    G = L @ L.conj().T
    tr = float(np.trace(G).real)
    if tr < 1e-150:
        return None
    return G / tr


def _scalar_objective(U, E, pure_only):
    d = U.shape[0]

    def f(x):
        rho = _scalar_state(x, d, pure_only)
        return 0.0 if rho is None else -_coherence_gap(U, rho, E)

    return f


def _serial_cohering_power(U, E, restarts, seed, pure_only):
    """One one-start search per start, in start order; the first best wins."""
    d = U.shape[0]
    n = 2 * d if pure_only else 2 * d * d
    starts = []
    for k in range(d):
        x = np.zeros(n)
        x[k if pure_only else k * d + k] = 1.0
        starts.append(x)
    for child in np.random.SeedSequence(seed).spawn(restarts):
        starts.append(np.random.default_rng(child).normal(scale=1.0, size=n))
    f = _scalar_objective(U, E, pure_only)
    best, converged = None, False
    for x0 in starts:
        res = coordinate_search(f, x0, step=0.3, step_tol=1e-7, max_sweeps=40)
        converged = converged or res.converged
        if best is None or res.fun < best.fun:
            best = res
    rho = density(_scalar_state(best.x, d, pure_only))
    return _coherence_gap(U, rho, E), rho, converged


def _families(rng, d):
    """Computational, rotated rank-1 and rank-2 block projector families."""
    Q = rand_unitary(rng, d)
    rank1 = [np.outer(Q[:, k], Q[:, k].conj()) for k in range(d)]
    blocks = [Q[:, k : k + 2] @ Q[:, k : k + 2].conj().T for k in range(0, d, 2)]
    return [
        computational_dephasing(d),
        DephasingChannel(projectors=tuple(rank1)),
        DephasingChannel(projectors=tuple(blocks)),
    ]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("pure_only", [False, True])
def test_stacked_objective_rows_match_single_state(rng, d, pure_only):
    n = 2 * d if pure_only else 2 * d * d
    for E in _families(rng, d)[:2]:
        U = rand_unitary(rng, d)
        X = rng.normal(size=(6, n))
        X[2] = 0.0  # no mass: the objective is 0.0 there
        X[4, : n // 2] = 0.0  # purely imaginary chart coordinates
        f = _scalar_objective(U, E, pure_only)
        got = _negative_gaps(X, U, E, pure_only)
        assert got.shape == (6,)
        assert got[2] == 0.0
        for row, value in zip(X, got):
            assert value == f(row)


def _kinked(x):
    return float((x[0] - 1.0) ** 2 + 20.0 * (x[1] - x[0] ** 2) ** 2 + np.sum(np.abs(x[2:] - 0.3)))


def test_stacked_search_matches_one_start_runs():
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(6, 4))
    x0[0] = [1.0, 1.0, 0.3, 0.3]  # starts at the minimum: stops early
    singles = [coordinate_search(_kinked, x, step=0.3, step_tol=1e-7, max_sweeps=30) for x in x0]
    assert {r.converged for r in singles} == {True, False}  # some start is frozen early
    calls = []

    def stacked(X):
        calls.append(len(X))
        return np.array([_kinked(x) for x in X])

    res = coordinate_search(stacked, x0, step=0.3, step_tol=1e-7, max_sweeps=30)
    assert res.x.shape == (6, 4) and res.fun.shape == (6,)
    for k, one in enumerate(singles):
        assert np.array_equal(res.x[k], one.x)
        assert res.fun[k] == one.fun
    assert res.evals == sum(r.evals for r in singles) == sum(calls)
    assert res.sweeps == sum(r.sweeps for r in singles)
    assert res.converged is True
    # one call for the start values, then at most two per coordinate move
    assert len(calls) <= 1 + 2 * 4 * 30
    single = coordinate_search(_kinked, x0[1], step=0.3, step_tol=1e-7, max_sweeps=30)
    assert isinstance(single.fun, float) and single.x.shape == (4,)
    assert isinstance(single.converged, bool)


def _cohering_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for k in range(20):
        d = (2, 3, 4)[k % 3]
        pure_only = d == 4 or bool(k % 2)
        cases.append((k, d, pure_only, int(rng.integers(0, 4)), int(rng.integers(2**31))))
    return cases


@pytest.mark.parametrize("k,d,pure_only,restarts,seed", _cohering_cases())
def test_cohering_power_matches_serial_oracle(k, d, pure_only, restarts, seed):
    rng = np.random.default_rng([7, k])
    U = rand_unitary(rng, d)
    E = _families(rng, d)[k % 3]
    got = cohering_power(U, E, restarts=restarts, seed=seed, pure_only=pure_only)
    value, rho, converged = _serial_cohering_power(U, E, restarts, seed, pure_only)
    assert got.value == value
    assert np.array_equal(got.argmax_state, rho)
    assert got.converged == converged
    assert got.restarts == d + restarts


@pytest.mark.parametrize("d", range(2, 9))
def test_dephase_and_purity_accept_stacks(rng, d):
    states = np.stack(
        [rand_density(rng, d) for _ in range(3)] + [rand_pure(rng, d) for _ in range(2)]
    )
    for E in _families(rng, d):
        out = dephase(states, E)
        assert out.shape == states.shape
        for rho, pinched in zip(states, out):
            assert np.array_equal(pinched, dephase(rho, E))
        p = purity(out)
        assert p.shape == (5,)
        for rho, value in zip(out, p):
            assert value == purity(rho)
    deeper = states[:4].reshape(2, 2, d, d)
    assert np.array_equal(dephase(deeper, E)[1, 0], dephase(states[2], E))
    assert purity(deeper)[1, 1] == purity(states[3])
    one = purity(states[0])
    assert isinstance(one, float)
    assert one == float(np.vdot(states[0], states[0]).real)
