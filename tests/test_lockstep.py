"""Lockstep (stacked) search and stack-aware coherence and geodesic kernels
against their one-state forms, bit for bit."""
import numpy as np
import pytest

from conftest import dephasing_families, rand_density, rand_pure, rand_unitary

from channelgeo.coherence import (
    _coherence_gap,
    _negative_gaps,
    cohering_power,
    dephase,
    purity,
)
from channelgeo.geodesic import _Chart, _penalized
from channelgeo.operators import density, hs_norm, matrix_exp_unitary
from channelgeo.optimize import coordinate_search
from channelgeo.pauli import MetricSpec, build_pauli_basis


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


def _rows(f):
    """The stacked objective that applies a one-point f to every row."""
    return lambda X: np.array([f(x) for x in X])


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
    f = _rows(_scalar_objective(U, E, pure_only))
    best, converged = None, False
    for x0 in starts:
        res = coordinate_search(f, x0[None], step=0.3, step_tol=1e-7, max_sweeps=40)
        converged = converged or res.converged
        if best is None or res.fun[0] < best.fun[0]:
            best = res
    rho = density(_scalar_state(best.x[0], d, pure_only))
    return _coherence_gap(U, rho, E), rho, converged


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("pure_only", [False, True])
def test_stacked_objective_rows_match_single_state(rng, d, pure_only):
    n = 2 * d if pure_only else 2 * d * d
    for E in dephasing_families(rng, d)[:2]:
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
    singles = [
        coordinate_search(_rows(_kinked), x[None], step=0.3, step_tol=1e-7, max_sweeps=30)
        for x in x0
    ]
    assert {r.converged for r in singles} == {True, False}  # some start is frozen early
    calls = []

    def stacked(X):
        calls.append(len(X))
        return np.array([_kinked(x) for x in X])

    res = coordinate_search(stacked, x0, step=0.3, step_tol=1e-7, max_sweeps=30)
    assert res.x.shape == (6, 4) and res.fun.shape == (6,)
    for k, one in enumerate(singles):
        assert np.array_equal(res.x[k], one.x[0])
        assert res.fun[k] == one.fun[0]
    assert res.evals == sum(r.evals for r in singles) == sum(calls)
    assert res.sweeps == sum(r.sweeps for r in singles)
    assert res.converged is True
    # one call for the start values, then at most two per coordinate move
    assert len(calls) <= 1 + 2 * 4 * 30


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
    E = dephasing_families(rng, d)[k % 3]
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
    for E in dephasing_families(rng, d):
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


def _one_path(x, target, chart, K, lam):
    """Penalized length of one K-segment path, one segment at a time."""
    d, p, ds = chart.d, chart.size, 1.0 / K
    weights = np.concatenate([chart.m.weights, [0.0]])
    U = np.eye(d, dtype=np.complex128)
    norms = np.zeros(K)
    for k in range(K):
        seg = x[k * p : (k + 1) * p]
        H = np.einsum("k,kab->ab", seg[:-1].astype(np.complex128), chart.m.basis.elements)
        H = H + seg[-1] / np.sqrt(d) * np.eye(d)
        U = matrix_exp_unitary(H, ds) @ U
        norms[k] = np.sqrt(np.sum(weights * seg * seg))
    length = float(np.sum(norms) * ds / np.sqrt(d**2 - 1))
    err = hs_norm(U - target)
    return length + lam * err * err, length, err


@pytest.mark.parametrize("n, K", [(1, 1), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_penalized_rows_match_one_path(rng, n, K):
    basis = build_pauli_basis(n)
    m = MetricSpec(basis=basis, weights=rng.uniform(1.0, 4.0, size=len(basis.labels)))
    chart = _Chart(basis.dim, m)
    target = rand_unitary(rng, basis.dim)
    X = rng.normal(scale=0.8, size=(5, K * chart.size))
    value, length, err = _penalized(X, target, chart, K, 128.0)
    assert value.shape == length.shape == err.shape == (5,)
    for row, got in zip(X, zip(value, length, err)):
        assert got == _one_path(row, target, chart, K, 128.0)
