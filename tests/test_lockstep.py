"""Lockstep (stacked) search and stack-aware coherence and geodesic kernels
against their one-state forms, bit for bit."""
import numpy as np
import pytest

from conftest import dephasing_families, rand_density, rand_pure, rand_unitary

from channelgeo import coherence
from channelgeo.coherence import (
    _coherence_gap,
    _eigen_states,
    _frank_wolfe_step,
    _gap_operator,
    _outer,
    _power_step,
    _quad,
    cohering_power,
    dephase,
    purity,
)
from channelgeo.geodesic import _Chart, _closed, principal_log_generator
from channelgeo.operators import density, matrix_exp_unitary
from channelgeo.optimize import coordinate_search
from channelgeo.pauli import MetricSpec, build_pauli_basis


def _rows(f):
    """The stacked objective that applies a one-point f to every row."""
    return lambda X: np.array([f(x) for x in X])


def _serial_climb(step, xs, signs, fs, upper):
    """The lockstep climb with each active row stepped by itself, in row order."""
    xs, fs = list(xs), list(fs)
    active = [True] * len(xs)
    steps = 0
    while any(active) and steps < coherence.MAX_STEPS and max(fs) < upper - coherence.BRACKET_TOL:
        for i, s in enumerate(signs):
            if not active[i]:
                continue
            x, f = step(xs[i][None], np.array([s]))
            if f[0] - fs[i] > coherence.GAIN_TOL:
                xs[i], fs[i] = x[0], f[0]
            else:
                active[i] = False
        steps += 1
    bracketed = max(fs) >= upper - coherence.BRACKET_TOL
    return xs, fs, steps, [bracketed or not a for a in active]


def _serial_cohering_power(U, E, restarts, seed, pure_only):
    """cohering_power with every start climbed, and every restart drawn, alone."""
    d = U.shape[0]
    M = _gap_operator(U, E)
    w, V = np.linalg.eigh(M)
    scale = float(np.abs(w).max())
    upper = min((1.0 - 1.0 / d) * scale, 1.0 - 1.0 / len(E.projectors))
    starts = list(np.eye(d, dtype=np.complex128)) + list(_eigen_states(V[:, [0, 1, -2, -1]], d))
    for child in np.random.SeedSequence(seed).spawn(restarts):
        x = np.random.default_rng(child).normal(size=(1, 2 * d))
        v = x[:, :d] + 1j * x[:, d:]
        starts.append((v / np.linalg.norm(v, axis=1, keepdims=True))[0])
    signs = [1.0] * len(starts) + [-1.0] * len(starts)
    psi = starts + starts
    fs = [s * _quad(M, _outer(p[None]))[0] for p, s in zip(psi, signs)]
    psi, fs, steps, settled = _serial_climb(
        lambda p, s: _power_step(M, 2.0 * scale, p, s), psi, signs, fs, upper)
    rho = [_outer(p[None])[0] for p in psi]
    if not pure_only:
        rho, fs, more, settled_fw = _serial_climb(
            lambda r, s: _frank_wolfe_step(M, r, s), rho, signs, fs, upper)
        steps += more
        settled = [a and b for a, b in zip(settled, settled_fw)]
    rho_star = density(rho[int(np.argmax(fs))])
    R = len(starts)
    converged_starts = sum(settled[k] and settled[R + k] for k in range(R))
    return _coherence_gap(U, rho_star, E), rho_star, upper, R, steps, converged_starts


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("pure_only", [False, True])
def test_stacked_objective_rows_match_single_state(rng, d, pure_only):
    draw = rand_pure if pure_only else rand_density
    for E in dephasing_families(rng, d)[:2]:
        U = rand_unitary(rng, d)
        M = _gap_operator(U, E)
        states = np.stack([draw(rng, d) for _ in range(6)])
        states[2] = np.eye(d) / d  # M(I) = 0: no gap there
        got = _quad(M, states)
        assert got.shape == (6,)
        assert abs(got[2]) <= 1e-15
        for rho, value in zip(states, got):
            assert value == _quad(M, rho[None])[0]
            assert abs(abs(value) - _coherence_gap(U, rho, E)) <= 1e-14


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
    value, rho, upper, R, steps, converged_starts = _serial_cohering_power(
        U, E, restarts, seed, pure_only)
    assert got.value == value
    assert np.array_equal(got.argmax_state, rho)
    assert got.upper == upper
    assert got.restarts == R == d + 8 + restarts
    assert got.steps == steps
    assert got.converged_starts == converged_starts
    assert got.converged == (converged_starts == R)


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


def _one_path(x, target, chart, K):
    """Length of one closed K-segment path, one segment at a time, and the
    principal log L that its last segment runs (as K L for 1/K)."""
    d, p, ds = chart.d, chart.size, 1.0 / K
    weights = np.concatenate([chart.m.weights, [0.0]])
    frame = [*chart.m.basis.elements, np.eye(d) / np.sqrt(d)]
    P = np.eye(d, dtype=np.complex128)
    norms = np.zeros(K - 1)
    for k in range(K - 1):
        seg = x[k * p : (k + 1) * p]
        H = np.einsum("k,kab->ab", seg[:-1].astype(np.complex128), chart.m.basis.elements)
        H = H + seg[-1] / np.sqrt(d) * np.eye(d)
        P = matrix_exp_unitary(H, ds) @ P
        norms[k] = np.sqrt(np.sum(weights * seg * seg))
    L = principal_log_generator(target @ P.conj().T)
    c = np.array([np.vdot(E, L).real for E in frame])
    return (np.sum(norms) * ds + np.sqrt(np.sum(weights * c * c))) / np.sqrt(d**2 - 1), L


@pytest.mark.parametrize("n, free", [(1, 1), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_penalized_rows_match_one_path(rng, n, free):
    """Rows of the closed-path length objective against the one-path oracle."""
    K = free + 1
    basis = build_pauli_basis(n)
    m = MetricSpec(basis=basis, weights=rng.uniform(1.0, 4.0, size=len(basis.labels)))
    chart = _Chart(basis.dim, m)
    target = rand_unitary(rng, basis.dim)
    X = rng.normal(scale=0.8, size=(5, free * chart.size))
    length, L = _closed(X, target, chart, K)
    assert length.shape == (5,) and L.shape == (5, basis.dim, basis.dim)
    for row, got, log in zip(X, length, L):
        want, want_log = _one_path(row, target, chart, K)
        assert got == want
        assert np.array_equal(log, want_log)
