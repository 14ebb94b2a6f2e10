import hashlib
import warnings

import numpy as np
import pytest

from conftest import dephasing_families, rand_density, rand_hermitian, rand_pure, rand_unitary

from channelgeo import coherence, geodesic, operators
from channelgeo.coherence import (
    DephasingChannel,
    coherence_rate_bound,
    coherence_rate_exact,
    cohering_power,
    computational_dephasing,
    dephase,
    linear_entropy,
    purity,
    rel_entropy_coherence,
    verify_decohering_bound,
)
from channelgeo.operators import commutator, hs_norm, matrix_exp_unitary

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)


def test_channel_validation():
    good = np.diag([1.0, 0.0]).astype(np.complex128)
    with pytest.raises(ValueError):
        DephasingChannel(projectors=())
    with pytest.raises(ValueError):  # not idempotent
        DephasingChannel(projectors=(0.5 * np.eye(2), 0.5 * np.eye(2)))
    with pytest.raises(ValueError):  # not orthogonal
        DephasingChannel(projectors=(good, good))
    with pytest.raises(ValueError):  # incomplete
        DephasingChannel(projectors=(good,))
    with pytest.raises(ValueError):  # mixed dimensions
        DephasingChannel(projectors=(good, np.eye(3)))


def test_dephase_pinches_to_diagonal(rng):
    E = computational_dephasing(3)
    rho = rand_density(rng, 3)
    out = dephase(rho, E)
    assert np.abs(out - np.diag(np.diag(rho))).max() < 1e-14
    # idempotent
    assert np.abs(dephase(out, E) - out).max() < 1e-14


def test_dephase_block_projectors(rng):
    P1 = np.diag([1.0, 1.0, 0.0]).astype(np.complex128)
    P2 = np.diag([0.0, 0.0, 1.0]).astype(np.complex128)
    E = DephasingChannel(projectors=(P1, P2))
    rho = rand_density(rng, 3)
    out = dephase(rho, E)
    # the 2x2 block survives, cross terms vanish
    assert np.abs(out[:2, :2] - rho[:2, :2]).max() < 1e-14
    assert np.abs(out[:2, 2]).max() < 1e-14
    assert abs(out[2, 2] - rho[2, 2]) < 1e-14


def test_dephase_dim_mismatch(rng):
    E = computational_dephasing(2)
    with pytest.raises(ValueError):
        dephase(rand_density(rng, 3), E)


def _pinch_oracle(rho, E):
    """The pinch by its definition, sum_k P_k rho P_k†, in one three-operand einsum."""
    P = np.stack(E.projectors)
    return np.einsum("kab,...bc,kdc->...ad", P, rho, P.conj())


def _block_dephasing(d):
    """0/1 projectors onto the standard-basis blocks {0, 1}, {2, 3}, ..."""
    return DephasingChannel(
        projectors=tuple(
            np.diag((np.arange(d) // 2 == b).astype(float)) for b in range((d + 1) // 2)
        )
    )


@pytest.mark.parametrize("d", range(2, 9))
def test_dephase_matches_projector_definition(rng, d):
    states = np.stack(
        [rand_density(rng, d) for _ in range(3)] + [rand_pure(rng, d) for _ in range(2)]
    )
    for E in (computational_dephasing(d), _block_dephasing(d)):
        assert np.array_equal(dephase(states, E), _pinch_oracle(states, E))
    for E in dephasing_families(rng, d)[1:]:  # rotated rank-1 and rank-2 families
        assert np.abs(dephase(states, E) - _pinch_oracle(states, E)).max() <= 1e-15
        S = E._super
        assert S.shape == (d * d, d * d)
        assert np.abs(S - S.conj().T).max() < 1e-14
        assert np.abs(S @ S - S).max() < 1e-14
    S = computational_dephasing(d)._super
    assert set(np.unique(S)) <= {0.0, 1.0}
    assert np.array_equal(np.diag(S), np.eye(d).ravel())


def test_purity_and_linear_entropy(rng):
    rho_pure = rand_pure(rng, 4)
    assert abs(purity(rho_pure) - 1.0) < 1e-12
    assert abs(linear_entropy(rho_pure)) < 1e-12
    mixed = np.eye(4) / 4.0
    assert abs(purity(mixed) - 0.25) < 1e-15
    assert abs(linear_entropy(mixed) - 0.75) < 1e-15


def test_coherence_values():
    E = computational_dephasing(2)
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    assert abs(rel_entropy_coherence(plus, E) - 0.5) < 1e-14
    diag = np.diag([0.3, 0.7]).astype(np.complex128)
    assert abs(rel_entropy_coherence(diag, E)) < 1e-14


def test_coherence_nonnegative(rng):
    E = computational_dephasing(3)
    for _ in range(20):
        rho = rand_density(rng, 3)
        assert rel_entropy_coherence(rho, E) >= -1e-14


def test_hadamard_cohering_power_half():
    E = computational_dephasing(2)
    res = cohering_power(HADAMARD, E, restarts=8, seed=3)
    assert abs(res.value - 0.5) < 1e-6

    # Bloch-sphere oracle: the gap for a state with Bloch vector
    # (x, y, z) is |z^2 - x^2| / 2, maximized at 1/2 on the sphere.
    thetas = np.linspace(0.0, np.pi, 61)
    phis = np.linspace(0.0, 2 * np.pi, 61)
    best = 0.0
    for th in thetas:
        for ph in phis:
            x = np.sin(th) * np.cos(ph)
            z = np.cos(th)
            best = max(best, abs(z**2 - x**2) / 2.0)
    assert res.value >= best - 1e-6
    assert abs(best - 0.5) < 1e-12


def test_cohering_power_certified_state(rng):
    E = computational_dephasing(2)
    U = matrix_exp_unitary(rand_hermitian(rng, 2), 0.7)
    res = cohering_power(U, E, restarts=4, seed=1)
    rho = res.argmax_state
    gap = abs(
        rel_entropy_coherence(U @ rho @ U.conj().T, E) - rel_entropy_coherence(rho, E)
    )
    assert abs(gap - res.value) < 1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-10


def test_cohering_power_deterministic():
    E = computational_dephasing(2)
    a = cohering_power(HADAMARD, E, restarts=3, seed=7)
    b = cohering_power(HADAMARD, E, restarts=3, seed=7)
    assert a.value == b.value
    assert np.array_equal(a.argmax_state, b.argmax_state)


def test_cohering_power_dim_mismatch():
    E = computational_dephasing(3)
    with pytest.raises(ValueError):
        cohering_power(HADAMARD, E)


@pytest.mark.parametrize("restarts", [-1, -5, coherence.MAX_RESTARTS + 1])
def test_cohering_power_refuses_restarts_out_of_range(monkeypatch, restarts):
    def spawn(*args, **kwargs):
        raise AssertionError("a start was built")

    monkeypatch.setattr(coherence.np.random, "SeedSequence", spawn)
    with pytest.raises(operators.ArgumentError) as info:
        cohering_power(HADAMARD, computational_dephasing(2), restarts=restarts)
    assert info.value.name == "restarts"


def test_identity_has_no_cohering_power():
    E = computational_dephasing(2)
    res = cohering_power(np.eye(2), E, restarts=2, seed=0)
    assert res.value < 1e-12


# Cohering power pinned bit for bit: value.hex() and the SHA-1 of the
# argmax state's bytes, from the shifted power method and Frank-Wolfe.
# `floor` is the value the coordinate search over the L L† chart pinned
# before; the climb may not fall below it by more than rounding. Each id
# keeps the case's name from then: its parameters, that old value and the
# SHA-1 of that search's argmax state.
@pytest.mark.parametrize(
    "d, family, pure_only, restarts, seed, floor, value, state_sha1",
    [
        pytest.param(
            2, "computational", False, 2, 1, "0x1.d415cb7c9e476p-2", "0x1.d415cb7c9e470p-2",
            "7f8fd6ac3195d61ba5b09017b357f859b2969cdb",
            id="2-computational-False-2-1-0x1.d415cb7c9e476p-2-"
               "fab2873c821c745127b74ab3b890ff9e502e0138"),
        pytest.param(
            2, "computational", True, 3, 2, "0x1.12649e7f4ed68p-2", "0x1.12649e7f4ed58p-2",
            "52067905f5c4ea39d2acbffab69452ec16f91c63",
            id="2-computational-True-3-2-0x1.12649e7f4ed68p-2-"
               "4d17eea8c6e443bc9e005e45a4ed2c7557427250"),
        pytest.param(
            3, "computational", False, 4, 3, "0x1.331868004837cp-1", "0x1.3318680048380p-1",
            "cffcccfcf4eb253034232e206fbea013b085ce46",
            id="3-computational-False-4-3-0x1.331868004837cp-1-"
               "43d94c510a6de157af3ccbe8d07bba113ef4cc8f"),
        pytest.param(
            3, "computational", True, 2, 4, "0x1.338f786696937p-1", "0x1.338f786696930p-1",
            "ab8ff009ff0a53fd8928a6988009d1b43be8a01e",
            id="3-computational-True-2-4-0x1.338f786696937p-1-"
               "3abccc6eff46d10f4aedf951e76e067c7ea95f07"),
        pytest.param(
            4, "computational", False, 3, 5, "0x1.6d55fb0f89133p-1", "0x1.7604014990f4fp-1",
            "696a14f9afbf12f85d7287f5f1842fc2ac690ebe",
            id="4-computational-False-3-5-0x1.6d55fb0f89133p-1-"
               "8100373a54a4d6cd316b66f90eb8bd5cd956ea28"),
        pytest.param(
            4, "computational", True, 4, 6, "0x1.7ddbfaa3fa86bp-1", "0x1.7ddbfaa3fa862p-1",
            "337cec6dbed440ba783325071d8b3b4775e9a19c",
            id="4-computational-True-4-6-0x1.7ddbfaa3fa86bp-1-"
               "49236083f574330f2a9809a3dbc290344416908b"),
        pytest.param(
            4, "blocks", False, 2, 7, "0x1.fffffffffffe8p-2", "0x1.ffffffffffffcp-2",
            "b4ffa0b16bbe9eab02abe43eff3d63f9d1b8d2c6",
            id="4-blocks-False-2-7-0x1.fffffffffffe8p-2-"
               "b345dd81b00913e568f58a7122de7c2385ab767b"),
        pytest.param(
            4, "blocks", True, 3, 8, "0x1.0000000000003p-1", "0x1.fffffffffffb8p-2",
            "47f3c18839d81d355af5240b6c998fe63d807607",
            id="4-blocks-True-3-8-0x1.0000000000003p-1-"
               "7feb37635bfe65f0dbbe310fb23b52a93d512f9a"),
    ],
)
def test_cohering_power_is_pinned(d, family, pure_only, restarts, seed, floor, value, state_sha1):
    E = computational_dephasing(d) if family == "computational" else _block_dephasing(d)
    U = rand_unitary(np.random.default_rng(seed), d)
    res = cohering_power(U, E, restarts=restarts, seed=seed, pure_only=pure_only)
    assert res.value.hex() == value
    assert hashlib.sha1(res.argmax_state.tobytes()).hexdigest() == state_sha1
    assert res.value >= float.fromhex(floor) - 1e-12
    assert res.value <= res.upper + 1e-12


def test_decohering_bound_is_pinned():
    H = rand_hermitian(np.random.default_rng(9), 2)
    out = verify_decohering_bound(H, 0.7, computational_dephasing(2), restarts=3, seed=9)
    assert out["cohering_power"].hex() == "0x1.ca6eddc1474bep-2"
    assert out["cohering_power"] >= float.fromhex("0x1.ca6eddc1474c0p-2") - 1e-12
    assert float(out["lhs"]).hex() == "0x1.442940096e767p-3"
    assert float(out["rhs"]).hex() == "0x1.44cdf3ceba5cfp-1"
    assert out["holds"] is True
    assert out["proved"] is True


def test_cohering_power_bracket_holds(monkeypatch):
    # Any state's gap is at most upper, so the bracket must hold however
    # far the climbs get; two steps per climb keep the 1000 draws quick.
    monkeypatch.setattr(coherence, "MAX_STEPS", 2)
    rng = np.random.default_rng(2026)
    for k in range(1000):
        d = int(rng.integers(2, 9))
        E = dephasing_families(rng, d)[int(rng.integers(3))]
        res = cohering_power(rand_unitary(rng, d), E, restarts=int(rng.integers(0, 3)),
                             seed=k, pure_only=bool(rng.integers(2)))
        assert res.value <= res.upper + 1e-12
        assert res.upper <= 1.0 - 1.0 / d + 1e-12
        if d == 2:  # the extreme eigenvector's state attains upper, with no step
            assert abs(res.value - res.upper) <= 1e-12
            assert res.steps == 0 and res.converged


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("diagonal", [False, True])
def test_no_cohering_power_without_coherence_change(rng, d, diagonal):
    # U = I gives M = 0 exactly; a diagonal U gives M = 0 up to rounding.
    U = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d))) if diagonal else np.eye(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = cohering_power(U, computational_dephasing(d), restarts=2)
    assert res.value <= 1e-15 and res.upper <= 1e-15
    assert res.steps == 0 and res.converged
    if not diagonal:
        assert res.value == 0.0 and res.upper == 0.0
        assert np.array_equal(res.argmax_state, np.diag(np.eye(d)[0]))


@pytest.mark.parametrize("restarts", [0, coherence.MAX_RESTARTS])
def test_cohering_power_runs_at_restart_limits(rng, restarts):
    U = rand_unitary(rng, 3)
    res = cohering_power(U, computational_dephasing(3), restarts=restarts, seed=1)
    assert res.restarts == 3 + 8 + restarts
    assert 0.0 < res.value <= res.upper + 1e-12
    assert 0 <= res.converged_starts <= res.restarts


def test_rate_matches_finite_difference(rng):
    E = computational_dephasing(3)
    H = rand_hermitian(rng, 3)
    rho0 = rand_density(rng, 3)

    def coh_at(t):
        U = matrix_exp_unitary(H, t)
        return rel_entropy_coherence(U @ rho0 @ U.conj().T, E)

    t, h = 0.4, 1e-5
    U_t = matrix_exp_unitary(H, t)
    rho_t = U_t @ rho0 @ U_t.conj().T
    fd = (coh_at(t + h) - coh_at(t - h)) / (2 * h)
    assert abs(coherence_rate_exact(H, rho_t, E) - fd) < 1e-6


def test_rate_integrates_to_coherence_change(rng):
    E = computational_dephasing(2)
    H = rand_hermitian(rng, 2)
    rho0 = rand_density(rng, 2)
    ts = np.linspace(0.0, 1.0, 1001)
    rates = []
    for t in ts:
        U = matrix_exp_unitary(H, float(t))
        rates.append(coherence_rate_exact(H, U @ rho0 @ U.conj().T, E))
    integral = float(np.trapezoid(rates, ts))
    U1 = matrix_exp_unitary(H, 1.0)
    change = rel_entropy_coherence(U1 @ rho0 @ U1.conj().T, E) - rel_entropy_coherence(
        rho0, E
    )
    assert abs(integral - change) < 1e-5


def test_rate_bound_formula_and_cap(rng):
    E = computational_dephasing(4)
    for _ in range(25):
        rho = rand_density(rng, 4)
        b = coherence_rate_bound(rho, E)
        assert abs(b - hs_norm(commutator(rho, dephase(rho, E)))) < 1e-14
        assert b <= np.sqrt(2.0) + 1e-10


def test_rate_cauchy_schwarz(rng):
    E = computational_dephasing(3)
    for _ in range(10):
        H = rand_hermitian(rng, 3)
        rho = rand_density(rng, 3)
        rate = coherence_rate_exact(H, rho, E)
        assert abs(rate) <= 2.0 * coherence_rate_bound(rho, E) * hs_norm(H) + 1e-10


def test_decohering_bound_holds(rng):
    E = computational_dephasing(2)
    for k in range(5):
        H = rand_hermitian(rng, 2)
        rec = verify_decohering_bound(H, 0.8, E, restarts=4, seed=k, pure_only=True)
        assert rec["holds"]
        assert rec["lhs"] <= rec["rhs"] + 1e-9
        assert rec["constant"] == "sqrt(2)*N"
        # sqrt(2(N^2-1)) < sqrt(2)N, so the logged variant sits above lhs
        assert rec["lhs_variant_sqrt_2_dim_sq_minus_1"] >= rec["lhs"] - 1e-12


@pytest.mark.parametrize(
    "H, t",
    [
        (np.diag([1.0, -1.0]), -0.1),  # negative time
        (np.array([[0.0, 1.0], [0.0, 0.0]]), 0.8),  # not Hermitian
    ],
)
def test_decohering_bound_rejects_bad_input_before_search(monkeypatch, H, t):
    def no_search(*args, **kwargs):
        raise AssertionError("cohering_power ran on an invalid input")

    monkeypatch.setattr(coherence, "cohering_power", no_search)
    with pytest.raises(ValueError):
        verify_decohering_bound(H, t, computational_dephasing(2))


def test_decohering_bound_validates_generator_twice(monkeypatch):
    calls = []
    check = operators.hermitian

    def counted(M):
        calls.append(M)
        return check(M)

    for module in (operators, geodesic, coherence):
        monkeypatch.setattr(module, "hermitian", counted)
    H = np.diag([0.5, -0.5]).astype(np.complex128)
    verify_decohering_bound(H, 0.8, computational_dephasing(2), restarts=0, pure_only=True)
    assert sum(M is H for M in calls) == 2
