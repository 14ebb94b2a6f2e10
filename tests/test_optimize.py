import numpy as np
import pytest

from channelgeo.optimize import coordinate_search


def rows(f):
    """The stacked objective that applies a one-point f to every row."""
    return lambda X: np.array([f(x) for x in X])


def test_quadratic_bowl():
    target = np.array([1.5, -2.0, 0.25])

    def f(x):
        return float(np.sum((x - target) ** 2))

    res = coordinate_search(rows(f), np.zeros((1, 3)), step=0.5)
    assert res.fun[0] < 1e-10
    assert np.abs(res.x[0] - target).max() < 1e-5


def test_absolute_value_kink():
    def f(x):
        return float(np.sum(np.abs(x - 0.3)))

    res = coordinate_search(rows(f), np.array([[2.0, -1.0]]), step=0.7)
    assert res.fun[0] < 1e-6


def test_coupled_valley_improves():
    # Coordinate moves zigzag along the curved valley, so expect steady
    # progress rather than full convergence in a fixed sweep budget.
    def f(x):
        return float((x[0] - 1.0) ** 2 + 20.0 * (x[1] - x[0] ** 2) ** 2)

    x0 = np.array([[-1.0, 1.0]])
    res = coordinate_search(rows(f), x0, step=0.25, max_sweeps=200)
    assert res.fun[0] < 0.1
    assert res.evals > 0 and res.sweeps == 200


def test_deterministic():
    def f(x):
        return float(np.sum(np.cos(x) + 0.1 * x**2))

    a = coordinate_search(rows(f), np.array([[1.0, 2.0]]), step=0.3)
    b = coordinate_search(rows(f), np.array([[1.0, 2.0]]), step=0.3)
    assert np.array_equal(a.x[0], b.x[0])
    assert a.fun[0] == b.fun[0]
    assert a.evals == b.evals


def test_does_not_move_from_perfect_start():
    def f(x):
        return float(np.sum(x**2))

    res = coordinate_search(rows(f), np.zeros((1, 2)), step=0.1)
    assert res.fun[0] == 0.0


def test_one_dimensional_start_is_rejected():
    with pytest.raises(ValueError, match=r"\(R, n\) stack"):
        coordinate_search(rows(np.sum), np.zeros(3))


def test_per_start_steps_match_one_start_runs():
    def f(x):
        return float(np.sum(np.cos(3.0 * x) + 0.2 * (x - 0.5) ** 2))

    x0 = np.array([[1.0, 2.0], [0.5, -1.0], [-2.0, 0.3]])
    steps = np.array([0.02, 0.3, 1.1])
    res = coordinate_search(rows(f), x0, step=steps[:, None], max_sweeps=30)
    for x, h, got_x, got_f in zip(x0, steps, res.x, res.fun):
        one = coordinate_search(rows(f), x[None], step=h, max_sweeps=30)
        assert np.array_equal(got_x, one.x[0])
        assert got_f == one.fun[0]
