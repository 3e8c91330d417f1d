"""The LP kernel against an independent solver on random instances."""

import numpy as np
import pytest
from scipy.optimize import linprog

from signpoly import simplex, to_coords
from signpoly.errors import SolverFailureError
from signpoly.simplex import feasible_nonneg, minimize_nonneg


def _reference_feasible(A, b):
    res = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b,
                  bounds=[(0, None)] * A.shape[1], method="highs")
    return res.status == 0


def test_trivial_systems():
    ok, z = feasible_nonneg(np.array([[1.0]]), np.array([2.0]))
    assert ok and z[0] == pytest.approx(2.0)
    ok, z = feasible_nonneg(np.array([[1.0]]), np.array([-2.0]))
    assert not ok and z is None


def test_negative_rhs_rows_are_flipped():
    # x - y = -1 with x, y >= 0 is feasible (x=0, y=1)
    A = np.array([[1.0, -1.0]])
    ok, z = feasible_nonneg(A, np.array([-1.0]))
    assert ok
    assert A @ z == pytest.approx([-1.0])


def test_agrees_with_reference_solver():
    rng = np.random.default_rng(314)
    checked_feasible = checked_infeasible = 0
    for _ in range(300):
        k = int(rng.integers(1, 6))
        p = int(rng.integers(1, 12))
        A = rng.integers(-4, 5, size=(k, p)).astype(float)
        if rng.random() < 0.5:
            z0 = rng.random(p) * rng.integers(0, 2, size=p)
            b = A @ z0
        else:
            b = rng.integers(-6, 7, size=k).astype(float)
        ok, z = feasible_nonneg(A, b)
        assert ok == _reference_feasible(A, b)
        if ok:
            checked_feasible += 1
            assert z.min() >= 0.0
            np.testing.assert_allclose(A @ z, b, atol=1e-7)
        else:
            checked_infeasible += 1
            assert z is None
    # the generator must actually exercise both outcomes
    assert checked_feasible > 50
    assert checked_infeasible > 50


def test_degenerate_hull_systems():
    """Highly redundant columns (many identical vertices) must not cycle."""
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(4, 30))
        V = rng.integers(-2, 3, size=(m, n)).astype(float)
        x = V[: max(1, m // 2)].mean(axis=0)
        A = np.vstack([V.T, np.ones((1, m))])
        b = np.append(x, 1.0)
        ok, z = feasible_nonneg(A, b)
        assert ok
        np.testing.assert_allclose(A @ z, b, atol=1e-8)


def test_iteration_cap_raises():
    V = np.vstack([np.eye(3), -np.eye(3)])
    A = np.vstack([V.T, np.ones((1, 6))])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(SolverFailureError):
        feasible_nonneg(A, b, max_iter=1)


def test_shape_validation():
    with pytest.raises(ValueError):
        feasible_nonneg(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        feasible_nonneg(np.ones(4), np.ones(2))


def test_tolerance_separates_near_feasible():
    # b is 1e-6 outside the column cone; loose tolerance accepts it
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([0.5, 0.5, 1e-6])
    ok_tight, _ = feasible_nonneg(A, b, tol=1e-9)
    ok_loose, _ = feasible_nonneg(A, b, tol=1e-4)
    assert not ok_tight
    assert ok_loose


# ------------------------------------------------------------- phase 2

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _reference_min(c, A, b):
    res = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * A.shape[1],
                  method="highs")
    return _STATUS[res.status], (res.fun if res.status == 0 else None)


def _assert_optimal(sol, c, A, b, value):
    assert sol.status == "optimal"
    assert sol.z.min() >= 0.0
    np.testing.assert_allclose(A @ sol.z, b, atol=1e-7)
    assert sol.value == pytest.approx(value, abs=1e-7)
    # the dual proves optimality: A^T y <= c and b . y equals the value
    assert np.max(A.T @ sol.dual - c) <= 1e-8
    assert b @ sol.dual == pytest.approx(sol.value, abs=1e-7)


def test_minimize_agrees_with_reference_on_bounded_lps():
    """Random LPs whose last row ``sum z = 1`` bounds the feasible set;
    every other right-hand side is zero in the degenerate half, as in
    the ray systems of the cross-polytope search."""
    rng = np.random.default_rng(2718)
    outcomes = {"optimal": 0, "infeasible": 0}
    degenerate_optimal = 0
    for trial in range(300):
        k = int(rng.integers(1, 6))
        p = int(rng.integers(2, 14))
        A = np.vstack([rng.integers(-4, 5, size=(k, p)).astype(float),
                       np.ones((1, p))])
        if trial % 2:
            b = np.append(np.zeros(k), 1.0)
        else:
            b = np.append(rng.integers(-3, 4, size=k).astype(float), 1.0)
        c = rng.integers(-5, 6, size=p).astype(float)
        status, value = _reference_min(c, A, b)
        sol = minimize_nonneg(c, A, b)
        assert sol.status == status
        outcomes[status] += 1
        if status == "optimal":
            _assert_optimal(sol, c, A, b, value)
            degenerate_optimal += trial % 2
        else:
            assert sol.z is None and sol.value is None and sol.dual is None
    assert outcomes["optimal"] > 100
    assert outcomes["infeasible"] > 20
    assert degenerate_optimal > 50


def test_minimize_all_zero_rhs_is_zero_or_unbounded():
    """``A z = 0`` always admits ``z = 0``: the optimum is 0 or there is
    an improving ray, and the verdict must match the reference."""
    rng = np.random.default_rng(1618)
    seen = set()
    for _ in range(200):
        k = int(rng.integers(1, 5))
        p = int(rng.integers(2, 10))
        A = rng.integers(-3, 4, size=(k, p)).astype(float)
        b = np.zeros(k)
        c = rng.integers(-2, 6, size=p).astype(float)
        status, value = _reference_min(c, A, b)
        sol = minimize_nonneg(c, A, b)
        assert sol.status == status
        seen.add(status)
        if status == "optimal":
            _assert_optimal(sol, c, A, b, 0.0)
    assert seen == {"optimal", "unbounded"}


def test_minimize_infeasible_returns_verdict():
    sol = minimize_nonneg(np.array([1.0]), np.array([[1.0]]), np.array([-2.0]))
    assert sol.status == "infeasible"
    assert sol.z is None
    # phase 1 matches feasible_nonneg on the same system
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([0.5, 0.5, 1e-6])
    assert minimize_nonneg(np.ones(2), A, b).status == "infeasible"
    assert minimize_nonneg(np.ones(2), A, b, tol=1e-4).status == "optimal"


def test_minimize_redundant_rows():
    """A duplicated equality leaves an artificial basic at zero after
    phase 1; phase 2 must not move it."""
    A = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, -1.0, 0.0]])
    b = np.array([1.0, 2.0, 0.0])
    c = np.array([0.0, 0.0, -1.0])
    sol = minimize_nonneg(c, A, b)
    _assert_optimal(sol, c, A, b, -1.0)


def test_minimize_iteration_cap_raises():
    V = np.vstack([np.eye(3), -np.eye(3)])
    A = np.vstack([V.T, np.ones((1, 6))])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(SolverFailureError):
        minimize_nonneg(np.ones(6), A, b, max_iter=1)
    # a budget phase 1 alone uses up leaves phase 2 nothing
    A = np.array([[1.0, 1.0]])
    with pytest.raises(SolverFailureError, match="phase-2"):
        minimize_nonneg(np.array([1.0, -1.0]), A, np.array([1.0]), max_iter=2)


def test_minimize_shape_validation():
    with pytest.raises(ValueError):
        minimize_nonneg(np.ones(3), np.ones((2, 2)), np.ones(2))
    with pytest.raises(ValueError):
        minimize_nonneg(np.ones(2), np.ones((2, 2)), np.ones(3))


# --------------------------------------------------------- anti-cycling

def test_beale_cycling_lp():
    """Beale's (1955) example, on which Dantzig's rule with a fixed
    tie-break cycles from the slack basis; its optimum is -1/20."""
    A = np.array([[1.0, 0.0, 0.0, 0.25, -60.0, -1 / 25, 9.0],
                  [0.0, 1.0, 0.0, 0.5, -90.0, -1 / 50, 3.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -1 / 50, 6.0])
    status, value = _reference_min(c, A, b)
    assert status == "optimal" and value == pytest.approx(-1 / 20)
    _assert_optimal(minimize_nonneg(c, A, b), c, A, b, value)


def _qutrit_ray_system(seed, ray, m=20):
    """Ray LP ``ray`` of the cross-polytope search around a Dirichlet mix
    of ``m`` random qutrit states: columns ``[w | t]``, rows
    ``V^T w - t s e_k = 0`` and ``sum w = 1``.  The chart coordinates are
    rounded to 1e-4, so the system does not hinge on the last bits."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(m, 3, 3)) + 1j * rng.normal(size=(m, 3, 3))
    states = G @ G.conj().transpose(0, 2, 1)
    states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    X = np.array([to_coords(s) for s in states])
    V = np.round(X - rng.dirichlet(np.ones(m)) @ X, 4)
    n = V.shape[1]
    A = np.zeros((n + 1, m + 1))
    A[:n, :m] = V.T
    A[n, :m] = 1.0
    A[ray % n, m] = -1.0 if ray < n else 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    return A, b


@pytest.mark.parametrize("seed, ray", [(303, 12), (329, 9)])
def test_bland_fallback_ends_a_dantzig_cycle(monkeypatch, seed, ray):
    """Dantzig's rule alone cycles through degenerate pivots on these
    systems until the iteration cap; the Bland fallback ends the cycle,
    and both phases then agree with the reference."""
    A, b = _qutrit_ray_system(seed, ray)
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "STALL_LIMIT", 10**9)
        with pytest.raises(SolverFailureError, match="did not converge"):
            feasible_nonneg(A, b)

    calls = []
    bland = simplex._bland

    def counting(reduced):
        calls.append(1)
        return bland(reduced)

    monkeypatch.setattr(simplex, "_bland", counting)
    ok, z = feasible_nonneg(A, b)
    assert calls, "the Bland fallback never ran"
    assert ok and _reference_feasible(A, b)
    np.testing.assert_allclose(A @ z, b, atol=1e-8)
    c = np.zeros(A.shape[1])
    c[-1] = -1.0  # the longest ray
    status, value = _reference_min(c, A, b)
    assert status == "optimal"
    _assert_optimal(minimize_nonneg(c, A, b), c, A, b, value)
