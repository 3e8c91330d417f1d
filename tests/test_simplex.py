"""The LP kernel against an independent solver on random instances."""

import inspect
import math
import re

import numpy as np
import pytest
from scipy.optimize import linprog

from signpoly import enumerate_sign_perm_vertices, simplex, to_coords
from signpoly.errors import SolverFailureError
from signpoly._counts import _counting
from signpoly.simplex import feasible_nonneg


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


def test_basic_solution_clamps_roundoff_below_zero():
    """(-0.78, -0.58) is 0.9 v_0 + 0.1 v_2, on an edge of this triangle:
    v_1's basic weight computes as -5.6e-17, and the solution returns it
    as 0."""
    V = np.array([[-0.9, -0.7], [0.9, -0.6], [0.3, 0.5]])
    x = np.array([0.1, 0.9]) @ V[[2, 0]]
    ok, z = feasible_nonneg(np.vstack([V.T, np.ones(3)]), np.append(x, 1.0))
    assert ok
    assert z[1] == 0.0 and z.min() >= 0.0
    np.testing.assert_allclose(z, [0.9, 0.0, 0.1])


def test_iteration_cap_raises():
    V = np.vstack([np.eye(3), -np.eye(3)])
    A = np.vstack([V.T, np.ones((1, 6))])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(SolverFailureError):
        simplex._phase1(A, b, 1)


def test_shape_validation():
    with pytest.raises(ValueError):
        feasible_nonneg(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        feasible_nonneg(np.ones(4), np.ones(2))


def test_complex_systems_are_refused():
    # Solving on the real parts would answer (True, [1, 1]) here.
    with pytest.raises(ValueError, match="complex"):
        feasible_nonneg(np.eye(2), np.array([1 + 1j, 1.0]))
    with pytest.raises(ValueError, match="complex"):
        feasible_nonneg(np.eye(2) + 0j, np.ones(2))


def test_singular_basis_raises():
    """A basis whose columns are dependent cannot be inverted, and that
    is a solver failure."""
    A = np.array([[1.0, 2.0], [1.0, 2.0]])
    state = simplex._State(A, np.array([1.0, 1.0]))
    state.basis[:] = [0, 1]
    state.B[:] = A
    with pytest.raises(SolverFailureError, match="singular"):
        simplex._refine(state, 1)


def test_tolerance_separates_near_feasible():
    # b is 1e-6 outside the column cone; loose tolerance accepts it
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([0.5, 0.5, 1e-6])
    ok_tight, _ = feasible_nonneg(A, b, tol=1e-9)
    ok_loose, _ = feasible_nonneg(A, b, tol=1e-4)
    assert not ok_tight
    assert ok_loose


# ------------------------------------------------------------- phase 2

def _reference_min(c, A, b):
    """The optimal value of ``min c . z``, ``A z = b``, ``z >= 0`` from
    HiGHS, which must find one."""
    res = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * A.shape[1],
                  method="highs")
    assert res.status == 0, res.message
    return res.fun


def _ray_cost(A):
    """The cost ``(0, ..., 0, -1)`` of a ray LP over ``[A | a]``."""
    c = np.zeros(A.shape[1] + 1)
    c[-1] = -1.0
    return c


def _finished(c, state, max_iter, stop_above=math.inf):
    """Drive-out and phase 2 with cost ``c`` from a feasible phase-1
    state, its final basis inverted and read off as ``(z, dual)``, as
    ``_ray_maxima`` returns one ray: the dual is NaN if phase 2 stopped
    early."""
    cost = np.concatenate([c, np.zeros(state.b.size)])
    simplex._drive_out(state)
    _, status = simplex._pivot_loop(state, cost, max_iter, phase=2,
                                    stop_above=stop_above)
    simplex._refine(state, 2)
    dual = np.full(state.b.size, np.nan)
    if status == "optimal":
        dual = cost[state.basis] @ state.T[:, :-1]
    return simplex._basic_solution(state.T, state.basis, state.A.shape[1]), dual


def _two_phase(c, A, b, max_iter=10**4):
    """Phase 1, then phase 2 from its basis: minimize ``c . z`` over a
    feasible ``A z = b``, ``z >= 0``."""
    state, used = simplex._phase1(A, b, max_iter)
    assert simplex._infeasibility(state) <= 1e-9
    return _finished(c, state, max_iter - used)


def _assert_optimal(z, dual, c, A, b, value):
    assert np.isfinite(dual).all()
    assert z.min() >= 0.0
    np.testing.assert_allclose(A @ z, b, atol=1e-7)
    assert c @ z == pytest.approx(value, abs=1e-7)
    # the dual proves optimality: A^T y <= c and b . y equals the value
    assert np.max(A.T @ dual - c) <= 1e-8
    assert b @ dual == pytest.approx(c @ z, abs=1e-7)


def test_minimize_agrees_with_reference_on_bounded_lps():
    """Random ray LPs ``A w + t a = b``, ``w, t >= 0`` through
    ``_ray_maxima``, whose last row ``sum w = 1`` bounds ``t``; every
    other right-hand side is zero in the degenerate half, as in the ray
    systems of the cross-polytope search.  Each optimal ray has the
    reference's ``t`` and a dual proving it, each ray stopped early
    (a NaN dual) is a feasible point strictly above the smallest
    optimum, and a system whose ``t = 0`` is infeasible raises."""
    rng = np.random.default_rng(2718)
    outcomes = {"optimal": 0, "cut-off": 0, "infeasible": 0}
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
        columns = np.zeros((int(rng.integers(1, 5)), k + 1))
        columns[:, :k] = rng.integers(-3, 4, size=(len(columns), k))
        columns[~columns.any(axis=1), 0] = 1.0  # a zero column leaves t unbounded
        if not _reference_feasible(A, b):
            with pytest.raises(SolverFailureError, match="ray LP infeasible"):
                simplex._ray_maxima(A, b, columns, 1e-9)
            outcomes["infeasible"] += 1
            continue
        z, dual = simplex._ray_maxima(A, b, columns, 1e-9)
        optimal = np.isfinite(dual).all(axis=1)
        best = z[optimal, -1].min()
        c = _ray_cost(A)
        for a, zj, yj, ok in zip(columns, z, dual, optimal):
            full = np.column_stack([A, a])
            value = _reference_min(c, full, b)
            outcomes["optimal" if ok else "cut-off"] += 1
            if ok:
                _assert_optimal(zj, yj, c, full, b, value)
                degenerate_optimal += trial % 2
            else:
                assert np.isnan(yj).all()
                assert zj.min() >= 0.0
                np.testing.assert_allclose(full @ zj, b, atol=1e-7)
                assert best < zj[-1] <= -value + 1e-7
    assert outcomes["optimal"] > 100
    assert outcomes["cut-off"] > 20
    assert outcomes["infeasible"] > 20
    assert degenerate_optimal > 50


def _wide_system(rng, k, p):
    """A ``k x p`` integer system whose columns repeat a third as many
    distinct ones (as the many coincident vertices of a hull system do),
    with a last row of ones in half the draws."""
    distinct = rng.integers(-4, 5, size=(k, p // 3)).astype(float)
    A = distinct[:, rng.integers(0, p // 3, size=p)]
    if rng.random() < 0.5:
        A[-1] = 1.0
    return A


def test_wide_systems_agree_with_reference_solver():
    """Systems of up to 10 rows and 1,000-5,000 columns, the shape the
    pricing runs on in a hull query: feasibility verdicts match the
    reference; a third of the right-hand sides are zero, and a third
    pose hull queries."""
    rng = np.random.default_rng(1729)
    verdicts = {True: 0, False: 0}
    for trial in range(30):
        k = int(rng.integers(2, 11))
        p = int(rng.integers(1000, 5001))
        A = _wide_system(rng, k, p)
        if trial % 3 == 0:
            b = np.zeros(k)
        elif trial % 3 == 1:
            z0 = rng.random(p) * (rng.random(p) < 5.0 / p)
            b = A @ z0
        else:  # a hull query; entries beyond +-4 lie outside the hull
            A[-1] = 1.0
            b = np.append(rng.integers(-6, 7, size=k - 1), 1.0)
        ok, z = feasible_nonneg(A, b)
        assert ok == _reference_feasible(A, b)
        verdicts[ok] += 1
        if ok:
            assert z.min() >= 0.0
            np.testing.assert_allclose(A @ z, b, atol=1e-7)
    assert min(verdicts.values()) >= 5


def test_nested_counting_blocks_count_their_own_work():
    """A ``_counting`` block nested in another gets the work done inside
    it and nothing else; the outer block gets none of it, and counts on
    once the inner one ends.  Work outside every block goes to neither."""
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 2.0])
    work = lambda c: (c.solves, c.pivots, c.passes, c.priced, c.phase1_inversions)
    with _counting() as outer:
        feasible_nonneg(A, b)
        once = work(outer)
        with _counting() as inner:
            feasible_nonneg(A, b)
            feasible_nonneg(A, b)
        assert work(outer) == once
        feasible_nonneg(A, b)
    feasible_nonneg(A, b)
    assert once[0] == 1 and min(once) > 0
    assert work(inner) == tuple(2 * count for count in once)
    assert work(outer) == tuple(2 * count for count in once)


def test_every_basis_inversion_is_counted():
    """``_invert_into`` counts each inversion it makes, and it is the
    kernel's one call of a numpy inverse or solve, so no inversion goes
    uncounted."""
    calls = re.findall(r"np\.linalg\.\w*(?:inv|solve)\(", inspect.getsource(simplex))
    assert calls == ["np.linalg.inv("]
    assert calls[0] in inspect.getsource(simplex._invert_into)


def test_unbounded_ray_raises(counts):
    """A ray whose ``t`` column is zero never leaves the feasible set,
    so ``t`` is unbounded; ray LPs are bounded by the hull, so that is a
    solver failure, not an outcome."""
    with pytest.raises(SolverFailureError, match="no admissible pivot"):
        simplex._ray_maxima(np.array([[1.0]]), np.array([1.0]),
                            np.array([[0.0]]), 1e-9)
    assert (counts.solves, counts.rays) == (1, 1)


def test_infeasible_ray_lps_raise(counts):
    """A ``t = 0`` left infeasible by the shared phase 1, at the same
    tolerance ``feasible_nonneg`` applies, raises before any phase 2."""
    with pytest.raises(SolverFailureError, match="ray LP infeasible"):
        simplex._ray_maxima(np.array([[1.0]]), np.array([-2.0]),
                            np.array([[1.0]]), 1e-9)
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([0.5, 0.5, 1e-6])
    columns = np.array([[1.0, -1.0, 0.0]])
    with pytest.raises(SolverFailureError, match="ray LP infeasible"):
        simplex._ray_maxima(A, b, columns, 1e-9)
    assert (counts.solves, counts.rays) == (2, 0)
    (z,), (dual,) = simplex._ray_maxima(A, b, columns, 1e-4)
    assert np.isfinite(dual).all() and z[-1] == pytest.approx(0.5)


def test_minimize_redundant_rows():
    """A duplicated equality leaves an artificial basic at zero after
    phase 1; phase 2 must not move it."""
    A = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, -1.0]])
    b = np.array([1.0, 2.0, 0.0])
    column = np.array([1.0, 2.0, 0.0])
    (z,), (dual,) = simplex._ray_maxima(A, b, column[None], 1e-9)
    _assert_optimal(z, dual, _ray_cost(A), np.column_stack([A, column]), b,
                    -1.0)


def test_minimize_iteration_cap_raises():
    """A budget that phase 1 used up leaves phase 2 nothing: it raises
    instead of reading its starting basis as a result."""
    A = np.array([[1.0, 1.0]])
    state, _ = simplex._phase1(A, np.array([1.0]), 2)
    with pytest.raises(SolverFailureError, match="phase-2"):
        _finished(np.array([1.0, -1.0]), state, 0)


# --------------------------------------------------------- anti-cycling

def test_beale_cycling_lp():
    """Beale's (1955) example, on which Dantzig's rule with a fixed
    tie-break cycles from the slack basis; its optimum is -1/20."""
    A = np.array([[1.0, 0.0, 0.0, 0.25, -60.0, -1 / 25, 9.0],
                  [0.0, 1.0, 0.0, 0.5, -90.0, -1 / 50, 3.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -1 / 50, 6.0])
    value = _reference_min(c, A, b)
    assert value == pytest.approx(-1 / 20)
    _assert_optimal(*_two_phase(c, A, b), c, A, b, value)


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
    systems until the iteration cap, and the solve that raises still
    counts every pivot up to it; the Bland fallback ends the cycle, and
    both phases then agree with the reference."""
    A, b = _qutrit_ray_system(seed, ray)
    with monkeypatch.context() as patch, _counting() as counts:
        patch.setattr(simplex, "STALL_LIMIT", 10**9)
        with pytest.raises(SolverFailureError, match="did not converge"):
            feasible_nonneg(A, b)
    assert (counts.solves, counts.phase1, counts.bland) == (1, 50 * sum(A.shape), 0)

    with _counting() as counts:
        ok, z = feasible_nonneg(A, b)
    assert counts.bland, "the Bland fallback never ran"
    assert ok and _reference_feasible(A, b)
    np.testing.assert_allclose(A @ z, b, atol=1e-8)
    c = np.zeros(A.shape[1])
    c[-1] = -1.0  # the longest ray
    _assert_optimal(*_two_phase(c, A, b), c, A, b, _reference_min(c, A, b))


def test_positive_ratio_pivot_that_leaves_the_objective_counts_as_stalled(
        monkeypatch):
    """From the basis {2, 3, 4} the first pivot has ratio 2e-12 >
    RATIO_EPS, but it changes the objective by 4e-23, which leaves the
    objective value 1 bit-identical; it counts toward STALL_LIMIT, so
    with a limit of 1 Bland's rule picks the second entering column."""
    A = np.array([[1.0, -1.0, 1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 1.0]])
    cost = np.array([-2e-11, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    assert 1.0 + cost[0] * 2e-12 == 1.0
    monkeypatch.setattr(simplex, "STALL_LIMIT", 1)
    state = simplex._State(A, np.array([2e-12, 1.0, 1.0]))
    state.basis[:] = [2, 3, 4]
    with _counting() as counts:
        assert simplex._pivot_loop(state, cost, 10, phase=2) == (2, "optimal")
    assert list(state.basis) == [0, 1, 4]
    assert counts.bland == 1


def test_non_finite_pricing_raises(monkeypatch):
    """A NaN in ``B^-1`` makes every reduced cost NaN, so no column
    prices below ``-PIVOT_EPS``; with Bland's rule due at once, that is
    a solver failure, not an IndexError from an empty candidate list."""
    A = np.array([[1.0, 0.0, 1.0],
                  [0.0, 1.0, 1.0]])
    cost = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)
    state = simplex._State(A, np.array([1.0, 1.0]))
    state.T[0, 0] = np.nan
    with pytest.raises(SolverFailureError, match="non-finite"):
        simplex._pivot_loop(state, cost, 10, phase=1)


def _listed_system():
    """The 26,880 signed permutations of (4, 3, 2, 1, 0, 0, 0, 0) as a
    sort-priced set of columns ``[v; 1]``, the same columns as a matrix,
    and ``[x; 1]`` for a Dirichlet mix ``x`` of 20 of them."""
    verts = enumerate_sign_perm_vertices([4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    V = verts.array
    rng = np.random.default_rng(5)
    x = rng.dirichlet(np.ones(20)) @ V[rng.choice(len(V), 20, replace=False)]
    return simplex._Sorted(V, verts._classes), np.vstack([V.T, np.ones(len(V))]), np.append(x, 1.0)


@pytest.mark.parametrize("listed", [False, True], ids=["matrix", "sort-priced"])
def test_bland_reads_every_reduced_cost(monkeypatch, listed):
    """The reduced costs that Bland's rule reads are ``cost - y [A |
    diag(sign)]`` over every real and artificial column of the current
    basis, whether ``A`` is a matrix or a sort-priced listed set, and
    phase 1 still answers as the reference solver does."""
    if listed:
        columns, A, b = _listed_system()
    else:
        A, b = _qutrit_ray_system(303, 12)
        columns = A
    k, p = A.shape
    state = simplex._State(columns, b)
    cost = np.concatenate([np.zeros(p), np.ones(k)])
    seen = []
    bland = simplex._bland

    def checking(reduced):
        # A column entered by sort is basic under the index -1, at cost 0.
        y = (state.basis >= p) @ state.T[:, :-1]
        full = cost - y @ np.hstack([A, np.diag(state.sign)])
        np.testing.assert_allclose(reduced, full, rtol=0, atol=1e-12)
        seen.append(1)
        return bland(reduced)

    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)
    monkeypatch.setattr(simplex, "_bland", checking)
    simplex._pivot_loop(state, np.ones(k), 10**4, phase=1)
    simplex._refine(state, 1)
    assert len(seen) > 1
    assert (simplex._infeasibility(state) <= 1e-9) == _reference_feasible(A, b)


@pytest.mark.parametrize("seed, ray", [(303, 12), (329, 9)])
def test_phase2_cut_off_is_strict(seed, ray):
    """Phase 2 stopped at ``stop_above`` equal to the optimum runs to
    the optimum, bit for bit; stopped at 0 it ends at the first basis
    whose ``t`` is above 0, a feasible point short of the optimum, with
    a NaN dual."""
    A, b = _qutrit_ray_system(seed, ray)
    c = np.zeros(A.shape[1])
    c[-1] = -1.0
    best, _ = _two_phase(c, A, b)

    def stopped_at(stop):
        state, _ = simplex._phase1(A, b, 10**4)
        return _finished(c, state, 10**4, stop_above=stop)

    at_optimum, dual = stopped_at(best[-1])
    assert np.isfinite(dual).all()
    np.testing.assert_array_equal(at_optimum, best)
    cut, dual = stopped_at(0.0)
    assert np.isnan(dual).all()
    assert 0.0 < cut[-1] < best[-1]
    assert cut.min() >= 0.0
    np.testing.assert_allclose(A @ cut, b, atol=1e-9)


def test_stopped_ray_clamps_roundoff_below_zero():
    """The centre 0.3 v_3 + 0.7 v_1 lies on an edge of the hull of these
    four points.  Ray 0 (the column -e_0) stops early, and the batched
    rebuild of its basis computes w_2 as -5.6e-17; the solution returns
    it as 0."""
    V = np.array([[0.3, 0.3], [-0.1, 0.2], [0.5, 0.9], [0.2, 0.2]])
    A = np.vstack([V.T, np.ones(4)])
    b = np.append(np.array([0.3, 0.7]) @ V[[3, 1]], 1.0)
    columns = np.vstack([-np.eye(2, 3), np.eye(2, 3)])
    z, dual = simplex._ray_maxima(A, b, columns, 1e-9)
    assert np.isnan(dual[0]).all()
    assert z[0, 2] == 0.0
    for zj, column in zip(z, columns):
        assert zj.min() >= 0.0
        np.testing.assert_allclose(A @ zj[:-1] + zj[-1] * column, b,
                                   atol=1e-12)
