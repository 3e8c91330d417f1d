"""Dense two-phase simplex for small nonnegative systems.

Phase 1 answers "is there a z >= 0 with A z = b?" by minimizing the
total artificial infeasibility in a full tableau; phase 2 then minimizes
a linear cost from the feasible basis phase 1 found.  Both phases run
through one pivot loop: Dantzig pricing, with Bland's rule as the
fallback that keeps the heavily degenerate hull and ray systems from
cycling.  Failure to converge raises, it never masquerades as a
verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverFailureError

# Pivot candidates below this magnitude are treated as zero.
PIVOT_EPS = 1e-11
# Slack used when comparing minimum ratios in the leaving-variable test.
RATIO_EPS = 1e-12
# Consecutive pivots that leave the objective unchanged before Bland's rule.
STALL_LIMIT = 20
# Tableaux larger than this are updated a row at a time, which keeps the
# rows in cache (crossover measured by bench/rank1_sweep.py).
ROW_UPDATE_BYTES = 1 << 19


@dataclass(frozen=True)
class LPSolution:
    """Outcome of :func:`minimize_nonneg`.

    ``status`` is ``"optimal"``, ``"infeasible"`` or ``"unbounded"``.
    When optimal, ``z`` is a minimizer, ``value`` is ``c . z`` and
    ``dual`` is a vector ``y`` with ``A^T y <= c`` (up to the pivot
    tolerance) and ``b . y = value``, the certificate that no feasible
    point does better; all three are ``None`` otherwise.  The ray LPs
    of ``_ray_maxima`` also report ``"cut-off"``: phase 2 stopped early,
    and ``z`` is a feasible basic solution with cost ``value``, not a
    minimizer, so ``dual`` is ``None``.
    """

    status: str
    z: np.ndarray | None = None
    value: float | None = None
    dual: np.ndarray | None = None


def _checked(A, b, max_iter):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
        raise ValueError("A must be (k, p) and b of length k")
    if max_iter is None:
        max_iter = 50 * sum(A.shape)
    return A, b, max_iter


def _pivot(T, obj, basis, i, j):
    """Gauss-Jordan pivot on ``(i, j)``, carrying the objective row."""
    T[i] /= T[i, j]
    factors = T[:, j].copy()
    factors[i] = 0.0
    if T.nbytes <= ROW_UPDATE_BYTES:
        T -= np.outer(factors, T[i])
    else:
        for r in np.flatnonzero(factors):
            T[r] -= factors[r] * T[i]
    obj -= obj[j] * T[i]
    basis[i] = j


def _bland(reduced):
    """Lowest-index column with a negative reduced cost."""
    return int(np.flatnonzero(reduced < -PIVOT_EPS)[0])


def _pivot_loop(T, obj, basis, ncols, max_iter, phase, stop_above=math.inf):
    """Pivot until no column below ``ncols`` has a negative reduced cost.

    The most negative reduced cost enters (Dantzig's rule); ties in the
    ratio test leave by lowest basic index.  After ``STALL_LIMIT``
    consecutive pivots that leave the computed objective unchanged, the
    lowest-index negative column enters instead (Bland's rule) until a
    pivot lowers it.  So the loop is finite: the objective strictly
    falls, as computed, at each reset of the counter, so no cycle of
    bases resets it, and Bland's rule cannot cycle while the objective
    stands still (in exact arithmetic; against roundoff the ``max_iter``
    cap is the backstop, and reaching it raises).

    Returns ``(iterations, unbounded)``: an entering column without a
    positive entry is unbounded, or in phase 1 (bounded below) raises.
    The loop also returns, unfinished, at a basis that is not optimal
    once ``obj[-1]`` (minus the objective value) is strictly above
    ``stop_above``; the caller tells that apart by the sign of the
    reduced costs.
    """
    stalled = 0
    for it in range(max_iter):
        reduced = obj[:ncols]
        j = int(np.argmin(reduced))  # Dantzig: most negative enters
        if reduced[j] >= -PIVOT_EPS or obj[-1] > stop_above:
            return it, False
        if stalled >= STALL_LIMIT:
            j = _bland(reduced)
        col = T[:, j]
        rows = np.flatnonzero(col > PIVOT_EPS)
        if rows.size == 0:
            if phase == 1:
                raise SolverFailureError("no admissible pivot in entering column")
            return it, True
        ratios = T[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min() + RATIO_EPS]
        i = int(min(ties, key=lambda r: basis[r]))  # Bland tie-break
        before = obj[-1]
        _pivot(T, obj, basis, i, j)
        stalled = 0 if obj[-1] > before else stalled + 1
    raise SolverFailureError(
        f"phase-{phase} simplex did not converge within {max_iter} iterations"
    )


def _phase1(A, b, max_iter):
    """Minimize the sum of artificials from the artificial basis.

    Returns the final tableau ``[real | artificial | rhs]`` of the
    row-flipped system, its objective row (last entry: minus the
    remaining infeasibility), the basis, the row flips and the pivots
    used.
    """
    k, p = A.shape
    T = np.zeros((k, p + k + 1))
    T[:, :p] = A
    T[:, -1] = b
    # Orient rows so the right-hand side is nonnegative.
    flip = b < 0
    T[flip] *= -1.0
    # Reduced costs of min(sum of artificials), priced out against the
    # artificial starting basis (whose columns are still zero), and the
    # negated objective value.
    obj = -T.sum(axis=0)
    T[:, p:p + k] = np.eye(k)
    basis = list(range(p, p + k))

    used, _ = _pivot_loop(T, obj, basis, p + k, max_iter, phase=1)
    return T, obj, basis, flip, used


def _basic_solution(T, basis, p):
    z = np.zeros(p)
    for row, var in enumerate(basis):
        if var < p:
            z[var] = T[row, -1]
    # Basic values are nonnegative up to roundoff; clamp the dust.
    np.clip(z, 0.0, None, out=z)
    return z


def feasible_nonneg(
    A: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> tuple[bool, np.ndarray | None]:
    """Search for ``z >= 0`` solving ``A z = b`` (phase 1 alone).

    Returns ``(True, z)`` when the phase-1 optimum is within ``tol`` of
    zero, ``(False, None)`` otherwise.  ``max_iter`` defaults to
    ``50 * (rows + cols)``; exceeding it raises
    :class:`~signpoly.errors.SolverFailureError`.
    """
    A, b, max_iter = _checked(A, b, max_iter)
    T, obj, basis, _, _ = _phase1(A, b, max_iter)
    if -obj[-1] > tol:
        return False, None
    return True, _basic_solution(T, basis, A.shape[1])


def minimize_nonneg(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> LPSolution:
    """Minimize ``c . z`` subject to ``A z = b``, ``z >= 0``.

    Phase 1 decides feasibility exactly as :func:`feasible_nonneg` does
    (``tol`` bounds the remaining infeasibility); phase 2 continues from
    its basis with the same pivot rule.  ``max_iter`` (default
    ``50 * (rows + cols)``) caps the pivots of both phases together;
    exceeding it raises :class:`~signpoly.errors.SolverFailureError`.
    """
    A, b, max_iter = _checked(A, b, max_iter)
    c = np.asarray(c, dtype=float)
    if c.shape != (A.shape[1],):
        raise ValueError("c must have one entry per column of A")
    T, obj, basis, flip, used = _phase1(A, b, max_iter)
    return _phase2(c, T, obj, basis, flip, tol, max_iter - used)


def _ray_maxima(A, b, columns, tol):
    """Maximize ``t`` over ``A w + t a = b``, ``w, t >= 0`` for each row
    ``a`` of ``columns``, as :func:`minimize_nonneg` would on ``[A | a]``
    with cost ``(0, ..., 0, -1)``, but from one shared phase 1 on
    ``[A | 0]`` (so at ``t = 0``): each ray writes ``B^-1 a``, read from
    the artificial block, into the ``t`` column of a copy of that
    tableau and runs phase 2.  The caller poses ``A w = b`` so that
    ``t = 0`` is feasible; if it is not, every ray reports infeasible.
    Each ray's pivot cap is :func:`minimize_nonneg`'s on ``[A | a]``,
    ``50 * (rows + cols + 1)``, less the shared phase-1 pivots.

    Only the smallest maximum matters to the caller.  So the rays run in
    ascending order of the bound ``max_i -a . A_i`` (for the ray system
    of :func:`~signpoly.algorithms.max_inscribed_cross_polytope`, the
    support ``max_i s v_ik`` of the members along the ray), and a ray's
    phase 2 stops, as ``"cut-off"``, at the first basis whose ``t`` is
    strictly above the smallest optimal ``t`` found so far.  The primal
    simplex never lowers ``t``, so every ray whose ``t`` is the final
    minimum runs to optimality.  Returns the solutions in the order of
    ``columns``.
    """
    k, p = A.shape
    cap = 50 * (k + p + 1)
    T0, obj0, basis0, flip, shared = _phase1(np.c_[A, np.zeros(k)], b, cap)
    c = np.append(np.zeros(p), -1.0)
    signed = np.where(flip, -1.0, 1.0) * columns
    sols = [None] * len(columns)
    best = math.inf
    for j in np.argsort(np.max(-columns @ A, axis=1), kind="stable"):
        T = T0.copy()
        T[:, p] = T0[:, p + 1:-1] @ signed[j]
        sols[j] = sol = _phase2(c, T, obj0.copy(), list(basis0), flip, tol,
                                cap - shared, stop_above=best)
        if sol.status == "optimal":
            best = min(best, sol.z[-1])
    return sols


def _drive_out(T, obj, basis, p):
    """Pivot the basic artificials, at zero, out so phase 2 cannot raise
    them; a row with no usable real entry is redundant and keeps its."""
    for i, var in enumerate(basis):
        if var >= p:
            j = int(np.argmax(np.abs(T[i, :p])))
            if abs(T[i, j]) > PIVOT_EPS:
                T[i, -1] = 0.0
                _pivot(T, obj, basis, i, j)


def _phase2(c, T, obj, basis, flip, tol, max_iter, stop_above=math.inf):
    """Infeasibility verdict, drive-out and phase 2 from a phase-1 tableau;
    phase 2 stops, as ``"cut-off"``, once ``-c . z > stop_above``."""
    if -obj[-1] > tol:
        return LPSolution("infeasible")
    p = c.size
    _drive_out(T, obj, basis, p)

    # Phase-2 reduced costs: the real costs priced out against the basis.
    obj = np.concatenate([c, np.zeros(T.shape[1] - p)])
    for i, var in enumerate(basis):
        if var < p and c[var] != 0.0:
            obj -= c[var] * T[i]

    _, unbounded = _pivot_loop(T, obj, basis, p, max_iter, phase=2,
                               stop_above=stop_above)
    if unbounded:
        return LPSolution("unbounded")
    z = _basic_solution(T, basis, p)
    if obj[:p].min() < -PIVOT_EPS:
        return LPSolution("cut-off", z, float(c @ z))
    # An artificial column's reduced cost is minus the dual of its
    # (possibly flipped) row.
    dual = np.where(flip, obj[p:-1], -obj[p:-1])
    return LPSolution("optimal", z, float(c @ z), dual)
