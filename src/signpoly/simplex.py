"""Revised two-phase simplex for small nonnegative systems.

Phase 1 decides whether some ``z >= 0`` solves ``A z = b``; phase 2
minimizes a linear cost from its basis.  A solve keeps ``A`` and only
the ``k x (k + 1)`` array ``[B^-1 | x_B]``, prices every column from
``A`` at each pivot (Dantzig & Orchard-Hays, 1954), and rebuilds it from
the basis columns every ``REFRESH_EVERY`` pivots and at the end of each
phase.  Failure to converge raises, it never masquerades as a verdict.
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
# Pivots in a row lowering the objective by roundoff at most before Bland's rule.
STALL_LIMIT = 20
# Pivots between two rebuilds of [B^-1 | x_B] by _refine.
REFRESH_EVERY = 32


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


class _State:
    """``T = [B^-1 | x_B]`` for a basis (``basis``, one variable index per
    row) of ``A z + diag(sign) s = b``, starting from the artificial one:
    ``s_i`` is variable ``p + i``, signed so that the basis is feasible."""

    def __init__(self, A, b):
        self.A, self.b = A, b
        self.sign = np.where(b < 0, -1.0, 1.0)
        self.T = np.c_[np.diag(self.sign), np.abs(b)]
        self.basis = np.arange(A.shape[1], A.shape[1] + b.size)


def _checked(A, b, max_iter):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
        raise ValueError("A must be (k, p) and b of length k")
    if max_iter is None:
        max_iter = 50 * sum(A.shape)
    return A, b, max_iter


def _pivot(s, i, j, col):
    """Pivot column ``j``, whose ``B^-1`` image is ``col``, into row ``i``."""
    row = s.T[i] / col[i]
    s.T -= col[:, None] * row
    s.T[i] = row
    s.basis[i] = j


def _bland(reduced):
    """Lowest-index column with a negative reduced cost."""
    return int(np.flatnonzero(reduced < -PIVOT_EPS)[0])


def _pivot_loop(s, cost, ncols, max_iter, phase, stop_above=math.inf):
    """Pivot until no column below ``ncols`` (real columns, then the
    artificials) has a negative reduced cost ``cost - c_B B^-1 column``.

    The most negative reduced cost enters (Dantzig's rule); ties in the
    ratio test leave by lowest basic index.  After ``STALL_LIMIT``
    pivots in a row that lower the objective by at most a relative
    ``PIVOT_EPS``, the lowest-index negative column enters (Bland's rule,
    which cannot cycle) until one lowers it more, so no cycle of bases is
    endless; ``max_iter`` (against roundoff) and non-finite pricing raise.
    Returns ``(iterations, outcome)``: ``"optimal"``, ``"unbounded"``
    (phase 1 raises instead), or ``"cut-off"`` at a basis that is not
    optimal once minus the objective value is above ``stop_above``.
    """
    p = s.A.shape[1]
    basis, inverse, x = s.basis, s.T[:, :-1], s.T[:, -1]  # updated in place
    c_basic = cost[basis]
    c_real = cost[:p] if cost[:p].any() else None
    value = float(c_basic @ x)
    stalled = 0
    # Reused: a fresh wide array per pass costs more in page faults than pricing.
    reduced, ratios = np.empty(ncols), np.empty(basis.size)
    for it in range(max_iter):
        y = c_basic @ inverse
        np.matmul(-y, s.A, out=reduced[:p])
        if c_real is not None:
            reduced[:p] += c_real
        if ncols > p:
            np.subtract(cost[p:], s.sign * y, out=reduced[p:])
        j = int(reduced.argmin())  # Dantzig: most negative enters; NaN wins
        if not math.isfinite(reduced[j]):
            raise SolverFailureError("non-finite reduced cost in pricing")
        if reduced[j] >= -PIVOT_EPS:
            return it, "optimal"
        if -value > stop_above:
            return it, "cut-off"
        if stalled >= STALL_LIMIT:
            j = _bland(reduced)
        col = inverse @ s.A[:, j] if j < p else s.sign[j - p] * inverse[:, j - p]
        ratios.fill(math.inf)
        np.divide(x, col, out=ratios, where=col > PIVOT_EPS)
        least = ratios.min()
        if least == math.inf:
            if phase == 1:
                raise SolverFailureError("no admissible pivot in entering column")
            return it, "unbounded"
        ties = (ratios <= least + RATIO_EPS).nonzero()[0]
        i = int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])
        _pivot(s, i, j, col)
        c_basic[i] = cost[j]
        before, value = value, value + float(reduced[j]) * float(x[i])
        stalled = 0 if before - value > PIVOT_EPS * max(1.0, abs(before)) else stalled + 1
        if (it + 1) % REFRESH_EVERY == 0:
            _refine(s)
            value = float(c_basic @ x)
    raise SolverFailureError(f"phase-{phase} simplex did not converge "
                             f"within {max_iter} iterations")


def _refine(s):
    """Invert the basis columns of ``[A | diag(sign)]`` into ``s.T``."""
    p = s.A.shape[1]
    art = s.basis >= p
    B = s.A[:, np.where(art, 0, s.basis)]
    if art.any():
        B[:, art] = np.diag(s.sign)[:, s.basis[art] - p]
    try:
        s.T[:, :-1] = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise SolverFailureError("singular simplex basis") from None
    s.T[:, -1] = s.T[:, :-1] @ s.b


def _phase1(A, b, max_iter):
    """Minimize the sum of artificials from the artificial basis; returns
    the final, refined state and the pivots used."""
    s = _State(A, b)
    cost = np.concatenate([np.zeros(A.shape[1]), np.ones(b.size)])
    used, _ = _pivot_loop(s, cost, cost.size, max_iter, phase=1)
    _refine(s)
    return s, used


def _infeasibility(s):
    """The sum of the basic artificials: phase 1's objective value."""
    return float(s.T[:, -1] @ (s.basis >= s.A.shape[1]))


def _basic_solution(s):
    k, p = s.A.shape
    z = np.zeros(p + k)
    z[s.basis] = s.T[:, -1]
    # Basic values are nonnegative up to roundoff; clamp the dust.
    return np.maximum(z[:p], 0.0)


def feasible_nonneg(
    A: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> tuple[bool, np.ndarray | None]:
    """Search for ``z >= 0`` solving ``A z = b`` (phase 1 alone).

    Returns ``(True, z)`` when the phase-1 optimum, recomputed from the
    final basis, is within ``tol`` of zero, ``(False, None)`` otherwise.
    ``max_iter`` defaults to ``50 * (rows + cols)``; exceeding it raises
    :class:`~signpoly.errors.SolverFailureError`.
    """
    A, b, max_iter = _checked(A, b, max_iter)
    s, _ = _phase1(A, b, max_iter)
    if not _infeasibility(s) <= tol:
        return False, None
    return True, _basic_solution(s)


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
    s, used = _phase1(A, b, max_iter)
    return _phase2(c, s, tol, max_iter - used)


def _ray_maxima(A, b, columns, tol):
    """Maximize ``t`` over ``A w + t a = b``, ``w, t >= 0`` for each row
    ``a`` of ``columns``, as :func:`minimize_nonneg` would on ``[A | a]``
    with cost ``(0, ..., 0, -1)``, but each ray continues, with ``a`` in
    the ``t`` column, from one shared phase 1 on ``[A | 0]``.  The caller
    poses ``A w = b`` so that ``t = 0`` is feasible, else every ray is
    infeasible.  Each ray's pivot cap is ``50 * (rows + cols + 1)`` less
    the shared phase-1 pivots.

    Only the smallest maximum matters to the caller, so the rays run in
    ascending order of the bound ``max_i -a . A_i`` (the members'
    support along the ray), and a ray's phase 2 stops, as ``"cut-off"``,
    at the first basis whose ``t`` is strictly above the smallest
    optimal ``t`` so far.  The primal simplex never lowers ``t``, so
    every ray whose ``t`` is the final minimum runs to optimality.
    Returns the solutions in the order of ``columns``.
    """
    k, p = A.shape
    cap = 50 * (k + p + 1)
    s, used = _phase1(np.c_[A, np.zeros(k)], b, cap)
    shared = s.T.copy(), s.basis.copy()
    c = np.append(np.zeros(p), -1.0)
    sols = [None] * len(columns)
    best = math.inf
    for j in np.argsort(np.max(-columns @ A, axis=1), kind="stable"):
        # The t column is nonbasic at the shared basis, so only it changes.
        s.A[:, p] = columns[j]
        s.T[:], s.basis[:] = shared
        sols[j] = sol = _phase2(c, s, tol, cap - used, stop_above=best)
        if sol.status == "optimal":
            best = min(best, sol.z[-1])
    return sols


def _drive_out(s):
    """Pivot the basic artificials, at zero, out so phase 2 cannot raise
    them; a row with no usable real entry is redundant and keeps its."""
    for i in (s.basis >= s.A.shape[1]).nonzero()[0]:
        row = s.T[i, :-1] @ s.A
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > PIVOT_EPS:
            s.T[i, -1] = 0.0
            _pivot(s, i, j, s.T[:, :-1] @ s.A[:, j])


def _phase2(c, s, tol, max_iter, stop_above=math.inf):
    """Infeasibility verdict, drive-out and phase 2 from a phase-1 state;
    phase 2 stops, as ``"cut-off"``, once ``-c . z > stop_above``."""
    if not _infeasibility(s) <= tol:
        return LPSolution("infeasible")
    _drive_out(s)
    cost = np.concatenate([c, np.zeros(s.b.size)])
    _, outcome = _pivot_loop(s, cost, c.size, max_iter, phase=2,
                             stop_above=stop_above)
    if outcome == "unbounded":
        return LPSolution("unbounded")
    _refine(s)
    z = _basic_solution(s)
    if outcome == "cut-off":
        return LPSolution("cut-off", z, float(c @ z))
    dual = cost[s.basis] @ s.T[:, :-1]
    return LPSolution("optimal", z, float(c @ z), dual)
