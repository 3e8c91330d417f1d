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

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailureError

# Pivot candidates below this magnitude are treated as zero.
PIVOT_EPS = 1e-11
# Slack used when comparing minimum ratios in the leaving-variable test;
# a pivot whose minimum ratio is at most this is degenerate.
RATIO_EPS = 1e-12
# Consecutive degenerate pivots after which Bland's rule takes over.
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
    point does better; all three are ``None`` otherwise.
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


def _pivot_loop(T, obj, basis, ncols, max_iter, phase):
    """Pivot until no column below ``ncols`` has a negative reduced cost.

    The most negative reduced cost enters (Dantzig's rule); ties in the
    ratio test leave by lowest basic index.  After ``STALL_LIMIT``
    consecutive degenerate pivots the lowest-index negative column
    enters instead (Bland's rule) until a pivot with a positive ratio.
    So the loop is finite in exact arithmetic, where Dantzig's rule
    alone can cycle: positive-ratio pivots lower the objective, and
    Bland's rule cannot cycle within a degenerate run.  In floating
    point the ``max_iter`` cap is the backstop, and reaching it raises.

    Returns ``(iterations, unbounded)``; ``unbounded`` means the entering
    column had no positive entry.  More than ``max_iter`` pivots raise.
    """
    stalled = 0
    for it in range(max_iter):
        reduced = obj[:ncols]
        j = int(np.argmin(reduced))  # Dantzig: most negative enters
        if reduced[j] >= -PIVOT_EPS:
            return it, False
        if stalled >= STALL_LIMIT:
            j = _bland(reduced)
        col = T[:, j]
        rows = np.flatnonzero(col > PIVOT_EPS)
        if rows.size == 0:
            return it, True
        ratios = T[rows, -1] / col[rows]
        rmin = ratios.min()
        ties = rows[ratios <= rmin + RATIO_EPS]
        i = int(min(ties, key=lambda r: basis[r]))  # Bland tie-break
        stalled = stalled + 1 if rmin <= RATIO_EPS else 0
        _pivot(T, obj, basis, i, j)
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

    used, unbounded = _pivot_loop(T, obj, basis, p + k, max_iter, phase=1)
    if unbounded:
        # Phase 1 is bounded below by zero, so this is numerical
        # breakdown rather than genuine unboundedness.
        raise SolverFailureError("no admissible pivot in entering column")
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
    k, p = A.shape
    if c.shape != (p,):
        raise ValueError("c must have one entry per column of A")
    T, obj, basis, flip, used = _phase1(A, b, max_iter)
    if -obj[-1] > tol:
        return LPSolution("infeasible")

    # Artificials still basic sit at zero; pivot them out so phase 2
    # cannot raise them.  A row with no usable real entry is redundant
    # and keeps its artificial at zero.
    for i in range(k):
        if basis[i] >= p:
            j = int(np.argmax(np.abs(T[i, :p])))
            if abs(T[i, j]) > PIVOT_EPS:
                T[i, -1] = 0.0
                _pivot(T, obj, basis, i, j)

    # Phase-2 reduced costs: the real costs priced out against the basis.
    obj = np.zeros(p + k + 1)
    obj[:p] = c
    for i, var in enumerate(basis):
        if var < p and c[var] != 0.0:
            obj -= c[var] * T[i]

    _, unbounded = _pivot_loop(T, obj, basis, p, max_iter - used, phase=2)
    if unbounded:
        return LPSolution("unbounded")
    z = _basic_solution(T, basis, p)
    # An artificial column's reduced cost is minus the dual of its
    # (possibly flipped) row.
    dual = np.where(flip, obj[p:p + k], -obj[p:p + k])
    return LPSolution("optimal", z, float(c @ z), dual)
