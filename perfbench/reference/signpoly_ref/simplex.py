"""Dense phase-1 simplex for small nonnegative feasibility systems.

Answers "is there a z >= 0 with A z = b?" by minimizing the total
artificial infeasibility in a full tableau.  Bland's rule keeps the
pivoting cycle-free, which matters here: hull-membership systems are
heavily degenerate.  Failure to converge raises, it never masquerades
as an infeasibility verdict.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailureError

# Pivot candidates below this magnitude are treated as zero.
PIVOT_EPS = 1e-11
# Slack used when comparing minimum ratios in the leaving-variable test.
RATIO_EPS = 1e-12


def feasible_nonneg(
    A: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> tuple[bool, np.ndarray | None]:
    """Search for ``z >= 0`` solving ``A z = b``.

    Returns ``(True, z)`` when the phase-1 optimum is within ``tol`` of
    zero, ``(False, None)`` otherwise.  ``max_iter`` defaults to
    ``50 * (rows + cols)``; exceeding it raises
    :class:`~signpoly.errors.SolverFailureError`.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
        raise ValueError("A must be (k, p) and b of length k")
    k, p = A.shape
    if max_iter is None:
        max_iter = 50 * (k + p)

    # Orient rows so the right-hand side is nonnegative.
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)

    # Tableau columns: [real variables | artificials | rhs].
    T = np.zeros((k, p + k + 1))
    T[:, :p] = A
    T[:, p:p + k] = np.eye(k)
    T[:, -1] = b
    basis = list(range(p, p + k))

    # Objective row for min(sum of artificials), priced out against the
    # artificial starting basis: reduced costs and negated objective value.
    obj = np.zeros(p + k + 1)
    obj[:p] = -A.sum(axis=0)
    obj[-1] = -b.sum()

    for _ in range(max_iter):
        entering = np.flatnonzero(obj[:p + k] < -PIVOT_EPS)
        if entering.size == 0:
            break
        j = int(entering[0])  # Bland: lowest eligible index enters
        col = T[:, j]
        rows = np.flatnonzero(col > PIVOT_EPS)
        if rows.size == 0:
            # Phase 1 is bounded below by zero, so this is numerical
            # breakdown rather than genuine unboundedness.
            raise SolverFailureError("no admissible pivot in entering column")
        ratios = T[rows, -1] / col[rows]
        rmin = ratios.min()
        ties = rows[ratios <= rmin + RATIO_EPS]
        i = int(min(ties, key=lambda r: basis[r]))  # Bland tie-break

        # Gauss-Jordan pivot on (i, j).
        T[i] /= T[i, j]
        factors = T[:, j].copy()
        factors[i] = 0.0
        T -= np.outer(factors, T[i])
        obj -= obj[j] * T[i]
        basis[i] = j
    else:
        raise SolverFailureError(
            f"phase-1 simplex did not converge within {max_iter} iterations"
        )

    infeasibility = -obj[-1]
    if infeasibility > tol:
        return False, None
    z = np.zeros(p)
    for row, var in enumerate(basis):
        if var < p:
            z[var] = T[row, -1]
    # Basic values are nonnegative up to roundoff; clamp the dust.
    np.clip(z, 0.0, None, out=z)
    return True, z
