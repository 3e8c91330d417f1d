"""Revised two-phase simplex for small nonnegative systems.

Phase 1 decides whether some ``z >= 0`` solves ``A z = b``
(:func:`feasible_nonneg`); phase 2 runs only in the ray LPs of
:func:`_ray_maxima`, maximizing ``t`` from one shared phase-1 basis.  A
solve keeps the ``k x k`` basis columns ``B`` and the ``k x (k + 1)``
array ``[B^-1 | x_B]`` (Dantzig & Orchard-Hays, 1954).

Only pricing depends on how the columns are given.  :func:`_pivot_loop`
writes every pricing rule once, Dantzig's, Bland's and the aimed start,
over a column source that supplies four things:

- ``least(y)``: the column of least reduced cost among its real columns
  and the artificials, whose costs the loop writes into the source's
  ``art`` at every phase-1 pass, and that cost (Dantzig's choice);
- ``every(y)``: every reduced cost of the same pass, the real columns'
  then the artificials', which Bland's rule reads;
- ``aligned(b)``: the column whose rows but the last are most aligned
  with ``b``'s;
- ``column(j)``: column ``j`` itself.

There are two sources:

- A matrix ``A`` is priced whole at every pass: one product gives
  every column's reduced cost, and one argmin picks the entering column
  among them and the artificials (:class:`_Whole`).
- The columns ``[v; 1]`` of a listed set of signed permutations
  (:class:`_Sorted`) are priced by one sort: by the rearrangement
  inequality the least reduced cost among them is reached at the ``v``
  that orders ``|a|`` as ``|y|`` is ordered, with ``y``'s signs
  (column generation: Gilmore & Gomory, 1961).  No ``(n+1) x m``
  matrix is built; the basic columns are ranked into the listing once,
  at the end of phase 1.

A hull query aims phase 1 at its own right-hand side ``[x; 1]``: its
first pass prices one column, the vertex ``v`` that maximizes ``x . v``
(one product with the matrix, or one sort), and enters it when it
improves; the ray LPs do not aim (a crash start: Bixby, 1992).  Phase 1
ends once its objective is 0.

``[B^-1 | x_B]`` is rebuilt from ``B`` every ``REFRESH_EVERY`` pivots and
at the end of phase 1; every ray LP keeps its final basis, and all of
them are rebuilt together, by one batched inversion after the last ray;
:func:`_basic_solution` reads one basis or that stack.  A system gets
``50 * (rows + cols)`` pivots, shared by a ray's two phases; more, or
any other failure to converge, raise: a failure is never a verdict.

The kernel counts its own work into :data:`signpoly._counts.COUNTS`
(see :mod:`signpoly._counts`).
"""

from __future__ import annotations

import math

import numpy as np

from . import _counts, _enum
from .errors import SolverFailureError
from .majorization import DEFAULT_TOL, _real_array

# Pivot candidates below this magnitude are treated as zero.
PIVOT_EPS = 1e-11
# Slack used when comparing minimum ratios in the leaving-variable test.
RATIO_EPS = 1e-12
# Pivots in a row lowering the objective by roundoff at most before Bland's rule.
STALL_LIMIT = 20
# Pivots between two rebuilds of [B^-1 | x_B] by _refine.
REFRESH_EVERY = 32


class _State:
    """``B``, the basis columns, and ``T = [B^-1 | x_B]`` for a basis
    (``basis``, one variable index per row) of ``A z + diag(sign) s = b``,
    starting from the artificial one: ``s_i`` is variable ``p + i``,
    signed so that the basis is feasible.  ``A`` is a matrix, or a
    :class:`_Sorted` set of columns, which has a shape but no entries."""

    def __init__(self, A, b):
        self.A, self.b = A, b
        self.sign = np.where(b < 0, -1.0, 1.0)
        self.B = np.diag(self.sign)
        self.T = np.concatenate([self.B, np.abs(b)[:, None]], axis=1)
        self.basis = np.arange(A.shape[1], A.shape[1] + b.size)
        self.ratios = np.empty(b.size)  # the ratio test's workspace


def _pivot(s, i, j, col, column):
    """Pivot column ``j``, ``column`` of ``[A | diag(sign)]`` with
    ``B^-1`` image ``col``, into row ``i``."""
    row = s.T[i] / col[i]
    s.T -= col[:, None] * row
    s.T[i] = row
    s.basis[i] = j
    s.B[:, i] = column


def _bland(reduced):
    """The lowest-index column with a negative reduced cost and that
    cost, or None."""
    negative = np.flatnonzero(reduced < -PIVOT_EPS)
    return (int(negative[0]), float(reduced[negative[0]])) if negative.size else None


def _price(A, c, y, reduced):
    """Write the reduced costs ``c - y A`` of ``A``'s columns (``c`` is
    None when every cost is 0) into the first entries of ``reduced``,
    and return the entry of least value in all of ``reduced``, which may
    run on into the artificials' (priced already), and that value: one
    argmin, where NaN wins and ties go to the lowest index."""
    _counts.COUNTS.priced += A.shape[1]
    out = reduced[:A.shape[1]]
    np.matmul(-y, A, out=out)
    if c is not None:
        out += c
    j = int(reduced.argmin())
    return j, float(reduced[j])


class _Whole:
    """The columns of a matrix ``A`` with costs ``c_real`` (all 0 in
    phase 1), priced by :func:`_price` into one buffer of reduced costs,
    real then artificial, built once, so the loops that share one
    pricing (the rays of :func:`_ray_maxima`) reuse it."""

    def __init__(self, A, c_real):
        self.A = A
        self.c = c_real if np.count_nonzero(c_real) else None
        # Reused: a fresh wide array per pass costs more in page faults than pricing.
        self.reduced = np.empty(sum(A.shape))
        self.art = self.reduced[A.shape[1]:]
        self.art.fill(math.inf)  # until phase 1 prices them; phase 2 never does

    def least(self, y):
        return _price(self.A, self.c, y, self.reduced)

    def every(self, y):
        return self.reduced  # as least(y) wrote it

    def aligned(self, b):
        # The last row is left out: for the columns [v; 1] of a hull query,
        # adding 1 would round away the differences of x . v at small scales.
        return _price(self.A[:-1], None, b[:-1], self.reduced[:self.A.shape[1]])[0]

    def column(self, j):
        return self.A[:, j]


def _sort_price(values, signed, y, out):
    """Write into ``out`` the column ``[v; 1]`` of least phase-1 reduced
    cost ``-y . [v; 1]`` over every signed permutation ``v`` of the
    ascending ``values`` (every permutation, unsigned), and return that
    cost.  By the rearrangement inequality ``y[:-1] . v`` is largest
    when ``|v|`` is ordered as ``|y[:-1]|`` is, with its signs (``v`` as
    ``y[:-1]``, unsigned); ties keep slot order."""
    _counts.COUNTS.sorts += 1
    yv, v = y[:-1], out[:-1]
    if signed:
        v[np.argsort(np.abs(yv), kind="stable")] = values
        np.copysign(v, yv, out=v)
    else:
        v[np.argsort(yv, kind="stable")] = values
    return -float(y @ out)


class _Sorted:
    """The phase-1 columns ``[v; 1]`` of the rows ``v`` of ``V``, every
    distinct signed permutation of ``classes`` in :func:`_enum.listing`
    order, priced by one sort per pass (:func:`_sort_price`).

    The sort's column enters under the index -1: which listed row it
    is becomes known only when :func:`_phase1` ranks the final basis
    (:func:`_enum.rank`), so no pivot pays for a rank.  The reduced costs
    that Bland's rule reads, ``-(V @ y[:-1] + y[-1])`` then the
    artificials', go into a buffer built on first use, and a listed
    column enters under its own index."""

    def __init__(self, V, classes):
        self.V, self.classes = V, classes
        m, n = V.shape
        self.shape = (n + 1, m)
        self.values = np.repeat(classes.values, classes.counts)
        self.entering = np.ones(n + 1)  # the column sorted or listed last
        self.art = np.empty(n + 1)
        self.reduced = None

    def least(self, y):
        least = _sort_price(self.values, self.classes.signed, y, self.entering)
        k = int(self.art.argmin())
        if self.art[k] < least or math.isnan(self.art[k]):  # as one argmin would pick
            return self.shape[1] + k, float(self.art[k])
        return -1, least

    def every(self, y):
        m = self.shape[1]
        if self.reduced is None:
            self.reduced = np.empty(m + self.art.size)
        np.matmul(self.V, -y[:-1], out=self.reduced[:m])
        self.reduced[:m] -= y[-1]
        self.reduced[m:] = self.art
        return self.reduced

    def aligned(self, b):
        _sort_price(self.values, self.classes.signed, b, self.entering)  # reads no b[-1]
        return -1

    def column(self, j):
        if j >= 0:
            self.entering[:-1] = self.V[j]
        return self.entering

    def rank(self, columns):
        """The listed indices of the columns ``[v; 1]`` of ``columns``."""
        return _enum.rank(self.classes, columns[:-1].T)


def _pivot_loop(s, cost, max_iter, phase, stop_above=math.inf, pricing=None, aim=None):
    """Pivot until no column has a negative reduced cost ``cost - c_B
    B^-1 column``: no real column and, in phase 1, no artificial (phase
    2 starts with them driven out, and never enters one).  ``cost`` lists
    the costs of every variable, or of the ``k`` artificials alone:
    phase 1, which starts from the artificial basis and gives every real
    variable cost 0, passes those.

    ``pricing`` is the column source (see the module docstring):
    :class:`_Whole` of ``s.A`` by default, or ``s.A`` itself when it is
    :class:`_Sorted`.  Given ``aim``, the right-hand side ``b`` of a hull
    query, the first pass prices one column, ``pricing.aligned(b)``, and
    enters it if its phase-1 reduced cost is below ``-PIVOT_EPS`` (a
    crash start: Bixby, 1992); otherwise, and at every later pass, the
    column ``pricing.least`` finds enters (Dantzig's rule); ties in the
    ratio test leave by lowest basic index.  After ``STALL_LIMIT`` pivots
    in a row that lower the objective by at most a relative
    ``PIVOT_EPS``, the lowest-index column whose reduced cost in
    ``pricing.every`` is negative enters instead (Bland's rule, which
    cannot cycle), until a pivot lowers it more, so no cycle of bases is
    endless; where roundoff leaves only a sort's column negative,
    Dantzig's choice stands.  ``max_iter`` (against roundoff), a
    non-finite reduced cost of the chosen column and an entering column
    with no admissible pivot raise: phase 1 is bounded below by 0, and a
    ray's ``t`` by the hull, so an unbounded direction is a solver
    failure.  Phase 1 is optimal, with no pass priced, as soon as its
    objective value is 0: after an aimed vertex probe's first pivot,
    pricing on would only wander among degenerate bases.  Returns
    ``(pivots, outcome)``: ``"optimal"``, or ``"cut-off"`` at a basis
    that is not optimal once minus the objective value is above
    ``stop_above``.  The loop's counts go to the current
    :data:`~signpoly._counts.COUNTS` when it returns or raises.
    """
    sign, p = s.sign, s.A.shape[1]
    basis, inverse, x, ratios = s.basis, s.T[:, :-1], s.T[:, -1], s.ratios  # updated in place
    lo = p + sign.size - cost.size  # the first variable listed in cost
    c_basic = cost[basis - lo]
    c_art = cost[p - lo:]
    if pricing is None:
        pricing = s.A if isinstance(s.A, _Sorted) else _Whole(s.A, cost[:p - lo])
    value = float(c_basic @ x)
    stalled = pivots = passes = aimed = bland = 0
    try:
        while pivots < max_iter:
            if phase == 1 and value <= 0.0:  # at phase 1's lower bound: optimal
                return pivots, "optimal"
            y = c_basic @ inverse
            if phase == 1:
                np.subtract(c_art, sign * y, out=pricing.art)
            entering = 0.0
            if aim is not None:
                j = pricing.aligned(aim)
                entering = -float(y @ pricing.column(j))
                aim = None
                passes += 1
            dantzig = entering >= -PIVOT_EPS
            if dantzig:
                j, entering = pricing.least(y)
                passes += 1
            if not math.isfinite(entering):
                raise SolverFailureError("non-finite reduced cost in pricing")
            if entering >= -PIVOT_EPS:
                return pivots, "optimal"
            if -value > stop_above:
                return pivots, "cut-off"
            if dantzig and stalled >= STALL_LIMIT:
                # Bland's rule, or None where roundoff left only a sort's column negative.
                j, entering = _bland(pricing.every(y)) or (j, entering)
                bland += 1
            if j < p:
                column = pricing.column(j)
                col = inverse @ column
            else:
                column = np.where(np.arange(sign.size) == j - p, sign, 0.0)
                col = sign[j - p] * inverse[:, j - p]
            ratios.fill(math.inf)
            np.divide(x, col, out=ratios, where=col > PIVOT_EPS)
            i = int(ratios.argmin())
            least = ratios[i]
            if least == math.inf:
                raise SolverFailureError("no admissible pivot in entering column")
            ties = (ratios <= least + RATIO_EPS).nonzero()[0]
            if ties.size > 1:
                i = int(ties[basis[ties].argmin()])
            _pivot(s, i, j, col, column)
            pivots += 1
            aimed += not dantzig
            c_basic[i] = cost[j - lo] if j >= lo else 0.0
            before, value = value, value + entering * float(x[i])
            stalled = 0 if before - value > PIVOT_EPS * max(1.0, abs(before)) else stalled + 1
            if pivots % REFRESH_EVERY == 0:
                _refine(s, phase)
                value = float(c_basic @ x)
        raise SolverFailureError(f"phase-{phase} simplex did not converge "
                                 f"within {max_iter} iterations")
    finally:
        counts = _counts.COUNTS
        if phase == 1:
            counts.solves += 1
            counts.phase1 += pivots
        else:
            counts.rays += 1
            counts.phase2 += pivots
        counts.passes += passes
        counts.aimed += aimed
        counts.bland += bland


def _invert_into(T, B, b, phase):
    """Write ``[B^-1 | B^-1 b]`` into ``T``, for a matrix ``B`` or a stack,
    and count it: a stack as a batched inversion, a matrix as one of
    phase ``phase``."""
    counts = _counts.COUNTS
    if B.ndim > 2:
        counts.batch_inversions += 1
    elif phase == 1:
        counts.phase1_inversions += 1
    else:
        counts.phase2_inversions += 1
    try:
        T[..., :-1] = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise SolverFailureError("singular simplex basis") from None
    T[..., -1] = T[..., :-1] @ b


def _refine(s, phase):
    """Invert the basis columns ``s.B`` into ``s.T``, in phase ``phase``."""
    _invert_into(s.T, s.B, s.b, phase)


def _phase1(A, b, max_iter, aimed=False):
    """Minimize the sum of artificials from the artificial basis, first
    trying the column most aligned with ``b`` when ``aimed``; returns the
    final, refined state, every basic column named by its index, and the
    pivots used."""
    s = _State(A, b)
    used, _ = _pivot_loop(s, np.ones(b.size), max_iter, phase=1, aim=b if aimed else None)
    _refine(s, 1)
    unnamed = s.basis < 0  # columns a _Sorted pricing entered by sort
    if unnamed.any():
        s.basis[unnamed] = A.rank(s.B[:, unnamed])
    return s, used


def _infeasibility(s):
    """The sum of the basic artificials: phase 1's objective value."""
    return float(s.T[:, -1] @ (s.basis >= s.A.shape[1]))


def _basic_solution(T, basis, p):
    """The first ``p`` variables of the basic solution ``T = [B^-1 | x_B]``
    over ``basis``, or one row per basis of a stack: ``x_B`` goes into a zero
    row, any variable from ``p`` on into a spare entry the view leaves out."""
    z = np.zeros((*basis.shape[:-1], p + 1))
    first = np.arange(0, z.size, p + 1).reshape(*basis.shape[:-1], 1)
    # Basic values are nonnegative up to roundoff; clamp the dust.
    z.reshape(-1)[first + np.minimum(basis, p)] = np.maximum(T[..., -1], 0.0)
    return z[..., :p]


def feasible_nonneg(
    A: np.ndarray,
    b: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, np.ndarray | None]:
    """Search for ``z >= 0`` solving ``A z = b`` (phase 1 alone).

    Returns ``(True, z)`` when the phase-1 optimum, recomputed from the
    final basis, is within ``tol`` of zero, ``(False, None)`` otherwise.
    More than ``50 * (rows + cols)`` pivots raise ``SolverFailureError``,
    and a complex ``A`` or ``b`` raises ``ValueError``.
    """
    A = _real_array(A)
    b = _real_array(b)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
        raise ValueError("A must be (k, p) and b of length k")
    return _feasible(A, b, tol)


def _feasible(A, b, tol, aimed=False):
    """:func:`feasible_nonneg` on checked input, where ``A`` may also be
    a :class:`_Sorted` set of columns, with phase 1 aimed at ``b`` when
    ``aimed`` (see :func:`_pivot_loop`)."""
    s, _ = _phase1(A, b, 50 * sum(A.shape), aimed)
    if not _infeasibility(s) <= tol:
        return False, None
    return True, _basic_solution(s.T, s.basis, A.shape[1])


def _ray_maxima(A, b, columns, tol):
    """Maximize ``t`` over ``A w + t a = b``, ``w, t >= 0`` for each row
    ``a`` of ``columns``: a two-phase solve of ``[A | a]`` with cost
    ``(0, ..., 0, -1)``, except that each ray continues, with ``a`` in
    the ``t`` column, from one shared phase 1 on ``[A | 0]``.  The caller
    poses ``A w = b`` so that ``t = 0`` is feasible and ``t`` is bounded;
    a shared phase 1 left more than ``tol`` infeasible, or a ray with no
    admissible pivot, raises :class:`~signpoly.errors.SolverFailureError`.

    Only the smallest maximum matters to the caller, so the rays run in
    ascending order of the bound ``max_i -a . A_i`` (the members'
    support along the ray), and a ray's phase 2 stops early at the first
    basis whose ``t`` is strictly above the smallest optimal ``t`` so far
    (read from the ray's basic ``t``, clamped at 0).  The primal simplex
    never lowers ``t``, so every ray whose ``t`` is the final minimum
    runs to optimality.  Every ray keeps its final basis, and all of them
    are rebuilt together by one batched inversion after the last ray, so
    every solution is read from a rebuilt basis.

    Returns ``(z, dual)`` in the order of ``columns``: row ``j`` of the
    ``(R, p + 1)`` array ``z`` is ray ``j``'s feasible basic ``(w, t)``,
    its minimizer when optimal.  Row ``j`` of the ``(R, k)`` array
    ``dual`` is, for an optimal ray, a ``y`` with ``[A | a]^T y <= (0,
    ..., 0, -1)`` (up to the pivot tolerance) and ``b . y = -t``, the
    proof that no feasible point does better; for a ray stopped early,
    it is NaN.
    """
    k, p = A.shape
    cap = 50 * (k + p + 1)
    s, used = _phase1(np.concatenate([A, np.zeros((k, 1))], axis=1), b, cap)
    if not _infeasibility(s) <= tol:
        raise SolverFailureError(
            "ray LP infeasible, though t = 0 is feasible in a bounded hull")
    shared = s.T.copy(), s.basis.copy(), s.B.copy()
    cost = np.zeros(p + 1 + k)
    cost[p] = -1.0
    pricing = _Whole(s.A, cost[:p + 1])  # one workspace for every ray
    bases = np.empty((len(columns), k), dtype=int)
    B = np.empty((len(columns), k, k))
    stopped = np.zeros(len(columns), dtype=bool)
    best = math.inf
    for j in np.argsort(np.max(-columns @ A, axis=1), kind="stable"):
        # The t column is nonbasic at the shared basis, so only it changes.
        s.A[:, p] = columns[j]
        s.T[:], s.basis[:], s.B[:] = shared
        _drive_out(s)
        _, outcome = _pivot_loop(s, cost, cap - used, phase=2, stop_above=best, pricing=pricing)
        bases[j], B[j] = s.basis, s.B
        stopped[j] = outcome == "cut-off"
        if stopped[j]:
            _counts.COUNTS.stopped += 1
        else:
            best = min(best, _basic_solution(s.T, s.basis, p + 1)[p])
    T = np.empty((len(columns), k, k + 1))
    _invert_into(T, B, b, 2)
    dual = np.full((len(columns), k), np.nan)
    for j in (~stopped).nonzero()[0]:
        dual[j] = cost[bases[j]] @ T[j, :, :-1]
    return _basic_solution(T, bases, p + 1), dual


def _drive_out(s):
    """Pivot the basic artificials, at zero, out so phase 2 cannot raise
    them; a row with no usable real entry is redundant and keeps its."""
    for i in (s.basis >= s.A.shape[1]).nonzero()[0]:
        row = s.T[i, :-1] @ s.A
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > PIVOT_EPS:
            s.T[i, -1] = 0.0
            _pivot(s, i, j, s.T[:, :-1] @ s.A[:, j], s.A[:, j])
            _counts.COUNTS.drive_out += 1
