"""Vertex sets, cross-polytopes, and LP-backed hull predicates.

The combinatorial route to membership lives in
:mod:`signpoly.majorization`; this module provides the explicit-geometry
route: enumerate vertices, feed a feasibility LP, or use closed forms
for volumes and inscribed balls.  Keeping both routes independent is the
point — they cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from . import _enum
from .errors import DimensionMismatchError, EnumerationTooLargeError, SolverFailureError
from .majorization import DEFAULT_TOL, _check_same_dim, _check_sums, as_coords
from .simplex import feasible_nonneg

#: Default ceiling on the number of vertices an enumeration may produce.
ENUMERATION_CAP = 10_000_000


class VertexSet:
    """A finite set of points spanning a convex hull.

    Points are stored as the rows of a read-only ``(m, n)`` array, in the
    order given and with any repeats kept: neither a hull nor the LP
    depends on them.  A read-only float array that owns its data is held
    without a copy; anything else (a view, a writable array or a sequence
    of points) is copied, so no base array can change the points
    afterwards.  A writable view made before the held array was frozen
    still could: do not keep one.
    The first :func:`hull_member_lp` query builds the LP matrix
    ``[V^T; 1]``, ``(n+1)/n`` times the array's bytes, and the set keeps
    it for every later query.
    """

    __slots__ = ("_points", "_lp")

    def __init__(self, points):
        if (isinstance(points, np.ndarray) and points.dtype == float
                and not points.flags.writeable and points.flags.owndata):
            arr = points
        else:
            arr = np.array(points, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("a vertex set needs at least one point")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vertex coordinates must be finite")
        arr.setflags(write=False)
        self._points = arr
        self._lp = None

    @property
    def array(self) -> np.ndarray:
        """Vertices as the rows of a read-only ``(m, n)`` array."""
        return self._points

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    def __len__(self) -> int:
        return self._points.shape[0]

    def __getitem__(self, i: int) -> np.ndarray:
        """Vertex ``i`` as a read-only row of :attr:`array`."""
        return self._points[i]

    def __iter__(self):
        return iter(self._points)

    def __repr__(self) -> str:
        return f"VertexSet({len(self)} points in R^{self.dim})"

    def _lp_matrix(self) -> np.ndarray:
        """The read-only, C-ordered ``(n+1, m)`` matrix ``[V^T; 1]`` of
        :func:`hull_member_lp`'s LP, built on the first call."""
        if self._lp is None:
            m, n = self._points.shape
            A = np.empty((n + 1, m))
            A[:n] = self._points.T
            A[n] = 1.0
            A.setflags(write=False)
            self._lp = A
        return self._lp


@dataclass(frozen=True, eq=False)
class CrossPolytopeSpec:
    """An axis-aligned cross-polytope: ``center ± scale * e_k``.

    ``scale`` is the circumradius (half the axis diagonal); volume,
    insphere radius and edge length follow in closed form.  ``center``
    is copied into a read-only float array, whose length is the
    dimension.
    """

    scale: float
    center: np.ndarray

    def __post_init__(self):
        center = np.array(as_coords(self.center))
        if not np.all(np.isfinite(center)):
            raise ValueError("center coordinates must be finite")
        _check_dim_scale(center.size, self.scale)
        center.setflags(write=False)
        object.__setattr__(self, "center", center)

    @property
    def dimension(self) -> int:
        return self.center.size

    def vertices(self) -> VertexSet:
        """The 2n vertex points ``center ± scale * e_k``."""
        eye = np.eye(self.dimension) * self.scale
        return VertexSet(np.vstack([self.center + eye, self.center - eye]))

    def volume(self) -> float:
        return cross_polytope_volume(self.dimension, self.scale)

    def insphere_radius(self) -> float:
        return insphere_radius(self.dimension, self.scale)

    def edge_length(self) -> float:
        """Distance between adjacent vertices (distinct axes)."""
        return math.sqrt(2.0) * self.scale


def count_sign_perm_vertices(a: ArrayLike) -> int:
    """Number of distinct signed permutations of ``a``, exactly.

    With ``m`` nonzero entries whose distinct absolute values have
    multiplicities ``m_1..m_k``, the count is
    ``2^m * n! / (m_1! ... m_k! * (n-m)!)``, evaluated in integer
    arithmetic.  A NaN or infinite entry raises ``ValueError``.
    """
    classes = _enum.sign_classes(as_coords(a))
    return _enum.count_signed_arrangements(classes)


def enumerate_sign_perm_vertices(a: ArrayLike, cap: int = ENUMERATION_CAP) -> VertexSet:
    """All distinct signed permutations of ``a`` as a vertex set.

    The count is computed first; exceeding ``cap`` raises
    :class:`~signpoly.errors.EnumerationTooLargeError`, and a NaN or
    infinite entry ``ValueError``, before any work is done.  Output order
    is deterministic (lexicographic arrangements, signs toggled from
    all-positive).
    """
    arr = as_coords(a)
    return _vertex_set(_enum.sign_classes(arr), arr.size, cap)


def enumerate_perm_vertices(a: ArrayLike, cap: int = ENUMERATION_CAP) -> VertexSet:
    """All distinct coordinate permutations of ``a`` (no sign flips), in
    lexicographic order.  Entries within ``ZERO_TOL`` of each other are
    one value, for the count and the listing alike; a NaN or infinite
    entry raises ``ValueError``."""
    arr = as_coords(a)
    return _vertex_set(_enum.sign_classes(arr, signed=False), arr.size, cap)


def _vertex_set(classes: _enum.SignClasses, n: int, cap: int) -> VertexSet:
    """Count ``classes``' arrangements against ``cap``, then have the
    enumerator write them into one array, block by block.
    ``sign_classes`` refused every non-finite entry, so the rows are
    finite and are wrapped unchecked."""
    count = _enum.count_signed_arrangements(classes)
    if count > cap:
        raise EnumerationTooLargeError(count, cap)
    out = np.empty((count, n))
    for _ in _enum.signed_arrangements(classes, out):
        pass
    out.setflags(write=False)
    vertices = VertexSet.__new__(VertexSet)
    vertices._points, vertices._lp = out, None
    return vertices


def hull_member_lp(
    x: ArrayLike,
    vertices: VertexSet | np.ndarray,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, np.ndarray | None]:
    """LP feasibility test for ``x`` in the convex hull of ``vertices``.

    Returns ``(True, w)`` with the LP's own read-only ``(m,)`` weights
    over the ``m`` vertices, meeting ``w >= 0``, ``sum w = 1`` and
    ``w @ V = x`` within ``tol``, or ``(False, None)``.  Raw vertices are
    checked as :class:`VertexSet` checks them, and a non-finite point
    raises ``ValueError``.  A solver that fails to converge or misses
    that bound raises instead.

    A :class:`VertexSet` builds its LP matrix on its first query and
    reuses it; a raw array is wrapped, transposed and dropped on every
    call, so pass one :class:`VertexSet` to ask many points of one set.
    """
    vs = vertices if isinstance(vertices, VertexSet) else VertexSet(vertices)
    V = vs.array
    xv = as_coords(x)
    if not np.all(np.isfinite(xv)):
        raise ValueError("point coordinates must be finite")
    if V.shape[1] != xv.size:
        raise DimensionMismatchError(
            f"point dimension {xv.size} does not match vertex dimension"
        )
    A = vs._lp_matrix()
    b = np.append(xv, 1.0)
    ok, w = feasible_nonneg(A, b, tol=tol)
    if not ok:
        return False, None
    # A basic solution has at most n + 1 nonzero weights: check those
    # rows, not all m.  The mask keeps NaN weights (numpy finds a bool
    # mask's nonzeros several times faster than a float array's); an
    # all-zero w keeps every row, so its sum and minimum are defined.
    support = np.flatnonzero(w != 0.0)
    if support.size == 0:
        support = slice(None)
    violation = _witness_violation(w[support], V[support], xv)
    if not violation <= tol:
        raise SolverFailureError(
            f"witness violation {violation:.3e} exceeds tolerance {tol:.3e}"
        )
    w.setflags(write=False)
    return True, w


def _witness_violation(w: np.ndarray, V: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Worst violation of ``w >= 0``, ``sum w = 1`` and ``w @ V = x`` by
    weights ``w`` over the rows of ``V``, one per row of ``w`` and ``x``:
    0 for an exact witness, NaN for a NaN."""
    return np.maximum.reduce([-w.min(axis=-1), np.abs(w.sum(axis=-1) - 1.0),
                              np.abs(w @ V - x).max(axis=-1)])


def hulls_disjoint(a: ArrayLike, b: ArrayLike, tol: float = DEFAULT_TOL) -> bool:
    """Whether the permutation hulls of ``a`` and ``b`` are disjoint.

    Each hull lies in the hyperplane of constant coordinate sum, so the
    hulls meet exactly when the two sums agree; sums within ``tol`` of
    each other count as meeting.  A NaN or infinite entry, or a sum that
    overflows, raises ``ValueError``.
    """
    av = as_coords(a)
    bv = as_coords(b)
    _check_same_dim(av, bv)
    sa, sb = float(av.sum()), float(bv.sum())
    gap = abs(sa - sb)
    if not math.isfinite(gap):
        _check_sums((av, bv), (sa, sb))
    return gap > tol


def cross_polytope_volume(n: int, alpha: float) -> float:
    """Volume ``(2*alpha)^n / n!`` of the n-dimensional cross-polytope
    with circumradius ``alpha``, evaluated in log space."""
    _check_dim_scale(n, alpha)
    return (_exp(_log_cross_polytope_volume(n, alpha), "cross-polytope volume")
            if alpha > 0.0 else 0.0)


def _log_cross_polytope_volume(n: int, alpha: float) -> float:
    """The log of :func:`cross_polytope_volume`, for ``alpha > 0``."""
    return n * math.log(2.0 * alpha) - math.lgamma(n + 1)


def insphere_radius(n: int, alpha: float) -> float:
    """Radius ``alpha / sqrt(n)`` of the largest ball inside the
    cross-polytope with circumradius ``alpha``."""
    _check_dim_scale(n, alpha)
    return alpha / math.sqrt(n)


def ball_volume(n: int, r: float) -> float:
    """Volume ``pi^(n/2) r^n / Gamma(n/2 + 1)`` of the n-ball."""
    _check_dim_scale(n, r)
    return _exp(_log_ball_volume(n, r), "ball volume") if r > 0.0 else 0.0


def _log_ball_volume(n: int, r: float) -> float:
    """The log of :func:`ball_volume`, for ``r > 0``."""
    return (0.5 * n * math.log(math.pi) + n * math.log(r)
            - math.lgamma(0.5 * n + 1.0))


def _exp(log_v: float, what: str) -> float:
    """``exp(log_v)`` of a closed form evaluated in log space, or
    ``ValueError`` naming ``what`` when it does not fit a float."""
    try:
        v = math.exp(log_v)
    except OverflowError:
        v = math.inf
    if v == math.inf:
        raise ValueError(f"the {what} overflows a float")
    return v


def _check_dim_scale(n: int, scale: float) -> None:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not (scale >= 0.0 and math.isfinite(scale)):
        raise ValueError("scale must be a finite nonnegative real")
