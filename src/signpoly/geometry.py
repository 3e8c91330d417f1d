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

from . import _enum, simplex
from ._enum import ENUMERATION_CAP
from .errors import SolverFailureError
from .majorization import (
    DEFAULT_TOL,
    _check_same_dim,
    _check_sums,
    _real_array,
    _two_points,
    as_coords,
)

# A listed set of more rows is priced by one sort per pass, with no LP
# matrix, and a shorter one by its matrix.  On the perfbench ``hull``
# probes (2-vCPU x86-64 VM), sort pricing halved the tail time of the
# n=8 queries (26,880 rows; op_s.tail 2.25 -> 1.05 ms) and cut their
# peak from 223 kB to 11 kB, but made the n=5 and n=6 queries (3,840 and
# 960 rows) slower in paired in-process runs (n=5 +3 to +24%, n=6 +17 to
# +35%): a sort pass costs about 1.3 matrix passes at 960 columns, and
# ranking the basis and setting up the sort add about 35 us a query.
_SORT_ABOVE = 1 << 14


class VertexSet:
    """A finite set of points spanning a convex hull.

    Points are the rows of a read-only ``(m, n)`` array, in the order
    given and with any repeats kept: neither a hull nor the LP depends
    on them.  The points are always copied, so no array the caller keeps
    can change them; complex or non-finite ones raise.  The first
    :func:`hull_member_lp` query of a set of at most 2^14 (16,384) rows,
    or of any set not listed, builds the LP matrix ``[V^T; 1]``,
    ``(n+1)/n`` times the array's bytes, and the set keeps it for every
    later query.

    A set listed by :func:`enumerate_sign_perm_vertices` or
    :func:`enumerate_perm_vertices` holds its sign classes and its count,
    and no row: ``len``, ``dim`` and ``repr`` read those.  Its
    :attr:`array` is listed on first use (indexing, iteration, a hull
    query) and then kept, so a ``MemoryError`` can surface there rather
    than at the call.  When it has more than 2^14 rows its queries are
    priced by one sort per pivot and it never builds the LP matrix.
    """

    __slots__ = ("_points", "_shape", "_lp", "_classes")

    def __init__(self, points):
        arr = np.array(_real_array(points))
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("a vertex set needs at least one point")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vertex coordinates must be finite")
        arr.setflags(write=False)
        self._points, self._shape = arr, arr.shape
        self._lp = self._classes = None

    @property
    def array(self) -> np.ndarray:
        """Vertices as the rows of a read-only ``(m, n)`` array, listed
        on first use for a set listed from its classes."""
        if self._points is None:
            self._points = _enum.listing(self._classes, len(self))[0]
        return self._points

    @property
    def dim(self) -> int:
        return self._shape[1]

    def __len__(self) -> int:
        return self._shape[0]

    def __getitem__(self, i: int) -> np.ndarray:
        """Vertex ``i`` as a read-only row of :attr:`array`."""
        return self.array[i]

    def __iter__(self):
        return iter(self.array)

    def __repr__(self) -> str:
        return f"VertexSet({len(self)} points in R^{self.dim})"

    def _columns(self):
        """The columns ``[v; 1]`` of :func:`hull_member_lp`'s LP, the one
        place their pricing is chosen: a fresh :class:`simplex._Sorted`
        for a listing of more than ``_SORT_ABOVE`` rows, otherwise the
        read-only, C-ordered ``(n+1, m)`` matrix ``[V^T; 1]``, built on
        the first call and kept."""
        if self._classes is not None and len(self) > _SORT_ABOVE:
            return simplex._Sorted(self.array, self._classes)
        if self._lp is None:
            m, n = self._shape
            A = np.empty((n + 1, m))
            A[:n] = self.array.T
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
        _check_dim_scale(center.size, self.scale, "scale")
        center.setflags(write=False)
        object.__setattr__(self, "center", center)

    @property
    def dimension(self) -> int:
        return self.center.size

    def vertices(self) -> VertexSet:
        """The 2n vertex points ``center ± scale * e_k``, written once
        into the set's array; a coordinate that overflows raises
        ``ValueError``."""
        # Rows scale * e_k, then -scale * e_k; adding -scale * e_k is
        # subtracting scale * e_k, bit for bit, signed zeros included.
        points = np.kron([[self.scale], [-self.scale]], np.eye(self.dimension))
        points += self.center
        if not np.all(np.isfinite(points)):
            raise ValueError("vertex coordinates must be finite")
        return _vertex_set(points, points.shape)

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
    infinite entry ``ValueError``, before any work is done.  The set
    holds the sign classes and the count; its rows are listed when they
    are first read (see :class:`VertexSet`).  Output order is
    deterministic (lexicographic arrangements, signs toggled from
    all-positive).
    """
    classes = _enum.sign_classes(as_coords(a))
    return _vertex_set(None, (_enum.count_signed_arrangements(classes, cap), sum(classes.counts)),
                       classes)


def enumerate_perm_vertices(a: ArrayLike, cap: int = ENUMERATION_CAP) -> VertexSet:
    """All distinct coordinate permutations of ``a`` (no sign flips), in
    lexicographic order, listed when first read, as
    :func:`enumerate_sign_perm_vertices` lists them.  Entries within
    ``ZERO_TOL`` of each other are one value, for the count and the
    listing alike; a NaN or infinite entry raises ``ValueError``."""
    classes = _enum.sign_classes(as_coords(a), signed=False)
    return _vertex_set(None, (_enum.count_signed_arrangements(classes, cap), sum(classes.counts)),
                       classes)


def _vertex_set(points, shape, classes=None) -> VertexSet:
    """A vertex set of ``shape``, unchecked: either ``points``, a finite
    float array the library built and no caller holds, wrapped uncopied
    and made read-only, or (``points`` None) every row of the listing of
    ``classes``, counted by the caller and listed on first use.
    :meth:`CrossPolytopeSpec.vertices` and every vertex listing build
    their sets here."""
    if points is not None:
        points.setflags(write=False)
    vertices = VertexSet.__new__(VertexSet)
    vertices._points, vertices._shape = points, shape
    vertices._lp, vertices._classes = None, classes
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
    checked as :class:`VertexSet` checks them; a non-finite point
    raises ``ValueError`` and a point of another dimension
    ``DimensionMismatchError``, before a set listed on first use lists
    a row.  A solver that fails to converge or misses that bound raises
    instead.

    A :class:`VertexSet` builds its LP matrix on its first query and
    reuses it; a raw array is wrapped, transposed and dropped on every
    call, so pass one :class:`VertexSet` to ask many points of one set.
    A set listed by :func:`enumerate_sign_perm_vertices` or
    :func:`enumerate_perm_vertices` with more than 2^14 (16,384) rows
    builds no LP matrix: each pivot prices every vertex at once by one
    sort (the rearrangement inequality), and the at most ``n + 1`` basic
    vertices are ranked into the listing at the end.  Its witness may
    differ from the one explicit pricing over the same rows finds, but
    it is checked the same way.  Any other set is priced explicitly:
    every column of its LP matrix at every pivot, however wide.

    Phase 1 aims at its right-hand side ``[x; 1]``: it first tries the
    vertex ``v`` that maximizes ``x . v`` (one product with the LP
    matrix, or one sort) and enters it if that lowers
    the infeasibility; a probe near a vertex then takes a few pivots,
    and an exact vertex one.
    """
    vs = vertices if isinstance(vertices, VertexSet) else VertexSet(vertices)
    xv = as_coords(x)
    if not np.all(np.isfinite(xv)):
        raise ValueError("point coordinates must be finite")
    _check_same_dim(vs.dim, xv.size)
    V = vs.array
    ok, w = simplex._feasible(vs._columns(), np.append(xv, 1.0), tol, aimed=True)
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
    s = _two_points(a, b)
    sa, sb = s.sum(axis=1).tolist()
    gap = abs(sa - sb)
    if not math.isfinite(gap):
        _check_sums(s, (sa, sb))
    return gap > tol


def cross_polytope_volume(n: int, alpha: float) -> float:
    """Volume ``(2*alpha)^n / n!`` of the n-dimensional cross-polytope
    with circumradius ``alpha``, evaluated in log space."""
    _check_dim_scale(n, alpha, "alpha")
    return (_exp(_log_cross_polytope_volume(n, alpha), "cross-polytope volume")
            if alpha > 0.0 else 0.0)


def _log_cross_polytope_volume(n: int, alpha: float) -> float:
    """The log of :func:`cross_polytope_volume`, for ``alpha > 0``."""
    return n * math.log(2.0 * alpha) - math.lgamma(n + 1)


def insphere_radius(n: int, alpha: float) -> float:
    """Radius ``alpha / sqrt(n)`` of the largest ball inside the
    cross-polytope with circumradius ``alpha``."""
    _check_dim_scale(n, alpha, "alpha")
    return alpha / math.sqrt(n)


def ball_volume(n: int, r: float) -> float:
    """Volume ``pi^(n/2) r^n / Gamma(n/2 + 1)`` of the n-ball."""
    _check_dim_scale(n, r, "radius")
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


def _check_dim_scale(n: int, value: float, name: str) -> None:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    _check_scale(value, name)


def _check_scale(value: float, name: str) -> None:
    """Refuse a scale (``alpha``, a radius) that is negative, NaN or
    infinite, by its name: one test and one message for every scale."""
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite nonnegative real")
