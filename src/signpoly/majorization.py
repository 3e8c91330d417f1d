"""Majorization orders and the polytope membership tests they induce.

Membership of a point in the convex hull of all coordinate permutations
of a vector, or of all signed permutations, reduces to comparing partial
sums of descending rearrangements.  This module holds those comparison
predicates; points are plain 1-d float arrays (anything
:func:`as_coords` accepts).  Explicit vertex sets and linear programming
live in :mod:`signpoly.geometry`.

All predicates take a tolerance (default ``1e-9``) and treat the hulls
as closed: boundary points, including the vertices themselves, count as
members.  A NaN or infinite entry, or a partial sum of finite entries
that overflows the float range, raises ``ValueError``, never a verdict.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike

from .errors import DimensionMismatchError

DEFAULT_TOL = 1e-9


def as_coords(p: ArrayLike) -> np.ndarray:
    """Coerce a point (a sequence or array of reals) to a 1-d float array."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a nonempty 1-d point")
    return arr


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.size != b.size:
        raise DimensionMismatchError(
            f"points have different dimensions: {a.size} vs {b.size}"
        )


def _check_sums(points: tuple[np.ndarray, ...], totals: tuple[float, ...]) -> None:
    """Raise on a NaN or infinite entry of ``points``, or on a non-finite
    one of ``totals``, their full sums.  A partial sum of finite entries
    that overflows stays infinite through the full sum, so finite totals
    clear every partial sum; callers whose own result is finite skip
    this, so finite input pays one scalar test."""
    if not all(np.isfinite(p).all() for p in points):
        raise ValueError("point coordinates must be finite")
    if not all(math.isfinite(t) for t in totals):
        raise ValueError("partial sums of the coordinates overflow")


def _partial_sums_desc(s: np.ndarray) -> np.ndarray:
    """Partial sums of the descending rearrangement of each row of the
    fresh ``(2, n)`` array ``s``, which is sorted in place.

    The rows are sorted and summed as one array, one numpy call each; an
    accumulation runs along its row in order, so every row equals
    ``np.cumsum(np.sort(v)[::-1])`` of that row bit for bit.
    """
    # Only the sorted values matter for partial sums, so plain sort is fine.
    s.sort()
    return s[:, ::-1].cumsum(axis=1)


def majorizes(b: ArrayLike, a: ArrayLike, tol: float = DEFAULT_TOL) -> bool:
    """True when ``a`` is majorized by ``b`` (``a`` precedes ``b``).

    Every partial sum of the descending rearrangement of ``a`` must stay
    below the matching partial sum for ``b`` within ``tol``, and the
    totals must agree within ``tol``.
    """
    av = as_coords(a)
    bv = as_coords(b)
    _check_same_dim(av, bv)
    sa, sb = _partial_sums_desc(np.array((av, bv)))
    gap = abs(sa.item(-1) - sb.item(-1))
    if not math.isfinite(gap):
        _check_sums((av, bv), (sa.item(-1), sb.item(-1)))
    if gap > tol:
        return False
    return bool((sa <= sb + tol).all())


def weakly_majorized(x: ArrayLike, a: ArrayLike, tol: float = DEFAULT_TOL) -> bool:
    """True when ``x`` is weakly majorized by ``a``.

    Partial sums of the descending rearrangement of ``x`` must stay below
    the matching ones of ``a`` within ``tol``; no equality is required at
    the last index, and boundary points count.
    """
    xv = as_coords(x)
    av = as_coords(a)
    _check_same_dim(xv, av)
    return _weakly_majorized(np.array((xv, av)), tol)


def _weakly_majorized(s: np.ndarray, tol: float) -> bool:
    """:func:`weakly_majorized` of row 0 of the fresh ``(2, n)`` float
    array ``s`` by its row 1; ``s`` is sorted in place."""
    sx, sa = _partial_sums_desc(s)
    if not math.isfinite(sx.item(-1) + sa.item(-1)):
        _check_sums((s,), (sx.item(-1), sa.item(-1)))
    return bool((sx <= sa + tol).all())


def rado_member(x: ArrayLike, a: ArrayLike, tol: float = DEFAULT_TOL) -> bool:
    """Membership of ``x`` in the hull of all coordinate permutations of ``a``.

    Equivalent to ``x`` being majorized by ``a``; no vertex set is built.
    """
    return majorizes(a, x, tol=tol)


def sign_perm_member(x: ArrayLike, a: ArrayLike, tol: float = DEFAULT_TOL) -> bool:
    """Membership of ``x`` in the hull of all signed permutations of ``a``.

    Both points are first sent to the positive orthant componentwise; in
    that frame the hull is characterized by weak majorization of the
    absolute values.
    """
    xv = as_coords(x)
    av = as_coords(a)
    _check_same_dim(xv, av)
    s = np.array((xv, av))
    return _weakly_majorized(np.abs(s, out=s), tol)
