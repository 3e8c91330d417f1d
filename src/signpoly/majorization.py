"""Majorization orders and the polytope membership tests they induce.

Membership of a point in the convex hull of all coordinate permutations
of a vector, or of all signed permutations, reduces to comparing partial
sums of descending rearrangements.  This module holds those comparison
predicates; points are plain 1-d float arrays (anything
:func:`as_coords` accepts).  Explicit vertex sets and linear programming
live in :mod:`signpoly.geometry`.

All predicates take a tolerance (default ``1e-9``) and treat the hulls
as closed: boundary points, including the vertices themselves, count as
members.
"""

from __future__ import annotations

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


def _partial_sums_desc(arr: np.ndarray) -> np.ndarray:
    # Only the sorted values matter for partial sums, so plain sort is fine.
    return np.cumsum(np.sort(arr)[::-1])


def majorizes(b: ArrayLike, a: ArrayLike, tol: float = DEFAULT_TOL) -> bool:
    """True when ``a`` is majorized by ``b`` (``a`` precedes ``b``).

    Every partial sum of the descending rearrangement of ``a`` must stay
    below the matching partial sum for ``b`` within ``tol``, and the
    totals must agree within ``tol``.
    """
    av = as_coords(a)
    bv = as_coords(b)
    _check_same_dim(av, bv)
    sa = _partial_sums_desc(av)
    sb = _partial_sums_desc(bv)
    if abs(sa[-1] - sb[-1]) > tol:
        return False
    return bool(np.all(sa <= sb + tol))


def weakly_majorized(x: ArrayLike, a: ArrayLike, tol: float = DEFAULT_TOL) -> bool:
    """True when ``x`` is weakly majorized by ``a``.

    Partial sums of the descending rearrangement of ``x`` must stay below
    the matching ones of ``a`` within ``tol``; no equality is required at
    the last index, and boundary points count.
    """
    xv = as_coords(x)
    av = as_coords(a)
    _check_same_dim(xv, av)
    sx = _partial_sums_desc(xv)
    sa = _partial_sums_desc(av)
    return bool(np.all(sx <= sa + tol))


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
    return weakly_majorized(np.abs(xv), np.abs(av), tol=tol)
