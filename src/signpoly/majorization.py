"""Majorization orders and the polytope membership tests they induce.

Membership of a point in the convex hull of all coordinate permutations
of a vector, or of all signed permutations, reduces to comparing partial
sums of descending rearrangements.  This module holds those comparison
predicates; points are plain 1-d float arrays (anything
:func:`as_coords` accepts).  Explicit vertex sets and linear programming
live in :mod:`signpoly.geometry`.

All predicates take a tolerance (default ``1e-9``) and treat the hulls
as closed: boundary points, including the vertices themselves, count as
members.  A complex, NaN or infinite entry, or a partial sum of finite entries
that overflows the float range, raises ``ValueError``, never a verdict.

Each predicate sorts both points once, then answers from the sorted
entries where they settle the verdict, and sums partial sums only where
they do not (:func:`_settled`): a largest entry above the anchor's is a
non-member, and, for weak majorization, entries at or below the
anchor's one by one are a member.  Both rules give the verdict the sums
would, and run only where the sums would raise nothing.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike

from .errors import DimensionMismatchError

DEFAULT_TOL = 1e-9


def _real_array(p: ArrayLike) -> np.ndarray:
    """``p`` as a float array; complex entries raise ``ValueError``."""
    arr = np.asarray(p)
    if arr.dtype != np.float64:
        if arr.dtype.kind == "c":
            raise ValueError("coordinates must be real, not complex")
        arr = arr.astype(float)
    return arr


def as_coords(p: ArrayLike) -> np.ndarray:
    """Coerce a point (a sequence or array of reals) to a 1-d float array."""
    arr = _real_array(p)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a nonempty 1-d point")
    return arr


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.size != b.size:
        raise DimensionMismatchError(
            f"points have different dimensions: {a.size} vs {b.size}"
        )


def _two_points(p: ArrayLike, q: ArrayLike) -> np.ndarray:
    """``p`` and ``q``, coerced by :func:`as_coords` in that order and
    of one dimension, as the rows of one fresh ``(2, n)`` float array."""
    pv = as_coords(p)
    qv = as_coords(q)
    _check_same_dim(pv, qv)
    return np.array((pv, qv))


def _check_sums(points: np.ndarray, totals: tuple[float, ...]) -> None:
    """Raise on a NaN or infinite entry of ``points``, or on a non-finite
    one of ``totals``, their full sums.  A partial sum of finite entries
    that overflows stays infinite through the full sum, so finite totals
    clear every partial sum; callers whose own result is finite skip
    this, so finite input pays one scalar test."""
    if not np.isfinite(points).all():
        raise ValueError("point coordinates must be finite")
    if not all(math.isfinite(t) for t in totals):
        raise ValueError("partial sums of the coordinates overflow")


def _partial_sums_desc(s: np.ndarray) -> np.ndarray:
    """Partial sums of the descending rearrangement of each row of the
    ``(2, n)`` array ``s``, whose rows are sorted ascending.

    The rows are summed as one array, in one numpy call; an accumulation
    runs along its row in order, so every row equals
    ``np.cumsum(np.sort(v)[::-1])`` of that row bit for bit.
    """
    return s[:, ::-1].cumsum(axis=1)


def _settled(s: np.ndarray, tol: float, weak: bool) -> bool | None:
    """The verdict that the sorted rows of ``s`` settle without partial
    sums, or None when the sums must decide.

    Row 0 is the point tested against the anchor in row 1, each sorted
    ascending.  Both rules hold only where the summed path raises
    nothing, which the rows' end entries tell: a sorted row puts NaN and
    ``+inf`` last and ``-inf`` first, and, rounding being monotone, no
    partial sum of entries at most ``m`` in magnitude exceeds ``2 n m``.

    - Largest entries: the first descending partial sum is the largest
      entry itself, so ``x_max > a_max + tol`` is the summed path's
      first comparison, and the answer is False (for :func:`majorizes`
      too, whose totals test would answer False as well).
    - Domination (``weak`` only): rounded addition is monotone, so when
      sorted ``x <=`` sorted ``a`` entry by entry, every float partial
      sum ``S_k(x) <= S_k(a) <= S_k(a) + tol`` for ``tol >= 0``, and the
      answer is True.

    Only a float ``tol`` is read here (a float plus a ``np.float32``
    rounds in float32, the sums' ``+ tol`` in float64); any other goes
    to the sums, with their arithmetic and errors.
    """
    if not isinstance(tol, float):
        return None
    x_lo, x_hi = s.item(0, 0), s.item(0, -1)
    a_lo, a_hi = s.item(1, 0), s.item(1, -1)
    if not math.isfinite(2.0 * s.shape[1]
                         * (abs(x_lo) + abs(x_hi) + abs(a_lo) + abs(a_hi))):
        return None
    if x_hi > a_hi + tol:
        return False
    # The end entries turn most crossing rows away without a pass.
    if weak and tol >= 0.0 and x_hi <= a_hi and x_lo <= a_lo and (s[0] <= s[1]).all():
        return True
    return None


def majorizes(b: ArrayLike, a: ArrayLike, tol: float = DEFAULT_TOL) -> bool:
    """True when ``a`` is majorized by ``b`` (``a`` precedes ``b``).

    Every partial sum of the descending rearrangement of ``a`` must stay
    below the matching partial sum for ``b`` within ``tol``, and the
    totals must agree within ``tol``.
    """
    s = _two_points(a, b)
    s.sort()
    if _settled(s, tol, weak=False) is not None:
        return False
    sa, sb = _partial_sums_desc(s)
    gap = abs(sa.item(-1) - sb.item(-1))
    if not math.isfinite(gap):
        _check_sums(s, (sa.item(-1), sb.item(-1)))
    if gap > tol:
        return False
    return bool((sa <= sb + tol).all())


def weakly_majorized(x: ArrayLike, a: ArrayLike, tol: float = DEFAULT_TOL) -> bool:
    """True when ``x`` is weakly majorized by ``a``.

    Partial sums of the descending rearrangement of ``x`` must stay below
    the matching ones of ``a`` within ``tol``; no equality is required at
    the last index, and boundary points count.
    """
    return _weakly_majorized(_two_points(x, a), tol)


def _weakly_majorized(s: np.ndarray, tol: float) -> bool:
    """:func:`weakly_majorized` of row 0 of the fresh ``(2, n)`` float
    array ``s`` by its row 1; ``s`` is sorted in place."""
    s.sort()
    verdict = _settled(s, tol, weak=True)
    if verdict is not None:
        return verdict
    sx, sa = _partial_sums_desc(s)
    if not math.isfinite(sx.item(-1) + sa.item(-1)):
        _check_sums(s, (sx.item(-1), sa.item(-1)))
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
    s = _two_points(x, a)
    return _weakly_majorized(np.abs(s, out=s), tol)
