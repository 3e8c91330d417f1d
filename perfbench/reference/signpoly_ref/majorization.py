"""Majorization orders and the polytope membership tests they induce.

Membership of a point in the convex hull of all coordinate permutations
of a vector, or of all signed permutations, reduces to comparing partial
sums of descending rearrangements.  This module holds those comparison
predicates together with the point/permutation value types.  Explicit
vertex sets and linear programming live in :mod:`signpoly.geometry`.

All predicates take a tolerance (default ``1e-9``) and treat the hulls
as closed: boundary points, including the vertices themselves, count as
members.  A strict variant is available through ``strict_total``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Union

import numpy as np

from .errors import DimensionMismatchError

DEFAULT_TOL = 1e-9


class EuclideanPoint:
    """Immutable point in n-dimensional Euclidean space.

    Coordinates are copied into a read-only float array at construction;
    entries must be finite and the dimension is fixed for the lifetime of
    the object.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Iterable[float]):
        arr = np.array(list(coords) if not isinstance(coords, np.ndarray) else coords,
                       dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coordinates must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        arr.setflags(write=False)
        self._coords = arr

    @property
    def coords(self) -> np.ndarray:
        """The coordinates as a read-only numpy array."""
        return self._coords

    @property
    def dim(self) -> int:
        return self._coords.size

    def __len__(self) -> int:
        return self._coords.size

    def __iter__(self):
        return iter(self._coords)

    def __getitem__(self, i):
        return self._coords[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, EuclideanPoint):
            return self._coords.shape == other._coords.shape and bool(
                np.all(self._coords == other._coords)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coords.tobytes())

    def __repr__(self) -> str:
        return f"EuclideanPoint({self._coords.tolist()!r})"


PointLike = Union[EuclideanPoint, Sequence[float], np.ndarray]


def as_coords(p: PointLike) -> np.ndarray:
    """Coerce a point-like object to a 1-d float array."""
    if isinstance(p, EuclideanPoint):
        return p.coords
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a nonempty 1-d point")
    return arr


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.size != b.size:
        raise DimensionMismatchError(
            f"points have different dimensions: {a.size} vs {b.size}"
        )


class SignedPermutation:
    """A permutation of ``0..n-1`` together with a sign for each slot.

    Acting on a point ``p`` produces the point whose i-th coordinate is
    ``signs[i] * p[perm[i]]``.
    """

    __slots__ = ("_perm", "_signs")

    def __init__(self, perm: Iterable[int], signs: Iterable[int]):
        perm_t = tuple(int(i) for i in perm)
        signs_t = tuple(int(s) for s in signs)
        n = len(perm_t)
        if sorted(perm_t) != list(range(n)):
            raise ValueError("perm must be a bijection on 0..n-1")
        if len(signs_t) != n or any(s not in (-1, 1) for s in signs_t):
            raise ValueError("signs must be +1/-1 entries matching perm length")
        self._perm = perm_t
        self._signs = signs_t

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(range(n), (1,) * n)

    @property
    def perm(self) -> tuple[int, ...]:
        return self._perm

    @property
    def signs(self) -> tuple[int, ...]:
        return self._signs

    def __len__(self) -> int:
        return len(self._perm)

    def apply(self, p: PointLike) -> EuclideanPoint:
        """Apply the signed permutation to a point of matching dimension."""
        arr = as_coords(p)
        if arr.size != len(self._perm):
            raise DimensionMismatchError(
                f"point has dimension {arr.size}, permutation acts on {len(self._perm)}"
            )
        out = arr[list(self._perm)] * np.array(self._signs, dtype=float)
        return EuclideanPoint(out)

    def __repr__(self) -> str:
        return f"SignedPermutation(perm={self._perm!r}, signs={self._signs!r})"


def sort_desc(p: PointLike) -> EuclideanPoint:
    """Rearrange coordinates in non-increasing order.

    Ties keep their original relative order (stable sort), so the result
    is deterministic for repeated values.
    """
    arr = as_coords(p)
    order = np.argsort(-arr, kind="stable")
    return EuclideanPoint(arr[order])


def _partial_sums_desc(arr: np.ndarray) -> np.ndarray:
    # Only the sorted values matter for partial sums, so plain sort is fine.
    return np.cumsum(np.sort(arr)[::-1])


def majorizes(b: PointLike, a: PointLike, tol: float = DEFAULT_TOL) -> bool:
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


def weakly_majorized(
    x: PointLike,
    a: PointLike,
    tol: float = DEFAULT_TOL,
    strict_total: bool = False,
) -> bool:
    """True when ``x`` is weakly majorized by ``a``.

    Partial sums of the descending rearrangement of ``x`` must stay below
    the matching ones of ``a`` within ``tol``; no equality is required at
    the last index.  By default the final comparison is non-strict, so
    boundary points count.  With ``strict_total`` the total must fall
    short by more than ``tol``, which excludes the outer face.
    """
    xv = as_coords(x)
    av = as_coords(a)
    _check_same_dim(xv, av)
    sx = _partial_sums_desc(xv)
    sa = _partial_sums_desc(av)
    if not np.all(sx[:-1] <= sa[:-1] + tol):
        return False
    if strict_total:
        return bool(sx[-1] < sa[-1] - tol)
    return bool(sx[-1] <= sa[-1] + tol)


def rado_member(x: PointLike, a: PointLike, tol: float = DEFAULT_TOL) -> bool:
    """Membership of ``x`` in the hull of all coordinate permutations of ``a``.

    Equivalent to ``x`` being majorized by ``a``; no vertex set is built.
    """
    return majorizes(a, x, tol=tol)


def sign_perm_member(x: PointLike, a: PointLike, tol: float = DEFAULT_TOL) -> bool:
    """Membership of ``x`` in the hull of all signed permutations of ``a``.

    Both points are first sent to the positive orthant componentwise; in
    that frame the hull is characterized by weak majorization of the
    absolute values.
    """
    xv = as_coords(x)
    av = as_coords(a)
    _check_same_dim(xv, av)
    return weakly_majorized(np.abs(xv), np.abs(av), tol=tol)
