"""The one vertex enumerator, shared by the real and quantum modules.

Entries of a vector are grouped into sign-equivalence classes (``v`` and
``-v`` identified); the distinct signed permutations of the vector are
then exactly the distinct arrangements of class representatives combined
with an independent sign per nonzero slot.  Plain permutations are the
unsigned case: classes of equal values and no sign flips.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

#: Entries this close to zero are the zero class, and class
#: representatives this close to each other are one class.
ZERO_TOL = 1e-12

#: Rows per block yielded by :func:`signed_arrangements`.
BLOCK_ROWS = 1 << 15


def _canonical_rep(v):
    """Pick the representative of {v, -v}: the one with lexicographically
    larger (real, imag) part; for reals this is simply abs(v)."""
    if isinstance(v, complex):
        if (v.real, v.imag) >= ((-v).real, (-v).imag):
            return v
        return -v
    return abs(v)


@dataclass
class SignClasses:
    """Sign-equivalence classes of a vector's entries.

    ``reps[i]`` is the representative value of class ``i`` and
    ``counts[i]`` its multiplicity; ``n_zero`` counts entries treated as
    zero.  ``n`` is the total length, ``m`` the number of nonzero slots.
    Unsigned classes (``signed`` false) are plain values: no zero class
    and no sign flips.
    """

    reps: list
    counts: list[int]
    n_zero: int
    signed: bool = True

    @property
    def n(self) -> int:
        return self.n_zero + sum(self.counts)

    @property
    def m(self) -> int:
        return sum(self.counts)

    @property
    def flips(self) -> int:
        """Number of slots whose sign flips independently."""
        return self.m if self.signed else 0

    def slot_codes(self) -> list[int]:
        """Multiset of class codes, one per slot: 0 for zero entries,
        ``1..k`` for the nonzero classes, in ascending order."""
        codes = [0] * self.n_zero
        for i, c in enumerate(self.counts):
            codes.extend([i + 1] * c)
        return codes


def sign_classes(values, signed: bool = True) -> SignClasses:
    """Group the entries of a real or complex vector into sign classes.

    Entries of magnitude at most ``ZERO_TOL`` are the zero class; the
    rest are canonicalized (``v`` vs ``-v``) and sorted.  Each entry
    joins the first class whose value is within ``ZERO_TOL`` of it (of
    it or of its negative, for complex entries) and is snapped to that
    value; otherwise it starts a class.  Sorted reals can only join the
    last class.  With ``signed`` false the entries of a real vector are
    grouped as they are, by the same rule, with no zero class.
    """
    vals = list(values)
    is_complex = False
    if not signed:
        nonzero = sorted(float(v) for v in vals)
    else:
        is_complex = any(isinstance(v, complex) or np.iscomplexobj(v) for v in vals)
        nonzero = [_canonical_rep(complex(v) if is_complex else float(v))
                   for v in vals if abs(v) > ZERO_TOL]
    n_zero = len(vals) - len(nonzero)
    key = (lambda z: (z.real, z.imag)) if is_complex else (lambda x: x)
    nonzero.sort(key=key)
    reps: list = []
    counts: list[int] = []
    for v in nonzero:
        i = _class_of(v, reps, is_complex)
        if i is None:
            reps.append(v)
            counts.append(1)
        else:
            counts[i] += 1
    return SignClasses(reps=reps, counts=counts, n_zero=n_zero, signed=signed)


def _class_of(v, reps: list, is_complex: bool) -> int | None:
    """Index of the class in ``reps`` that ``v`` joins, if any.

    A canonical complex entry near the imaginary axis can land on either
    side of it, so its class may sit anywhere in the sorted order and
    match only up to sign.
    """
    if not is_complex:
        return len(reps) - 1 if reps and abs(v - reps[-1]) <= ZERO_TOL else None
    for i, r in enumerate(reps):
        if min(abs(v - r), abs(v + r)) <= ZERO_TOL:
            return i
    return None


def count_signed_arrangements(classes: SignClasses) -> int:
    """Exact number of distinct signed permutations, in integer arithmetic:
    ``2^m * n! / (m_1! ... m_k! * n_zero!)`` (no ``2^m`` when unsigned)."""
    total = math.factorial(classes.n) * 2 ** classes.flips
    for c in classes.counts:
        total //= math.factorial(c)
    total //= math.factorial(classes.n_zero)
    return total


def distinct_permutations(items: Sequence) -> Iterator[tuple]:
    """Distinct permutations of a multiset of comparable values, in
    lexicographic order, via the classic next-permutation step."""
    a = sorted(items)
    n = len(a)
    while True:
        yield tuple(a)
        # find the rightmost ascent
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def signed_arrangements(classes: SignClasses) -> Iterator[np.ndarray]:
    """Yield every distinct signed permutation as the rows of ndarray blocks.

    Rows are real, or complex when a representative is complex.
    Arrangements come out in lexicographic code order and, within one
    arrangement, signs flip from all-positive downward, the last nonzero
    slot fastest; the order is deterministic, and distinctness holds by
    construction.  Unsigned classes give each arrangement once.  A block
    holds about ``BLOCK_ROWS`` rows: whole arrangements, or a slice of
    one arrangement's sign rows when it alone has more.
    """
    values = np.array([0.0] + classes.reps)  # complex if any rep is
    flips = classes.flips
    # Row r of the mask flips hot slot j when bit (flips-1-j) of r is set,
    # the itertools.product order; the extra column never flips.
    signs = np.zeros((2 ** flips, flips + 1), dtype=bool)
    signs[:, :flips] = np.arange(2 ** flips)[:, None] >> np.arange(flips)[::-1] & 1
    per_chunk = max(1, BLOCK_ROWS >> flips)
    step = min(len(signs), BLOCK_ROWS)
    arrangements = distinct_permutations(classes.slot_codes())
    while chunk := list(itertools.islice(arrangements, per_chunk)):
        codes = np.array(chunk)
        hot = codes != 0 if classes.signed else np.zeros(codes.shape, dtype=bool)
        slot = np.where(hot, np.cumsum(hot, axis=1) - 1, flips)
        base = values[codes][:, None, :]
        for lo in range(0, len(signs), step):
            mask = signs[lo:lo + step, slot].transpose(1, 0, 2)
            block = np.repeat(base, mask.shape[1], axis=1)
            np.negative(block, out=block, where=mask)
            yield block.reshape(-1, codes.shape[1])
