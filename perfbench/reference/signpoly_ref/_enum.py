"""Internal enumeration helpers shared by the real and quantum modules.

Entries of a vector are grouped into sign-equivalence classes (``v`` and
``-v`` identified); the distinct signed permutations of the vector are
then exactly the distinct arrangements of class representatives combined
with an independent sign per nonzero slot.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

ZERO_TOL = 1e-12


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
    """

    reps: list
    counts: list[int]
    n_zero: int

    @property
    def n(self) -> int:
        return self.n_zero + sum(self.counts)

    @property
    def m(self) -> int:
        return sum(self.counts)

    def slot_codes(self) -> list[int]:
        """Multiset of class codes, one per slot: 0 for zero entries,
        ``1..k`` for the nonzero classes, in ascending order."""
        codes = [0] * self.n_zero
        for i, c in enumerate(self.counts):
            codes.extend([i + 1] * c)
        return codes


def sign_classes(values, zero_tol: float = ZERO_TOL) -> SignClasses:
    """Group the entries of a real or complex vector into sign classes.

    Entries of magnitude at most ``zero_tol`` are the zero class; the
    rest are canonicalized (``v`` vs ``-v``), sorted, and chained into
    groups whenever consecutive representatives differ by at most
    ``zero_tol``.  Each group is snapped to its first value.
    """
    vals = list(values)
    is_complex = any(isinstance(v, complex) or np.iscomplexobj(v) for v in vals)
    nonzero = [_canonical_rep(complex(v) if is_complex else float(v))
               for v in vals if abs(v) > zero_tol]
    n_zero = len(vals) - len(nonzero)
    if not nonzero:
        return SignClasses(reps=[], counts=[], n_zero=n_zero)
    key = (lambda z: (z.real, z.imag)) if isinstance(nonzero[0], complex) else (lambda x: x)
    nonzero.sort(key=key)
    reps = [nonzero[0]]
    counts = [1]
    for v in nonzero[1:]:
        if abs(v - reps[-1]) <= zero_tol:
            counts[-1] += 1
        else:
            reps.append(v)
            counts.append(1)
    return SignClasses(reps=reps, counts=counts, n_zero=n_zero)


def count_signed_arrangements(classes: SignClasses) -> int:
    """Exact number of distinct signed permutations, in integer arithmetic:
    ``2^m * n! / (m_1! ... m_k! * n_zero!)``."""
    total = math.factorial(classes.n) * 2 ** classes.m
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


def signed_arrangements(classes: SignClasses) -> Iterator[list]:
    """Yield every distinct signed permutation as a list of entry values.

    Arrangements come out in lexicographic code order and, within one
    arrangement, signs flip from all-positive downward; the order is
    deterministic, and distinctness holds by construction.
    """
    zero = 0j if any(isinstance(r, complex) for r in classes.reps) else 0.0
    reps = classes.reps
    for arrangement in distinct_permutations(classes.slot_codes()):
        base = [zero if c == 0 else reps[c - 1] for c in arrangement]
        hot = [i for i, c in enumerate(arrangement) if c != 0]
        for signs in itertools.product((1, -1), repeat=len(hot)):
            vec = list(base)
            for pos, s in zip(hot, signs):
                if s < 0:
                    vec[pos] = -vec[pos]
            yield vec
