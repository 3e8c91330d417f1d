"""The one vertex enumerator, shared by the real and quantum modules.

Entries of a vector are grouped into sign-equivalence classes (``v`` and
``-v`` identified); the distinct signed permutations of the vector are
then exactly the distinct arrangements of class representatives combined
with an independent sign per nonzero slot.  Plain permutations are the
unsigned case: classes of equal values and no sign flips.  A NaN or
infinite entry belongs to no class, and is refused before anything is
counted or listed, as :func:`count_signed_arrangements` refuses a count
above the row cap.

Everything is built in numpy, a chunk of arrangements at a time.  An
arrangement is a row of class codes (0 for the zero class, ``1..k`` for
the others), and :func:`distinct_permutations` grows a chunk's rows
from their prefixes in lexicographic order.  The sign rows of an
arrangement depend only on where its zeros sit, so a chunk's signed
rows come from one +-1 table per zero pattern: one gather of the tables
and one product with the arrangements' values.
:func:`signed_arrangements` is the one stream of them: it yields each
block as a :class:`SignBlock`, described but not built, and
:meth:`SignBlock.rows` is the one place a row is built, for a whole
block or for a selection of its rows.

A block's description (codes, zero patterns and sign table) depends
only on the multiset's shape, never on its values; a listing that fits
in one block takes it from a cache of shapes, described at
:func:`signed_arrangements`.

:func:`listing` is the one place an enumeration's result is allocated:
written in place, each row once, or joined from what a filter keeps.
A filter takes a :class:`SignBlock` and returns the rows it keeps,
built, so it may pick rows without building the rest.  Given a limit,
a listing counts every row it keeps but builds only the first
``limit``.  :func:`rank` maps listed rows back to their indices in the
listing, by a binary search over the arrangements.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import _counts
from .errors import EnumerationTooLargeError

#: Default ceiling on the number of rows an enumeration may produce.
ENUMERATION_CAP = 10_000_000

#: Entries this close to zero are the zero class, and class
#: representatives this close to each other are one class.
ZERO_TOL = 1e-12

#: Rows per block yielded by :func:`signed_arrangements`.  A power of
#: two: an arrangement's ``2^flips`` sign rows are walked in steps of
#: ``min(2^flips, BLOCK_ROWS)``, which must divide ``2^flips``, or rows
#: repeat.
BLOCK_ROWS = 1 << 15

#: One-block descriptions :func:`signed_arrangements` keeps, the last
#: ones used, one per multiset shape.
SHAPE_CACHE = 8


def _canonical_rep(v):
    """Pick the representative of {v, -v}: the one with lexicographically
    larger (real, imag) part; for reals this is simply abs(v)."""
    if isinstance(v, complex):
        if (v.real, v.imag) >= ((-v).real, (-v).imag):
            return v
        return -v
    return abs(v)


@dataclass(eq=False)
class SignClasses:
    """Sign-equivalence classes of a vector's entries, stored as
    arrangement codes index them.

    ``values[c]`` is code ``c``'s value, in a read-only array: code 0 is
    the zero class, codes ``1..k`` the representatives in ascending
    order.  ``counts[c]`` is code ``c``'s multiplicity, ``counts[0]`` the
    entries treated as zero.  Unsigned classes (``signed`` false) are
    plain values: an empty zero class and no sign flips.
    """

    values: np.ndarray
    counts: tuple[int, ...]
    signed: bool = True

    @property
    def flips(self) -> int:
        """Number of slots whose sign flips independently: the nonzero
        ones, or none for unsigned classes."""
        return sum(self.counts[1:]) if self.signed else 0

    @functools.cached_property
    def _keys(self) -> np.ndarray:
        """Every arrangement's class codes as one byte string, in
        :func:`distinct_permutations` order, which is ascending; built on
        first use, for :func:`rank`."""
        return _byte_strings(np.concatenate(list(distinct_permutations(self.counts, BLOCK_ROWS))))


def _byte_strings(codes: np.ndarray) -> np.ndarray:
    """Each row of class codes as one byte string, so that the strings
    compare as the rows do lexicographically.  A code fits a byte: 256
    classes would take more than 256! rows."""
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    return codes.view(f"S{codes.shape[1]}").ravel()


def sign_classes(values, signed: bool = True) -> SignClasses:
    """Group the entries of a real or complex vector into sign classes.

    Entries of magnitude at most ``ZERO_TOL`` are the zero class; the
    rest are canonicalized (``v`` vs ``-v``) and sorted.  Each entry
    joins the first class whose value is within ``ZERO_TOL`` of it (of
    it or of its negative, for complex entries) and is snapped to that
    value; otherwise it starts a class.  Sorted reals can only join the
    last class.  With ``signed`` false the entries of a real vector are
    grouped as they are, by the same rule, with no zero class.  A NaN or
    infinite entry raises ``ValueError``: it belongs to no class.
    """
    vals = list(values)
    if not np.isfinite(vals).all():
        raise ValueError("vector entries must be finite")
    is_complex = signed and np.iscomplexobj(vals)
    if not signed:
        nonzero = sorted(float(v) for v in vals)
    else:
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
    values = np.array([0.0, *reps])  # complex if any rep is
    values.setflags(write=False)
    return SignClasses(values, (n_zero, *counts), signed)


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


def count_signed_arrangements(classes: SignClasses, cap=math.inf) -> int:
    """Exact number of distinct signed permutations, in integer arithmetic:
    ``2^m * n! / (m_0! m_1! ... m_k!)`` over the class counts, ``m_0``
    the zeros (no ``2^m`` when unsigned); a count above ``cap`` raises
    ``EnumerationTooLargeError``."""
    count = _multinomial(classes.counts) << classes.flips
    if count > cap:
        raise EnumerationTooLargeError(count, cap)
    return count


def _multinomial(counts) -> int:
    """Distinct arrangements of a multiset with these multiplicities."""
    total = math.factorial(sum(counts))
    for c in counts:
        total //= math.factorial(c)
    return total


def distinct_permutations(counts: Sequence[int], per_chunk: int) -> Iterator[np.ndarray]:
    """Distinct arrangements of the multiset holding ``counts[c]`` copies
    of each code ``c``, in lexicographic order, as the rows of integer
    arrays of ``per_chunk`` rows each (the last may hold fewer).

    Arrangements grow by prefix expansion: each prefix row carries its
    remaining counts, and the nonzero entries of that matrix, read in
    row-major order, are every prefix's one-code extensions in
    lexicographic order.  A prefix with more than ``per_chunk``
    completions is split into its extensions first, depth first; a run
    of consecutive siblings that each fit is completed at once.  Runs
    are cut into chunks in order, a run's leftover rows going to the
    head of the next chunk, so every chunk but the last is full.  No
    temporary holds more than ``len(counts) * per_chunk`` arrangements,
    whatever their total.
    """
    n = sum(counts)
    root = np.zeros((1, n + len(counts)), dtype=np.min_scalar_type(n))
    root[0, n:] = counts
    pending, held = [], 0
    for run in _completions(root, 0, n, per_chunk):
        if held:
            head = per_chunk - held
            pending.append(run[:head])
            if len(run) < head:
                held += len(run)
                continue
            yield np.concatenate(pending)[:, :n]
            run = run[head:]
        full = len(run) - len(run) % per_chunk
        for lo in range(0, full, per_chunk):
            yield run[lo:lo + per_chunk, :n]
        # A copy, so that the run's array is freed before the next run
        # is built.
        pending, held = [run[full:].copy()], len(run) - full
    if held:
        yield np.concatenate(pending)[:, :n]


def _completions(nodes: np.ndarray, depth: int, n: int, per_chunk: int) -> Iterator[np.ndarray]:
    """The completions of the prefix rows ``nodes`` (``depth`` codes in
    the first ``n`` columns, remaining counts after them), in order, as
    one array of completed rows per run of consecutive siblings that
    each have at most ``per_chunk`` completions."""
    fits = [_multinomial(rem) <= per_chunk for rem in nodes[:, n:].tolist()]
    start = 0
    for fit, group in itertools.groupby(fits):
        stop = start + len(list(group))
        if fit:
            run = nodes[start:stop]
            for d in range(depth, n):
                run = _extend(run, d, n)
            yield run
        else:
            for i in range(start, stop):
                yield from _completions(_extend(nodes[i:i + 1], depth, n), depth + 1, n, per_chunk)
        start = stop


def _extend(nodes: np.ndarray, depth: int, n: int) -> np.ndarray:
    """Every one-code extension of the prefix rows ``nodes``, in
    lexicographic order: code ``c`` goes to column ``depth`` and is taken
    from the remaining count in column ``n + c``."""
    width = nodes.shape[1]
    # np.nonzero over the remaining counts, in row-major order; the flat
    # form is several times faster than the two-dimensional one.
    flat = np.flatnonzero(nodes[:, n:] != 0)
    rows = flat // (width - n)
    codes = flat - rows * (width - n)
    nodes = nodes.take(rows, axis=0)
    nodes[:, depth] = codes
    nodes.reshape(-1)[np.arange(len(rows)) * width + n + codes] -= 1
    return nodes


def rank(classes: SignClasses, rows) -> np.ndarray:
    """The index of each of ``rows``, distinct signed permutations of
    ``classes`` (entries equal to the class values), in :func:`listing`
    order: the lexicographic rank of its arrangement, found among the
    classes' arrangements by binary search, times the ``2^flips`` sign
    rows of an arrangement, plus its sign row, whose bits are the
    nonzero slots that are negative, the last slot lowest.  A row that
    is no such permutation gets a wrong index, perhaps past the count,
    and no error: a caller checks what it places by the index."""
    rows = np.asarray(rows, dtype=float)
    if classes.signed:  # the values ascend from the zero class's 0
        codes = np.searchsorted(classes.values, np.abs(rows))
    else:
        codes = np.searchsorted(classes.values[1:], rows) + 1
    keys = classes._keys
    index = np.minimum(np.searchsorted(keys, _byte_strings(codes)), len(keys) - 1)
    if not classes.signed:
        return index
    flips = classes.flips
    bits = np.left_shift(rows < 0.0, flips - np.cumsum(codes != 0, axis=1))
    return (index << flips) + bits.sum(axis=1)


def listing(classes: SignClasses, cap=ENUMERATION_CAP, keep=None,
            limit=None) -> tuple[np.ndarray, int, int]:
    """The distinct signed permutations of ``classes`` that a filter
    keeps, in :func:`signed_arrangements` order, as the rows of one
    read-only array; their number before filtering; and the number kept.
    A number above ``cap`` raises ``EnumerationTooLargeError`` before
    any row is built.

    With no filter every row is kept, the array is allocated once and
    each block is built in place in it, each row written once.  A filter
    ``keep(block, room)`` takes a :class:`SignBlock` and returns the
    number of its rows to keep and the first ``room`` of those rows,
    built.  Given ``limit``, every kept row is counted but only the
    first ``limit`` are built and held; with no filter the stream stops
    there.  A negative ``limit`` raises ``ValueError``.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    count = count_signed_arrangements(classes, cap)
    room = count if limit is None else min(limit, count)
    if keep is None:
        rows = np.empty((room, sum(classes.counts)), dtype=classes.values.dtype)
        blocks, ptr = signed_arrangements(classes), 0
        while ptr < room:
            block = next(blocks)
            size = min(len(block), room - ptr)
            block.rows(None if size == len(block) else np.arange(size),
                       out=rows[ptr:ptr + size])
            ptr += size
        retained = count
    else:
        held, retained = [], 0
        for block in signed_arrangements(classes):
            kept, rows = keep(block, room)
            retained += kept
            room -= len(rows)
            held.append(rows)
        rows = np.concatenate(held)
    rows.setflags(write=False)
    return rows, count, retained


@dataclass
class SignBlock:
    """One block of signed permutations, described before it is built.

    ``codes`` holds a chunk of arrangements (class codes, 0 for the zero
    class) and ``values`` the class values they index.  Each arrangement
    has ``step`` rows, consecutive in the block: row ``a * step + r`` is
    arrangement ``a`` times sign row ``r`` of its zero pattern.
    ``nonzero`` holds the chunk's distinct zero patterns (the nonzero
    slots, one boolean row each) and ``pattern`` the pattern of each
    arrangement.  ``table[p, r]`` is sign row ``r`` of pattern ``p``, a
    +-1 per slot (zero slots read +1) repeated along a last axis over
    the float parts of a value.  Unsigned classes have no sign rows:
    ``table`` is None and an arrangement's values are its one row.

    Everything but ``values`` is the description, which depends only on
    the multiset's shape.  A one-block listing shares a cached one,
    read-only and with a ``memo`` for :meth:`derived` (see
    :func:`signed_arrangements`); a streamed block has its own
    description and no memo.
    """

    values: np.ndarray
    codes: np.ndarray
    nonzero: np.ndarray | None = None
    pattern: np.ndarray | None = None
    table: np.ndarray | None = None
    memo: dict | None = field(default=None, repr=False, compare=False)

    @property
    def step(self) -> int:
        return 1 if self.table is None else self.table.shape[1]

    def __len__(self) -> int:
        return len(self.codes) * self.step

    def derived(self, fn):
        """``fn(self)``, computed once per cached description and kept in
        its memo (made read-only, if an array or a tuple of arrays), or
        computed afresh on a streamed block.  ``fn`` must read the
        description alone, never ``values``: every listing of the shape
        shares what it returns."""
        if self.memo is None:
            return fn(self)
        if fn not in self.memo:
            value = fn(self)
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
            self.memo[fn] = value
        return self.memo[fn]

    def rows(self, select=None, out=None) -> np.ndarray:
        """The block's rows, or the rows at the ascending indices
        ``select``, computed in ``out`` when given: the one place a row
        is built.  A sign flip is a product by -1 on the float view,
        exact on both parts of a complex entry."""
        size = len(self) if select is None else len(select)
        _counts.COUNTS.built += size
        if out is None:
            out = np.empty((size, self.codes.shape[1]), dtype=self.values.dtype)
        if self.table is None:
            codes = self.codes if select is None else self.codes[select]
            np.take(self.values, codes, out=out, mode="clip")
            return out
        parts = self.values.view(float).reshape(len(self.values), -1)
        if select is None:
            rows = out.view(float).reshape(len(self.codes), *self.table.shape[1:])
            np.take(self.table, self.pattern, axis=0, out=rows, mode="clip")
            rows *= parts[self.codes][:, None]
        else:
            a, r = np.divmod(select, self.step)
            signs = self.table.reshape(-1, *self.table.shape[2:])
            rows = out.view(float).reshape(size, *self.table.shape[2:])
            np.take(signs, self.pattern[a] * self.step + r, axis=0, out=rows, mode="clip")
            rows *= parts.take(self.codes[a], axis=0)
        return out


def signed_arrangements(classes: SignClasses) -> Iterator[SignBlock]:
    """Every distinct signed permutation of ``classes``, in blocks
    described but not built (:class:`SignBlock`); the consumer builds
    the rows it needs, so one that drops the blocks streams in bounded
    memory.

    Rows are real, or complex when a representative is complex.
    Arrangements come out in lexicographic code order and, within one
    arrangement, signs flip from all-positive downward, the last nonzero
    slot fastest; the order is deterministic, and distinctness holds by
    construction.  Unsigned classes give each arrangement once.  Every
    block but the last holds ``BLOCK_ROWS`` rows: a chunk of whole
    arrangements sharing one +-1 sign table per zero pattern, or a slice
    of one arrangement's sign rows when it alone has more.

    A block's description never reads a value.  A listing that fits in
    one block, of at most ``BLOCK_ROWS`` rows and ``8 * BLOCK_ROWS``
    entries, takes its description from an LRU cache of the last
    ``SHAPE_CACHE`` shapes, keyed by ``(counts, signed, float parts)``,
    every array read-only.  The key holds no block size: such a
    description is one chunk of every arrangement, each with all its
    ``2^flips`` sign rows, whatever ``BLOCK_ROWS`` is.  A cached shape
    holds one block's description, whose sign table has at most as many
    floats as the block's rows, plus its :meth:`SignBlock.derived` memo,
    for what a filter derives from the description alone: under 8 MiB in
    the worst case, and about 0.3 MB for the README state with its w-type
    memo.
    Listings of one shape repeated in one process describe it once; a
    one-shot ``signpoly`` process describes each shape once, as before.
    Longer listings are described block by block as they stream, and
    keep nothing.
    """
    values = classes.values
    shape = (classes.counts, classes.signed, values.view(float).size // len(values))
    count = count_signed_arrangements(classes)
    if count <= BLOCK_ROWS and count * sum(classes.counts) <= 8 * BLOCK_ROWS:
        *description, memo = _shape_description(*shape)
        blocks = [SignBlock(values, *description, memo=memo)]
    else:
        blocks = (SignBlock(values, *description) for description in _descriptions(*shape))
    for block in blocks:
        counts = _counts.COUNTS
        counts.blocks += 1
        counts.streamed += len(block)
        yield block


@functools.lru_cache(maxsize=SHAPE_CACHE)
def _shape_description(counts: tuple, signed: bool, parts: int) -> tuple:
    """The one block description of a shape that fits in one block, its
    arrays read-only, and an empty memo for :meth:`SignBlock.derived`."""
    (codes, *rest), = _descriptions(counts, signed, parts)
    # A copy: the chunk may be a view of a wider array of prefixes.
    description = (codes.copy(), *rest)
    for array in description:
        if array is not None:
            array.setflags(write=False)
    return (*description, {})


def _descriptions(counts: tuple, signed: bool, parts: int) -> Iterator[tuple]:
    """The ``(codes, nonzero, pattern, table)`` of each block of
    :func:`signed_arrangements`, for classes of these ``counts`` (the
    zeros first), each value of ``parts`` floats, in blocks of
    ``BLOCK_ROWS`` rows; no value is read."""
    flips = sum(counts[1:]) if signed else 0
    per_chunk = max(1, BLOCK_ROWS >> flips)
    step = min(1 << flips, BLOCK_ROWS)
    bits = np.arange(flips)[::-1]
    for codes in distinct_permutations(counts, per_chunk):
        if not signed:
            _counts.COUNTS.described += 1
            yield codes, None, None, None
            continue
        nonzero, pattern = _zero_patterns(codes != 0)
        # Row r of ``signs`` flips nonzero slot j when bit (flips-1-j) of
        # r is set, the itertools.product order; zeros read its last
        # column, which never flips.
        slot = np.where(nonzero, np.cumsum(nonzero, axis=1) - 1, flips)
        for lo in range(0, 1 << flips, step):
            signs = np.ones((step, flips + 1))
            signs[:, :flips] -= 2 * (np.arange(lo, lo + step)[:, None] >> bits & 1)
            table = np.empty((len(nonzero), step, codes.shape[1], parts))
            table[...] = signs[:, slot].transpose(1, 0, 2)[..., None]
            _counts.COUNTS.described += 1
            yield codes, nonzero, pattern, table


def _zero_patterns(hot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the boolean matrix ``hot``, and the index of
    each row's pattern among them (what ``np.unique(hot, axis=0,
    return_inverse=True)`` gives, up to order, at a tenth of its cost)."""
    order = np.lexsort(hot.T)
    ranked = hot[order]
    new = np.ones(len(hot), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    pattern = np.empty(len(hot), dtype=np.intp)
    pattern[order] = np.cumsum(new) - 1
    return ranked[new], pattern
