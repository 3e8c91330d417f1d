import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from signpoly import (
    CrossPolytopeSpec,
    DimensionMismatchError,
    EnumerationTooLargeError,
    PureState,
    SolverFailureError,
    VertexSet,
    ball_volume,
    count_sign_perm_vertices,
    cross_polytope_volume,
    enumerate_perm_vertices,
    enumerate_pure_sign_perms,
    enumerate_sign_perm_vertices,
    from_coords,
    hull_member_lp,
    hulls_disjoint,
    insphere_radius,
    make_canonical,
    rado_member,
    sign_perm_member,
)
from signpoly import _enum, simplex
from signpoly.geometry import _SORT_ABOVE, _witness_violation
from signpoly.quantum import _tangle_classes
from signpoly.simplex import feasible_nonneg


# ---------------------------------------------------------------- vertex sets

class TestVertexSet:
    def test_construction_and_access(self):
        v = VertexSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert len(v) == 2
        assert v.dim == 2
        np.testing.assert_array_equal(v[1], [3.0, 4.0])
        assert not v[1].flags.writeable
        assert [tuple(p) for p in v] == [(1.0, 2.0), (3.0, 4.0)]

    def test_rows_kept_as_given(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0],
                         [1.0 + 1e-13, 0.0], [1.0 + 1e-6, 0.0]])
        v = VertexSet(rows)
        np.testing.assert_array_equal(v.array, rows)
        assert rows.flags.writeable  # a writable input is copied, not frozen

    # A VertexSet keeps repeats; the vertex sets the enumerators build have
    # none, because equal entries are one class before any row is listed.
    def test_exact_duplicates_removed(self):
        v = enumerate_sign_perm_vertices([1.0, 0.0, 1.0])
        assert len(v) == 12  # 2^2 * 3! / 2!, not 2^2 * 3!
        assert len(np.unique(v.array, axis=0)) == 12

    def test_tolerance_duplicates_removed(self):
        assert len(enumerate_sign_perm_vertices([1.0, 1.0 + 1e-13])) == 4
        assert len(enumerate_sign_perm_vertices([-1.0, 1.0 + 1e-13])) == 4
        assert len(enumerate_sign_perm_vertices([1.0, 1.0 + 1e-6])) == 8

    def test_read_only_view_is_copied(self):
        """A read-only array can still change through a writable array
        sharing its memory: the writable base of a read-only view, or a
        writable view made before an array that owns its data was
        frozen.  So the set copies either: doubling through the
        writable array changes neither the points nor a hull answer
        cached from them."""
        for frozen in ("view", "owner"):
            base = np.vstack([np.eye(2), -np.eye(2)])
            view = base[:]
            held, writer = (view, base) if frozen == "view" else (base, view)
            held.setflags(write=False)
            v = VertexSet(held)
            assert v.array is not held
            assert hull_member_lp([1.5, 0.0], v) == (False, None)
            writer *= 2.0
            np.testing.assert_array_equal(v.array,
                                          np.vstack([np.eye(2), -np.eye(2)]))
            assert hull_member_lp([1.5, 0.0], v) == (False, None)

    def test_points_are_read_only(self):
        v = VertexSet(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            v.array[0, 0] = 9.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            VertexSet(np.empty((0, 3)))
        with pytest.raises(ValueError):
            VertexSet(np.array([[np.inf, 0.0]]))

    def test_accepts_point_iterables(self):
        v = VertexSet([np.array([1, 2]), [3, 4]])
        assert len(v) == 2


class TestCrossPolytopeSpec:
    def test_vertices(self):
        spec = CrossPolytopeSpec(0.4, [0.0, 0.0, 0.0])
        assert spec.dimension == 3
        v = spec.vertices()
        assert len(v) == 6
        sums = np.sort(np.abs(v.array).sum(axis=1))
        np.testing.assert_allclose(sums, 0.4)

    def test_offset_center(self):
        spec = CrossPolytopeSpec(1.0, [5.0, -1.0])
        arr = spec.vertices().array
        assert {tuple(r) for r in arr} == {(6.0, -1.0), (4.0, -1.0),
                                           (5.0, 0.0), (5.0, -2.0)}

    def test_derived_quantities(self):
        spec = CrossPolytopeSpec(1.0, np.zeros(3))
        assert spec.volume() == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert spec.insphere_radius() == pytest.approx(1.0 / math.sqrt(3.0))
        assert spec.edge_length() == pytest.approx(math.sqrt(2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            CrossPolytopeSpec(1.0, [])
        with pytest.raises(ValueError):
            CrossPolytopeSpec(1.0, [[0.0, 0.0]])
        with pytest.raises(ValueError):
            CrossPolytopeSpec(1.0, [0.0, np.nan])
        with pytest.raises(ValueError):
            CrossPolytopeSpec(-0.5, [0.0, 0.0])

    def test_center_is_a_read_only_copy(self):
        center = np.array([1.0, 2.0])
        spec = CrossPolytopeSpec(1.0, center)
        center[0] = 9.0
        assert spec.center[0] == 1.0
        with pytest.raises(ValueError):
            spec.center[0] = 5.0

    def test_degenerate_scale_zero(self):
        spec = CrossPolytopeSpec(0.0, [1.0, 1.0])
        assert spec.volume() == 0.0
        v = spec.vertices()  # all 2n vertices collapse to the center
        np.testing.assert_array_equal(v.array, np.ones((4, 2)))

    def test_vertices_are_read_only_and_finite(self):
        spec = CrossPolytopeSpec(1.0, [-0.0, 2.0])
        arr = spec.vertices().array
        assert not arr.flags.writeable
        # Bit for bit center + scale * e_k and center - scale * e_k.
        eye = np.eye(2)
        assert arr.tobytes() == np.vstack([spec.center + eye, spec.center - eye]).tobytes()
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            CrossPolytopeSpec(1e308, [1e308, 0.0]).vertices()


# ---------------------------------------------------------------- counting

def test_count_examples():
    assert count_sign_perm_vertices([1.0, 2.0, 3.0]) == 48
    assert count_sign_perm_vertices([1.0, 0.0, 0.0]) == 6
    assert count_sign_perm_vertices([1.0, 1.0, 0.0]) == 12     # cuboctahedron
    assert count_sign_perm_vertices([0.5, 0.5, 0.5]) == 8      # cube
    assert count_sign_perm_vertices([0.0, 0.0]) == 1
    assert count_sign_perm_vertices([1.0, 2.0, 0.0, 0.0]) == 48


def test_count_eight_vector_four_distinct():
    # four distinct nonzero magnitudes in an 8-vector: 2^4 * 8!/4! = 26880
    a = [0.758, 0.0, 0.809, 0.0, 0.0, 0.588, 0.0, 0.242]
    assert count_sign_perm_vertices(a) == 26880


def test_count_sign_insensitive():
    assert count_sign_perm_vertices([-1.0, 2.0, -3.0]) == 48
    # +v and -v fall in one class: only one distinct magnitude here
    assert count_sign_perm_vertices([1.5, -1.5]) == 4


def test_count_near_zero_grouping():
    assert count_sign_perm_vertices([1.0, 1e-13, 0.0]) == 6
    assert count_sign_perm_vertices([1.0, 1e-11, 0.0]) == 24   # above the snap tol


def test_enumerate_matches_count_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        # half-integer entries force plenty of ties and zeros
        a = rng.integers(-4, 5, size=n) / 2.0
        expected = count_sign_perm_vertices(a)
        got = enumerate_sign_perm_vertices(a)
        assert len(got) == expected


# Ties, near-ties (+-1e-13) and near-zeros: every entry is a grid value
# plus an offset far below the 1e-12 class tolerance.
_GRID = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
_OFFSET = st.sampled_from([0.0, 1e-13, -1e-13])
_ENTRY = st.tuples(_GRID, _OFFSET).map(sum)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["signed", "unsigned", "complex"]),
       re=st.lists(_ENTRY, min_size=2, max_size=5),
       im=st.lists(_ENTRY, min_size=5, max_size=5))
def test_enumeration_counts_distinct_members(kind, re, im):
    a = np.array(re)
    if kind == "signed":
        V = enumerate_sign_perm_vertices(a).array
        count = count_sign_perm_vertices(a)
        assert all(sign_perm_member(v, a) for v in V)
    elif kind == "unsigned":
        V = enumerate_perm_vertices(a).array
        with pytest.raises(EnumerationTooLargeError) as exc:
            enumerate_perm_vertices(a, cap=len(V) - 1)
        count = exc.value.count
        assert all(rado_member(v, a) for v in V)
    else:
        amps = a + 1j * np.array(im[:a.size])
        assume(np.abs(amps).max() >= 0.5)
        res = enumerate_pure_sign_perms(PureState.normalized(amps)[0])
        V = res.amplitudes.view(float)
        count = res.total
    assert count == len(V)
    assert len(np.unique(V, axis=0)) == len(V)


@pytest.mark.parametrize("amps", [[1e-13 + 1j, 1e-13 - 1j],
                                  [1e-13 + 1j, -1e-13 - 1j]])
def test_near_axis_complex_entries_share_a_class(amps):
    # the two entries are negatives of each other within 2e-13, whichever
    # side of the imaginary axis their real parts fall
    res = enumerate_pure_sign_perms(PureState.normalized(amps)[0])
    assert res.total == res.retained == 4
    V = res.amplitudes
    gaps = np.abs(V[:, None, :] - V[None, :, :]).max(axis=2)
    assert gaps[~np.eye(len(V), dtype=bool)].min() > 0.5


def test_enumerate_outputs_are_members():
    a = np.array([1.0, -2.0, 0.5])
    for v in enumerate_sign_perm_vertices(a):
        assert sign_perm_member(v, a)


def test_enumerate_deterministic_order():
    # lexicographic arrangements of the class codes (0 for the zero, then
    # 1.0, 2.0), signs toggled from all-positive, the last slot fastest
    rows = [[0, 1, 2], [0, 1, -2], [0, -1, 2], [0, -1, -2],
            [0, 2, 1], [0, 2, -1], [0, -2, 1], [0, -2, -1],
            [1, 0, 2], [1, 0, -2], [-1, 0, 2], [-1, 0, -2],
            [1, 2, 0], [1, -2, 0], [-1, 2, 0], [-1, -2, 0],
            [2, 0, 1], [2, 0, -1], [-2, 0, 1], [-2, 0, -1],
            [2, 1, 0], [2, -1, 0], [-2, 1, 0], [-2, -1, 0]]
    got = enumerate_sign_perm_vertices([1.0, 2.0, 0.0]).array
    assert got.tobytes() == np.array(rows, dtype=float).tobytes()


def test_enumerate_sign_rows_beyond_one_block():
    # 2^16 sign rows of one arrangement span several blocks, in order
    got = enumerate_sign_perm_vertices(np.ones(16)).array
    want = np.array(list(itertools.product((1.0, -1.0), repeat=16)))
    np.testing.assert_array_equal(got, want)


#: Each listing that takes a cap, by the cap it is called with; a vertex
#: set is listed when its array is read.
_CAPPED_LISTINGS = {
    "signed": lambda cap: enumerate_sign_perm_vertices([1.0, 2.0, 3.0], cap=cap).array,
    "unsigned": lambda cap: enumerate_perm_vertices([1.0, 2.0, 3.0, 4.0], cap=cap).array,
    "amplitudes": lambda cap: enumerate_pure_sign_perms(make_canonical("w"), cap=cap),
    "bloch": lambda cap: enumerate_pure_sign_perms(
        PureState.normalized([1.0, 0.3 + 0.5j])[0], target="bloch", cap=cap),
    "w-type": lambda cap: enumerate_pure_sign_perms(make_canonical("w"), filter="w-type", cap=cap),
}


@pytest.mark.parametrize("listing, total", [
    ("signed", 48), ("unsigned", 24), ("amplitudes", 448), ("bloch", 48), ("w-type", 448),
], ids=list(_CAPPED_LISTINGS))
def test_enumeration_cap(listing, total, monkeypatch):
    """A cap equal to the count lists every row; one below it raises
    with the count and the cap before the enumerator is entered."""
    listed = []
    enumerate_rows = _enum.signed_arrangements

    def counted(*args):
        for block in enumerate_rows(*args):
            listed.append(len(block))
            yield block

    monkeypatch.setattr(_enum, "signed_arrangements", counted)
    _CAPPED_LISTINGS[listing](total)
    assert sum(listed) == total

    def never_listed(*args):
        raise AssertionError("listing started")

    monkeypatch.setattr(_enum, "signed_arrangements", never_listed)
    with pytest.raises(EnumerationTooLargeError) as exc:
        _CAPPED_LISTINGS[listing](total - 1)
    assert (exc.value.count, exc.value.cap) == (total, total - 1)


def test_enumerate_perm_vertices():
    v = enumerate_perm_vertices([1.0, 2.0, 3.0])
    assert len(v) == 6
    assert {tuple(p) for p in v} == set(itertools.permutations((1.0, 2.0, 3.0)))
    assert len(enumerate_perm_vertices([1.0, 1.0, 2.0])) == 3
    with pytest.raises(EnumerationTooLargeError):
        enumerate_perm_vertices(list(range(12)), cap=100)


def test_enumerate_perm_vertices_counts_what_it_lists():
    # a near-tie is one value for the cap check and the listing alike
    v = enumerate_perm_vertices([1.0, 1.0 + 1e-13], cap=1)
    assert len(v) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_refused_before_counting(bad, monkeypatch):
    def never_listed(classes):
        raise AssertionError("listing started")
        yield

    monkeypatch.setattr(_enum, "signed_arrangements", never_listed)
    for call in (count_sign_perm_vertices, enumerate_sign_perm_vertices,
                 enumerate_perm_vertices):
        with pytest.raises(ValueError, match="entries must be finite"):
            call([bad, 1.0])


def _itertools_rows(classes) -> np.ndarray:
    """The enumerator's rows rebuilt one by one: sorted distinct
    permutations of the class codes (0 for zeros), each followed by its
    sign rows in ``itertools.product((1, -1))`` order over the nonzero
    slots."""
    values = classes.values.tolist()
    codes = [c for c, m in enumerate(classes.counts) for _ in range(m)]
    rows = []
    for arrangement in sorted(set(itertools.permutations(codes))):
        hot = [j for j, c in enumerate(arrangement) if c and classes.signed]
        for signs in itertools.product((1, -1), repeat=len(hot)):
            row = [values[c] for c in arrangement]
            for j, s in zip(hot, signs):
                if s < 0:
                    row[j] = -row[j]
            rows.append(row)
    return np.array(rows, dtype=classes.values.dtype)


# Zeros of both signs, ties, +-1e-13 near-ties and near-zeros; complex
# entries with a zero real part and a negative imaginary part, whose
# class representative has a real part of -0.0.
_ORACLE_INPUTS = {
    "signed": ([2.0, -1.0, 0.0, 1.0 + 1e-13, -0.0, 2.0 - 1e-13, 1e-13], True),
    "unsigned": ([3.0, -1.0, 0.0, -0.0, 3.0 + 1e-13, 1e-13, -1.0], False),
    "complex": ([-1j, 0.0, 1e-13 + 1j, 0.5 - 0.5j, -0.5 + 0.5j, complex(-0.0, -2.0)], True),
    # 105 rows; at 8 rows a block, some runs of sibling prefixes fit
    # whole in the chunk that the leftover of the run before opened.
    "unsigned_carry": ([1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0], False),
}


@pytest.mark.parametrize("block_rows", [1, 4, 8])
@pytest.mark.parametrize("kind", sorted(_ORACLE_INPUTS))
def test_enumerator_matches_itertools_byte_for_byte(kind, block_rows, monkeypatch):
    values, signed = _ORACLE_INPUTS[kind]
    classes = _enum.sign_classes(np.array(values), signed=signed)
    monkeypatch.setattr(_enum, "BLOCK_ROWS", block_rows)
    blocks = [block.rows() for block in _enum.signed_arrangements(classes)]
    assert all(len(b) == block_rows for b in blocks[:-1])
    assert 0 < len(blocks[-1]) <= block_rows
    got = np.concatenate(blocks)
    want = _itertools_rows(classes)
    assert len(want) == _enum.count_signed_arrangements(classes)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # The listing gives the same rows written in place, or streamed
    # through a filter that keeps every row, read-only either way; given
    # a limit, it holds the first rows and still counts them all.
    filters = ({}, {"keep": lambda block, room: (len(block),
                                                 block.rows(np.arange(len(block))[:room]))})
    for kwargs, limit in itertools.product(filters, (None, 0, 5, len(want) + 1)):
        rows, count, retained = _enum.listing(classes, limit=limit, **kwargs)
        assert count == retained == len(want)
        assert rows.dtype == want.dtype and not rows.flags.writeable
        assert rows.tobytes() == want[:limit].tobytes()


def test_block_rows_is_a_power_of_two():
    # Sign rows are walked in steps of min(2^flips, BLOCK_ROWS), which
    # must divide 2^flips.
    assert bin(_enum.BLOCK_ROWS).count("1") == 1


# ---------------------------------------------------------------- shape cache

#: Listings of each kind for the shape cache: real, complex, unsigned,
#: all-zero and tied (equal up to sign, and a near-tie), and two of at
#: most four rows, which fit one block at ``BLOCK_ROWS`` = 4 too.
_SHAPE_INPUTS = {
    "real": ([3.0, -1.0, 0.0, 2.0], True),
    "complex": ([1j, 0.5 - 0.5j, 0.0, 2.0], True),
    "unsigned": ([3.0, 1.0, 2.0, 1.0], False),
    "all_zero": ([0.0, -0.0, 0.0], True),
    "tied": ([2.0, -2.0, 1.0, 0.0, 1.0 + 1e-13], True),
    "four_rows": ([0.0, -1.5], True),
    "four_rows_complex": ([0.5 - 0.5j, 0.0], True),
}


def _same_shape(kind: str, k: int) -> tuple[np.ndarray, bool]:
    """The input ``kind`` reversed and scaled by ``k + 1``: new values of
    the same multiset shape, with the classes in the same order."""
    values, signed = _SHAPE_INPUTS[kind]
    return (k + 1.0) * np.array(values)[::-1], signed


def _resident_bytes(block) -> int:
    """The bytes a cached block's description and memo hold."""
    arrays = [block.codes, block.nonzero, block.pattern, block.table]
    for value in block.memo.values():
        arrays += value if isinstance(value, tuple) else [value]
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


@pytest.mark.parametrize("kind", sorted(_SHAPE_INPUTS))
def test_same_shape_listings_share_one_read_only_description(kind):
    first, second = (next(_enum.signed_arrangements(_enum.sign_classes(*_same_shape(kind, k))))
                     for k in (0, 1))
    assert second.codes is first.codes and second.table is first.table
    assert second.memo is first.memo is not None
    described = [a for a in (first.codes, first.nonzero, first.pattern, first.table)
                 if a is not None]
    for array in described:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


@pytest.mark.parametrize("block_rows", [None, 4])
@pytest.mark.parametrize("kind", sorted(_SHAPE_INPUTS))
def test_warm_listings_match_cold_ones_byte_for_byte(kind, block_rows, monkeypatch):
    """Listings from a warm cache give the rows of listings after
    ``cache_clear()``, byte for byte, and the enumerator's order.  The
    cache is warmed at the default block size before ``BLOCK_ROWS``
    changes, so a description is served only at the size it was built
    for: no block may outgrow ``BLOCK_ROWS``."""
    inputs = [_same_shape(kind, k) for k in range(3)]
    for values, signed in inputs:
        _enum.listing(_enum.sign_classes(values, signed))
    if block_rows is not None:
        monkeypatch.setattr(_enum, "BLOCK_ROWS", block_rows)

    def listed(values, signed):
        classes = _enum.sign_classes(values, signed)
        blocks = [block.rows() for block in _enum.signed_arrangements(classes)]
        assert all(len(b) <= _enum.BLOCK_ROWS for b in blocks)
        rows, count, retained = _enum.listing(classes, limit=3)
        return np.concatenate(blocks).tobytes(), rows.tobytes(), count, retained

    warm = [listed(*given) for given in inputs]
    cold = []
    for given in inputs:
        _enum._shape_description.cache_clear()
        cold.append(listed(*given))
    assert warm == cold
    for (values, signed), (got, *_) in zip(inputs, warm):
        assert got == _itertools_rows(_enum.sign_classes(values, signed)).tobytes()


def test_streamed_listings_keep_nothing(monkeypatch):
    """A listing of more than ``BLOCK_ROWS`` rows, or of one block of
    more than ``8 * BLOCK_ROWS`` entries, is described block by block:
    the cache is neither read nor grown, and no block has a memo."""
    before = _enum._shape_description.cache_info()
    wide = _enum.sign_classes([1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0])  # 80,640 rows
    assert _enum.count_signed_arrangements(wide) > _enum.BLOCK_ROWS
    assert all(block.memo is None for block in _enum.signed_arrangements(wide))
    monkeypatch.setattr(_enum, "BLOCK_ROWS", 4)
    long_row = _enum.sign_classes(np.zeros(33))  # one row of 33 > 32 entries
    (block,) = _enum.signed_arrangements(long_row)
    assert block.memo is None
    assert _enum._shape_description.cache_info() == before


def test_shape_cache_residency_is_bounded():
    """The cache holds the last ``SHAPE_CACHE`` shapes.  Each keeps one
    block's description, whose sign table has no more floats than the
    block's rows, plus its memo: at most twice the built rows and under
    8 MiB, and about 0.3 MB, a tenth of its rows, for the w-type
    README state."""
    _enum._shape_description.cache_clear()
    for k in range(1, _enum.SHAPE_CACHE + 3):
        _enum.listing(_enum.sign_classes(np.zeros(k)))
    assert _enum._shape_description.cache_info().currsize == _enum.SHAPE_CACHE
    readme = np.zeros(8, dtype=complex)
    readme[[0, 2, 5, 7]] = [0.758j, 0.809 - 0.588j, 0.809 + 0.588j, 0.242]
    psi = PureState.normalized(readme)[0]
    enumerate_pure_sign_perms(psi, filter="w-type")
    # 12 complex entries, 8 of them zero: 7,920 rows, 95,040 entries; and 5,040
    # unsigned rows of 7 entries.
    inputs = [(psi.amplitudes, True), (np.r_[np.zeros(8), np.full(4, 1j)], True),
              (np.arange(7.0), False)]
    for values, signed in inputs:
        (block,) = _enum.signed_arrangements(_enum.sign_classes(values, signed))
        assert block.memo is not None
        rows = block.rows()
        if block.table is not None:
            assert block.table.nbytes <= rows.nbytes
        assert _resident_bytes(block) <= min(2 * rows.nbytes, 8 << 20)
        if values is psi.amplitudes:
            assert _tangle_classes in block.memo
            assert _resident_bytes(block) <= rows.nbytes // 10
    assert _enum._shape_description.cache_info().currsize == _enum.SHAPE_CACHE


#: The ``enumerate`` workload's n=9 base vector (483,840 signed
#: permutations; ``N9_BASE`` in ``perfbench/workloads.py``).
_N9_BASE = [5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_every_block_but_the_last_is_full():
    # A run of sibling prefixes seldom completes to a whole number of
    # chunks; its leftover rows open the next chunk, so only the last
    # block is partial.
    classes = _enum.sign_classes(np.array(_N9_BASE))
    rows = _enum.count_signed_arrangements(classes)
    blocks = sum(1 for _ in _enum.signed_arrangements(classes))
    assert blocks == math.ceil(rows / _enum.BLOCK_ROWS) == 15


def test_vertex_listing_writes_each_row_once():
    # The rows are computed in place in the result, so the listing holds
    # little beside it: one chunk's codes and sign tables (a block copied
    # into the result would take 2.4 MB, 7% of it).
    tracemalloc.start()
    try:
        V = enumerate_sign_perm_vertices(_N9_BASE)
        V.array
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(V) == 483_840
    assert peak <= 1.02 * V.array.nbytes


def test_amplitude_listing_writes_each_row_once():
    # With no filter the amplitudes are written in place as well: 2^6 *
    # 7! = 322,560 complex rows (36 MB) and little beside them, one
    # chunk's codes and sign tables (a kept copy of every block, joined
    # at the end, would double it).
    psi = PureState.normalized([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0])[0]
    tracemalloc.start()
    try:
        res = enumerate_pure_sign_perms(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.total == res.retained == 322_560
    assert not res.amplitudes.flags.writeable
    assert peak <= 1.02 * res.amplitudes.nbytes


def test_filtered_stream_holds_a_few_blocks():
    # 2^6 * 8!/2! = 1,290,240 rows stream through the w-type filter
    # (165 MB as one array); only the blocks in flight and the kept rows
    # may be held at once
    psi = PureState.normalized([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0])[0]
    tracemalloc.start()
    try:
        res = enumerate_pure_sign_perms(psi, filter="w-type")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.total == 1_290_240
    assert peak < 8 * _enum.BLOCK_ROWS * psi.amplitudes.itemsize * 8


#: Real listings of the tests above, as (values, signed): zeros of both
#: signs, ties, entries snapped within ZERO_TOL, one arrangement's sign
#: rows over several blocks, and the n = 9 workload base.
_RANKED_LISTINGS = {
    **{kind: _ORACLE_INPUTS[kind] for kind in ("signed", "unsigned", "unsigned_carry")},
    "order": ([1.0, 2.0, 0.0], True),
    "near_zero": ([1.0, 1e-13, 0.0], True),
    "sixteen_ones": (np.ones(16), True),
    "four_distinct": ([0.758, 0.0, 0.809, 0.0, 0.0, 0.588, 0.0, 0.242], True),
    "near_tie": ([1.0, 1.0 + 1e-13], False),
    "n9": (_N9_BASE, True),
}


@pytest.mark.parametrize("kind", sorted(_RANKED_LISTINGS))
def test_rank_inverts_the_listing(kind):
    """``_enum.rank`` gives each listed row its index in the listing."""
    values, signed = _RANKED_LISTINGS[kind]
    classes = _enum.sign_classes(np.array(values), signed=signed)
    rows, count, _ = _enum.listing(classes)
    np.testing.assert_array_equal(_enum.rank(classes, rows), np.arange(count))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(signed=st.booleans(), entries=st.lists(_ENTRY, min_size=1, max_size=6))
def test_rank_inverts_random_listings(signed, entries):
    classes = _enum.sign_classes(np.array(entries), signed=signed)
    rows, count, _ = _enum.listing(classes)
    np.testing.assert_array_equal(_enum.rank(classes, rows), np.arange(count))


# ---------------------------------------------------------------- lazy listing

def test_listed_set_lists_on_first_read():
    """A listed set answers ``len``, ``dim`` and ``repr`` from its
    classes and count, and lists once, on the first read of a row, bit
    for bit the listing of its classes."""
    listed = enumerate_sign_perm_vertices([2.0, -1.0, 0.0, 1.0 + 1e-13])
    assert (len(listed), listed.dim, repr(listed)) == (96, 4, "VertexSet(96 points in R^4)")
    assert listed._points is None
    V = _enum.listing(listed._classes)[0]
    assert listed[7].tobytes() == V[7].tobytes() and not listed[7].flags.writeable
    assert listed.array is listed.array
    assert listed.array.tobytes() == V.tobytes() and not listed.array.flags.writeable


def test_a_listing_past_the_bytes_is_counted_without_rows():
    """ROADMAP item 7's length-1500 vector with two nonzero entries has
    8,994,000 signed permutations, 107.9 GB listed: under the row cap, it
    gives its length, dimension and repr in under 1 MB.  One more nonzero
    entry is over the cap and raises at the call, before any row."""
    a = np.zeros(1500)
    a[[3, 700]] = [1.0, 2.0]
    tracemalloc.start()
    try:
        verts = enumerate_sign_perm_vertices(a)
        shown = (len(verts), verts.dim, repr(verts))
        with pytest.raises(EnumerationTooLargeError) as exc:
            enumerate_sign_perm_vertices(a, cap=len(verts) - 1)
        a[9] = 3.0
        with pytest.raises(EnumerationTooLargeError):
            enumerate_perm_vertices(a, cap=len(verts))
        with pytest.raises(EnumerationTooLargeError):
            enumerate_sign_perm_vertices(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shown == (8_994_000, 1500, "VertexSet(8994000 points in R^1500)")
    assert exc.value.count == 8_994_000
    assert peak < 1e6


# ---------------------------------------------------------------- LP route

def _assert_witness(w, verts, x):
    """``w`` is a read-only weight vector over all of ``verts`` writing
    ``x`` as a convex combination."""
    V = verts.array
    assert w.shape == (len(V),)
    assert not w.flags.writeable
    assert w.min() >= 0.0
    assert abs(w.sum() - 1.0) <= 1e-9
    assert np.max(np.abs(w @ V - x)) <= 1e-9


def test_hull_member_octahedron():
    verts = CrossPolytopeSpec(0.4, [0, 0, 0]).vertices()
    member, w = hull_member_lp([0.0, 0.0, 0.0], verts)
    assert member
    _assert_witness(w, verts, [0.0, 0.0, 0.0])

    member, w = hull_member_lp([0.41, 0.0, 0.0], verts)
    assert not member and w is None

    member, w = hull_member_lp([0.4, 0.0, 0.0], verts)  # a vertex is a member
    assert member
    _assert_witness(w, verts, [0.4, 0.0, 0.0])


def test_hull_member_witness_residual():
    rng = np.random.default_rng(17)
    a = np.array([1.0, 2.0, 3.0, -1.0])
    verts = enumerate_sign_perm_vertices(a)
    for _ in range(20):
        w = rng.dirichlet(np.ones(5))
        idx = rng.choice(len(verts), size=5, replace=False)
        x = w @ verts.array[idx]
        member, w = hull_member_lp(x, verts)
        assert member
        _assert_witness(w, verts, x)


def test_hull_member_agrees_with_majorization():
    rng = np.random.default_rng(404)
    a = np.array([1.0, 2.0, 3.0])
    verts = enumerate_sign_perm_vertices(a)
    perm_verts = enumerate_perm_vertices(a)
    for _ in range(60):
        x = rng.uniform(-3.5, 3.5, size=3)
        lp, _ = hull_member_lp(x, verts)
        assert lp == sign_perm_member(x, a)
        # permutation hull needs the right coordinate sum; project onto it
        y = x + (a.sum() - x.sum()) / 3.0
        lp, _ = hull_member_lp(y, perm_verts)
        assert lp == rado_member(y, a)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(signed=st.booleans(),
       base=st.lists(st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0]), min_size=2,
                     max_size=6),
       kind=st.sampled_from(["mix", "scaled"]),
       seed=st.integers(0, 2**32 - 1),
       factor=st.floats(0.9, 1.1).filter(lambda f: abs(f - 1.0) >= 1e-6))
def test_explicit_pricing_agrees_with_majorization(signed, base, kind, seed, factor):
    """Priced whole at every pivot, ``hull_member_lp`` gives the
    majorization verdict on signed-permutation and permutation sets,
    with a witness for every member.  The sets are raw copies of the
    listings, which explicit pricing serves at every size.  The probes are
    Dirichlet mixes of up to 20 vertices and vertices scaled about the
    set's centroid by a factor at least 1e-6 away from 1, so none sits
    on the boundary."""
    a = np.array(base)
    listed = (enumerate_sign_perm_vertices if signed else enumerate_perm_vertices)(a)
    verts = VertexSet(listed.array)
    V = verts.array
    rng = np.random.default_rng(seed)
    centroid = np.zeros(a.size) if signed else np.full(a.size, a.mean())
    if kind == "mix":
        support = min(len(V), 20)
        x = rng.dirichlet(np.ones(support)) @ V[rng.choice(len(V), support,
                                                             replace=False)]
    else:
        x = centroid + factor * (V[rng.integers(len(V))] - centroid)
    member, w = hull_member_lp(x, verts)
    assert member == (sign_perm_member(x, a) if signed else rado_member(x, a))
    if member:
        _assert_witness(w, verts, x)


#: (signed, base) of n = 8 listings of more than _SORT_ABOVE rows, so priced
#: by sort: signed sets of 26,880, 35,840 (ties, zeros, and entries
#: snapped within ZERO_TOL) and 53,760 rows, and unsigned ones of 40,320
#: (a zero) and 20,160 (a snapped tie) rows.
_SORT_PRICED = [
    (True, (4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0)),
    (True, (3.0, 2.0 + 1e-13, 1.0, -1.0 + 1e-13, 1.0, 0.0, 1e-13, -0.0)),
    (True, (3.0, 3.0, 2.0, -1.0, 1.0, 0.0, 0.0, 0.0)),
    (False, (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)),
    (False, (-1.0, 2.0, 0.5, 1.0 + 1e-13, 3.0, 0.0, 1.0, 4.0)),
]


@functools.lru_cache(maxsize=None)
def _sort_priced(key):
    """The listing of ``key`` and a raw copy of it (explicit pricing),
    built once."""
    signed, base = key
    listed = (enumerate_sign_perm_vertices if signed else enumerate_perm_vertices)(base)
    assert len(listed) > _SORT_ABOVE
    return listed, VertexSet(listed.array)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(_SORT_PRICED),
       kind=st.sampled_from(["mix", "scaled"]),
       seed=st.integers(0, 2**32 - 1),
       factor=st.floats(0.9, 1.1).filter(lambda f: abs(f - 1.0) >= 1e-6))
def test_sort_pricing_agrees_with_explicit_pricing(key, kind, seed, factor):
    """On n = 8 listings, sort pricing gives the verdict of explicit
    pricing over a raw copy and of majorization, every member with a
    witness over the listed rows, and builds no LP matrix.  The probes
    are those of the explicit-pricing test."""
    signed, base = key
    listed, raw = _sort_priced(key)
    a = np.array(base)
    V = listed.array
    rng = np.random.default_rng(seed)
    centroid = np.zeros(a.size) if signed else np.full(a.size, a.mean())
    if kind == "mix":
        x = rng.dirichlet(np.ones(20)) @ V[rng.choice(len(V), 20, replace=False)]
    else:
        x = centroid + factor * (V[rng.integers(len(V))] - centroid)
    want = sign_perm_member(x, a) if signed else rado_member(x, a)
    for verts in (listed, raw):
        member, w = hull_member_lp(x, verts)
        assert member == want
        if member:
            _assert_witness(w, verts, x)
    assert listed._lp is None


def test_sort_priced_bland_rule_keeps_the_listing_order(monkeypatch):
    """With Bland's rule due at every pivot (``STALL_LIMIT = 0``) a
    sort-priced query enters, through ``simplex._bland``, the
    lowest-index listed row or artificial whose reduced cost, computed
    here from ``[V^T; 1]`` and the ``y`` of the pass's sort, is negative,
    under its listed index; the verdicts agree with majorization, with a
    witness for each member."""
    key = _SORT_PRICED[0]
    listed, _ = _sort_priced(key)
    V = listed.array
    m = len(V)
    A = np.vstack([V.T, np.ones(m)])
    entered = []
    ys = []
    sort_price, bland = simplex._sort_price, simplex._bland

    def sorted_by(values, signed, y, out):
        ys.append(y.copy())
        return sort_price(values, signed, y, out)

    def checked(costs):
        chosen = bland(costs)
        reduced = np.concatenate([-(ys[-1] @ A), costs[m:]])
        if chosen is not None:
            j, _ = chosen
            assert reduced[j] < -simplex.PIVOT_EPS
            assert reduced[:j].min(initial=0.0) >= -simplex.PIVOT_EPS - 1e-12
            entered.append(j)
        return chosen

    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)
    monkeypatch.setattr(simplex, "_sort_price", sorted_by)
    monkeypatch.setattr(simplex, "_bland", checked)
    rng = np.random.default_rng(21)
    probes = [rng.dirichlet(np.ones(20)) @ V[rng.choice(m, 20, replace=False)]
              for _ in range(2)]
    probes.append(1.3 * V[rng.integers(m)])
    for x in probes:
        member, w = hull_member_lp(x, listed)
        assert member == sign_perm_member(x, key[1])
        if member:
            _assert_witness(w, listed, x)
    assert any(j < m for j in entered)


def test_sort_priced_artificial_reenters(monkeypatch):
    """On the sort path an artificial whose phase-1 reduced cost is the
    least, below ``-PIVOT_EPS``, enters again, as it would under explicit
    pricing: a vertex of the 40,320 permutations of (0, ..., 7), scaled
    by 1.001 about their centroid, is outside their hull; after the aimed
    vertex enters, an artificial re-enters on the way to the verdict,
    which is majorization's and that of a raw copy."""
    listed, raw = _sort_priced(_SORT_PRICED[3])
    x = 3.5 + 1.001 * (np.array([6.0, 1.0, 7.0, 2.0, 3.0, 5.0, 4.0, 0.0]) - 3.5)
    entered = []
    pivot = simplex._pivot

    def recorded(s, i, j, *args):
        entered.append(j)
        return pivot(s, i, j, *args)

    monkeypatch.setattr(simplex, "_pivot", recorded)
    assert hull_member_lp(x, listed) == (False, None)
    assert entered[0] == -1 and max(entered) >= len(listed)
    assert not rado_member(x, np.arange(8.0))
    assert not hull_member_lp(x, raw)[0]


@pytest.mark.parametrize("shift", [lambda index: index + 1, lambda index: index ^ 1],
                         ids=["next", "last-sign"])
def test_wrong_rank_raises(monkeypatch, shift):
    """A rank that places a basic weight on a neighbouring row fails
    the witness check: a solver failure, never a verdict."""
    listed, _ = _sort_priced(_SORT_PRICED[0])
    rng = np.random.default_rng(8)
    V = listed.array
    x = rng.dirichlet(np.ones(2000)) @ V[rng.choice(len(V), 2000, replace=False)]
    assert hull_member_lp(x, listed)[0]
    rank = _enum.rank
    monkeypatch.setattr(_enum, "rank", lambda classes, rows: shift(rank(classes, rows)))
    with pytest.raises(SolverFailureError, match="witness violation"):
        hull_member_lp(x, listed)


OCTA_BASE = [4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]
# perfbench's hull defect probe: a member of the OCTA_BASE hull
DEFECT_PROBE = 0.9179802462889692 * np.array([4.0, -3.0, 0.0, -2.0, 0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("probe, bound, whole", [
    # answered True by scipy and majorization, but Bland's rule alone
    # pivoted 4,807 times and then found no admissible pivot
    (DEFECT_PROBE, 40, 10),
    # the last vertex, scaled by 1.0: maximally degenerate (7,159 pivots
    # under Bland's rule alone)
    (1.0 * np.array([-4.0, -3.0, -2.0, -1.0, 0.0, 0.0, 0.0, 0.0]), 72, 1),
], ids=["defect-probe", "vertex"])
def test_boundary_probe_pivot_count(probe, bound, whole):
    """Boundary probes against the 26,880 signed permutations of
    OCTA_BASE: the right answer within the gates of 40 and 72 pivots,
    twice the tableau kernel's 20 and 36, whether the listed set is
    priced by sort (10 and 1 pivots) or a raw copy of it explicitly;
    pivot counts do not depend on the machine.  The raw copy, priced
    whole at every pivot after the aimed first one, takes exactly 10
    and 1 (33 and 58 with Dantzig's rule from the first pivot on): the
    vertex is its own aimed column, and entering it brings phase 1 to
    0."""
    listed = enumerate_sign_perm_vertices(OCTA_BASE)
    raw = VertexSet(listed.array)
    m = len(listed)
    reference = linprog(np.zeros(m), A_eq=np.vstack([listed.array.T, np.ones((1, m))]),
                        b_eq=np.append(probe, 1.0), bounds=(0, None), method="highs")
    assert reference.status == 0
    assert sign_perm_member(probe, OCTA_BASE)
    for verts in (listed, raw):
        with simplex._counting() as counts:
            member, w = hull_member_lp(probe, verts)
        assert counts.pivots <= bound
        assert member
        _assert_witness(w, verts, probe)
    assert listed._lp is None
    assert counts.pivots == whole  # the raw copy's, asked last


#: Per near-vertex kind, the most and the total pivots of an aimed phase
#: 1 (with Dantzig's rule from the first pivot on: 34 and 109, 32, and
#: 25 and 114, 16 and 88, 45 and 231, 59 and 323).
_AIMED_PIVOTS = {"boundary": (9, 20), "defect": (10, 10), 5: (7, 42), 6: (9, 47),
                 8: (11, 61), 9: (12, 73)}


@pytest.mark.parametrize("kind", list(_AIMED_PIVOTS), ids=str)
def test_aimed_start_pivot_count(kind):
    """Near-vertex probes of signed-permutation listings, with the right
    answer within the pivots measured for the aimed start: perfbench's
    four fixed n = 8 boundary probes (FIXED_BOUNDARY_SEED 0), its defect
    probe, and eight vertices of the n = 5, 6, 8 and 9 listings scaled by
    a factor in [0.9, 1.1] (seed 29).  A probe scaled out takes one
    pivot: the aimed vertex enters and the basis is optimal."""
    n = kind if isinstance(kind, int) else 8
    base = {**_HULL_BASES, 9: _N9_BASE}[n]
    verts = enumerate_sign_perm_vertices(base)
    V = verts.array
    if kind == "boundary":
        fixed = np.random.default_rng(0)
        probes = [fixed.uniform(0.9, 1.1) * V[fixed.integers(len(V))] for _ in range(4)]
    elif kind == "defect":
        probes = [DEFECT_PROBE]
    else:
        rng = np.random.default_rng(29)
        probes = [rng.uniform(0.9, 1.1) * V[rng.integers(len(V))] for _ in range(8)]
    counts = []
    for x in probes:
        with simplex._counting() as query:
            member, w = hull_member_lp(x, verts)
        counts.append(query.pivots)
        assert member == sign_perm_member(x, base)
        if member:
            _assert_witness(w, verts, x)
    most, total = _AIMED_PIVOTS[kind]
    assert max(counts) <= most and sum(counts) <= total, counts


def _unaimed_hull_member(x, verts, tol):
    """:func:`hull_member_lp` with phase 1 priced by Dantzig's rule from
    the first pivot on: the same routing, solve and witness check, but
    no aim, and a cap of 5,000 pivots (an unsigned raw set scaled by
    2^30 can pivot on to the kernel's cap of about two million)."""
    V = verts.array
    s, _ = simplex._phase1(verts._columns(), np.append(x, 1.0), 5000)
    if not simplex._infeasibility(s) <= tol:
        return False, None
    w = simplex._basic_solution(s.T, s.basis, len(V))
    if not _witness_violation(w, V, x) <= tol:
        raise SolverFailureError("witness violation")
    return True, w


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(listing=st.one_of(
           st.tuples(st.booleans(),
                     st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0]),
                              min_size=1, max_size=6).map(tuple)),
           st.sampled_from(_SORT_PRICED)),
       raw=st.booleans(),
       kind=st.sampled_from(["mix", "scaled", "vertex", "zero"]),
       seed=st.integers(0, 2**32 - 1),
       factor=st.floats(0.9, 1.1).filter(lambda f: abs(f - 1.0) >= 1e-6),
       scale=st.sampled_from([1.0, 2.0**-30, 2.0**30]))
def test_aimed_and_unaimed_verdicts_agree_with_majorization(listing, raw, kind, seed,
                                                             factor, scale):
    """Aimed (:func:`hull_member_lp`) and unaimed phase 1 each give the
    majorization verdict, every member with a verified witness, on
    signed and unsigned listings with ties and zeros (small ones, priced
    explicitly, and n = 8 ones, priced by sort), on raw copies of them,
    and with the set and the probe scaled by 2^-30, 1 or 2^30.  The
    probes are Dirichlet mixes, vertices scaled about the centroid,
    exact vertices and the origin.  At 1 neither raises.  Scaled, the
    absolute tolerances may make either raise ``SolverFailureError``,
    and an unsigned set at 2^30 may be answered wrongly by both
    (``test_unsigned_vertex_at_2_30_is_a_member``), so there only the
    witnesses are checked.  A verdict is compared where the oracle's is
    the same at tolerance 0 and 10 ``tol``."""
    signed, base = listing
    a = scale * np.array(base)
    listed = (enumerate_sign_perm_vertices if signed else enumerate_perm_vertices)(a)
    verts = VertexSet(listed.array) if raw else listed
    V = verts.array
    rng = np.random.default_rng(seed)
    centroid = np.zeros(a.size) if signed else np.full(a.size, a.mean())
    if kind == "mix":
        support = min(len(V), 20)
        x = rng.dirichlet(np.ones(support)) @ V[rng.choice(len(V), support, replace=False)]
    elif kind == "scaled":
        x = centroid + factor * (V[rng.integers(len(V))] - centroid)
    elif kind == "vertex":
        x = V[rng.integers(len(V))].copy()
    else:
        x = np.zeros(a.size)
    oracle = sign_perm_member if signed else rado_member
    tol = 1e-9
    want = oracle(x, a, tol=tol)
    compared = (signed or scale < 2.0**30) and oracle(x, a, tol=0.0) == oracle(
        x, a, tol=10 * tol) == want
    for solve in (hull_member_lp, _unaimed_hull_member):
        try:
            member, w = solve(x, verts, tol)
        except SolverFailureError:
            assert scale != 1.0, solve.__name__
            continue
        if compared:
            assert member == want, solve.__name__
        if member:
            assert _witness_violation(w, V, x) <= tol


@pytest.mark.xfail(strict=True, reason="an absolute tolerance at 2^30 (ROADMAP item 3)")
@pytest.mark.parametrize("aimed", [True, False], ids=["aimed", "unaimed"])
def test_unsigned_vertex_at_2_30_is_a_member(aimed):
    """A listed vertex of the permutations of 2^30 (0, ..., 7) is in
    their hull, but phase 1 leaves the artificial of the redundant sum
    row at about 1e-6 of roundoff, above the absolute 1e-9, so both
    phase 1s answer False."""
    verts = enumerate_perm_vertices(2.0**30 * np.arange(8.0))
    x = verts.array[7].copy()
    assert rado_member(x, 2.0**30 * np.arange(8.0))
    solve = hull_member_lp if aimed else _unaimed_hull_member
    assert solve(x, verts, 1e-9)[0]


def test_unsigned_raw_mix_at_2_30_is_feasible_in_few_pivots(monkeypatch):
    """``feasible_nonneg`` on the LP matrix of a raw copy of the
    permutations of 2^30 (0, ..., 7) finds a Dirichlet mix of 20 of them
    feasible in 10 pivots, priced whole.  Priced in sections of 16,384
    columns it pivoted on for minutes (its cap is about two million), so
    pivots past 20 raise here."""
    V = enumerate_perm_vertices(2**30 * np.arange(8)).array
    rng = np.random.default_rng(1)
    x = rng.dirichlet(np.ones(20)) @ V[rng.choice(len(V), 20, replace=False)]
    pivots = []
    pivot = simplex._pivot

    def bounded(*args):
        pivots.append(1)
        if len(pivots) > 20:
            raise AssertionError("more than 20 pivots")
        return pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", bounded)
    feasible, _ = feasible_nonneg(VertexSet(V)._columns(), np.append(x, 1.0))
    assert feasible


def test_wide_raw_set_is_priced_whole(monkeypatch):
    """A raw set of more than 2^14 rows is priced whole at every pass:
    each pivot of an unaimed phase 1 over the 26,880 signed permutations
    of OCTA_BASE enters the column of least reduced cost among all of
    them and the artificials, recomputed here from the basis."""
    V = enumerate_sign_perm_vertices(OCTA_BASE).array
    m = len(V)
    assert m > 2**14
    A = VertexSet(V)._columns()
    entered = []
    pivot = simplex._pivot

    def checked(s, i, j, *args):
        y = (s.basis >= m) @ s.T[:, :-1]
        reduced = np.concatenate([-(y @ A), 1.0 - s.sign * y])
        entered.append((j, int(reduced.argmin())))
        return pivot(s, i, j, *args)

    monkeypatch.setattr(simplex, "_pivot", checked)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.dirichlet(np.ones(20)) @ V[rng.choice(m, 20, replace=False)]
        assert feasible_nonneg(A, np.append(x, 1.0))[0]
    assert len(entered) > 3
    assert all(j == least for j, least in entered), entered


#: The bases of perfbench's ``hull`` sets, by length.
_HULL_BASES = {5: [5.0, 4.0, 3.0, 2.0, 1.0], 6: [3.0, 2.0, 1.0, 0.0, 0.0, 0.0],
               8: OCTA_BASE}


def _perfbench_probes(rng):
    """A few probes of each perfbench ``hull`` kind, with the base of
    the signed-permutation set each asks: Dirichlet mixes of 200 (n=5, 6)
    or 2,000 (n=8) vertices, vertices scaled by a factor in [0.9, 1.1],
    and the defect probe."""
    sets = {n: enumerate_sign_perm_vertices(a) for n, a in _HULL_BASES.items()}
    probes = [(8, DEFECT_PROBE)]
    for n, kind, support in ((5, "mix", 200), (6, "mix", 200), (8, "mix", 2000),
                             (5, "scaled", 0), (6, "scaled", 0)):
        V = sets[n].array
        for _ in range(3):
            if kind == "mix":
                x = rng.dirichlet(np.ones(support)) @ V[rng.choice(len(V), support,
                                                                   replace=False)]
            else:
                x = rng.uniform(0.9, 1.1) * V[rng.integers(len(V))]
            probes.append((n, x))
    return sets, probes


def _answer_bytes(answer):
    member, w = answer
    return member, None if w is None else w.tobytes()


def test_repeated_queries_match_fresh_vertex_sets():
    """A set answers every query from what its first query built (the
    LP matrix, or the arrangement keys of a sort-priced listing): asked
    twice, in between the other probes, each probe gets the verdict and
    the witness bytes of a fresh listing, and on a raw copy (explicit
    pricing at every size) those of a fresh raw copy."""
    sets, probes = _perfbench_probes(np.random.default_rng(11))
    raw = {n: VertexSet(verts.array) for n, verts in sets.items()}
    for kept, fresh_set in ((sets, lambda n: enumerate_sign_perm_vertices(_HULL_BASES[n])),
                            (raw, lambda n: VertexSet(sets[n].array.copy()))):
        fresh = [_answer_bytes(hull_member_lp(x, fresh_set(n))) for n, x in probes]
        assert any(member for member, _ in fresh) and not all(member for member, _ in fresh)
        for _ in range(2):
            assert [_answer_bytes(hull_member_lp(x, kept[n])) for n, x in probes] == fresh
    assert sets[8]._lp is None and raw[8]._lp is not None


def test_lp_matrix_is_built_once_and_read_only():
    verts = enumerate_sign_perm_vertices([2.0, 1.0, 0.0])
    assert hull_member_lp([0.5, 0.5, 0.0], verts)[0]
    A = verts._columns()
    assert verts._columns() is A
    assert not A.flags.writeable and A.flags.c_contiguous
    np.testing.assert_array_equal(A, np.vstack([verts.array.T, np.ones(len(verts))]))
    with pytest.raises(ValueError):
        A[0, 0] = 9.0


@pytest.mark.parametrize("raw", [False, True], ids=["sort-priced", "explicit"])
def test_warm_hull_query_allocates_two_vectors_at_most(raw):
    """Once a set holds its LP matrix, a query allocates the pricing
    buffer and the weights over the m vertices and nothing else that
    wide (building ``[V^T; 1]`` per query would take 9 such vectors at
    n = 8); a sort-priced listing allocates the weights alone.
    tracemalloc counts bytes, so the gate does not depend on the
    machine."""
    verts = enumerate_sign_perm_vertices(OCTA_BASE)
    if raw:
        verts = VertexSet(verts.array)
    assert hull_member_lp(DEFECT_PROBE, verts)[0]
    tracemalloc.start()
    try:
        member, _ = hull_member_lp(DEFECT_PROBE, verts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert member
    assert peak <= (2 if raw else 1.2) * 8 * len(verts)


def test_hull_member_just_outside_permutohedron_gets_a_verdict():
    """Phase 1 ends with an infeasibility of about 1e-9, the tolerance
    itself; the verdict is read from the solution recomputed from the
    final basis, so an accepted phase 1 yields an accepted witness
    instead of a witness check that raises."""
    probe = (1 + 1e-10) * np.array([1.0, 3.0, 2.0, 2.0, 2.0])
    member, _ = hull_member_lp(probe, enumerate_perm_vertices([2.0, 2.0, 1.0, 3.0, 2.0]))
    assert member in (True, False)


def test_hull_member_dimension_mismatch():
    verts = VertexSet(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        hull_member_lp([1.0, 0.0], verts)


@pytest.mark.parametrize("vertices, point", [
    ([[0.0, 0.0], [np.nan, 1.0]], [0.0, 0.0]),
    ([[0.0, 0.0], [np.inf, 1.0]], [0.0, 0.0]),
    (np.empty((0, 2)), [0.0, 0.0]),
    ([0.0, 1.0], [0.0]),
    ([[0.0, 0.0], [1.0, 1.0]], [np.nan, 0.5]),
    ([[0.0, 0.0], [1.0, 1.0]], [np.inf, 0.5]),
], ids=["nan-vertex", "inf-vertex", "no-vertex", "1d-vertices",
        "nan-point", "inf-point"])
def test_hull_member_rejects_malformed_raw_input(vertices, point):
    with pytest.raises(ValueError, match="finite|at least one point"):
        hull_member_lp(point, np.array(vertices))


@pytest.mark.parametrize("z", [np.array([1j, 2.0]), [1j, 2.0]],
                         ids=["array", "list"])
@pytest.mark.parametrize("call", [
    lambda z: sign_perm_member(z, [0.5, 0.0]),
    lambda z: sign_perm_member([0.5, 0.0], z),
    lambda z: rado_member(z, [1.0, 2.0]),
    count_sign_perm_vertices,
    lambda z: hull_member_lp(z, VertexSet(np.eye(2))),
    lambda z: hull_member_lp([0.5, 0.5], [z, [1.0, 0.0]]),
    lambda z: VertexSet([z, [1.0, 0.0]]),
    lambda z: CrossPolytopeSpec(1.0, z),
    lambda z: from_coords([*z, 0.0]),
], ids=["sign-perm-point", "sign-perm-base", "rado", "count", "hull-point",
        "hull-vertices", "vertex-set", "cross-polytope-centre", "chart"])
def test_complex_points_are_refused(call, z):
    """A cast to float would drop the imaginary parts and answer for
    another point: ``sign_perm_member([1j, 0], [0.5, 0])`` read as True."""
    with pytest.raises(ValueError, match="not complex"):
        call(z)


# ---------------------------------------------------------------- disjointness

def test_hulls_disjoint_examples():
    assert hulls_disjoint([1, 2, 3], [1, 1, 1])          # sums 6 vs 3
    assert not hulls_disjoint([1, 2, 3], [2, 2, 2])      # equal sums
    assert not hulls_disjoint([1, 2, 3], [3, 2, 1])
    assert hulls_disjoint([0.0, 0.0], [0.0, 1.0])


def test_hulls_disjoint_tolerance():
    assert not hulls_disjoint([1.0, 2.0], [3.0 + 5e-10, 0.0])
    assert hulls_disjoint([1.0, 2.0], [3.0 + 5e-9, 0.0])


def _hulls_intersect_lp(a, b):
    """Independent route: nonnegative weights on both vertex sets meeting
    at a common point."""
    Va = enumerate_perm_vertices(a).array
    Vb = enumerate_perm_vertices(b).array
    ma, mb = len(Va), len(Vb)
    n = Va.shape[1]
    A = np.zeros((n + 2, ma + mb))
    A[:n, :ma] = Va.T
    A[:n, ma:] = -Vb.T
    A[n, :ma] = 1.0
    A[n + 1, ma:] = 1.0
    rhs = np.zeros(n + 2)
    rhs[n] = rhs[n + 1] = 1.0
    ok, _ = feasible_nonneg(A, rhs, tol=1e-9)
    return ok


def test_hulls_disjoint_agrees_with_lp():
    rng = np.random.default_rng(88)
    for n in (2, 3, 4):
        for _ in range(25):
            a = rng.integers(-3, 4, size=n).astype(float)
            b = rng.integers(-3, 4, size=n).astype(float)
            assert hulls_disjoint(a, b) == (not _hulls_intersect_lp(a, b))


def test_hulls_disjoint_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        hulls_disjoint([1.0], [1.0, 2.0])


# ---------------------------------------------------------------- volumes

def test_cross_polytope_volume_closed_forms():
    assert cross_polytope_volume(3, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert cross_polytope_volume(1, 2.0) == pytest.approx(4.0, rel=1e-14)
    assert cross_polytope_volume(2, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert cross_polytope_volume(4, 0.0) == 0.0
    with pytest.raises(ValueError):
        cross_polytope_volume(0, 1.0)
    with pytest.raises(ValueError):
        cross_polytope_volume(3, -1.0)


def test_cross_polytope_volume_monte_carlo():
    rng = np.random.default_rng(1234)
    for n in (2, 3):
        samples = rng.uniform(-1.0, 1.0, size=(200_000, n))
        inside = np.abs(samples).sum(axis=1) <= 1.0
        p_hat = inside.mean()
        estimate = p_hat * 2.0 ** n
        sigma = 2.0 ** n * math.sqrt(p_hat * (1 - p_hat) / len(samples))
        assert abs(estimate - cross_polytope_volume(n, 1.0)) <= 3.0 * sigma


def test_ball_volume_closed_forms():
    assert ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-14)
    assert ball_volume(3, 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    # even dimension: pi^4 r^8 / 4!
    assert ball_volume(8, 0.5) == pytest.approx(
        math.pi ** 4 * 0.5 ** 8 / math.factorial(4), rel=1e-13
    )
    assert ball_volume(5, 0.0) == 0.0


@pytest.mark.parametrize("volume, n, scale, what", [
    (cross_polytope_volume, 3, 1e200, "cross-polytope volume"),
    # 2 * alpha overflows before the exp
    (cross_polytope_volume, 3, 1e308, "cross-polytope volume"),
    (cross_polytope_volume, 1, 1e308, "cross-polytope volume"),
    (ball_volume, 8, 1e40, "ball volume"),
])
def test_volume_that_does_not_fit_a_float_raises(volume, n, scale, what):
    with pytest.raises(ValueError, match=f"the {what} overflows a float"):
        volume(n, scale)


def test_insphere_radius_is_facet_distance():
    # the nearest facet spans the all-positive vertices; its plane is
    # sum(x) = alpha with unit normal 1/sqrt(n)
    for n in (1, 2, 3, 4, 8):
        alpha = 1.7
        facet_distance = alpha / np.linalg.norm(np.ones(n))
        assert insphere_radius(n, alpha) == pytest.approx(facet_distance, rel=1e-15)
    assert insphere_radius(3, 1.0) == pytest.approx(1.0 / math.sqrt(3.0))
    assert insphere_radius(4, 2.0) == pytest.approx(1.0)


def test_insphere_ball_lies_inside():
    rng = np.random.default_rng(6)
    n, alpha = 4, 0.9
    a = np.zeros(n)
    a[0] = alpha
    r = insphere_radius(n, alpha)
    for _ in range(500):
        x = rng.normal(size=n)
        x *= r * rng.random() ** (1.0 / n) / np.linalg.norm(x)
        assert sign_perm_member(x, a)


@pytest.mark.parametrize(
    "n",
    [
        3,
        pytest.param(8, marks=pytest.mark.xfail(
            reason="ball/cross ratio divided by (pi/4)^(n/2) equals "
                   "n!/(n^(n/2) Gamma(n/2+1)) ~ sqrt(2)(2/e)^(n/2), which "
                   "drops below 1/2 beyond n=5", strict=True)),
        pytest.param(15, marks=pytest.mark.xfail(
            reason="same decay; factor ~0.14 at n=15", strict=True)),
    ],
)
def test_insphere_ball_ratio_within_factor_two(n):
    alpha = 1.0
    ratio = ball_volume(n, insphere_radius(n, alpha)) / cross_polytope_volume(n, alpha)
    reference = (math.pi / 4.0) ** (n / 2.0)
    assert 0.5 <= ratio / reference <= 2.0


def test_insphere_ball_ratio_qutrit_pinned():
    # the ratio/reference quotient is n!/(n^(n/2) Gamma(n/2+1)), which
    # decays like sqrt(2) (2/e)^(n/2); at chart dimension 8 (qutrits) it
    # is exactly 8!/(8^4 * 4!) = 0.410156...: same order, not factor-2
    ratio = ball_volume(8, insphere_radius(8, 1.0)) / cross_polytope_volume(8, 1.0)
    assert ratio / (math.pi / 4.0) ** 4 == pytest.approx(
        math.factorial(8) / (8.0 ** 4 * math.factorial(4)), rel=1e-12)
