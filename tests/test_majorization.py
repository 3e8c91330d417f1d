import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signpoly import (
    DimensionMismatchError,
    hulls_disjoint,
    majorizes,
    rado_member,
    sign_perm_member,
    weakly_majorized,
)
from signpoly.majorization import _partial_sums_desc


def test_majorizes_examples():
    # averaging moves a vector down the order
    assert majorizes([1, 2, 3], [2, 2, 2])
    assert not majorizes([2, 2, 2], [1, 2, 3])
    # totals must match
    assert not majorizes([1, 2, 3], [1, 1, 1])
    # permutations majorize each other
    assert majorizes([3, 1, 2], [1, 2, 3])
    assert majorizes([1, 2, 3], [3, 1, 2])


def test_majorizes_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        majorizes([1, 2], [1, 2, 3])


def test_mutual_majorization_is_sorted_equality():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = rng.integers(2, 7)
        a = rng.integers(-3, 4, size=n).astype(float)
        b = rng.permutation(a)
        assert majorizes(a, b) and majorizes(b, a)
        c = a.copy()
        c[0] += 1.0  # break the total
        assert not (majorizes(a, c) and majorizes(c, a))


def test_weakly_majorized_examples():
    assert weakly_majorized([0, 0, 0], [1, 2, 3])
    assert weakly_majorized([2, 2, 1], [1, 2, 3])
    assert not weakly_majorized([3, 3, 0], [1, 2, 3])
    # equality case sits on the boundary and is kept by default
    assert weakly_majorized([3, 2, 1], [1, 2, 3])


def test_weak_majorization_tolerance_boundary():
    a = [1.0, 0.0, 0.0]
    assert weakly_majorized([1.0 + 5e-10, 0.0, 0.0], a, tol=1e-9)
    assert not weakly_majorized([1.0 + 5e-9, 0.0, 0.0], a, tol=1e-9)


def test_rado_member_examples():
    a = [1.0, 2.0, 3.0]
    assert rado_member([2, 2, 2], a)          # centroid
    assert rado_member([3, 1, 2], a)          # a vertex
    assert not rado_member([0, 2, 4], a)      # right total, too spread
    assert not rado_member([1, 1, 1], a)      # wrong total


def test_rado_member_matches_convex_hull_closure():
    """Random convex mixtures of permuted copies must test as members."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = rng.integers(2, 6)
        a = rng.normal(size=n)
        k = rng.integers(1, 5)
        w = rng.dirichlet(np.ones(k))
        x = np.zeros(n)
        for i in range(k):
            x += w[i] * rng.permutation(a)
        assert rado_member(x, a)


def test_sign_perm_member_examples():
    a = [1.0, 2.0, 3.0]
    assert sign_perm_member([-2, 2, 1], a)
    assert sign_perm_member([0, 0, 0], a)
    assert sign_perm_member([-3, -2, -1], a)   # fully reflected vertex
    assert not sign_perm_member([3, 3, 0], a)
    assert not sign_perm_member([4, 0, 0], a)


def test_sign_perm_member_closed_under_mixing_and_flips():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = rng.integers(2, 6)
        a = rng.normal(size=n)
        k = rng.integers(1, 5)
        w = rng.dirichlet(np.ones(k))
        x = np.zeros(n)
        for i in range(k):
            signs = rng.choice([-1.0, 1.0], size=n)
            x += w[i] * (signs * rng.permutation(a))
        assert sign_perm_member(x, a)
        # shrinking toward the origin keeps membership
        assert sign_perm_member(0.5 * x, a)


#: Entries with ties, zeros of both signs and negatives, and any float in
#: [-4, 4]; :func:`_scaled_pairs` scales a pair by one ``2^e``.
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0]),
                     st.floats(-4.0, 4.0))


@st.composite
def _scaled_pairs(draw):
    n = draw(st.integers(1, 8))
    scale = 2.0 ** draw(st.integers(-60, 60))
    return tuple(scale * np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
                 for _ in range(2))


def _outcome(predicate, x, a):
    """The verdict of ``predicate(x, a)``, or ``ValueError`` if it raises one."""
    try:
        return predicate(x, a)
    except ValueError:
        return ValueError


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(points=_scaled_pairs(), seed=st.integers(0, 2**32 - 1))
@example(points=(np.array([0.1, 0.4, -0.2, 1.1]), np.array([0.3, -1.5, 2.0, 0.0])),
         seed=31)
def test_sign_perm_member_invariant_under_signed_permutations(points, seed):
    """Each predicate answers the same (the same bool, or ``ValueError``
    both times) when its points move by the polytope's symmetries:
    ``sign_perm_member`` under signed permutations of ``x`` and, apart,
    of ``a``; the other three under permutations of either point.
    ``majorizes(b, a)`` also implies ``weakly_majorized(a, b)``."""
    x, a = points
    n = x.size
    rng = np.random.default_rng(seed)
    for _ in range(5):
        perm, signs = rng.permutation(n), rng.choice([-1.0, 1.0], size=n)
        for p, q in ((signs * x[perm], a), (x, signs * a[perm])):
            assert _outcome(sign_perm_member, p, q) == _outcome(sign_perm_member, x, a)
        for predicate in (weakly_majorized, majorizes, rado_member):
            for p, q in ((x[perm], a), (x, a[perm])):
                assert _outcome(predicate, p, q) == _outcome(predicate, x, a)
    for b, c in ((x, a), (a, x)):
        if _outcome(majorizes, b, c) is True:
            assert weakly_majorized(c, b)


def test_sum_of_sorted_dominates_sum():
    """Descending rearrangements majorize sums: a + b is majorized by
    sorting both first and adding."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = rng.integers(2, 7)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        top = np.sort(a)[::-1] + np.sort(b)[::-1]
        assert majorizes(top, a + b)


def test_scalar_dimension():
    assert majorizes([2.0], [2.0])
    assert not majorizes([2.0], [1.0])
    assert weakly_majorized([1.0], [2.0])
    assert sign_perm_member([-1.5], [2.0])
    assert not sign_perm_member([2.5], [2.0])


# inf - inf in the partial sums warns before the check raises
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("predicate", [majorizes, weakly_majorized, rado_member,
                                       sign_perm_member, hulls_disjoint])
@pytest.mark.parametrize("x, a", [
    ([0.5, 0.0], [np.inf, 0.0]),
    ([np.inf, 0.0], [0.5, 0.5]),
    ([0.5, np.nan], [0.5, 0.5]),
    ([0.5, 0.5], [np.nan, 0.0]),
    ([np.inf, -np.inf], [1.0, 1.0]),
], ids=["inf-anchor", "inf-point", "nan-point", "nan-anchor", "inf-minus-inf"])
def test_non_finite_entries_raise(predicate, x, a):
    """A NaN or infinite entry is refused, as the vertex route refuses
    it, never read as a verdict."""
    with pytest.raises(ValueError, match="finite"):
        predicate(x, a)



@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("predicate", [majorizes, weakly_majorized, rado_member,
                                       sign_perm_member, hulls_disjoint])
@pytest.mark.parametrize("x, a", [
    ([1e308, 1e308], [1e308, 9e307]),
    ([0.5, 0.0], [1e308, 1e308]),
    ([-1e308, -1e308], [0.5, 0.0]),
], ids=["both", "anchor", "negative-point"])
def test_overflowing_sums_raise(predicate, x, a):
    """Every entry is finite, but a sum overflows to infinity, where
    ``inf <= inf`` would read as a verdict: refused instead."""
    with pytest.raises(ValueError, match="overflow"):
        predicate(x, a)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_difference_of_finite_sums_is_a_verdict():
    """Sums of 1e308 and -1e308 are finite; only their difference
    overflows, and it is still a gap far above the tolerance."""
    assert hulls_disjoint([1e308, 0.0], [-1e308, 0.0])
    assert not majorizes([1e308, 0.0], [-1e308, 0.0])
    assert not rado_member([1e308, 0.0], [-1e308, 0.0])
    # sx + sa = 1e308 + 1.1e308 overflows, both sums are finite
    assert weakly_majorized([1e308, 0.0], [1e308, 1e307])
    assert sign_perm_member([-1e308, 0.0], [1e308, 1e307])


# ------------------------------------- fused partial sums against the seed's

def _seed_partial_sums(v):
    """The per-vector partial sums the fused ``(2, n)`` pass replaced."""
    return np.cumsum(np.sort(v)[::-1])


def _seed_weakly_majorized(x, a, tol=1e-9):
    return bool(np.all(_seed_partial_sums(x) <= _seed_partial_sums(a) + tol))


def _seed_majorizes(b, a, tol=1e-9):
    sa, sb = _seed_partial_sums(a), _seed_partial_sums(b)
    if abs(sa[-1] - sb[-1]) > tol:
        return False
    return bool(np.all(sa <= sb + tol))


def _same_bits(p, q):
    return p.shape == q.shape and p.tobytes() == q.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.one_of(st.integers(1, 12), st.integers(1, 1000)),
       seed=st.integers(0, 2**32 - 1),
       values=st.sampled_from(["normal", "ties", "signed-zeros"]),
       relation=st.sampled_from(["mixed", "equal", "up", "down", "flipped",
                                 "dominated", "top-too-big"]))
def test_fused_partial_sums_match_per_vector_sums(n, seed, values, relation):
    """Sorting and summing both points as one ``(2, n)`` array gives the
    per-vector partial sums bit for bit, and every predicate the seed's
    verdict, at ties, signed zeros, points on or next to the boundary,
    and the points whose sorted entries settle the verdict early: those
    below the anchor entry by entry and those whose largest entry is too
    big."""
    rng = np.random.default_rng(seed)
    if values == "normal":
        a = rng.normal(size=n)
    elif values == "ties":
        a = rng.integers(-3, 4, size=n).astype(float)
    else:
        a = rng.choice([-0.0, 0.0, 1.0, -2.0], size=n)
    if relation == "mixed":
        w = rng.dirichlet(np.ones(3))
        x = sum(wi * rng.choice([-1.0, 1.0], size=n) * a[rng.permutation(n)]
                for wi in w)
    elif relation == "equal":
        x = a.copy()
    elif relation == "up":
        x = a * (1 + 1e-12)
    elif relation == "down":
        x = a * (1 - 1e-12)
    elif relation == "flipped":
        x = rng.choice([-1.0, 1.0], size=n) * a[rng.permutation(n)]
    elif relation == "dominated":
        x = a * rng.uniform(0.5, 1.0, size=n)
    else:
        x = a.copy()
        x[np.argmax(x)] *= rng.choice([1 + 1e-12, 1.05])
    s = np.array((x, a))
    s.sort()
    fused = _partial_sums_desc(s)
    assert _same_bits(fused[0], _seed_partial_sums(x))
    assert _same_bits(fused[1], _seed_partial_sums(a))
    assert majorizes(a, x) == _seed_majorizes(a, x)
    assert majorizes(x, a) == _seed_majorizes(x, a)
    assert rado_member(x, a) == _seed_majorizes(a, x)
    assert weakly_majorized(x, a) == _seed_weakly_majorized(x, a)
    assert weakly_majorized(a, x) == _seed_weakly_majorized(a, x)
    assert sign_perm_member(x, a) == _seed_weakly_majorized(np.abs(x), np.abs(a))


# ------------------------------------------- early verdicts from sorted entries

_FINITE_MESSAGE = "point coordinates must be finite"
_OVERFLOW_MESSAGE = "partial sums of the coordinates overflow"


def _seed_outcome(predicate, x, a, tol):
    """What ``predicate(x, a, tol)`` returned at the seed: the per-vector
    verdict, or the ``ValueError`` message for a NaN or infinite entry,
    or for finite entries whose partial sums overflow."""
    with np.errstate(all="ignore"):
        x, a = np.array(x, dtype=float), np.array(a, dtype=float)
        if predicate is sign_perm_member:
            x, a = np.abs(x), np.abs(a)
        if not (np.isfinite(x).all() and np.isfinite(a).all()):
            return _FINITE_MESSAGE
        if not (np.isfinite(_seed_partial_sums(x)[-1])
                and np.isfinite(_seed_partial_sums(a)[-1])):
            return _OVERFLOW_MESSAGE
        if predicate is majorizes:
            return _seed_majorizes(x, a, tol)
        if predicate is rado_member:
            return _seed_majorizes(a, x, tol)
        return _seed_weakly_majorized(x, a, tol)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")], ids=["0", "-1e-9", "nan"])
@pytest.mark.parametrize("predicate", [majorizes, weakly_majorized, rado_member,
                                       sign_perm_member])
@pytest.mark.parametrize("x, a", [
    ([0.5, 0.0], [1e308, 1e308]),
    ([2e308 / 4, 0.0], [1e308, 1e308]),
    ([1e308, 1e308], [0.5, 0.0]),
    ([-1e308, -1e308], [0.5, 0.0]),
    ([1e308, 0.0], [1e308, 1e307]),
    ([1e308, -1e308], [1.0, 0.0]),
    ([3.0, 0.0], [1e308, 0.0]),
    ([-np.inf, 0.0], [1.0, 1.0]),
    ([5.0, 0.0], [1.0, -np.inf]),
    ([0.5, 0.0], [np.inf, 0.0]),
    ([np.inf, 0.0], [0.5, 0.5]),
    ([np.nan, 0.0], [1.0, 1.0]),
    ([5.0, 0.0], [1.0, np.nan]),
    ([1.0, 0.5], [0.5, 1.0]),
], ids=["dominated-overflowing-anchor", "half-max-overflowing-anchor",
        "overflowing-point", "overflowing-negative-point", "finite-sums",
        "cancelling-point", "huge-anchor", "minus-inf-point", "minus-inf-anchor",
        "inf-anchor", "inf-point", "nan-point", "nan-anchor", "permuted"])
def test_early_verdicts_keep_the_seed_outcome(predicate, x, a, tol):
    """Where the sorted entries could settle a verdict but an entry is
    NaN or infinite, a partial sum overflows or ``tol`` is not
    nonnegative (a permuted point fails its own partial sums by
    ``-1e-9``), every predicate still answers or raises as the seed's
    per-vector sums did."""
    want = _seed_outcome(predicate, x, a, tol)
    if isinstance(want, str):
        with pytest.raises(ValueError) as info:
            predicate(x, a, tol)
        assert str(info.value) == want
    else:
        assert predicate(x, a, tol) is want


@pytest.mark.parametrize("call, verdict", [
    (lambda: sign_perm_member([-0.5, 1.0, 0.2], [1.0, -2.0, 0.5]), True),
    (lambda: weakly_majorized([0.5, 1.0, 0.2], [1.0, 2.0, 0.5]), True),
    (lambda: majorizes([1.0, 2.0, 3.0], [4.0, 1.0, 1.0]), False),
    (lambda: weakly_majorized([4.0, 0.0, 0.0], [1.0, 2.0, 3.0]), False),
    (lambda: rado_member([4.0, 1.0, 1.0], [1.0, 2.0, 3.0]), False),
    (lambda: sign_perm_member([-4.0, 0.0, 0.0], [1.0, 2.0, 3.0]), False),
    (lambda: sign_perm_member([3.0 + 2e-9, 0.0], [1.0, -3.0]), False),
], ids=["dominated-sign-perm", "dominated-weak", "top-majorizes", "top-weak",
        "top-rado", "top-sign-perm", "top-just-past-tol"])
def test_settled_verdicts_skip_the_partial_sums(counts, call, verdict):
    """Dominated weak-majorization members and every predicate's
    non-members by the largest entry are answered without the sums."""
    assert call() is verdict
    assert (counts.largest, counts.dominated, counts.sums) == (int(not verdict), int(verdict), 0)


@pytest.mark.parametrize("call, verdict", [
    (lambda: rado_member([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]), True),
    (lambda: weakly_majorized([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]), True),
    (lambda: sign_perm_member([0.5, -0.5], [1.0, 1.0], tol=-1e-9), True),
    (lambda: sign_perm_member([0.5, 0.0], [1e308, 1e308]), ValueError),
    (lambda: weakly_majorized([3.0 + 1e-9, 0.0], [3.0, 0.0]), True),
    (lambda: sign_perm_member([0.5, 0.0], [1.0, 0.0], tol=0), True),
    (lambda: weakly_majorized([1.0 + 5e-10, 0.0], [1.0, 0.0], tol=np.float32(1e-9)), True),
], ids=["rado-member", "crossing-weak-member", "negative-tol",
        "overflowing-anchor", "top-within-tol", "int-tol", "float32-tol"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_unsettled_verdicts_reach_the_partial_sums(counts, call, verdict):
    """Members that are not dominated, a negative or non-float ``tol``,
    and sums that overflow (which raise) are left to the partial sums."""
    if verdict is ValueError:
        with pytest.raises(ValueError, match="overflow"):
            call()
    else:
        assert call() is verdict
    assert (counts.largest, counts.dominated, counts.sums) == (0, 0, 1)
