import numpy as np
import pytest

from signpoly import (
    DimensionMismatchError,
    majorizes,
    rado_member,
    sign_perm_member,
    weakly_majorized,
)


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


def test_sign_perm_member_invariant_under_signed_permutations():
    rng = np.random.default_rng(31)
    a = np.array([0.3, -1.5, 2.0, 0.0])
    x = np.array([0.1, 0.4, -0.2, 1.1])
    ref = sign_perm_member(x, a)
    for _ in range(20):
        perm, signs = rng.permutation(4), rng.choice([-1.0, 1.0], size=4)
        assert sign_perm_member(signs * x[perm], a) == ref
        assert sign_perm_member(x, signs * a[perm]) == ref


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
