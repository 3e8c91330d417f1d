"""Acceptance checks: one timed pass/fail line per criterion.

Each test exercises one end-to-end guarantee of the package at its
stated tolerance and prints a single summary line (bypassing pytest's
capture) so a plain ``pytest tests/test_acceptance.py`` run shows the
scoreboard.  A criterion fails either on a wrong value or on blowing
its time budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from signpoly import (
    DecompositionInput,
    DensityMatrix,
    PureState,
    count_sign_perm_vertices,
    cross_polytope_volume,
    enumerate_perm_vertices,
    enumerate_pure_sign_perms,
    enumerate_sign_perm_vertices,
    hs_distance,
    hs_volume,
    hull_member_lp,
    hulls_disjoint,
    max_inscribed_cross_polytope,
    rado_member,
    robustness_fraction,
    sign_perm_member,
    three_tangle,
    to_coords,
    traceless_hermitian_basis,
)
from signpoly.simplex import feasible_nonneg

@pytest.fixture
def criterion(capfd):
    """Time a criterion body and print one pass/fail line past capture."""

    @contextmanager
    def runner(number, label, limit_s):
        info = {}
        start = time.perf_counter()
        try:
            yield info
        except BaseException:
            _emit(capfd, number, label, "FAIL",
                  time.perf_counter() - start, limit_s, info)
            raise
        elapsed = time.perf_counter() - start
        status = "PASS" if elapsed < limit_s else "FAIL"
        _emit(capfd, number, label, status, elapsed, limit_s, info)
        assert elapsed < limit_s, \
            f"criterion {number} took {elapsed:.2f}s (limit {limit_s}s)"

    return runner


def _emit(capfd, number, label, status, elapsed, limit_s, info):
    note = f"  [{info['note']}]" if "note" in info else ""
    with capfd.disabled():
        print(f"criterion {number:2d} {label:<34s} {status}"
              f"  ({elapsed:6.2f}s / limit {limit_s:g}s){note}", flush=True)


def _random_density(rng, d):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    M = G @ G.conj().T
    return M / np.trace(M).real


def _qubit_from_chart(coords):
    basis = traceless_hermitian_basis(2)
    M = np.eye(2, dtype=complex) / 2 + np.tensordot(coords, basis, axes=1)
    return DensityMatrix(M)


# --------------------------------------------------------------- criteria

def test_01_vertex_count_four_distinct_nonzero(criterion):
    """2^4 * 8!/4! = 26880 signed arrangements, by count and by listing."""
    with criterion(1, "vertex count 26880", 10.0):
        a = np.array([4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        assert count_sign_perm_vertices(a) == 26880
        assert len(enumerate_sign_perm_vertices(a)) == 26880


def test_02_cuboctahedron_from_bloch_vector(criterion):
    """A qubit pure state on the (1,0,1)/sqrt(2) Bloch axis has exactly
    12 pure signed arrangements of its chart point: a cuboctahedron."""
    with criterion(2, "cuboctahedron 12 vertices", 1.0):
        psi = PureState(np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)]))
        np.testing.assert_allclose(
            to_coords(psi.to_density()),
            [0.5, 0.0, 0.5], atol=1e-12)
        result = enumerate_pure_sign_perms(psi, filter="any-pure", target="bloch")
        assert result.total == 12
        assert result.retained == 12
        stack = np.array([PureState(a).amplitudes for a in result.amplitudes])
        gram = np.abs(stack @ stack.conj().T)
        assert np.sum(gram > 1.0 - 1e-9) == 12  # pairwise distinct states


def test_03_tangle_filter_pipeline(criterion):
    """Full pipeline on the 8-amplitude example state: 26880 candidates
    (hard), and the count with three-way entanglement <= 1e-9 is
    reported (target 5376, soft)."""
    with criterion(3, "tangle filter 26880 -> 5376", 300.0) as info:
        amps = np.zeros(8, dtype=complex)
        amps[0] = 0.758j
        amps[2] = 0.809 - 0.588j
        amps[5] = 0.809 + 0.588j
        amps[7] = 0.242
        psi, _ = PureState.normalized(amps)
        result = enumerate_pure_sign_perms(psi, filter="w-type", tol=1e-9)
        assert result.total == 26880
        if result.retained != 5376:
            info["note"] = f"tangle-free count {result.retained}, target 5376"


def test_04_fraction_times_volume_identity(criterion):
    """fraction(d, a) * hs_volume(d) equals the chart cross-polytope
    volume at dimension d^2-1, to relative 1e-10."""
    with criterion(4, "fraction*volume identity", 1.0):
        for d in (2, 3, 4):
            for alpha in (0.05, 0.25, 0.7):
                product = robustness_fraction(d, alpha) * hs_volume(d)
                direct = cross_polytope_volume(d * d - 1, alpha)
                assert abs(product - direct) <= 1e-10 * direct


def test_05_qubit_state_space_volume(criterion):
    """hs_volume(2) = pi/6, the ball of radius 1/2 in the chart."""
    with criterion(5, "hs_volume(2) = pi/6", 1.0):
        assert abs(hs_volume(2) - math.pi / 6.0) <= 1e-12


def test_06_majorization_agrees_with_lp(criterion):
    """Partial-sum membership tests match LP hull membership over the
    explicit vertex sets: 200 pairs per dimension, zero disagreements."""
    with criterion(6, "majorization vs LP, 600 pairs", 30.0):
        rng = np.random.default_rng(2026)
        for n in (2, 3, 4):
            for trial in range(200):
                a = rng.normal(size=n) * rng.uniform(0.5, 2.0)
                perm_vertices = enumerate_perm_vertices(a)
                sign_vertices = enumerate_sign_perm_vertices(a)
                if trial % 2 == 0:
                    w = rng.dirichlet(np.ones(len(sign_vertices)))
                    x = w @ sign_vertices.array
                else:
                    x = rng.normal(size=n) * rng.uniform(0.2, 2.0)
                assert rado_member(x, a) == hull_member_lp(x, perm_vertices)[0]
                assert sign_perm_member(x, a) == hull_member_lp(x, sign_vertices)[0]


def test_07_hull_disjointness_sum_criterion(criterion):
    """The coordinate-sum test for disjoint permutation hulls agrees
    with an LP searching for a common point, on 50 integer pairs."""
    with criterion(7, "disjointness vs LP, 50 pairs", 30.0):
        rng = np.random.default_rng(7)
        for trial in range(50):
            a = rng.integers(-4, 5, size=3).astype(float)
            b = rng.integers(-4, 5, size=3).astype(float)
            if trial % 2 == 0:  # force equal sums half the time
                b[-1] += a.sum() - b.sum()
            va = enumerate_perm_vertices(a).array
            vb = enumerate_perm_vertices(b).array
            # common point: va^T u = vb^T w, sum u = sum w = 1, u, w >= 0
            k, p = len(va), len(vb)
            A = np.zeros((5, k + p))
            A[:3, :k] = va.T
            A[:3, k:] = -vb.T
            A[3, :k] = 1.0
            A[4, k:] = 1.0
            feasible, _ = feasible_nonneg(A, np.array([0.0, 0.0, 0.0, 1.0, 1.0]))
            assert hulls_disjoint(a, b) == (not feasible)


def test_08_monte_carlo_cross_volume(criterion):
    """Rejection sampling from the bounding cube reproduces
    (2 alpha)^n / n! within three standard errors at 1e6 samples."""
    with criterion(8, "Monte-Carlo volume 3x1e6", 30.0):
        rng = np.random.default_rng(88)
        n_samples = 1_000_000
        for n in (2, 3, 4):
            pts = rng.uniform(-1.0, 1.0, size=(n_samples, n))
            hits = int(np.count_nonzero(np.abs(pts).sum(axis=1) <= 1.0))
            p_hat = hits / n_samples
            cube = 2.0 ** n
            estimate = cube * p_hat
            sigma = cube * math.sqrt(p_hat * (1.0 - p_hat) / n_samples)
            exact = cross_polytope_volume(n, 1.0)
            assert abs(estimate - exact) <= 3.0 * sigma


def test_09_inscribed_scale_recovery(criterion):
    """The ray LPs recover the known best scale on two decompositions
    of the maximally mixed qubit: octahedral radius 0.4 and cube
    half-width 0.3."""
    with criterion(9, "inscribed scale 0.4 / 0.3", 10.0):
        mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
        eye = np.eye(3)

        octa = [_qubit_from_chart(s * 0.4 * eye[k]) for k in range(3) for s in (1, -1)]
        poly = max_inscribed_cross_polytope(
            DecompositionInput(mixed, octa, [1 / 6] * 6))
        assert abs(poly.alpha - 0.4) <= 1e-6

        corners = [_qubit_from_chart(0.3 * np.array([sx, sy, sz]))
                   for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
        poly = max_inscribed_cross_polytope(
            DecompositionInput(mixed, corners, [1 / 8] * 8))
        assert abs(poly.alpha - 0.3) <= 1e-6


def test_10_chart_isometry(criterion):
    """Hilbert-Schmidt distance equals Euclidean distance of chart
    coordinates on 50 random state pairs for d in {2, 3}."""
    with criterion(10, "chart isometry, 100 pairs", 5.0):
        rng = np.random.default_rng(10)
        for d in (2, 3):
            for _ in range(50):
                rho = _random_density(rng, d)
                sigma = _random_density(rng, d)
                gap = np.linalg.norm(to_coords(rho) - to_coords(sigma))
                assert abs(hs_distance(rho, sigma) - gap) <= 1e-10


def test_11_tangle_anchor_states(criterion):
    """Known anchors: the two-branch superposition has full three-way
    entanglement, the single-excitation state and a product state none."""
    with criterion(11, "tangle anchors", 1.0):
        ghz = np.zeros(8)
        ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
        assert abs(three_tangle(ghz) - 1.0) <= 1e-10

        w = np.zeros(8)
        w[1] = w[2] = w[4] = 1.0 / math.sqrt(3.0)
        assert abs(three_tangle(w)) <= 1e-10

        product = np.zeros(8)
        product[0] = 1.0
        assert three_tangle(product) == 0.0


def test_12_insphere_containment(criterion):
    """Every point of 2-norm at most alpha/sqrt(n) is a member of the
    cross-polytope of scale alpha: 1000 random ball points, n in {3, 8}."""
    with criterion(12, "insphere containment 2x1000", 5.0):
        rng = np.random.default_rng(12)
        alpha = 1.0
        for n in (3, 8):
            a = np.zeros(n)
            a[0] = alpha
            directions = rng.normal(size=(1000, n))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            radii = (alpha / math.sqrt(n)) * rng.uniform(size=1000) ** (1.0 / n)
            failures = sum(
                1 for i in range(1000)
                if not sign_perm_member(radii[i] * directions[i], a))
            assert failures == 0
