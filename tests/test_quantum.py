import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signpoly import (
    DensityMatrix,
    EnumerationTooLargeError,
    PureState,
    StateValidationError,
    enumerate_pure_sign_perms,
    from_coords,
    hs_distance,
    make_canonical,
    pure_from_density,
    purity,
    three_tangle,
    to_coords,
    traceless_hermitian_basis,
    validate_state,
)
from signpoly.quantum import _hyperdeterminant

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _random_density(rng, d):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    M = G @ G.conj().T
    return DensityMatrix(M / np.trace(M).real)


def _random_pure(rng, d=8):
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(amps / np.linalg.norm(amps))


# ------------------------------------------------------------------ basis

@pytest.mark.parametrize("d", [2, 3, 4])
def test_basis_is_orthonormal_traceless_hermitian(d):
    basis = traceless_hermitian_basis(d)
    assert len(basis) == d * d - 1
    for j, B in enumerate(basis):
        assert abs(np.trace(B)) < 1e-14
        np.testing.assert_allclose(B, B.conj().T, atol=1e-14)
        for k, C in enumerate(basis):
            inner = np.trace(B @ C).real
            assert inner == pytest.approx(1.0 if j == k else 0.0, abs=1e-14)


def test_basis_order_for_qubits():
    basis = traceless_hermitian_basis(2)
    np.testing.assert_allclose(basis[0], SIGMA_X / math.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(basis[1], SIGMA_Y / math.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(basis[2], SIGMA_Z / math.sqrt(2), atol=1e-15)


def test_basis_rejects_trivial_dimension():
    with pytest.raises(ValueError):
        traceless_hermitian_basis(1)


# ------------------------------------------------------------------ states

class TestDensityMatrix:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(3) / 3)
        assert rho.dim == 3
        assert purity(rho) == pytest.approx(1.0 / 3.0)

    def test_not_square(self):
        with pytest.raises(StateValidationError) as exc:
            DensityMatrix(np.ones((2, 3)))
        assert exc.value.kind == "not-square"

    def test_not_hermitian(self):
        M = np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex)
        with pytest.raises(StateValidationError) as exc:
            DensityMatrix(M)
        assert exc.value.kind == "not-hermitian"
        assert exc.value.magnitude == pytest.approx(0.2)

    def test_bad_trace(self):
        with pytest.raises(StateValidationError) as exc:
            DensityMatrix(np.eye(2))
        assert exc.value.kind == "bad-trace"
        assert exc.value.magnitude == pytest.approx(1.0)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diag", "off"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    def test_not_finite(self, entry, value):
        """A NaN or infinite entry is named as such, on or off the
        diagonal, before any arithmetic that would warn about it."""
        M = np.eye(2, dtype=complex) / 2
        M[entry] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateValidationError) as exc:
                DensityMatrix(M)
            with pytest.raises(StateValidationError) as raw:
                to_coords(M)
        assert exc.value.kind == raw.value.kind == "not-finite"
        assert not exc.value.magnitude < math.inf  # inf or NaN

    def test_not_psd(self):
        with pytest.raises(StateValidationError) as exc:
            DensityMatrix(np.diag([1.2, -0.2]))
        assert exc.value.kind == "not-psd"
        assert exc.value.magnitude == pytest.approx(-0.2)

    def test_matrix_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_validate_state_tolerance(self):
        M = np.diag([1.0 + 5e-10, -5e-10])
        assert isinstance(validate_state(M), DensityMatrix)
        with pytest.raises(StateValidationError):
            validate_state(np.diag([1.0 + 5e-6, -5e-6]))


    def test_hs_distance_needs_one_shape(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            hs_distance(np.eye(2) / 2, np.eye(3) / 3)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_nan_entry_is_rejected(self, entry):
        M = np.eye(2, dtype=complex) / 2
        M[entry] = np.nan
        with pytest.raises(StateValidationError):
            DensityMatrix(M)
        for raw_array_function in (to_coords, purity,
                                   lambda a: hs_distance(np.eye(2) / 2, a)):
            with pytest.raises(StateValidationError):
                raw_array_function(M)


class TestPureState:
    def test_unit_norm_enforced(self):
        PureState([1.0, 0.0])
        with pytest.raises(ValueError):
            PureState([1.0, 1.0])
        with pytest.raises(ValueError, match="unit norm"):
            PureState([np.nan, 1.0])

    @pytest.mark.parametrize("amps", [[[1.0, 0.0]], [1.0]], ids=["2-d", "length-1"])
    def test_shape_enforced(self, amps):
        with pytest.raises(ValueError, match="1-d vector of length >= 2"):
            PureState(amps)

    def test_normalized_records_factor(self):
        psi, norm = PureState.normalized([3.0, 4.0])
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(psi.amplitudes, [0.6, 0.8])
        with pytest.raises(ValueError):
            PureState.normalized([0.0, 0.0])

    def test_projector_and_density(self):
        psi = PureState([1 / math.sqrt(2), 1j / math.sqrt(2)])
        rho = psi.to_density()
        assert purity(rho) == pytest.approx(1.0)
        np.testing.assert_allclose(rho.matrix,
                                   [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-15)


def test_purity_examples():
    assert purity(DensityMatrix(np.diag([0.75, 0.25]))) == pytest.approx(0.625)
    assert purity(np.eye(4) / 4) == pytest.approx(0.25)


def test_pure_from_density_round_trip():
    rng = np.random.default_rng(12)
    for d in (2, 3, 8):
        psi = _random_pure(rng, d)
        back = pure_from_density(psi.to_density())
        overlap = abs(np.vdot(back.amplitudes, psi.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_pure_from_density_rejects_mixed():
    with pytest.raises(ValueError):
        pure_from_density(DensityMatrix(np.eye(2) / 2))


# ------------------------------------------------------------------ the chart

def test_coords_of_special_states():
    c = to_coords(DensityMatrix(np.eye(2) / 2))
    np.testing.assert_allclose(c, 0.0, atol=1e-15)

    c = to_coords(DensityMatrix(np.diag([1.0, 0.0])))
    np.testing.assert_allclose(c, [0.0, 0.0, 1 / math.sqrt(2)],
                               atol=1e-15)


def test_from_coords_inverts_to_coords():
    rng = np.random.default_rng(77)
    for d in (2, 3, 4):
        states = [_random_density(rng, d) for _ in range(10)]
        for rho in states:
            c = to_coords(rho)
            np.testing.assert_allclose(from_coords(c), rho.matrix, atol=1e-12)
        # a (2, 5, d, d) stack maps row by row to (2, 5, d*d - 1)
        stack = np.array([rho.matrix for rho in states]).reshape(2, 5, d, d)
        c = to_coords(stack)
        assert c.shape == (2, 5, d * d - 1)
        np.testing.assert_allclose(
            c.reshape(10, -1), [to_coords(rho) for rho in states], rtol=0, atol=1e-15)
        np.testing.assert_allclose(from_coords(c), stack, atol=1e-12)


def test_chart_covers_nonpositive_hermitian_matrices():
    # the chart round-trips on the whole unit-trace Hermitian hyperplane
    M = np.diag([1.5, -0.5]).astype(complex)
    c = to_coords(M)
    np.testing.assert_allclose(from_coords(c), M, atol=1e-14)
    # ... but rejects wrong trace or non-Hermitian input
    with pytest.raises(StateValidationError) as exc:
        to_coords(np.eye(2).astype(complex) * 0.75)
    assert exc.value.kind == "bad-trace"
    with pytest.raises(StateValidationError) as exc:
        to_coords(np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex))
    assert exc.value.kind == "not-hermitian"
    # a raw stack raises the error of its first matrix that is not in
    # the hyperplane, here the second (the third, of trace 2, is later)
    bent = np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex)
    with pytest.raises(StateValidationError) as exc:
        to_coords(np.array([M, bent, np.eye(2)]))
    with pytest.raises(StateValidationError) as alone:
        to_coords(bent)
    assert exc.value.kind == "not-hermitian"
    assert ((exc.value.kind, repr(exc.value.magnitude), str(exc.value))
            == (alone.value.kind, repr(alone.value.magnitude), str(alone.value)))


def test_from_coords_center_is_maximally_mixed():
    np.testing.assert_allclose(from_coords(np.zeros(8)), np.eye(3) / 3, atol=1e-15)


def test_far_coords_give_invalid_states():
    M = from_coords([2.0, 0.0, 0.0])
    with pytest.raises(StateValidationError) as exc:
        validate_state(M)
    assert exc.value.kind == "not-psd"


def test_state_coords_validation():
    for n in (0, 1, 2, 4, 7, 9):  # not d*d - 1 for any d >= 2
        with pytest.raises(ValueError):
            from_coords(np.zeros(n))
    with pytest.raises(ValueError):
        from_coords(0.0)


def _hermitian_unit_trace(d, x):
    """The Hermitian unit-trace matrix built from d*d reals: the diagonal,
    then the real and the imaginary parts of the strict upper triangle.
    Most such matrices are not states."""
    j, k = np.triu_indices(d, 1)
    M = np.diag(np.asarray(x[:d], dtype=complex))
    M[j, k] = np.asarray(x[d:d + j.size]) + 1j * np.asarray(x[d + j.size:])
    M[k, j] = M[j, k].conj()
    return M + (1.0 - np.trace(M).real) / d * np.eye(d)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from([2, 3, 4]), data=st.data())
def test_array_chart(d, data):
    entries = st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d)
    A, B, C = (_hermitian_unit_trace(d, data.draw(entries)) for _ in range(3))
    a, b, c = to_coords(A), to_coords(B), to_coords(C)
    assert a.shape == (d * d - 1,)
    with pytest.raises(ValueError):
        a[0] = 0.0
    np.testing.assert_allclose(from_coords(a), A, rtol=0, atol=1e-12)
    assert abs(np.linalg.norm(a - b) - hs_distance(A, B)) <= 1e-12
    stack = np.array([a, b, c])
    rows = [from_coords(r) for r in stack]
    np.testing.assert_allclose(from_coords(stack), rows, rtol=0, atol=1e-15)
    for n in (d * d - 2, d * d):
        with pytest.raises(ValueError):
            from_coords(np.zeros(n))
        with pytest.raises(ValueError):
            from_coords(np.zeros((3, n)))


def test_chart_is_an_isometry():
    rng = np.random.default_rng(123)
    for d in (2, 3):
        for _ in range(25):
            r1 = _random_density(rng, d)
            r2 = _random_density(rng, d)
            euclid = float(np.linalg.norm(to_coords(r1) - to_coords(r2)))
            assert abs(euclid - hs_distance(r1, r2)) < 1e-10


def test_purity_from_coordinate_norm():
    """Tr rho^2 = 1/d + |c|^2 ties the chart radius to mixedness."""
    rng = np.random.default_rng(321)
    for d in (2, 3):
        rho = _random_density(rng, d)
        c = to_coords(rho)
        assert purity(rho) == pytest.approx(1.0 / d + float(c @ c), abs=1e-12)


# ------------------------------------------------------------------ 3-tangle

def test_tangle_anchor_states():
    assert three_tangle(make_canonical("ghz")) == pytest.approx(1.0, abs=1e-10)
    assert three_tangle(make_canonical("w")) == pytest.approx(0.0, abs=1e-10)
    zero = np.zeros(8)
    zero[0] = 1.0
    assert three_tangle(PureState(zero)) == 0.0


def test_tangle_input_validation():
    with pytest.raises(ValueError):
        three_tangle(PureState([1.0, 0.0]))
    with pytest.raises(ValueError):
        three_tangle(np.ones(8) / 2.0 * 1.01)  # not unit norm


def test_make_canonical():
    w = make_canonical("W")
    np.testing.assert_allclose(np.flatnonzero(w.amplitudes), [1, 2, 4])
    ghz = make_canonical("ghz")
    np.testing.assert_allclose(np.flatnonzero(ghz.amplitudes), [0, 7])
    with pytest.raises(ValueError):
        make_canonical("bell")


def test_tangle_invariant_under_global_phase_and_local_flips():
    rng = np.random.default_rng(2)
    for _ in range(20):
        psi = _random_pure(rng)
        t0 = three_tangle(psi)
        # global phase
        assert three_tangle(PureState(psi.amplitudes * np.exp(0.7j))) == \
            pytest.approx(t0, abs=1e-10)
        # |0> <-> |1> relabeling on each tensor factor
        tensor = psi.amplitudes.reshape(2, 2, 2)
        for axis in range(3):
            flipped = np.flip(tensor, axis=axis).reshape(8)
            assert three_tangle(PureState(flipped)) == pytest.approx(t0, abs=1e-10)


def test_tangle_invariant_under_party_relabeling():
    rng = np.random.default_rng(3)
    for _ in range(20):
        psi = _random_pure(rng)
        t0 = three_tangle(psi)
        tensor = psi.amplitudes.reshape(2, 2, 2)
        for perm in itertools.permutations(range(3)):
            swapped = np.transpose(tensor, perm).reshape(8)
            assert three_tangle(PureState(swapped)) == pytest.approx(t0, abs=1e-10)


def test_tangle_of_w_under_party_relabelings_stays_zero():
    w = make_canonical("w").amplitudes.reshape(2, 2, 2)
    for perm in itertools.permutations(range(3)):
        assert three_tangle(PureState(np.transpose(w, perm).reshape(8))) == \
            pytest.approx(0.0, abs=1e-12)


def test_tangle_not_invariant_under_arbitrary_amplitude_permutations():
    """Moving W's three equal amplitudes onto a support containing a pair
    of complementary basis indices (here 000 and 111) creates genuine
    three-way entanglement; only relabeling-induced permutations are
    guaranteed to preserve the tangle."""
    amps = np.zeros(8)
    amps[[0, 1, 7]] = 1.0 / math.sqrt(3.0)
    assert three_tangle(PureState(amps)) == pytest.approx(4.0 / 9.0, rel=1e-12)


def _cayley_sum(t):
    """Cayley's hyperdeterminant as its expanded sum of monomials."""
    t000, t001, t010, t011, t100, t101, t110, t111 = t
    sq = ((t000 * t111) ** 2 + (t001 * t110) ** 2
          + (t010 * t101) ** 2 + (t100 * t011) ** 2)
    cross = (t000 * t001 * t110 * t111
             + t000 * t010 * t101 * t111
             + t000 * t100 * t011 * t111
             + t001 * t010 * t101 * t110
             + t001 * t100 * t011 * t110
             + t010 * t100 * t011 * t101)
    quad = t000 * t011 * t101 * t110 + t001 * t010 * t100 * t111
    return sq - 2.0 * cross + 4.0 * quad


def test_hyperdeterminant_matches_the_expanded_cayley_sum():
    # the pencil discriminant behind three_tangle and the w-type filter,
    # on 200 random states, one at a time and as the columns of a block
    rng = np.random.default_rng(13)
    block = np.array([_random_pure(rng).amplitudes for _ in range(200)])
    want = _cayley_sum(block.T)
    np.testing.assert_allclose(_hyperdeterminant(block.T), want, rtol=1e-12, atol=0)
    for amps, w in zip(block, want):
        assert abs(_hyperdeterminant(amps) - w) <= 1e-12 * abs(w)
        assert three_tangle(PureState(amps)) == pytest.approx(4.0 * abs(w), rel=1e-12)


def _pair_tangle(rho2):
    sy2 = np.kron(SIGMA_Y, SIGMA_Y)
    R = rho2 @ sy2 @ rho2.conj() @ sy2
    ev = np.sort(np.sqrt(np.abs(np.linalg.eigvals(R))))[::-1]
    c = max(0.0, float(ev[0] - ev[1] - ev[2] - ev[3]))
    return c * c


def _residual_tangle(amps):
    """Independent route: one-to-other tangle minus both pairwise tangles
    (concurrence-based)."""
    t = amps.reshape(2, 2, 2)
    rho_a = np.einsum("abc,xbc->ax", t, t.conj())
    tau_a_bc = 4.0 * float(np.real(np.linalg.det(rho_a)))
    rho_ab = np.einsum("abc,xyc->abxy", t, t.conj()).reshape(4, 4)
    rho_ac = np.einsum("abc,xby->acxy", t, t.conj()).reshape(4, 4)
    return tau_a_bc - _pair_tangle(rho_ab) - _pair_tangle(rho_ac)


def test_tangle_agrees_with_residual_tangle_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        psi = _random_pure(rng)
        # the eigenvalue route carries a few ulps more noise than the
        # polynomial one, hence the looser comparison
        assert three_tangle(psi) == pytest.approx(
            _residual_tangle(psi.amplitudes), abs=1e-6)


# ------------------------------------------------------ state enumeration

def test_enumerate_w_state_sign_perms():
    res = enumerate_pure_sign_perms(make_canonical("w"), filter="any-pure")
    assert res.total == 448      # 2^3 * 8!/(3! 5!)
    assert res.retained == 448
    res = enumerate_pure_sign_perms(make_canonical("w"), filter="w-type")
    assert res.total == 448
    # supports avoiding complementary index pairs: 32 of the 56 triples
    assert res.retained == 256


def test_enumerate_amplitudes_preserves_norm_and_distinctness():
    res = enumerate_pure_sign_perms(make_canonical("ghz"))
    assert res.total == 112  # 2^2 * 8!/(2! 6!)
    seen = {tuple(np.round(PureState(a).amplitudes, 12)) for a in res.amplitudes}
    assert len(seen) == res.retained == res.total


def test_enumerate_bloch_target_computational_basis_state():
    res = enumerate_pure_sign_perms(PureState([1.0, 0.0]), target="bloch")
    assert res.total == 6
    assert res.retained == 6
    for a in res.amplitudes:
        assert purity(PureState(a).to_density()) == pytest.approx(1.0, abs=1e-9)


def test_enumerate_bloch_target_cuboctahedron():
    # chart coordinates (1/2, 0, 1/2): twelve distinct pure vertices
    psi = PureState([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    res = enumerate_pure_sign_perms(psi, target="bloch")
    assert res.total == 12
    assert res.retained == 12
    seen = {tuple(np.round(PureState(a).amplitudes, 10)) for a in res.amplitudes}
    assert len(seen) == 12


def test_enumerate_bloch_target_qutrit_filters_invalid():
    # |0><0| at d=3 has chart coordinates (0,...,0, 1/sqrt2, 1/sqrt6):
    # 2^2 * 8!/6! = 224 sign permutations, of which only 6 reconstruct to
    # positive matrices (the nearest rejected eigenvalue sits at -0.043,
    # far from the tolerance)
    psi = PureState([1.0, 0.0, 0.0])
    res = enumerate_pure_sign_perms(psi, target="bloch")
    assert res.total == 224
    assert res.retained == 6
    for a in res.amplitudes:
        assert purity(PureState(a).to_density()) == pytest.approx(1.0, abs=1e-9)


def test_enumerate_bloch_target_qutrit_amplitudes_reach_their_chart_points():
    """2,688 signed permutations of a real qutrit's chart point, 24 of
    them states: each retained amplitude vector is phase-fixed, and its
    projector is a distinct signed permutation of the input's point."""
    psi = PureState([math.cos(0.1), math.sin(0.1), 0.0])
    res = enumerate_pure_sign_perms(psi, target="bloch")
    assert (res.total, res.retained) == (2688, 24)
    base = np.sort(np.abs(to_coords(psi.to_density())))
    points = set()
    for a in res.amplitudes:
        state = PureState(a)
        c = to_coords(state.to_density())
        np.testing.assert_allclose(np.sort(np.abs(c)), base, atol=1e-12)
        points.add(tuple(np.round(c, 9)))
        # some largest-modulus entry (they may tie) is real and positive
        top = a[np.abs(a) >= np.abs(a).max() - 1e-12]
        assert np.any((np.abs(top.imag) <= 1e-15) & (top.real > 0.0))
        # the same state as pure_from_density's, up to a tied pivot's phase
        back = pure_from_density(state.to_density()).amplitudes
        assert abs(np.vdot(back, a)) == pytest.approx(1.0, abs=1e-12)
    assert len(points) == 24


def test_phase_fixed_rows_survive_re_extraction():
    """Bloch rows of a real qutrit tie in modulus across components; the
    pivot rule breaks ties by index, so re-extracting each row from its
    own projector returns the row itself, not a phase-rotated copy."""
    psi = PureState([math.cos(0.1), math.sin(0.1), 0.0])
    res = enumerate_pure_sign_perms(psi, target="bloch")
    for a in res.amplitudes:
        back = pure_from_density(PureState(a).to_density()).amplitudes
        np.testing.assert_allclose(back, a, rtol=0, atol=1e-12)


def test_enumerate_validation_and_cap():
    w = make_canonical("w")
    with pytest.raises(ValueError):
        enumerate_pure_sign_perms(w, filter="w-type", target="bloch")
    with pytest.raises(ValueError):
        enumerate_pure_sign_perms(PureState([1.0, 0.0]), filter="w-type")
    with pytest.raises(ValueError):
        enumerate_pure_sign_perms(w, filter="nope")
    with pytest.raises(ValueError):
        enumerate_pure_sign_perms(w, target="nope")
    with pytest.raises(EnumerationTooLargeError) as exc:
        enumerate_pure_sign_perms(w, cap=447)
    assert exc.value.count == 448


def test_enumerate_example_state_pipeline():
    """The flagship run: four distinct magnitudes in an 8-amplitude state
    give 26880 signed permutations; 5376 of them carry no three-way
    entanglement.  The zero set is support-combinatorial (14 admissible
    4-element supports x 4! arrangements x 2^4 signs), so the count is
    exact, and the smallest nonzero tangle in the family sits near 0.019
    -- far above the threshold."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = 0.758j
    amps[2] = 0.809 - 0.588j
    amps[5] = 0.809 + 0.588j
    amps[7] = 0.242
    psi, norm = PureState.normalized(amps)
    assert norm ** 2 == pytest.approx(2.633578, abs=1e-12)

    res = enumerate_pure_sign_perms(psi, filter="w-type", tol=1e-9)
    assert res.total == 26880
    assert res.retained == 5376
    # spot-check: every retained state is exactly tangle-free here
    rng = np.random.default_rng(0)
    for idx in rng.choice(res.retained, size=25, replace=False):
        assert three_tangle(PureState(res.amplitudes[idx])) <= 1e-12
