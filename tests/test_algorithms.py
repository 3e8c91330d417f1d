import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.stats import unitary_group

from signpoly import (
    DecompositionError,
    StateValidationError,
    SolverFailureError,
    DecompositionInput,
    DensityMatrix,
    CrossPolytopeSpec,
    certificate_holds,
    cross_polytope_volume,
    from_coords,
    hs_volume,
    hull_member_lp,
    max_inscribed_cross_polytope,
    robustness_fraction,
    robustness_member,
    simplex,
    stateio,
    to_coords,
    traceless_hermitian_basis,
    weakly_majorized,
)
from signpoly.algorithms import _chart_members, _displacement, _in_cross_polytope
from signpoly.cli import main
from signpoly.geometry import _witness_violation

MIXED_2 = np.eye(2, dtype=complex) / 2


def _qubit_state(coords3):
    """State with the given chart coordinates (must stay positive)."""
    return DensityMatrix(from_coords(coords3))


def _octahedral_decomposition(r=0.4):
    basis = traceless_hermitian_basis(2)
    members = np.array([MIXED_2 + s * r * basis[k]
                        for k in range(3) for s in (1, -1)])
    return DecompositionInput(target=MIXED_2, members=members,
                              weights=(1 / 6,) * 6)


def _cube_decomposition(w=0.3):
    basis = traceless_hermitian_basis(2)
    members = np.array([
        MIXED_2 + w * (sx * basis[0] + sy * basis[1] + sz * basis[2])
        for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)
    ])
    return DecompositionInput(target=MIXED_2, members=members,
                              weights=(1 / 8,) * 8)


# ---------------------------------------------------------- decompositions

class TestDecompositionInput:
    def test_valid(self):
        dec = _octahedral_decomposition()
        assert dec.dim == 2
        assert len(dec.members) == 6

    def test_too_few_members(self):
        dec = _octahedral_decomposition()
        with pytest.raises(DecompositionError, match="more than 3 members"):
            DecompositionInput(target=dec.target, members=dec.members[:3],
                               weights=(1 / 3,) * 3)

    def test_weights_must_sum_to_one(self):
        dec = _octahedral_decomposition()
        with pytest.raises(DecompositionError, match="sum to 1"):
            DecompositionInput(target=dec.target, members=dec.members,
                               weights=(0.2,) * 6)

    def test_weights_must_be_nonnegative(self):
        dec = _octahedral_decomposition()
        with pytest.raises(DecompositionError, match="nonnegative"):
            DecompositionInput(target=dec.target, members=dec.members,
                               weights=(0.5, 0.5, 0.5, -0.5, 0.5, -0.5))

    @pytest.mark.parametrize("weights", [(1 / 5,) * 5, (1 / 7,) * 7,
                                         ((1 / 6,) * 6,)])
    def test_weights_must_match_the_members(self, weights):
        dec = _octahedral_decomposition()
        with pytest.raises(DecompositionError, match="equal length"):
            DecompositionInput(target=dec.target, members=dec.members,
                               weights=weights)

    def test_members_must_reconstruct_target(self):
        dec = _octahedral_decomposition()
        off_target = _qubit_state([0.1, 0.0, 0.0]).matrix
        with pytest.raises(DecompositionError, match="miss the target"):
            DecompositionInput(target=off_target, members=dec.members,
                               weights=(1 / 6,) * 6)

    def test_nan_weight_is_rejected(self):
        dec = _octahedral_decomposition()
        with pytest.raises(DecompositionError, match="nonnegative"):
            DecompositionInput(target=dec.target, members=dec.members,
                               weights=(math.nan,) + (1 / 6,) * 5)

    def test_complex_weights_are_refused(self):
        # As an array and as a list alike: the imaginary parts are not
        # dropped.
        dec = _octahedral_decomposition()
        weights = [1 / 6 + 1j] + [1 / 6] * 5
        for given in (weights, np.array(weights)):
            with pytest.raises(ValueError, match="complex"):
                DecompositionInput(target=dec.target, members=dec.members,
                                   weights=given)

    def test_dimension_mismatch(self):
        """A target of another shape, or a ragged member list, is no
        stack of states: a decomposition error before any state check."""
        dec = _octahedral_decomposition()
        with pytest.raises(DecompositionError, match="dimension"):
            DecompositionInput(target=np.eye(3) / 3,
                               members=dec.members, weights=(1 / 6,) * 6)
        ragged = list(dec.members[:5]) + [np.diag([2.0, -0.5, -0.5])]
        with pytest.raises(DecompositionError, match="dimension"):
            DecompositionInput(target=dec.target, members=ragged,
                               weights=(1 / 6,) * 6)

    def test_fields_are_read_only_arrays(self):
        dec = _octahedral_decomposition()
        assert (dec.target.shape, dec.members.shape, dec.weights.shape) == (
            (2, 2), (6, 2, 2), (6,))
        assert dec.members.dtype == complex and dec.weights.dtype == float
        for field in (dec.target, dec.members, dec.weights):
            assert not field.flags.writeable


# ------------------------------------------------------------- Algorithm 1

def test_octahedral_decomposition_recovers_exact_scale():
    poly = max_inscribed_cross_polytope(_octahedral_decomposition(0.4))
    assert poly.alpha == pytest.approx(0.4, abs=1e-6)
    assert not poly.degenerate
    assert poly.dim == 2
    assert len(poly.spec.vertices()) == 6


def test_cube_decomposition_recovers_half_width():
    poly = max_inscribed_cross_polytope(_cube_decomposition(0.3))
    assert poly.alpha == pytest.approx(0.3, abs=1e-6)
    assert not poly.degenerate


def test_degenerate_target_on_hull_boundary():
    boundary = _qubit_state([0.2, 0.0, 0.0]).matrix
    dec = DecompositionInput(target=boundary, members=(boundary,) * 4,
                             weights=(0.25,) * 4)
    poly = max_inscribed_cross_polytope(dec)
    assert poly.degenerate
    assert poly.alpha == 0.0
    assert poly.spec.volume() == 0.0


def test_result_optimality_certificates():
    """The returned scale passes vertex containment while scale + tol
    fails it (monotone containment makes these two checks sufficient)."""
    dec = _cube_decomposition(0.3)
    poly = max_inscribed_cross_polytope(dec, tol_alpha=1e-8)
    translated = to_coords(dec.members) - to_coords(dec.target)

    def contained(alpha):
        n = translated.shape[1]
        for k in range(n):
            for s in (1.0, -1.0):
                probe = np.zeros(n)
                probe[k] = s * alpha
                ok, _ = hull_member_lp(probe, translated)
                if not ok:
                    return False
        return True

    assert contained(poly.alpha)
    assert not contained(poly.alpha + 1e-6)


def test_construct_charts_its_validated_members_unchecked(monkeypatch):
    """A ``DecompositionInput`` validates its states once: the search and
    the certificate check chart them with no second state check, to the
    same bits as the checked ``to_coords``."""
    import signpoly

    dec = _random_decomposition(3, 3, 20, 1.0)
    weights = np.clip(dec.weights, 0.0, None)
    weights /= weights.sum()
    center, points = _chart_members(dec)
    assert np.array_equal(points, to_coords(dec.members))
    assert np.array_equal(
        center, to_coords((weights[:, None, None] * dec.members).sum(axis=0)))
    checks = []
    monkeypatch.setattr(signpoly.quantum, "_check_states",
                        lambda *args, **kwargs: checks.append(args))
    assert certificate_holds(max_inscribed_cross_polytope(dec))
    assert checks == []


def test_vertex_states_are_valid_density_matrices():
    """One read-only (2n, d, d) stack whose rows chart to the vertices."""
    poly = max_inscribed_cross_polytope(_octahedral_decomposition(0.4))
    states = poly.vertex_states()
    assert states.shape == (6, 2, 2) and not states.flags.writeable
    np.testing.assert_allclose(to_coords(states), poly.spec.vertices().array,
                               atol=1e-15)
    for s in states:
        DensityMatrix(s)


def test_vertex_states_raise_for_the_first_vertex_outside_the_states():
    """Vertices are validated as one stack, all or nothing: moved off
    the mixed state along -e_0, only the vertex centre - 0.5 e_0
    (direction 3, chart norm 0.8 past the Bloch sphere's 1/sqrt(2))
    is not a state, and it raises the error it raises alone."""
    poly = max_inscribed_cross_polytope(_octahedral_decomposition(0.4))
    moved = dataclasses.replace(
        poly, spec=CrossPolytopeSpec(0.5, [-0.3, 0.0, 0.0]))
    with pytest.raises(StateValidationError) as exc:
        moved.vertex_states()
    with pytest.raises(StateValidationError) as alone:
        DensityMatrix(from_coords([-0.8, 0.0, 0.0]))
    assert exc.value.kind == "not-psd"
    assert (exc.value.magnitude, str(exc.value)) == (alone.value.magnitude,
                                                     str(alone.value))


def test_polytope_geometry_accessors():
    poly = max_inscribed_cross_polytope(_octahedral_decomposition(0.4))
    spec = poly.spec
    a = poly.alpha
    assert isinstance(spec, CrossPolytopeSpec) and spec.scale == a
    assert spec.edge_length() == pytest.approx(math.sqrt(2.0) * a, rel=1e-12)
    assert spec.insphere_radius() == pytest.approx(a / math.sqrt(3.0), rel=1e-12)
    assert spec.volume() == pytest.approx((2 * a) ** 3 / 6.0, rel=1e-12)


def _oracle_alpha(dec):
    """Largest t with every ``+-t e_k`` in the hull of the translated
    members, as one exact LP for an external solver: a weight vector
    ``w_j >= 0`` with ``V^T w_j = t s_j e_k`` and ``sum w_j = 1`` for
    each of the 2n rays j, all sharing t."""
    V = to_coords(dec.members) - to_coords(dec.target)
    m, n = V.shape
    rays = 2 * n
    A = np.zeros((rays * (n + 1), rays * m + 1))
    b = np.zeros(rays * (n + 1))
    for j in range(rays):
        top = j * (n + 1)
        A[top:top + n, j * m:(j + 1) * m] = V.T
        A[top + j % n, -1] = -1.0 if j < n else 1.0
        A[top + n, j * m:(j + 1) * m] = 1.0
        b[top + n] = 1.0
    c = np.zeros(rays * m + 1)
    c[-1] = -1.0
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def test_algorithm_matches_external_solver_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(3):
        # eight member offsets with exact zero mean, so uniform weights
        # reproduce a target slightly off the maximally mixed state
        c0 = rng.normal(size=3)
        c0 *= 0.1 / np.linalg.norm(c0)
        rel = rng.normal(size=(8, 3))
        rel -= rel.mean(axis=0)
        rel *= 0.4 / np.linalg.norm(rel, axis=1).max()
        members = np.array([_qubit_state(c0 + r).matrix for r in rel])
        dec = DecompositionInput(target=_qubit_state(c0).matrix, members=members,
                                 weights=(1 / 8,) * 8)
        poly = max_inscribed_cross_polytope(dec, tol_alpha=1e-8)
        assert poly.alpha == pytest.approx(_oracle_alpha(dec), abs=1e-6)
        assert poly.alpha > 0.0


def _random_decomposition(seed, d, m, concentration):
    """m Hilbert-Schmidt random states of dimension d and a Dirichlet mix
    of them as the target; a small concentration pushes the target
    towards the hull boundary."""
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(m):
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = G @ G.conj().T
        members.append(M / np.trace(M).real)
    weights = rng.dirichlet(np.full(m, concentration))
    target = sum(w * M for w, M in zip(weights, members))
    return DecompositionInput(target, np.array(members), weights)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
       extra=st.integers(1, 20),
       concentration=st.sampled_from([0.2, 1.0, 5.0]))
def test_scale_and_certificate_on_random_decompositions(seed, d, extra,
                                                        concentration):
    dec = _random_decomposition(seed, d, d * d - 1 + extra, concentration)
    poly = max_inscribed_cross_polytope(dec)
    assert poly.alpha == pytest.approx(_oracle_alpha(dec), abs=1e-7)
    assert certificate_holds(poly)


def test_pivot_loops_rebuild_the_inverse_every_refresh_pivots(monkeypatch):
    """Every pivot loop rebuilds ``[B^-1 | x_B]`` from the basis columns
    once per ``simplex.REFRESH_EVERY`` pivots, counted as ``_refine``
    calls made inside ``_pivot_loop``.  On the d=5, m=60 decomposition
    of seed 3 one ray's phase 2 takes exactly ``REFRESH_EVERY`` pivots,
    so a rebuild happens inside phase 2."""
    loops = []  # [phase, pivots, rebuilds] of each pivot loop, in call order
    inside = []
    pivot_loop, pivot, refine = simplex._pivot_loop, simplex._pivot, simplex._refine

    def counted_loop(s, *args, phase, **kwargs):
        loops.append([phase, 0, 0])
        inside.append(loops[-1])
        try:
            return pivot_loop(s, *args, phase=phase, **kwargs)
        finally:
            inside.pop()

    def counted_pivot(*args):
        if inside:
            inside[-1][1] += 1
        return pivot(*args)

    def counted_refine(s):
        if inside:
            inside[-1][2] += 1
        return refine(s)

    monkeypatch.setattr(simplex, "_pivot_loop", counted_loop)
    monkeypatch.setattr(simplex, "_pivot", counted_pivot)
    monkeypatch.setattr(simplex, "_refine", counted_refine)
    poly = max_inscribed_cross_polytope(_random_decomposition(3, 5, 60, 1.0))
    assert certificate_holds(poly)
    assert [rebuilds for _, _, rebuilds in loops] \
        == [pivots // simplex.REFRESH_EVERY for _, pivots, _ in loops]
    assert sum(rebuilds for phase, _, rebuilds in loops if phase == 2) >= 1


def _centred_decomposition(seed, d, K):
    """K Haar unitaries U, each with a Dirichlet(1) spectrum p, give the
    d members ``U diag(roll(p, j)) U^+``; under uniform weights every U's
    members average to the maximally mixed state, the target."""
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(K):
        U = unitary_group.rvs(d, random_state=rng)
        p = rng.dirichlet(np.ones(d))
        members += [U @ np.diag(np.roll(p, j)) @ U.conj().T for j in range(d)]
    return DecompositionInput(np.eye(d) / d, np.array(members),
                              np.full(K * d, 1.0 / (K * d)))


@pytest.mark.parametrize("dec", [
    # a ray witness missed by 6.1e-3, from drifted rank-one updates of B^-1
    pytest.param(lambda: _random_decomposition(2, 5, 60, 1.0), id="d5-seed2"),
    # the binding ray's dual missed the certificate
    pytest.param(lambda: _random_decomposition(50, 5, 60, 1.0), id="d5-seed50"),
    # phase 1 on translated members (right-hand side e_last) never left
    # an infeasibility of 1 before the pivot cap
    pytest.param(lambda: _centred_decomposition(2, 3, 4), id="centred-d3-seed2"),
    pytest.param(lambda: _centred_decomposition(0, 4, 5), id="centred-d4-seed0"),
])
def test_scale_and_certificate_at_larger_and_centred_decompositions(dec):
    """Decompositions on which the solver once raised or printed an
    uncertified scale: the scale matches the oracle and is certified."""
    dec = dec()
    poly = max_inscribed_cross_polytope(dec)
    assert poly.alpha == pytest.approx(_oracle_alpha(dec), abs=1e-7)
    assert certificate_holds(poly)


def test_sub_tolerance_ray_optimum_is_a_zero_scale():
    """The binding ray of this decomposition reaches t = 7.19e-14 (the
    external solver agrees), far below ``tol_alpha``: the scale is
    flagged degenerate, and the binding ray's own dual, read without
    dividing by t, still certifies it."""
    dec = _random_decomposition(341000839, 2, 4, 0.2)
    poly = max_inscribed_cross_polytope(dec)
    assert 0.0 <= poly.alpha <= 1e-12
    assert poly.degenerate and poly.certificate.hyperplane is not None
    assert certificate_holds(poly)
    assert poly.alpha == pytest.approx(_oracle_alpha(dec), abs=1e-7)


@pytest.mark.parametrize("seed, d, m", [
    (72565379, 3, 10),  # alpha = 2.79e-8
    # sweep cases, m = d^2 + seed mod 20
    (60, 3, 9), (80, 3, 9), (460, 3, 9), (640, 2, 4), (721, 3, 10),
    # ray witnesses that meet 1e-9 only with x_B solved for from the
    # basis columns (residuals 1.1e-9 and 6.5e-9 without)
    (100, 2, 4), (680, 2, 4),
])
def test_certificate_of_near_degenerate_decomposition(seed, d, m):
    """Decompositions near the hull boundary (concentration 0.2), where
    a hyperplane scaled by 1/alpha would amplify the dual's roundoff
    past the tolerance: the scale matches the oracle and the binding
    ray's unscaled dual certifies it."""
    dec = _random_decomposition(seed, d, m, 0.2)
    poly = max_inscribed_cross_polytope(dec)
    assert poly.alpha == pytest.approx(_oracle_alpha(dec), abs=1e-7)
    assert certificate_holds(poly)


def test_certificate_of_octahedral_decomposition():
    poly = max_inscribed_cross_polytope(_octahedral_decomposition(0.4))
    cert = poly.certificate
    np.testing.assert_allclose(cert.t, 0.4, atol=1e-12)
    binding = cert.binding_axis + (0 if cert.binding_sign > 0 else 3)
    assert cert.t[binding] == poly.alpha == cert.t.min()
    assert cert.witnesses.shape == (6, 6)
    assert certificate_holds(poly)


@pytest.mark.parametrize("shift", [
    np.array([-2e-9, 2e-9, 0.0, 0.0]),   # a negative weight, same sum
    np.array([2e-9, 0.0, 0.0, 0.0]),     # sum 1 + 2e-9
], ids=["negative", "sum"])
def test_hull_member_raises_on_a_witness_that_misses(monkeypatch, shift):
    """A solver answer whose weights break ``w >= 0`` or ``sum w = 1``
    is a solver failure, not a verdict."""
    verts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w = np.array([0.0, 0.5, 0.25, 0.25]) + shift
    monkeypatch.setattr(simplex, "_feasible", lambda *a, **k: (True, w))
    with pytest.raises(SolverFailureError, match="witness"):
        hull_member_lp([0.25, 0.25], verts)


def test_ray_witness_that_misses_raises(monkeypatch):
    import signpoly.algorithms
    rays = signpoly.algorithms._ray_maxima

    def heavy(*args, **kwargs):
        z, dual = rays(*args, **kwargs)
        z[:, 0] += 2e-9
        return z, dual

    monkeypatch.setattr(signpoly.algorithms, "_ray_maxima", heavy)
    with pytest.raises(SolverFailureError, match="ray witness"):
        max_inscribed_cross_polytope(_cube_decomposition(0.3))


def test_construct_refuses_a_dual_that_does_not_bound_the_scale(
        monkeypatch, tmp_path, capsys):
    """A binding ray whose dual is halved still has every witness, but
    its hyperplane only bounds the scale by twice alpha: the certificate
    fails, and ``construct`` refuses the scale instead of printing it."""
    import signpoly.algorithms
    rays = signpoly.algorithms._ray_maxima

    def halved(*args, **kwargs):
        z, dual = rays(*args, **kwargs)
        dual[int(np.argmin(z[:, -1]))] /= 2
        return z, dual

    dec = _random_decomposition(7, 3, 20, 1.0)
    monkeypatch.setattr(signpoly.algorithms, "_ray_maxima", halved)
    with pytest.raises(SolverFailureError, match="dual does not bound"):
        max_inscribed_cross_polytope(dec)
    path = tmp_path / "dec.json"
    stateio.save_document(path, stateio.decomposition_document(
        3, dec.target, dec.members, dec.weights))
    capsys.readouterr()
    assert main(["construct", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "certificate" in out.err


def test_certificate_checker_rejects_tampering():
    poly = max_inscribed_cross_polytope(_cube_decomposition(0.3))
    cert = poly.certificate
    assert certificate_holds(poly)
    # a larger claimed scale breaks the primal side (no ray reaches it)
    bigger = dataclasses.replace(poly, spec=CrossPolytopeSpec(
        poly.alpha + 1e-6, poly.spec.center))
    assert not certificate_holds(bigger)
    # so does a witness that misses its ray point
    bent = cert.witnesses.copy()
    bent[2] = np.roll(bent[2], 1)
    assert not certificate_holds(dataclasses.replace(
        poly, certificate=dataclasses.replace(cert, witnesses=bent)))
    # weights that still reach their ray point but break w >= 0 or
    # sum w = 1 by 2e-9; members k and 7 - k are antipodal, so shifting
    # the same weight onto both moves no point
    negative = cert.witnesses.copy()
    assert negative[0, 0] == negative[0, 7] == 0.0
    negative[0, [0, 7]] -= 2e-9
    negative[0, [1, 6]] += 2e-9
    heavy = cert.witnesses.copy()
    heavy[0, [0, 7]] += 1e-9
    # missing witness rows: none, or only the first direction's
    for witnesses in (negative, heavy, cert.witnesses[:0], cert.witnesses[:1]):
        assert not certificate_holds(dataclasses.replace(
            poly, certificate=dataclasses.replace(cert, witnesses=witnesses)))
    # a t or hyperplane that does not fit the chart
    for tampered in (dict(t=cert.t[:-1]), dict(hyperplane=cert.hyperplane[:-1])):
        assert not certificate_holds(dataclasses.replace(
            poly, certificate=dataclasses.replace(cert, **tampered)))
    # a hyperplane too shallow to cut off the binding vertex
    assert not certificate_holds(dataclasses.replace(
        poly, certificate=dataclasses.replace(
            cert, hyperplane=cert.hyperplane * 0.99)))
    # a hyperplane that some member violates
    assert not certificate_holds(dataclasses.replace(
        poly, certificate=dataclasses.replace(
            cert, hyperplane=cert.hyperplane * 1.01)))


def test_certificate_checker_bounds_the_dual_at_tol():
    """The dual side holds at ``max(V @ u) <= alpha + tol`` and no
    looser: the hyperplane scaled so that its largest member value sits
    0.5e-9 above ``alpha`` still holds at ``tol`` = 1e-9 (and still cuts
    off the binding vertex), and 2e-9 above fails, the margin the witness
    tampers use."""
    poly = max_inscribed_cross_polytope(_cube_decomposition(0.3))
    cert = poly.certificate
    center, points = _chart_members(poly.provenance)
    V = points - center
    top = float(np.max(V @ cert.hyperplane))
    for above, holds in ((0.5e-9, True), (2e-9, False)):
        u = cert.hyperplane * ((poly.alpha + above) / top)
        assert float(np.max(V @ u)) - poly.alpha == pytest.approx(above, rel=1e-3)
        assert certificate_holds(dataclasses.replace(
            poly, certificate=dataclasses.replace(cert, hyperplane=u))) == holds


def test_certificate_checker_reads_list_fields():
    """Fields given as lists of the right shape, as a JSON document
    would give them, get the verdict their arrays get."""
    poly = max_inscribed_cross_polytope(_cube_decomposition(0.3))
    cert = poly.certificate
    listed = dataclasses.replace(cert, t=cert.t.tolist(),
                                 witnesses=cert.witnesses.tolist(),
                                 hyperplane=cert.hyperplane.tolist())
    assert certificate_holds(dataclasses.replace(poly, certificate=listed))
    bent = cert.witnesses.tolist()
    bent[2] = bent[2][-1:] + bent[2][:-1]
    for tampered in (dict(witnesses=bent),
                     dict(hyperplane=(cert.hyperplane * 0.99).tolist())):
        assert not certificate_holds(dataclasses.replace(
            poly, certificate=dataclasses.replace(listed, **tampered)))


@pytest.mark.parametrize("dec", [
    pytest.param(lambda: _random_decomposition(7, 3, 20, 1.0), id="random"),
    pytest.param(lambda: _octahedral_decomposition(0.4), id="octahedral-tied"),
    pytest.param(lambda: DecompositionInput(
        target=from_coords([0.2, 0.0, 0.0]),
        members=(_qubit_state([0.2, 0.0, 0.0]).matrix,) * 4,
        weights=(0.25,) * 4), id="degenerate-tied"),
])
def test_binding_direction_is_the_first_smallest_t(dec):
    """The binding direction is read from ``t``: its first minimum, as
    axis ``j % n`` with sign ``+1`` for ``j < n``.  The octahedral rays
    tie to roundoff; on coinciding members every ``t`` is exactly 0,
    and the binding direction is axis 0, ``+1``."""
    cert = max_inscribed_cross_polytope(dec()).certificate
    n = len(cert.t) // 2
    j = int(np.argmin(cert.t))
    assert cert.t[j] == cert.t.min()
    assert cert.binding_axis == j % n
    assert cert.binding_sign == (1 if j < n else -1)
    assert isinstance(cert.binding_axis, int)
    if np.all(cert.t == cert.t[0]):
        assert (cert.binding_axis, cert.binding_sign) == (0, 1)
    # nothing stored can disagree with t: moving its minimum moves them
    moved = dataclasses.replace(cert, t=np.roll(cert.t, 1))
    k = int(np.argmin(moved.t))
    assert (moved.binding_axis, moved.binding_sign) == (k % n, 1 if k < n else -1)


def test_one_chart_per_search(monkeypatch):
    """A search charts its centre and its members once, and checks its
    certificate on that chart: two chart calls, not four."""
    import signpoly.algorithms
    calls = []
    chart = signpoly.algorithms._chart
    monkeypatch.setattr(signpoly.algorithms, "_chart",
                        lambda M: calls.append(1) or chart(M))
    max_inscribed_cross_polytope(_random_decomposition(7, 3, 20, 1.0))
    assert len(calls) == 2


@pytest.mark.parametrize("offset", [0.0, 5e-9])
def test_degenerate_certificate_has_a_supporting_hyperplane(offset):
    """Members that all coincide give rays of length 0 from their mean,
    also with the target 5e-9 off them (inside the reconstruction
    tolerance, outside the LP one), which the rays never read: the scale
    is 0, every ray keeps a witness, and the binding ray's dual is a
    hyperplane through the members that cuts off every positive scale."""
    boundary = _qubit_state([0.2, 0.0, 0.0]).matrix
    dec = DecompositionInput(target=from_coords([0.2 + offset, 0.0, 0.0]),
                             members=(boundary,) * 4, weights=(0.25,) * 4)
    poly = max_inscribed_cross_polytope(dec)
    assert poly.degenerate and poly.alpha == 0.0
    cert = poly.certificate
    assert cert.hyperplane is not None
    assert cert.binding_sign * cert.hyperplane[cert.binding_axis] >= 1.0
    assert np.all(cert.t == 0.0)
    assert not np.isnan(cert.witnesses).any()
    assert certificate_holds(poly)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
       extra=st.integers(1, 20), shift=st.floats(-5e-9, 5e-9))
def test_target_within_reconstruction_tolerance_leaves_the_scale(seed, d,
                                                                extra, shift):
    """The scale is a function of the members and weights alone: moving
    the target by up to 5e-9 in a chart direction drawn from ``seed``
    leaves it unchanged, bit for bit."""
    dec = _random_decomposition(seed, d, d * d - 1 + extra, 1.0)
    direction = np.random.default_rng(seed).normal(size=d * d - 1)
    moved = to_coords(dec.target) + shift * direction / np.linalg.norm(direction)
    moved_dec = dataclasses.replace(dec, target=from_coords(moved))
    assert (max_inscribed_cross_polytope(moved_dec).alpha
            == max_inscribed_cross_polytope(dec).alpha)


def test_infeasible_shared_phase1_raises(monkeypatch):
    """A centre outside the members' hull makes ``t = 0`` infeasible, so
    every ray reports infeasible, and that is a solver failure, never a
    zero scale."""
    import signpoly.algorithms
    chart = signpoly.algorithms._chart_members

    def off_centre(dec):
        center, points = chart(dec)
        return center, points + 1.0

    monkeypatch.setattr(signpoly.algorithms, "_chart_members", off_centre)
    with pytest.raises(SolverFailureError, match="ray LP infeasible"):
        max_inscribed_cross_polytope(_cube_decomposition(0.3))


@pytest.mark.parametrize("d, m", [(2, 8), (3, 20)])
def test_one_kernel_solve_per_direction(monkeypatch, phase_calls, d, m):
    """Exactly one phase-1 loop, the shared one, then 2(d^2 - 1) phase-2
    runs, and no hull queries per search."""
    feasible = []
    kernel = simplex._feasible
    monkeypatch.setattr(simplex, "_feasible",
                        lambda *a, **k: feasible.append(1) or kernel(*a, **k))
    poly = max_inscribed_cross_polytope(_random_decomposition(7, d, m, 1.0))
    assert not poly.degenerate
    n = d * d - 1
    assert phase_calls == {"phase1": 1, "phase2": 2 * n}
    assert not feasible


def test_shared_phase1_pivot_count(monkeypatch):
    """Pivots of one d=4, m=40 search: at most a third of the 2,053 it
    took with one full two-phase solve per ray; pivot counts do not
    depend on the machine."""
    pivots = []
    pivot = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot",
                        lambda *a: pivots.append(1) or pivot(*a))
    poly = max_inscribed_cross_polytope(_random_decomposition(7, 4, 40, 1.0))
    assert len(pivots) <= 2053 // 3
    assert certificate_holds(poly)


def test_bounded_rays_pivot_count(monkeypatch):
    """The same d=4, m=40 search with every ray stopped once it cannot
    bind: at most 296 pivots, 60% of the 494 it took with every ray
    driven to its own optimum."""
    pivots = []
    pivot = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot",
                        lambda *a: pivots.append(1) or pivot(*a))
    poly = max_inscribed_cross_polytope(_random_decomposition(7, 4, 40, 1.0))
    assert len(pivots) <= 296
    assert certificate_holds(poly)


def test_tied_rays_all_run_to_their_optimum():
    """On the octahedral decomposition all six rays tie at 0.4: the
    cut-off is strict, so none of them stops early, each keeps a finite
    dual, and the certificate holds."""
    dec = _octahedral_decomposition(0.4)
    z, dual = simplex._ray_maxima(*_ray_system(dec), 1e-9)
    assert len(z) == len(dual) == 6
    assert np.isfinite(dual).all()
    np.testing.assert_allclose(z[:, -1], 0.4, atol=1e-12)
    assert certificate_holds(max_inscribed_cross_polytope(dec))


def test_cut_off_binding_ray_raises(monkeypatch):
    """A binding ray without its optimum has no dual to certify the
    scale: a solver failure, never a result."""
    import signpoly.algorithms
    rays = signpoly.algorithms._ray_maxima

    def stopped(*args, **kwargs):
        z, dual = rays(*args, **kwargs)
        dual[int(np.argmin(z[:, -1]))] = np.nan
        return z, dual

    monkeypatch.setattr(signpoly.algorithms, "_ray_maxima", stopped)
    with pytest.raises(SolverFailureError, match="binding ray"):
        max_inscribed_cross_polytope(_cube_decomposition(0.3))


def test_stopped_rays_share_one_inversion(monkeypatch):
    """Basis inversions in one d=3, m=20 search, where some rays stop
    early: one ends the shared phase 1 and one batched call rebuilds
    every ray, optimal or stopped; inverting each ray on its own took
    17."""
    dec = _random_decomposition(7, 3, 20, 1.0)
    _, dual = simplex._ray_maxima(*_ray_system(dec), 1e-9)
    assert 0 < np.isnan(dual).all(axis=1).sum() < len(dual)
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv",
                        lambda B: calls.append(B.ndim) or inv(B))
    poly = max_inscribed_cross_polytope(dec)
    assert calls == [2, 3]
    assert certificate_holds(poly)


#: (seed, d, m, concentration) of the seeded searches whose rays the
#: batched rebuild is checked on.
SEEDED_SEARCHES = ((1, 2, 6, 1.0), (2, 2, 12, 0.2), (3, 3, 12, 1.0),
                   (7, 3, 20, 1.0), (4, 3, 30, 0.2), (7, 4, 40, 1.0),
                   (5, 4, 24, 5.0))


def _rays_one_by_one(A, b, columns, tol):
    """``_ray_maxima`` with every ray finished on its own: drive-out,
    phase 2, an inversion of its final basis, and its solution read off
    the rebuilt state, from the same shared phase 1 in the same order;
    the cut-off reads each optimal ``t`` from the rebuilt solution."""
    k, p = A.shape
    cap = 50 * (k + p + 1)
    s, used = simplex._phase1(np.c_[A, np.zeros(k)], b, cap)
    assert simplex._infeasibility(s) <= tol
    shared = s.T.copy(), s.basis.copy(), s.B.copy()
    cost = np.zeros(p + 1 + k)
    cost[p] = -1.0
    z = np.empty((len(columns), p + 1))
    dual = np.full((len(columns), k), np.nan)
    best = math.inf
    for j in np.argsort(np.max(-columns @ A, axis=1), kind="stable"):
        s.A[:, p] = columns[j]
        s.T[:], s.basis[:], s.B[:] = shared
        simplex._drive_out(s)
        _, status = simplex._pivot_loop(s, cost, cap - used, phase=2,
                                        stop_above=best)
        simplex._refine(s)
        z[j] = simplex._basic_solution(s.T, s.basis, p + 1)
        if status == "optimal":
            dual[j] = cost[s.basis] @ s.T[:, :-1]
            best = min(best, z[j, -1])
    return z, dual


def test_batched_rebuild_matches_one_by_one_bit_for_bit():
    """Rays rebuilt in one batch after the last ray have the outcome,
    witness and dual, bit for bit, of rays each rebuilt at the end of
    its own phase 2: on seeded d = 2, 3, 4 searches, on the octahedral
    one (all six rays tie), on a flat one whose stopped rays keep an
    artificial basic, and on a system with a redundant row."""
    systems = [_ray_system(_random_decomposition(*args))
               for args in SEEDED_SEARCHES]
    systems.append(_ray_system(_octahedral_decomposition(0.4)))
    systems.append(_ray_system(_flat_qubit_decomposition(2, 8)))
    systems.append((np.array([[1.0, 1.0], [2.0, 2.0], [1.0, -1.0]]),
                    np.array([1.0, 2.0, 0.0]), np.array([[1.0, 2.0, 0.0]])))
    cut_off = 0
    for A, b, columns in systems:
        z, dual = simplex._ray_maxima(A, b, columns, 1e-9)
        z_ref, dual_ref = _rays_one_by_one(A, b, columns, 1e-9)
        assert z.tobytes() == z_ref.tobytes()
        assert dual.tobytes() == dual_ref.tobytes()
        cut_off += np.isnan(dual).all(axis=1).sum()
    assert cut_off > 20


def test_dual_is_nan_exactly_for_rays_stopped_early(monkeypatch):
    """A ray's dual row is NaN exactly when its phase 2 stopped early,
    as ``_pivot_loop`` reports it; for every other ray it is finite and
    proves the optimum: ``[A | a]^T y <= (0, ..., 0, -1)`` and ``b . y =
    -t``.  On the seeded searches of the bit-for-bit test and the
    octahedral one."""
    outcomes = {}
    loop = simplex._pivot_loop

    def recorded(s, *args, phase, **kwargs):
        it, outcome = loop(s, *args, phase=phase, **kwargs)
        if phase == 2:
            outcomes[s.A[:, -1].tobytes()] = outcome
        return it, outcome

    monkeypatch.setattr(simplex, "_pivot_loop", recorded)
    decompositions = [_random_decomposition(*args) for args in SEEDED_SEARCHES]
    decompositions.append(_octahedral_decomposition(0.4))
    counts = {"optimal": 0, "cut-off": 0}
    for dec in decompositions:
        A, b, columns = _ray_system(dec)
        outcomes.clear()
        z, dual = simplex._ray_maxima(A, b, columns, 1e-9)
        assert len(outcomes) == len(columns)
        c = np.zeros(A.shape[1] + 1)
        c[-1] = -1.0
        for a, zj, yj in zip(columns, z, dual):
            outcome = outcomes[a.tobytes()]
            counts[outcome] += 1
            if outcome == "cut-off":
                assert np.isnan(yj).all()
                continue
            assert np.isfinite(yj).all()
            assert np.max(np.column_stack([A, a]).T @ yj - c) <= 1e-8
            assert b @ yj == pytest.approx(-zj[-1], abs=1e-9)
    assert counts["optimal"] > 20
    assert counts["cut-off"] > 20


def _ray_system(dec):
    """Shared rows ``[X^T; 1] w = [c; 1]`` of the ray LPs of ``dec``, over
    the members' chart points ``X`` and the centre ``c``, and the ``t``
    column ``-s e_k`` of each of its 2n directions."""
    center, X = _chart_members(dec)
    m, n = X.shape
    A = np.vstack([X.T, np.ones(m)])
    b = np.append(center, 1.0)
    return A, b, np.vstack([-np.eye(n, n + 1), np.eye(n, n + 1)])


def _highs_ray(A, b, column):
    """The largest ``t`` of the ray LP ``A w + t column = b``, ``w, t >=
    0``, from HiGHS."""
    c = np.zeros(A.shape[1] + 1)
    c[-1] = -1.0
    res = linprog(c, A_eq=np.column_stack([A, column]), b_eq=b,
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.x[-1]


def _assert_rays_match_standalone(dec):
    """Every ray of the shared phase 1 that runs to its optimum has the
    ``t`` of a HiGHS solve of that ray's full LP, and every ray whose
    ``t`` is the scale runs to its optimum; every ray stopped early is
    strictly above the scale, at most its HiGHS optimum, and reached by
    its witness."""
    A, b, columns = _ray_system(dec)
    center, X = _chart_members(dec)
    V = X - center
    m, n = V.shape
    z, dual = simplex._ray_maxima(A, b, columns, 1e-9)
    assert len(z) == len(dual) == len(columns)
    alpha = z[:, -1].min()
    for column, zj, yj in zip(columns, z, dual):
        best = _highs_ray(A, b, column)
        optimal = np.isfinite(yj).all()
        if zj[-1] == alpha:
            assert optimal
        if optimal:
            assert zj[-1] == pytest.approx(best, abs=1e-9)
        else:
            assert np.isnan(yj).all()
            assert alpha < zj[-1] <= best + 1e-9
            assert _witness_violation(zj[:m], V, -zj[-1] * column[:n]) <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
       extra=st.integers(1, 20),
       concentration=st.sampled_from([0.2, 1.0, 5.0]))
def test_shared_phase1_rays_match_standalone_solves(seed, d, extra,
                                                    concentration):
    _assert_rays_match_standalone(
        _random_decomposition(seed, d, d * d - 1 + extra, concentration))


def _flat_qubit_decomposition(seed, m):
    """``m`` qubit states at Bloch radius 0.3 on the z = 0 circle and a
    Dirichlet(1) mix of them."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, m)
    members = from_coords(
        0.3 * np.column_stack([np.cos(angles), np.sin(angles), np.zeros(m)]))
    weights = rng.dirichlet(np.ones(m))
    return DecompositionInput(from_coords(weights @ to_coords(members)),
                              members, weights)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 10))
def test_rank_deficient_rays_match_standalone_solves(seed, m):
    """Members all at Bloch z = 0 make ``[V^T; 1]`` rank deficient: an
    artificial stays basic in the shared phase 1, and on the two z rays
    the t column replaces it."""
    dec = _flat_qubit_decomposition(seed, m)
    A, b, _ = _ray_system(dec)
    state, _ = simplex._phase1(A, b, 1000)
    assert max(state.basis) >= m
    assert simplex._infeasibility(state) <= 1e-9
    _assert_rays_match_standalone(dec)
    t = max_inscribed_cross_polytope(dec).certificate.t
    assert t[2] == t[5] == 0.0


# ------------------------------------------------------------- Algorithm 2

def test_robustness_member_examples():
    center = DensityMatrix(MIXED_2)
    assert robustness_member(center, center, 0.0)
    assert robustness_member(_qubit_state([0.15, 0.0, 0.0]), center, 0.2)
    assert robustness_member(_qubit_state([0.1, 0.05, -0.04]), center, 0.2)
    assert not robustness_member(_qubit_state([0.15, 0.05, 0.05]), center, 0.2)
    assert not robustness_member(_qubit_state([0.21, 0.0, 0.0]), center, 0.2)


def test_robustness_member_boundary_and_vertices():
    center = DensityMatrix(MIXED_2)
    alpha = 0.3
    # polytope vertices are members (closed hull)
    for k in range(3):
        c = np.zeros(3)
        c[k] = alpha
        assert robustness_member(_qubit_state(c), center, alpha)
        assert robustness_member(_qubit_state(-c), center, alpha)
    # just beyond a vertex is not
    assert not robustness_member(_qubit_state([alpha + 1e-3, 0, 0]), center, alpha)


def test_robustness_member_validation():
    center = DensityMatrix(MIXED_2)
    with pytest.raises(DecompositionError):
        robustness_member(DensityMatrix(np.eye(3) / 3), center, 0.1)
    for alpha in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError) as info:
            robustness_member(center, center, alpha)
        assert str(info.value) == "alpha must be a finite nonnegative real"


def test_infinite_alpha_is_refused_as_alpha():
    """An infinite scale is the scale's fault, not the displacement's:
    the message is ``robustness_fraction``'s own."""
    center = DensityMatrix(MIXED_2)
    for call in (lambda: robustness_member(center, center, math.inf),
                 lambda: robustness_fraction(2, math.inf)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "alpha must be a finite nonnegative real"


def test_robustness_member_agrees_with_lp_route():
    """Probe membership via partial sums must match the explicit LP over
    the polytope's own vertex set."""
    rng = np.random.default_rng(500)
    center = DensityMatrix(MIXED_2)
    alpha = 0.3
    vertices = CrossPolytopeSpec(alpha, [0, 0, 0]).vertices()
    disagreements = 0
    for _ in range(500):
        c = rng.uniform(-0.35, 0.35, size=3)
        probe = _qubit_state(c)
        fast = robustness_member(probe, center, alpha)
        lp, _ = hull_member_lp(c, vertices)
        disagreements += int(fast != lp)
    assert disagreements == 0


def test_robustness_membership_implies_hs_distance_bound():
    # the polytope sits inside the chart ball of radius alpha, so members
    # stay within alpha of the center in Hilbert-Schmidt distance
    rng = np.random.default_rng(9)
    center = DensityMatrix(MIXED_2)
    alpha = 0.25
    for _ in range(200):
        c = rng.uniform(-0.3, 0.3, size=3)
        if robustness_member(_qubit_state(c), center, alpha):
            assert np.linalg.norm(c) <= alpha + 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_displacement_charts_probe_and_center_as_one_stack(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(20):
        probe, center = (DensityMatrix(G @ G.conj().T / np.trace(G @ G.conj().T).real)
                         for G in rng.normal(size=(2, d, d))
                         + 1j * rng.normal(size=(2, d, d)))
        c = _displacement(probe, center, 0.1)
        expected = to_coords(probe) - to_coords(center)
        assert c.tobytes() == expected.tobytes()


def _anchored_in_cross_polytope(c, alpha, tol=1e-9):
    """The weak majorization of ``|c|`` by ``(alpha, 0, ..., 0)`` that
    :func:`_in_cross_polytope` reduces to its last partial sum."""
    anchor = np.zeros(len(c))
    anchor[0] = alpha
    return weakly_majorized(np.abs(c), anchor, tol=tol)


def test_in_cross_polytope_agrees_with_anchored_weak_majorization():
    rng = np.random.default_rng(12)
    checked = {True: 0, False: 0}
    for n in (1, 3, 8, 15, 24):
        for _ in range(40):
            c = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3])
            if rng.random() < 0.3:
                c = np.round(c * 8) / 8   # dyadic: |c|_1 is exact
            total = float(np.cumsum(np.sort(np.abs(c))[::-1])[-1])
            for alpha in (total, np.nextafter(total, 0.0), total - 1e-9,
                          np.nextafter(total - 1e-9, 0.0), total - 2e-9,
                          0.5 * total, 2.0 * total, 0.0):
                got = _in_cross_polytope(c, alpha, 1e-9)
                assert got == _anchored_in_cross_polytope(c, alpha)
                checked[got] += 1
    # |c|_1 == alpha exactly is on the boundary, and closed
    assert _in_cross_polytope(np.array([0.5, -0.25, 0.125]), 0.875, 0.0)
    assert not _in_cross_polytope(np.array([0.5, -0.25, 0.125]),
                                  np.nextafter(0.875, 0.0), 0.0)
    assert min(checked.values()) > 100


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_in_cross_polytope_refuses_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="finite"):
        _in_cross_polytope(np.array([0.1, bad, 0.0]), 0.3, 1e-9)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_in_cross_polytope_refuses_overflowing_sums():
    with pytest.raises(ValueError, match="overflow"):
        _in_cross_polytope(np.array([1e308, -1e308, 0.0]), 0.3, 1e-9)


# ----------------------------------------------------------------- volumes

def test_hs_volume_qubit_closed_form():
    assert hs_volume(2) == pytest.approx(math.pi / 6.0, rel=1e-12)


def test_hs_volume_qutrit_closed_form():
    expected = math.sqrt(3.0) * math.pi ** 3 / 40320.0
    assert hs_volume(3) == pytest.approx(expected, rel=1e-12)


def test_hs_volume_shrinks_with_dimension():
    vols = [hs_volume(d) for d in range(2, 7)]
    assert all(a > b for a, b in zip(vols, vols[1:]))
    with pytest.raises(ValueError):
        hs_volume(1)


def test_robustness_fraction_qubit_closed_form():
    # d = 2 collapses to 8 alpha^3 / pi
    for alpha in (0.1, 0.2, 0.4):
        assert robustness_fraction(2, alpha) == pytest.approx(
            8.0 * alpha ** 3 / math.pi, rel=1e-13)
    assert robustness_fraction(2, 0.0) == 0.0
    with pytest.raises(ValueError):
        robustness_fraction(1, 0.1)
    with pytest.raises(ValueError, match="robustness fraction overflows"):
        robustness_fraction(3, 1e100)
    with pytest.raises(ValueError):
        robustness_fraction(2, -0.1)


def test_fraction_times_hs_volume_is_cross_volume():
    for d in (2, 3, 4):
        for alpha in (0.1, 0.5, 1.0):
            lhs = robustness_fraction(d, alpha) * hs_volume(d)
            rhs = cross_polytope_volume(d * d - 1, alpha)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_fraction_is_tiny_but_positive_for_realistic_scales():
    f = robustness_fraction(3, 0.05)
    assert 0.0 < f < 1e-6
