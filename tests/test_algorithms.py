import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from signpoly import (
    DecompositionError,
    SolverFailureError,
    DecompositionInput,
    DensityMatrix,
    CrossPolytopeSpec,
    certificate_holds,
    cross_polytope_volume,
    from_coords,
    hs_volume,
    hull_member_lp,
    insphere_report,
    max_inscribed_cross_polytope,
    robustness_fraction,
    robustness_member,
    to_coords,
    traceless_hermitian_basis,
)

MIXED_2 = np.eye(2, dtype=complex) / 2


def _qubit_state(coords3):
    """State with the given chart coordinates (must stay positive)."""
    return DensityMatrix(from_coords(coords3))


def _octahedral_decomposition(r=0.4):
    basis = traceless_hermitian_basis(2)
    members = tuple(
        DensityMatrix(MIXED_2 + s * r * basis[k])
        for k in range(3) for s in (1, -1)
    )
    return DecompositionInput(
        target=DensityMatrix(MIXED_2), members=members, weights=(1 / 6,) * 6
    )


def _cube_decomposition(w=0.3):
    basis = traceless_hermitian_basis(2)
    members = tuple(
        DensityMatrix(MIXED_2 + w * (sx * basis[0] + sy * basis[1] + sz * basis[2]))
        for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)
    )
    return DecompositionInput(
        target=DensityMatrix(MIXED_2), members=members, weights=(1 / 8,) * 8
    )


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

    def test_members_must_reconstruct_target(self):
        dec = _octahedral_decomposition()
        off_target = _qubit_state([0.1, 0.0, 0.0])
        with pytest.raises(DecompositionError, match="miss the target"):
            DecompositionInput(target=off_target, members=dec.members,
                               weights=(1 / 6,) * 6)

    def test_dimension_mismatch(self):
        dec = _octahedral_decomposition()
        with pytest.raises(DecompositionError, match="dimension"):
            DecompositionInput(target=DensityMatrix(np.eye(3) / 3),
                               members=dec.members, weights=(1 / 6,) * 6)


# ------------------------------------------------------------- Algorithm 1

def test_octahedral_decomposition_recovers_exact_scale():
    poly = max_inscribed_cross_polytope(_octahedral_decomposition(0.4))
    assert poly.alpha == pytest.approx(0.4, abs=1e-6)
    assert not poly.degenerate
    assert poly.dim == 2
    assert len(poly.vertex_coords()) == 6


def test_cube_decomposition_recovers_half_width():
    poly = max_inscribed_cross_polytope(_cube_decomposition(0.3))
    assert poly.alpha == pytest.approx(0.3, abs=1e-6)
    assert not poly.degenerate


def test_degenerate_target_on_hull_boundary():
    boundary = _qubit_state([0.2, 0.0, 0.0])
    dec = DecompositionInput(target=boundary, members=(boundary,) * 4,
                             weights=(0.25,) * 4)
    poly = max_inscribed_cross_polytope(dec)
    assert poly.degenerate
    assert poly.alpha == 0.0
    assert poly.volume() == 0.0


def test_result_optimality_certificates():
    """The returned scale passes vertex containment while scale + tol
    fails it (monotone containment makes these two checks sufficient)."""
    dec = _cube_decomposition(0.3)
    poly = max_inscribed_cross_polytope(dec, tol_alpha=1e-8)
    center = to_coords(dec.target)
    translated = np.array([to_coords(m) for m in dec.members]) - center

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


def test_vertex_states_are_valid_density_matrices():
    poly = max_inscribed_cross_polytope(_octahedral_decomposition(0.4))
    states = poly.vertex_states()
    assert len(states) == 6
    for s in states:
        assert isinstance(s, DensityMatrix)


def test_polytope_geometry_accessors():
    poly = max_inscribed_cross_polytope(_octahedral_decomposition(0.4))
    a = poly.alpha
    assert poly.edge_length() == pytest.approx(math.sqrt(2.0) * a, rel=1e-12)
    assert poly.insphere_radius() == pytest.approx(a / math.sqrt(3.0), rel=1e-12)
    assert poly.volume() == pytest.approx((2 * a) ** 3 / 6.0, rel=1e-12)
    assert isinstance(poly.spec, CrossPolytopeSpec)


def _oracle_alpha(dec):
    """Largest t with every ``+-t e_k`` in the hull of the translated
    members, as one exact LP for an external solver: a weight vector
    ``w_j >= 0`` with ``V^T w_j = t s_j e_k`` and ``sum w_j = 1`` for
    each of the 2n rays j, all sharing t."""
    center = to_coords(dec.target)
    V = np.array([to_coords(m) for m in dec.members]) - center
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
        members = tuple(_qubit_state(c0 + r) for r in rel)
        dec = DecompositionInput(target=_qubit_state(c0), members=members,
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
        members.append(DensityMatrix(M / np.trace(M).real))
    weights = rng.dirichlet(np.full(m, concentration))
    target = sum(w * M.matrix for w, M in zip(weights, members))
    return DecompositionInput(DensityMatrix(target), tuple(members),
                              tuple(weights))


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


def test_sub_tolerance_ray_optimum_is_a_zero_scale():
    """The binding ray of this decomposition reaches t = 7.19e-14 (the
    external solver agrees), below the LP tolerance: the scale is 0 and
    carries no hyperplane, where u/t of size ~1e13 would miss the
    certificate on roundoff alone."""
    dec = _random_decomposition(341000839, 2, 4, 0.2)
    poly = max_inscribed_cross_polytope(dec)
    assert poly.alpha == 0.0
    assert poly.degenerate and poly.certificate.hyperplane is None
    assert certificate_holds(poly)
    assert poly.alpha == pytest.approx(_oracle_alpha(dec), abs=1e-7)


@pytest.mark.parametrize("lp_tol, tol_alpha, zeroed", [
    (1e-4, 1e-8, False),  # a loose LP tolerance alone zeroes nothing
    (1e-6, 1e-6, True),
])
def test_ray_optimum_zeroed_below_the_smaller_tolerance(lp_tol, tol_alpha,
                                                        zeroed):
    """The rays of this decomposition reach 2.79e-8 and more: zeroed
    only at or below min(lp_tol, tol_alpha), and a zeroed ray keeps no
    weights, so the certificate holds at the default tolerance."""
    dec = _random_decomposition(72565379, 3, 10, 0.2)
    poly = max_inscribed_cross_polytope(dec, tol_alpha=tol_alpha,
                                        lp_tol=lp_tol)
    if zeroed:
        assert poly.alpha == 0.0 and poly.certificate.hyperplane is None
        assert certificate_holds(poly)
    else:
        assert poly.alpha == pytest.approx(_oracle_alpha(dec), rel=1e-6)
        assert certificate_holds(poly, tol=lp_tol)


@pytest.mark.xfail(strict=True, reason=(
    "alpha = 2.79e-8 matches the oracle, but the hyperplane h = u/alpha "
    "scales the dual's roundoff by 1/alpha ~ 3.6e7, so max V.h - 1 = "
    "1e-8 to 2e-8 exceeds the 1e-9 certificate tolerance"))
def test_certificate_of_near_degenerate_decomposition():
    dec = _random_decomposition(72565379, 3, 10, 0.2)
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
    import signpoly.geometry
    verts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    w = np.array([0.0, 0.5, 0.25, 0.25]) + shift
    monkeypatch.setattr(signpoly.geometry, "feasible_nonneg",
                        lambda *a, **k: (True, w))
    with pytest.raises(SolverFailureError, match="witness"):
        hull_member_lp([0.25, 0.25], verts)


def test_ray_witness_that_misses_raises(monkeypatch):
    import signpoly.algorithms
    kernel = signpoly.algorithms.minimize_nonneg

    def heavy(*args, **kwargs):
        sol = kernel(*args, **kwargs)
        z = sol.z.copy()
        z[0] += 2e-9
        return dataclasses.replace(sol, z=z)

    monkeypatch.setattr(signpoly.algorithms, "minimize_nonneg", heavy)
    with pytest.raises(SolverFailureError, match="ray witness"):
        max_inscribed_cross_polytope(_cube_decomposition(0.3))


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
    for witnesses in (negative, heavy):
        assert not certificate_holds(dataclasses.replace(
            poly, certificate=dataclasses.replace(cert, witnesses=witnesses)))
    # a hyperplane too shallow to cut off the binding vertex
    assert not certificate_holds(dataclasses.replace(
        poly, certificate=dataclasses.replace(
            cert, hyperplane=cert.hyperplane * 0.99)))
    # a hyperplane that some member violates
    assert not certificate_holds(dataclasses.replace(
        poly, certificate=dataclasses.replace(
            cert, hyperplane=cert.hyperplane * 1.01)))


@pytest.mark.parametrize("offset", [0.0, 5e-9])
def test_degenerate_certificate_has_no_hyperplane(offset):
    """Members that all coincide with the target give rays of length 0;
    a target 5e-9 off them (inside the reconstruction tolerance, outside
    the LP one) gives rays that cannot start, except the one pointing
    back at the members.  Either way the scale is
    0 and the certificate carries no hyperplane."""
    boundary = _qubit_state([0.2, 0.0, 0.0])
    dec = DecompositionInput(target=_qubit_state([0.2 + offset, 0.0, 0.0]),
                             members=(boundary,) * 4, weights=(0.25,) * 4)
    poly = max_inscribed_cross_polytope(dec)
    assert poly.degenerate and poly.alpha == 0.0
    assert poly.certificate.hyperplane is None
    # only the ray back towards the members can start
    assert np.isnan(poly.certificate.witnesses).any() == (offset > 0.0)
    assert poly.certificate.t[3] == pytest.approx(offset, abs=1e-12)
    assert certificate_holds(poly)


@pytest.mark.parametrize("d, m", [(2, 8), (3, 20)])
def test_one_kernel_solve_per_direction(monkeypatch, d, m):
    """Exactly 2(d^2 - 1) LP solves and no hull queries per search."""
    import signpoly.algorithms
    import signpoly.geometry

    calls = {"minimize": 0, "feasible": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(signpoly.algorithms, "minimize_nonneg",
                        counting("minimize", signpoly.algorithms.minimize_nonneg))
    monkeypatch.setattr(signpoly.geometry, "feasible_nonneg",
                        counting("feasible", signpoly.geometry.feasible_nonneg))
    poly = max_inscribed_cross_polytope(_random_decomposition(7, d, m, 1.0))
    assert not poly.degenerate
    assert calls == {"minimize": 2 * (d * d - 1), "feasible": 0}


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
    with pytest.raises(ValueError):
        robustness_member(center, center, -0.1)


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


# ---------------------------------------------------------- insphere report

def test_insphere_report_qubit_values():
    rep = insphere_report(2, 1.0)
    assert rep.chart_dim == 3
    assert rep.radius == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
    assert rep.ball == pytest.approx(4.0 * math.pi / 3.0 * 3.0 ** -1.5, rel=1e-13)
    assert rep.cross == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert rep.ratio == pytest.approx(0.6045997880780726, rel=1e-12)
    assert rep.reference == pytest.approx((math.pi / 4.0) ** 1.5, rel=1e-15)


def test_insphere_report_zero_scale():
    rep = insphere_report(2, 0.0)
    assert rep.radius == 0.0
    assert rep.ball == 0.0
    assert rep.cross == 0.0
    assert rep.ratio == 0.0


def test_insphere_report_qutrit_ratio_pinned():
    # at chart dimension 8 the ratio/reference quotient is exactly
    # 8!/(8^4 * 4!) = 0.410156...: same order of magnitude, not factor-2
    rep = insphere_report(3, 1.0)
    assert rep.ratio / rep.reference == pytest.approx(
        math.factorial(8) / (8.0 ** 4 * math.factorial(4)), rel=1e-12)
