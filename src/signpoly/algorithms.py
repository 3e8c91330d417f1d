"""Maximal cross-polytopes inside convex decompositions of states, and
the robustness bookkeeping built on them.

Given a target state written as a convex combination of other states,
the first routine finds the largest axis-aligned cross-polytope in the
coordinate chart that is centered on the members' weighted mean and
contained in the hull of the decomposition members.  Membership of a probe state in that
polytope is a one-line weak-majorization test, and the polytope's
volume measured against the Hilbert-Schmidt volume of the full state
space gives a robustness fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DecompositionError, SolverFailureError
from .geometry import (
    CrossPolytopeSpec,
    VertexSet,
    _witness_violation,
    ball_volume,
    cross_polytope_volume,
    insphere_radius,
)
from .majorization import DEFAULT_TOL, weakly_majorized
from .quantum import DensityMatrix, from_coords, to_coords
from .simplex import _ray_maxima

#: Inscribed scales at or below this mark the polytope as degenerate.
DEFAULT_TOL_ALPHA = 1e-8

#: Allowed Hilbert-Schmidt residual when checking that the weighted
#: members reproduce the target.
RECONSTRUCTION_TOL = 1e-8


@dataclass(frozen=True)
class DecompositionInput:
    """A target state with a convex decomposition over member states.

    Needs strictly more members than the chart dimension ``d^2 - 1``
    (otherwise the hull has empty interior and no polytope fits), equal
    dimensions throughout, weights that are nonnegative with unit sum,
    and a weighted reconstruction within ``1e-8`` of the target in
    Hilbert-Schmidt norm (NaN fails every check).
    """

    target: DensityMatrix
    members: tuple[DensityMatrix, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        d = self.target.dim
        if any(m.dim != d for m in self.members):
            raise DecompositionError("all members must match the target dimension")
        n_needed = d * d - 1
        if len(self.members) <= n_needed:
            raise DecompositionError(
                f"need more than {n_needed} members for dimension {d}, "
                f"got {len(self.members)}"
            )
        if len(self.weights) != len(self.members):
            raise DecompositionError("weights and members must have equal length")
        w = np.array(self.weights, dtype=float)
        if not w.min() >= -DEFAULT_TOL:
            raise DecompositionError("weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= DEFAULT_TOL:
            raise DecompositionError(f"weights must sum to 1, got {w.sum()!r}")
        mix = sum(wi * m.matrix for wi, m in zip(w, self.members))
        residual = float(np.linalg.norm(mix - self.target.matrix))
        if not residual <= RECONSTRUCTION_TOL:
            raise DecompositionError(
                f"weighted members miss the target by {residual:.3e} "
                f"(allowed {RECONSTRUCTION_TOL:.1e})"
            )

    @property
    def dim(self) -> int:
        return self.target.dim


@dataclass(frozen=True)
class CrossPolytopeCertificate:
    """Two-sided evidence for the scale of a :class:`QuantumCrossPolytope`.

    Direction ``j`` of the ``2n`` (``n = d^2 - 1``) is axis ``j % n``
    with sign ``+1`` for ``j < n`` and ``-1`` otherwise, the order of
    :meth:`CrossPolytopeSpec.vertices`.  ``t[j]`` is the largest ``t``
    with ``t s e_k`` in the hull of the members translated by their
    weighted mean, and row ``j`` of ``witnesses`` holds the member
    weights of its ray LP, which reach it.  The binding direction is
    the one whose ``t`` is the scale.  ``hyperplane`` is the binding
    ray's LP dual ``u``, as the solver returns it: ``u . v <= alpha`` on
    every translated member and ``s u_k >= 1`` at the binding axis, so
    no scale above ``alpha`` fits.  See :func:`certificate_holds`.
    """

    t: np.ndarray
    witnesses: np.ndarray
    binding_axis: int
    binding_sign: int
    hyperplane: np.ndarray


@dataclass
class QuantumCrossPolytope:
    """A cross-polytope of states: geometry in the coordinate chart plus
    the decomposition that produced it and the certificate of its scale.

    ``degenerate`` marks the boundary case where the centre sits on the
    hull's boundary and the polytope collapsed to (numerically) a point.
    """

    spec: CrossPolytopeSpec
    provenance: DecompositionInput
    degenerate: bool
    certificate: CrossPolytopeCertificate

    @property
    def alpha(self) -> float:
        return self.spec.scale

    @property
    def dim(self) -> int:
        """Hilbert space dimension (the chart has dimension dim^2 - 1)."""
        return self.provenance.dim

    @cached_property
    def _vertices(self) -> VertexSet:
        return self.spec.vertices()

    def vertex_coords(self) -> VertexSet:
        """The 2(d^2 - 1) vertex points in the coordinate chart."""
        return self._vertices

    def vertex_states(self) -> list[DensityMatrix]:
        """The vertices reconstructed and validated as density matrices."""
        return [DensityMatrix(M) for M in from_coords(self._vertices.array)]

    def volume(self) -> float:
        return self.spec.volume()

    def insphere_radius(self) -> float:
        return self.spec.insphere_radius()

    def edge_length(self) -> float:
        return self.spec.edge_length()


def _chart_members(decomposition: DecompositionInput):
    """The chart point of the members' mean under the weights, clipped
    at 0 and renormalized (the chart of their weighted matrix sum, as
    checked against the target), and the members' chart points less it."""
    weights = np.clip(decomposition.weights, 0.0, None)
    weights /= weights.sum()
    members = decomposition.members
    center = to_coords(sum(w * mb.matrix for w, mb in zip(weights, members)))
    points = np.array([to_coords(mb) for mb in members])
    return center, points - center


def max_inscribed_cross_polytope(
    decomposition: DecompositionInput,
    tol_alpha: float = DEFAULT_TOL_ALPHA,
    lp_tol: float = DEFAULT_TOL,
) -> QuantumCrossPolytope:
    """Largest cross-polytope centered on the members' weighted mean
    inside their hull, in the coordinate chart (the target is not read).

    The weights reach the centre, so ``t = 0`` is feasible on every ray
    and the best scale is ``min over k, s of max {t : t s e_k in hull}``.
    Each of the ``2(d^2-1)`` directions is one ray LP: maximize ``t``
    subject to ``V^T w - t s e_k = 0``, ``sum w = 1``, ``w, t >= 0`` over
    the translated members ``V``.  The rays differ only in the ``t``
    column, so one shared phase 1 feeds their ``2(d^2-1)`` phase-2 runs,
    with the same exact scale.  A centre on the hull boundary gives a
    scale at or near 0; scales at or below ``tol_alpha`` carry the
    ``degenerate`` flag instead of raising.  Every ray keeps its LP
    weights, and the binding ray its LP dual, as the certificate.  A
    ray LP that is not optimal, or a weight vector that misses its ray
    point by more than ``lp_tol``, raises
    :class:`~signpoly.errors.SolverFailureError`.
    """
    center, translated = _chart_members(decomposition)
    m, n = translated.shape

    # Rows [V^T w = 0 | sum w = 1] for every ray; ray j adds column -s e_k.
    A = np.vstack([translated.T, np.ones(m)])
    b = np.append(np.zeros(n), 1.0)
    columns = np.vstack([-np.eye(n, n + 1), np.eye(n, n + 1)])

    sols = []
    for j, sol in enumerate(_ray_maxima(A, b, columns, lp_tol)):
        if sol.status != "optimal":
            raise SolverFailureError(
                f"ray LP {sol.status}, though t = 0 is feasible in a bounded hull")
        # The ray point t s e_k is -t times the t column.
        violation = _witness_violation(sol.z[:m], translated,
                                       -sol.z[m] * columns[j, :n])
        if not violation <= lp_tol:
            raise SolverFailureError(
                f"ray witness violation {violation:.3e} exceeds tolerance "
                f"{lp_tol:.3e}"
            )
        sols.append(sol)

    t = np.array([sol.z[m] for sol in sols])
    binding = int(np.argmin(t))
    alpha = float(t[binding]) + 0.0  # no negative zero
    # The dual (u, u0) of the binding ray has u . v <= -u0 = alpha on
    # every member and s u_k >= 1.
    certificate = CrossPolytopeCertificate(
        t=t,
        witnesses=np.array([sol.z[:m] for sol in sols]),
        binding_axis=binding % n,
        binding_sign=1 if binding < n else -1,
        hyperplane=sols[binding].dual[:n],
    )
    spec = CrossPolytopeSpec(scale=alpha, center=center)
    return QuantumCrossPolytope(spec, decomposition,
                                degenerate=alpha <= tol_alpha,
                                certificate=certificate)


def certificate_holds(poly: QuantumCrossPolytope,
                      tol: float = DEFAULT_TOL) -> bool:
    """Check the certificate of ``poly`` against its decomposition with
    plain numpy, no LP.

    Primal side: every direction's weights are a convex combination
    reaching ``t_j s_j e_k`` within ``tol``, and the scale is the
    smallest ``t_j``, attained at the binding direction.  With the
    centre the members' weighted mean, every vertex then lies in the
    hull.  Dual side: ``max_j u . v_j <= alpha + tol`` over the
    translated members and ``s* u_k* >= 1 - tol`` at the binding axis,
    so every hull point ``beta s* e_k*`` has ``beta <= (alpha + tol) /
    (1 - tol)``: an absolute bound at ``tol``, as the primal side's.
    NaN anywhere fails.
    """
    cert = poly.certificate
    _, V = _chart_members(poly.provenance)
    n = V.shape[1]
    alpha = poly.alpha
    binding = cert.binding_axis + (0 if cert.binding_sign > 0 else n)
    if cert.t.min() != alpha or cert.t[binding] != alpha:
        return False
    points = np.vstack([np.eye(n), -np.eye(n)]) * cert.t[:, None]
    for w, point in zip(cert.witnesses, points):
        if not _witness_violation(w, V, point) <= tol:
            return False
    u = cert.hyperplane
    return (float(np.max(V @ u)) <= alpha + tol
            and cert.binding_sign * u[cert.binding_axis] >= 1.0 - tol)


def robustness_member(
    probe: DensityMatrix,
    center: DensityMatrix,
    alpha: float,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Whether ``probe`` lies in the cross-polytope of scale ``alpha``
    centered on ``center`` in the coordinate chart.

    The displacement's absolute coordinates are tested for weak
    majorization against ``(alpha, 0, ..., 0)``, which reduces to the
    1-norm comparison ``|c|_1 <= alpha``; no vertex set or LP appears.
    """
    if probe.dim != center.dim:
        raise DecompositionError(
            f"probe dimension {probe.dim} != center dimension {center.dim}"
        )
    if not alpha >= 0.0:
        raise ValueError("alpha must be nonnegative")
    return _in_cross_polytope(to_coords(probe) - to_coords(center), alpha, tol)


def _in_cross_polytope(c: np.ndarray, alpha: float, tol: float) -> bool:
    """Whether ``c`` is in the cross-polytope of scale ``alpha`` about 0,
    the sign-permutation polytope of ``(alpha, 0, ..., 0)``."""
    anchor = np.zeros(c.size)
    anchor[0] = alpha
    return weakly_majorized(np.abs(c), anchor, tol=tol)


def hs_volume(d: int) -> float:
    """Hilbert-Schmidt volume of the set of all d-level states:
    ``sqrt(d) * pi^(d(d-1)/2) / 2^((d-1)/2) * prod_{k=1..d} Gamma(k) / Gamma(d^2)``,
    evaluated in log space."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    log_v = (0.5 * math.log(d)
             + 0.5 * d * (d - 1) * math.log(math.pi)
             - 0.5 * (d - 1) * math.log(2.0)
             - math.lgamma(d * d))
    for k in range(1, d + 1):
        log_v += math.lgamma(k)
    return math.exp(log_v)


def robustness_fraction(d: int, alpha: float) -> float:
    """Fraction of the full state-space volume taken by a cross-polytope
    of scale ``alpha`` in the chart of d-level states:
    ``2^((2d+3)(d-1)/2) * alpha^(d^2-1) / (sqrt(d) * pi^(d(d-1)/2) * prod Gamma(k))``.

    Equal to ``cross_polytope_volume(d^2 - 1, alpha) / hs_volume(d)``;
    the closed form and the volume ratio agree to near machine
    precision, which makes a useful cross-check.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be a finite nonnegative real")
    if alpha == 0.0:
        return 0.0
    log_f = (0.5 * (2 * d + 3) * (d - 1) * math.log(2.0)
             + (d * d - 1) * math.log(alpha)
             - 0.5 * math.log(d)
             - 0.5 * d * (d - 1) * math.log(math.pi))
    for k in range(1, d + 1):
        log_f -= math.lgamma(k)
    return math.exp(log_f)


@dataclass(frozen=True)
class InsphereReport:
    """Inscribed-ball summary of the cross-polytope of scale ``alpha`` in
    the chart of d-level states (chart dimension ``n = d^2 - 1``): the
    insphere radius, both volumes, their ratio, and the loose reference
    value ``(pi/4)^(n/2)`` the ratio roughly tracks in low dimension
    (the true ratio/reference quotient is ``n!/(n^(n/2) Gamma(n/2+1))``,
    which decays like ``sqrt(2) (2/e)^(n/2)``)."""

    dim: int
    chart_dim: int
    alpha: float
    radius: float
    ball: float
    cross: float
    ratio: float
    reference: float


def insphere_report(d: int, alpha: float) -> InsphereReport:
    """Compare the inscribed-ball volume of the chart cross-polytope of a
    d-level system with the polytope volume.  For ``alpha = 0`` both
    volumes are zero and the ratio is reported as 0."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    n = d * d - 1
    r = insphere_radius(n, alpha)
    vb = ball_volume(n, r)
    vc = cross_polytope_volume(n, alpha)
    ratio = vb / vc if vc > 0.0 else 0.0
    return InsphereReport(
        dim=d,
        chart_dim=n,
        alpha=alpha,
        radius=r,
        ball=vb,
        cross=vc,
        ratio=ratio,
        reference=(math.pi / 4.0) ** (n / 2.0),
    )
