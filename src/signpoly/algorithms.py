"""Maximal cross-polytopes inside convex decompositions of states, and
the robustness bookkeeping built on them.

Given a target state written as a convex combination of other states,
the first routine finds the largest axis-aligned cross-polytope in the
coordinate chart that is centered on the target and contained in the
hull of the decomposition members.  Membership of a probe state in that
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
from .simplex import minimize_nonneg

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
    Hilbert-Schmidt norm.
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
        if w.min() < -DEFAULT_TOL:
            raise DecompositionError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > DEFAULT_TOL:
            raise DecompositionError(f"weights must sum to 1, got {w.sum()!r}")
        mix = sum(wi * m.matrix for wi, m in zip(w, self.members))
        residual = float(np.linalg.norm(mix - self.target.matrix))
        if residual > RECONSTRUCTION_TOL:
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
    with ``t s e_k`` in the hull of the members translated by the
    target, and row ``j`` of ``witnesses`` holds member weights that
    reach it (NaN when even ``t = 0`` was out of reach).  The binding
    direction is the one whose ``t`` is the scale.  ``hyperplane`` is
    an ``h`` with ``h . v <= 1`` on every translated member and
    ``h . (alpha s e_k) >= 1`` at the binding vertex, read from the dual
    of the binding ray; it is ``None`` when the scale is 0.  See
    :func:`certificate_holds`.
    """

    t: np.ndarray
    witnesses: np.ndarray
    binding_axis: int
    binding_sign: int
    hyperplane: np.ndarray | None


@dataclass
class QuantumCrossPolytope:
    """A cross-polytope of states: geometry in the coordinate chart plus
    the decomposition that produced it and the certificate of its scale.

    ``degenerate`` marks the boundary case where the target sits on the
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


def max_inscribed_cross_polytope(
    decomposition: DecompositionInput,
    tol_alpha: float = DEFAULT_TOL_ALPHA,
    lp_tol: float = DEFAULT_TOL,
) -> QuantumCrossPolytope:
    """Largest cross-polytope centered on the target inside the hull of
    the decomposition members, in the coordinate chart.

    The target is a convex combination of the members, so the best
    scale is exactly ``min over k, s of max {t : t s e_k in hull}``.
    Each of the ``2(d^2-1)`` directions is one ray LP: maximize ``t``
    subject to ``V^T w - t s e_k = 0``, ``sum w = 1``, ``w, t >= 0``
    over the translated members ``V``.  A ray that cannot even start
    means the target sits on the hull boundary: the scale is 0, and so
    is a positive ray optimum at or below ``min(lp_tol, tol_alpha)``,
    which the solver cannot tell from 0 (its hyperplane ``u/t`` would be
    noise): such a ray is recorded like one that cannot start.  Scales
    at or below ``tol_alpha`` carry the ``degenerate`` flag instead of
    raising.  Every weight vector is checked to be a convex combination
    reaching its ray point within ``lp_tol``; a larger violation raises
    :class:`~signpoly.errors.SolverFailureError`.
    """
    center = to_coords(decomposition.target)
    n = center.size
    translated = np.array(
        [to_coords(m) for m in decomposition.members]
    ) - center
    m = len(translated)

    # Columns [w | t]; rows [V^T w - t s e_k = 0 | sum w = 1].
    A = np.zeros((n + 1, m + 1))
    A[:n, :m] = translated.T
    A[n, :m] = 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    c = np.zeros(m + 1)
    c[m] = -1.0

    zero_t = min(lp_tol, tol_alpha)
    t = np.zeros(2 * n)
    witnesses = np.full((2 * n, m), np.nan)
    duals: list[np.ndarray | None] = [None] * (2 * n)
    for j in range(2 * n):
        A[:n, m] = 0.0
        A[j % n, m] = -1.0 if j < n else 1.0
        sol = minimize_nonneg(c, A, b, tol=lp_tol)
        if sol.status == "infeasible":
            continue
        if sol.status != "optimal":
            raise SolverFailureError(
                f"ray LP {sol.status} inside a bounded hull")
        # The ray point t s e_k is -t times the t column.
        violation = _witness_violation(sol.z[:m], translated,
                                       -sol.z[m] * A[:n, m])
        if violation > lp_tol:
            raise SolverFailureError(
                f"ray witness violation {violation:.3e} exceeds tolerance "
                f"{lp_tol:.3e}"
            )
        if 0.0 < sol.z[m] <= zero_t:
            continue
        t[j] = sol.z[m]
        witnesses[j] = sol.z[:m]
        duals[j] = sol.dual[:n]

    binding = int(np.argmin(t))
    alpha = float(t[binding]) + 0.0  # no negative zero
    # The dual (u, u0) of the binding ray has u . v <= -u0 = alpha on
    # every member and s u_k >= 1; scaling by 1/alpha gives h.
    hyperplane = duals[binding] / alpha if alpha > 0.0 else None
    certificate = CrossPolytopeCertificate(
        t=t,
        witnesses=witnesses,
        binding_axis=binding % n,
        binding_sign=1 if binding < n else -1,
        hyperplane=hyperplane,
    )
    spec = CrossPolytopeSpec(scale=alpha, center=center)
    return QuantumCrossPolytope(spec, decomposition,
                                degenerate=alpha <= tol_alpha,
                                certificate=certificate)


def certificate_holds(poly: QuantumCrossPolytope,
                      tol: float = DEFAULT_TOL) -> bool:
    """Check the certificate of ``poly`` against its decomposition with
    plain numpy, no LP.

    Primal side: every solved direction's weights are a convex combination
    reaching ``t_j s_j e_k`` within ``tol``, an unsolved one has ``t_j = 0``, and
    the scale is the smallest ``t_j``, attained at the binding
    direction.  With the target the weighted mean of the members, every
    vertex then lies in the hull.  Dual side:
    ``max_j h . v_j <= 1 + tol`` over the translated members and
    ``h . (alpha s* e_k*) >= 1 - tol`` at the binding vertex, so the
    hyperplane ``h . x = 1`` leaves no room for a larger scale.  A scale
    of 0 carries no hyperplane.
    """
    cert = poly.certificate
    center = to_coords(poly.provenance.target)
    V = np.array([to_coords(m) for m in poly.provenance.members]) - center
    n = V.shape[1]
    alpha = poly.alpha
    binding = cert.binding_axis + (0 if cert.binding_sign > 0 else n)
    if cert.t.min() != alpha or cert.t[binding] != alpha:
        return False
    points = np.vstack([np.eye(n), -np.eye(n)]) * cert.t[:, None]
    for t, w, point in zip(cert.t, cert.witnesses, points):
        if np.isnan(w).any():
            if t != 0.0:
                return False
            continue
        if _witness_violation(w, V, point) > tol:
            return False
    if cert.hyperplane is None:
        return alpha == 0.0
    h = cert.hyperplane
    return (float(np.max(V @ h)) <= 1.0 + tol
            and cert.binding_sign * alpha * h[cert.binding_axis] >= 1.0 - tol)


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
    if alpha < 0.0:
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
