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

import numpy as np

from .errors import DecompositionError
from .geometry import (
    CrossPolytopeSpec,
    VertexSet,
    ball_volume,
    cross_polytope_volume,
    hull_member_lp,
    insphere_radius,
)
from .majorization import DEFAULT_TOL, EuclideanPoint, weakly_majorized
from .quantum import DensityMatrix, StateCoords, from_coords, to_coords

#: Bisection stops when the bracket around the optimal scale is this tight.
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


@dataclass
class QuantumCrossPolytope:
    """A cross-polytope of states: geometry in the coordinate chart plus
    the decomposition that produced it.

    ``degenerate`` marks the boundary case where the target sits on the
    hull's boundary and the polytope collapsed to (numerically) a point.
    """

    spec: CrossPolytopeSpec
    provenance: DecompositionInput
    degenerate: bool

    @property
    def alpha(self) -> float:
        return self.spec.scale

    @property
    def dim(self) -> int:
        """Hilbert space dimension (the chart has dimension dim^2 - 1)."""
        return self.provenance.dim

    def vertex_coords(self) -> VertexSet:
        """The 2(d^2 - 1) vertex points in the coordinate chart."""
        return self.spec.vertices()

    def vertex_states(self) -> list[DensityMatrix]:
        """The vertices reconstructed and validated as density matrices."""
        d = self.dim
        out = []
        for row in self.spec.vertices().array:
            M = from_coords(StateCoords(EuclideanPoint(row), d))
            out.append(DensityMatrix(M))
        return out

    def volume(self) -> float:
        return self.spec.volume()

    def insphere_radius(self) -> float:
        return self.spec.insphere_radius()

    def edge_length(self) -> float:
        return self.spec.edge_length()


def _contains_cross_polytope(
    translated: np.ndarray, alpha: float, lp_tol: float
) -> bool:
    """All 2n vertices ``+-alpha e_k`` lie in the hull of the rows."""
    n = translated.shape[1]
    probe = np.zeros(n)
    for k in range(n):
        for sign in (1.0, -1.0):
            probe[:] = 0.0
            probe[k] = sign * alpha
            member, _ = hull_member_lp(probe, translated, tol=lp_tol)
            if not member:
                return False
    return True


def max_inscribed_cross_polytope(
    decomposition: DecompositionInput,
    tol_alpha: float = DEFAULT_TOL_ALPHA,
    lp_tol: float = DEFAULT_TOL,
) -> QuantumCrossPolytope:
    """Largest cross-polytope centered on the target inside the hull of
    the decomposition members, in the coordinate chart.

    Works by bisection on the scale: containment of all ``2(d^2-1)``
    vertices is monotone in the scale, each check being one LP per
    vertex.  The bracket starts at the largest member distance from the
    center, which no inscribed scale can exceed.  The result carries a
    ``degenerate`` flag instead of raising when the target sits on the
    hull boundary and the best scale is (numerically) zero.
    """
    center = to_coords(decomposition.target).point
    n = center.dim
    member_coords = np.array(
        [to_coords(m).point.coords for m in decomposition.members]
    )
    translated = member_coords - center.coords

    alpha_hi = float(np.max(np.linalg.norm(translated, axis=1)))
    spec_of = lambda a: CrossPolytopeSpec(dimension=n, scale=a, center=center)
    if alpha_hi <= tol_alpha:
        # Every member coincides with the target; the hull is a point.
        return QuantumCrossPolytope(spec_of(0.0), decomposition, degenerate=True)

    if _contains_cross_polytope(translated, alpha_hi, lp_tol):
        return QuantumCrossPolytope(spec_of(alpha_hi), decomposition,
                                    degenerate=False)

    lo, hi = 0.0, alpha_hi
    while hi - lo > tol_alpha:
        mid = 0.5 * (lo + hi)
        if _contains_cross_polytope(translated, mid, lp_tol):
            lo = mid
        else:
            hi = mid
    return QuantumCrossPolytope(spec_of(lo), decomposition,
                                degenerate=lo <= tol_alpha)


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
    c = to_coords(probe).point.coords - to_coords(center).point.coords
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
