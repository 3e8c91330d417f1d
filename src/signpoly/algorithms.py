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

import numpy as np

from .errors import DecompositionError, SolverFailureError
from .geometry import CrossPolytopeSpec, _exp, _witness_violation
from .majorization import DEFAULT_TOL, _check_sums, _real_array
from .quantum import DensityMatrix, _chart, _state_stack, from_coords
from .simplex import _ray_maxima

#: Inscribed scales at or below this mark the polytope as degenerate.
DEFAULT_TOL_ALPHA = 1e-8

#: Allowed Hilbert-Schmidt residual when checking that the weighted
#: members reproduce the target.
RECONSTRUCTION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DecompositionInput:
    """A target state with a convex decomposition over member states, as
    read-only arrays ``target`` ``(d, d)``, ``members`` ``(m, d, d)`` and
    ``weights`` ``(m,)`` built from any array-likes.  The target, then the
    members, must be states (one stack of the target's shape), more than
    ``d^2 - 1`` members (else the hull has empty interior), weights
    real and nonnegative with unit sum (complex weights raise
    ``ValueError``), and a weighted reconstruction within ``1e-8`` of the
    target in Hilbert-Schmidt norm (NaN fails every check).
    """

    target: np.ndarray
    members: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        try:
            stack = np.concatenate([[self.target], self.members])
        except (TypeError, ValueError):
            raise DecompositionError(
                "all members must match the target dimension") from None
        states = _state_stack(stack)
        target, members = states[0], states[1:]
        d = target.shape[0]
        n_needed = d * d - 1
        if len(members) <= n_needed:
            raise DecompositionError(
                f"need more than {n_needed} members for dimension {d}, "
                f"got {len(members)}"
            )
        w = np.array(_real_array(self.weights))
        if w.shape != (len(members),):
            raise DecompositionError("weights and members must have equal length")
        if not w.min() >= -DEFAULT_TOL:
            raise DecompositionError("weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= DEFAULT_TOL:
            raise DecompositionError(f"weights must sum to 1, got {w.sum()!r}")
        mix = (w[:, None, None] * members).sum(axis=0)
        residual = float(np.linalg.norm(mix - target))
        if not residual <= RECONSTRUCTION_TOL:
            raise DecompositionError(
                f"weighted members miss the target by {residual:.3e} "
                f"(allowed {RECONSTRUCTION_TOL:.1e})"
            )
        w.setflags(write=False)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.target.shape[0]


@dataclass(frozen=True)
class CrossPolytopeCertificate:
    """Two-sided evidence for the scale of a :class:`QuantumCrossPolytope`.

    Direction ``j`` of the ``2n`` (``n = d^2 - 1``) is axis ``j % n``
    with sign ``+1`` for ``j < n`` and ``-1`` otherwise, the order of
    :meth:`CrossPolytopeSpec.vertices`.  Row ``j`` of ``witnesses`` holds
    the member weights of its ray LP, which reach ``t[j] s e_k`` in the
    hull of the members translated by their weighted mean.  The binding
    direction is the first one whose ``t`` is the smallest, the scale,
    and its ``t`` is the LP optimum, the largest such ``t``; for any
    other direction ``t[j]`` is a ``t`` above the scale that its witness
    reaches, not its maximum.  ``hyperplane`` is the binding ray's LP
    dual ``u``, as the solver returns it: ``u . v <= alpha`` on every
    translated member and ``s u_k >= 1`` at the binding axis, so no
    scale above ``alpha`` fits.  See :func:`certificate_holds`.
    """

    t: np.ndarray
    witnesses: np.ndarray
    hyperplane: np.ndarray

    @property
    def binding_axis(self) -> int:
        return int(np.argmin(self.t)) % (len(self.t) // 2)

    @property
    def binding_sign(self) -> int:
        return 1 if int(np.argmin(self.t)) < len(self.t) // 2 else -1


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

    def vertex_states(self) -> np.ndarray:
        """The vertices of :attr:`spec` as one validated, read-only
        ``(2n, d, d)`` stack of density matrices; the first vertex that
        is not a state raises."""
        return _state_stack(from_coords(self.spec.vertices().array))


def _chart_members(decomposition: DecompositionInput):
    """The chart point of the members' mean under the weights, clipped
    at 0 and renormalized (the chart of their weighted matrix sum, as
    checked against the target), and the members' chart points.  The
    members were validated as states when ``decomposition`` was built,
    and so is any convex combination of them, so neither is checked
    again."""
    weights = np.clip(decomposition.weights, 0.0, None)
    weights /= weights.sum()
    M = decomposition.members
    return _chart((weights[:, None, None] * M).sum(axis=0)), _chart(M)


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
    subject to ``X^T w - t s e_k = c``, ``sum w = 1``, ``w, t >= 0`` over
    the members' chart points ``X`` and the centre ``c`` (not over points
    translated to put ``c`` at 0: phase 1 is fully degenerate there).
    The rays differ only in the ``t`` column, so one shared phase 1 feeds
    their ``2(d^2-1)`` phase-2 runs, and a ray stops once its ``t`` is
    strictly above the smallest optimum found so far, which leaves the
    scale unchanged: the binding ray always runs to its optimum.  A
    centre on the hull boundary gives a scale at or near 0; scales at or
    below ``tol_alpha`` carry the ``degenerate`` flag instead of
    raising.  Every ray keeps its LP weights, and the binding ray its LP
    dual, as the certificate.  A shared phase 1 that leaves ``t = 0``
    infeasible at ``lp_tol``, a ray with no admissible pivot, a binding
    ray that is not optimal, or a certificate that
    :func:`certificate_holds` rejects at ``lp_tol`` raises
    :class:`~signpoly.errors.SolverFailureError`, so every scale returned
    is certified on both sides.
    """
    center, points = _chart_members(decomposition)
    m, n = points.shape
    # Ray j adds the column -s e_k to the shared rows.
    A = np.vstack([points.T, np.ones(m)])
    b = np.append(center, 1.0)
    columns = np.vstack([-np.eye(n, n + 1), np.eye(n, n + 1)])

    z, dual = _ray_maxima(A, b, columns, lp_tol)
    t = z[:, m]
    binding = int(np.argmin(t))
    if np.isnan(dual[binding]).any():
        raise SolverFailureError("the binding ray LP stopped before its optimum")
    alpha = float(t[binding]) + 0.0  # no negative zero
    # The dual (u, u0) of the binding ray has u . x + u0 <= 0 on every
    # member, s u_k >= 1 and u . c + u0 = -alpha: u . (x - c) <= alpha.
    certificate = CrossPolytopeCertificate(
        t=t, witnesses=z[:, :m], hyperplane=dual[binding, :n])
    if not _certified(certificate, alpha, center, points, lp_tol):
        raise SolverFailureError(
            f"the certificate of scale {alpha!r} fails at tolerance "
            f"{lp_tol:.3e}: a ray witness misses its point or the dual "
            "does not bound the scale")
    return QuantumCrossPolytope(CrossPolytopeSpec(scale=alpha, center=center),
                                decomposition, degenerate=alpha <= tol_alpha,
                                certificate=certificate)


def certificate_holds(poly: QuantumCrossPolytope,
                      tol: float = DEFAULT_TOL) -> bool:
    """Check the certificate of ``poly`` against its decomposition with
    plain numpy, no LP.

    Primal side: every direction's weights are a convex combination
    reaching ``t_j s_j e_k`` within ``tol``, and the scale is the
    smallest ``t_j``.  With the centre the members' weighted mean, every
    vertex then lies in the hull.  Dual side: ``max_j u . v_j <= alpha +
    tol`` over the translated members and ``s* u_k* >= 1 - tol`` at the
    binding direction (the first smallest ``t_j``), so every hull point
    ``beta s* e_k*`` has ``beta <= (alpha + tol) / (1 - tol)``: an
    absolute bound at ``tol``, as the primal side's.  NaN anywhere
    fails, and so does a ``t``, ``witnesses`` or ``hyperplane`` not of
    shape ``(2n,)``, ``(2n, m)`` or ``(n,)`` over the ``m`` members.
    """
    return _certified(poly.certificate, poly.alpha,
                      *_chart_members(poly.provenance), tol)


def _certified(cert: CrossPolytopeCertificate, alpha: float,
               center: np.ndarray, points: np.ndarray, tol: float) -> bool:
    """:func:`certificate_holds` on the chart ``center, points`` it was posed on."""
    V = points - center
    m, n = V.shape
    if (np.shape(cert.t) != (2 * n,) or np.shape(cert.witnesses) != (2 * n, m)
            or np.shape(cert.hyperplane) != (n,)):
        return False
    t, witnesses, u = map(np.asarray, (cert.t, cert.witnesses, cert.hyperplane))
    points = np.vstack([np.eye(n), -np.eye(n)]) * t[:, None]
    if t.min() != alpha or not _witness_violation(witnesses, V, points).max() <= tol:
        return False
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
    return _in_cross_polytope(_displacement(probe, center, alpha), alpha, tol)


def _displacement(probe: DensityMatrix, center: DensityMatrix,
                  alpha: float) -> np.ndarray:
    """The chart displacement ``c`` of ``probe`` from ``center``, once
    their dimensions agree and ``alpha`` is finite and nonnegative.  The
    two are charted as one stack, whose rows are their charts bit for
    bit."""
    if probe.dim != center.dim:
        raise DecompositionError(
            f"probe dimension {probe.dim} != center dimension {center.dim}"
        )
    if not alpha >= 0.0:
        raise ValueError("alpha must be nonnegative")
    if alpha == math.inf:
        raise ValueError("alpha must be a finite nonnegative real")
    coords = _chart(np.array((probe.matrix, center.matrix)))
    return coords[0] - coords[1]


def _in_cross_polytope(c: np.ndarray, alpha: float, tol: float) -> bool:
    """Whether ``c`` is in the cross-polytope of scale ``alpha`` about 0,
    the sign-permutation polytope of ``(alpha, 0, ..., 0)``.

    Every descending partial sum of that anchor is ``alpha``, and those
    of ``|c|`` never fall (adding a nonnegative float never lowers a
    sum), so weak majorization is decided by the last one, summed in
    the same order as :func:`~signpoly.majorization.weakly_majorized`.
    """
    s = np.abs(c)
    s.sort()
    total = s[::-1].cumsum().item(-1)
    if not math.isfinite(total + alpha):
        _check_sums(np.append(s, alpha), (total, alpha))
    return bool(total <= alpha + tol)


def hs_volume(d: int) -> float:
    """Hilbert-Schmidt volume of the set of all d-level states:
    ``sqrt(d) * pi^(d(d-1)/2) / 2^((d-1)/2) * prod_{k=1..d} Gamma(k) / Gamma(d^2)``,
    evaluated in log space."""
    return math.exp(_log_hs_volume(d))


def _log_hs_volume(d: int) -> float:
    """The log of :func:`hs_volume`."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    log_v = (0.5 * math.log(d)
             + 0.5 * d * (d - 1) * math.log(math.pi)
             - 0.5 * (d - 1) * math.log(2.0)
             - math.lgamma(d * d))
    for k in range(1, d + 1):
        log_v += math.lgamma(k)
    return log_v


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
    return _exp(log_f, "robustness fraction")
