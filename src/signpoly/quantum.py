"""Density matrices, the isometric coordinate chart, and pure-state
sign permutation enumeration.

Coordinates of a d-level state are its components along an orthonormal
traceless Hermitian basis (``Tr B_j B_k = delta_jk``), so Euclidean
distance between coordinate vectors equals Hilbert-Schmidt distance
between matrices.  Basis order for dimension d:

1. symmetric off-diagonal elements ``(E_jk + E_kj)/sqrt(2)`` for
   ``j < k`` in lexicographic order,
2. antisymmetric off-diagonal elements ``(-i E_jk + i E_kj)/sqrt(2)``
   in the same order,
3. the ``d - 1`` diagonal elements
   ``diag(1, ..., 1, -l, 0, ..., 0) / sqrt(l (l + 1))`` for
   ``l = 1 .. d-1``.

For ``d = 2`` this is exactly ``(sigma_x, sigma_y, sigma_z) / sqrt(2)``.

Chart points are plain float arrays: :func:`to_coords` maps one matrix
to a read-only ``(d*d - 1,)`` vector, and :func:`from_coords` maps any
stack ``(..., d*d - 1)`` of them back to ``(..., d, d)`` matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _enum
from .errors import (
    EnumerationTooLargeError,
    StateValidationError,
)
from .geometry import ENUMERATION_CAP
from .majorization import DEFAULT_TOL

#: Tolerance for the density-matrix invariants (Hermitian, unit trace,
#: positive semidefinite).
STATE_TOL = 1e-9
#: Unit-norm tolerance for pure-state amplitude vectors.
NORM_TOL = 1e-9
#: How far a purity may sit below 1 for a matrix to count as pure.
PURITY_TOL = 1e-8


@functools.lru_cache(maxsize=None)
def traceless_hermitian_basis(d: int) -> np.ndarray:
    """The d*d - 1 orthonormal traceless Hermitian basis matrices, as
    one ``(d*d - 1, d, d)`` complex array.

    Cached per dimension and returned read-only.
    """
    if d < 2:
        raise ValueError("basis needs dimension >= 2")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    j, k = np.triu_indices(d, 1)
    off = np.arange(j.size)
    basis = np.zeros((d * d - 1, d, d), dtype=complex)
    basis[off, j, k] = basis[off, k, j] = inv_sqrt2
    basis[off + j.size, j, k] = -1j * inv_sqrt2
    basis[off + j.size, k, j] = 1j * inv_sqrt2
    # Row l - 1 of diag is (1, ..., 1, -l, 0, ..., 0) / sqrt(l (l + 1)).
    l = np.arange(1, d)
    diag = np.tri(d - 1, d)
    diag[l - 1, l] = -l
    norm = 1.0 / np.sqrt(l * (l + 1))
    basis[2 * j.size:, np.arange(d), np.arange(d)] = diag * norm[:, None]
    basis.setflags(write=False)
    return basis


class DensityMatrix:
    """A validated density matrix: Hermitian, unit trace, positive
    semidefinite (each within ``tol``; NaN fails every check).

    Construction performs the checks and raises
    :class:`~signpoly.errors.StateValidationError` describing the first
    violated invariant.
    """

    __slots__ = ("_mat",)

    def __init__(self, matrix, tol: float = STATE_TOL):
        M = np.array(matrix, dtype=complex)
        _check_hermitian_unit_trace(M, tol)
        lam_min = float(np.linalg.eigvalsh((M + M.conj().T) / 2.0).min())
        if not lam_min >= -tol:
            raise StateValidationError(
                "not-psd", lam_min,
                f"smallest eigenvalue {lam_min:.3e} is below -{tol:.1e}",
            )
        M.setflags(write=False)
        self._mat = M

    @property
    def matrix(self) -> np.ndarray:
        """The underlying read-only complex matrix."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def _check_hermitian_unit_trace(M: np.ndarray, tol: float) -> None:
    """Raise ``StateValidationError`` unless ``M`` is a square matrix of
    dimension >= 2, Hermitian and of unit trace within ``tol``; a NaN or
    infinite entry fails as such, before any arithmetic on it."""
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 2:
        raise StateValidationError(
            "not-square", 0.0,
            f"expected a square matrix of dimension >= 2, got shape {M.shape}",
        )
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        i, j = bad[0]
        raise StateValidationError(
            "not-finite", float(abs(M[i, j])),
            f"entry ({i}, {j}) is {M[i, j]}, not finite",
        )
    herm_dev = float(np.max(np.abs(M - M.conj().T)))
    if not herm_dev <= tol:
        raise StateValidationError(
            "not-hermitian", herm_dev,
            f"matrix deviates from Hermitian by {herm_dev:.3e}",
        )
    trace_dev = abs(complex(np.trace(M)) - 1.0)
    if not trace_dev <= tol:
        raise StateValidationError(
            "bad-trace", float(trace_dev),
            f"trace deviates from 1 by {trace_dev:.3e}",
        )


def validate_state(matrix, tol: float = STATE_TOL) -> DensityMatrix:
    """Check the density-matrix invariants and wrap the matrix.

    ``tol`` is applied to the Hermiticity and trace checks and to the
    eigenvalue floor.  Raises ``StateValidationError`` with a structured
    ``kind`` and violation ``magnitude`` on failure.
    """
    return DensityMatrix(matrix, tol=tol)


class PureState:
    """A unit-norm complex amplitude vector."""

    __slots__ = ("_amps",)

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("amplitudes must form a 1-d vector of length >= 2")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"amplitudes must have unit norm, got {norm!r}")
        amps.setflags(write=False)
        self._amps = amps

    @classmethod
    def normalized(cls, amplitudes) -> tuple["PureState", float]:
        """Normalize raw amplitudes; returns the state and the original
        norm so callers can report the scaling they applied."""
        amps = np.asarray(amplitudes, dtype=complex)
        norm = float(np.linalg.norm(amps))
        if norm <= 1e-300:
            raise ValueError("cannot normalize a zero amplitude vector")
        return cls(amps / norm), norm

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amps

    @property
    def dim(self) -> int:
        return self._amps.size

    def projector(self) -> np.ndarray:
        """The rank-one matrix |psi><psi|."""
        return np.outer(self._amps, self._amps.conj())

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.projector())

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


def _unit_trace_hermitian(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """The matrix of a ``DensityMatrix``, or a raw array checked to be
    square, Hermitian and of unit trace within ``STATE_TOL`` (not
    necessarily positive)."""
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    M = np.asarray(rho, dtype=complex)
    _check_hermitian_unit_trace(M, STATE_TOL)
    return M


def purity(rho: DensityMatrix | np.ndarray) -> float:
    """``Tr(rho^2)`` as a real number; raw arrays are checked as in
    :func:`to_coords`."""
    M = _unit_trace_hermitian(rho)
    return float(np.real(np.sum(M * M.T)))


def to_coords(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Coordinates of a matrix in the orthonormal traceless basis, as a
    read-only ``(d*d - 1,)`` array.

    Accepts any Hermitian unit-trace matrix (validated to 1e-9), not
    only positive ones: the chart is defined on the whole hyperplane of
    unit-trace Hermitian matrices, and :func:`from_coords` inverts it
    there.
    """
    M = _unit_trace_hermitian(rho)
    d = M.shape[0]
    basis = traceless_hermitian_basis(d).reshape(d * d - 1, d * d)
    # Tr(M B) = sum_jk M_jk conj(B_jk) for Hermitian B, and conjugating
    # the sum leaves its real part unchanged.
    coords = (basis @ M.conj().reshape(d * d)).real
    coords.setflags(write=False)
    return coords


def from_coords(coords) -> np.ndarray:
    """The Hermitian unit-trace matrices with the given chart coordinates.

    ``coords`` has shape ``(..., d*d - 1)`` and the result shape
    ``(..., d, d)``; d is inferred from the last axis, and any other
    length raises ``ValueError``.  The result is not validated as a
    state: far-out coordinate vectors produce indefinite matrices,
    which is exactly what membership tests need to detect.
    """
    c = np.asarray(coords, dtype=float)
    n = c.shape[-1] if c.ndim else 0
    d = math.isqrt(n + 1)
    if d < 2 or d * d - 1 != n:
        raise ValueError(f"{n} chart coordinates is not d*d - 1 for any d >= 2")
    M = np.tensordot(c, traceless_hermitian_basis(d), axes=1)
    M += np.eye(d) / d
    return M


def hs_distance(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) distance between two matrices; raw
    arrays are checked as in :func:`to_coords`."""
    Ma, Mb = _unit_trace_hermitian(a), _unit_trace_hermitian(b)
    if Ma.shape != Mb.shape:
        raise ValueError(f"shape mismatch: {Ma.shape} vs {Mb.shape}")
    return float(np.linalg.norm(Ma - Mb))


def pure_from_density(rho: DensityMatrix) -> PureState:
    """Extract the amplitude vector of a rank-one density matrix.

    The leading eigenvector is phase-fixed by making its pivot real and
    positive: the first component whose modulus is within a relative
    1e-9 of the largest.  Raises ``ValueError`` when the purity
    falls below ``1 - PURITY_TOL``.
    """
    p = purity(rho)
    if p < 1.0 - PURITY_TOL:
        raise ValueError(f"matrix is not pure: purity {p!r}")
    _, v = np.linalg.eigh(rho.matrix)
    return PureState(_phase_fixed(v[:, -1]))


def _phase_fixed(vecs: np.ndarray) -> np.ndarray:
    """The unit vectors along the last axis of ``vecs``, each multiplied
    by the phase that makes its pivot component real positive.

    The pivot is the first component whose modulus is within a relative
    1e-9 of the largest, so components tied in modulus are broken by
    index, not by last-bit roundoff, and a vector re-extracted from its
    own projector comes back with the same phase."""
    mod = np.abs(vecs)
    near_max = mod >= (1.0 - 1e-9) * mod.max(axis=-1, keepdims=True)
    pivot = np.argmax(near_max, axis=-1)[..., None]
    phase = np.take_along_axis(vecs, pivot, axis=-1)
    return vecs * (phase.conj() / np.abs(phase))


# --- three-qubit entanglement ------------------------------------------------

def _cayley_hyperdeterminant(t: np.ndarray) -> complex:
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


def three_tangle(psi: PureState | np.ndarray) -> float:
    """Genuine three-way entanglement of a three-qubit pure state:
    four times the modulus of Cayley's 2x2x2 hyperdeterminant of the
    amplitude tensor.

    Amplitudes are indexed in binary order ``|000>, |001>, ..., |111>``.
    Raw vectors are accepted but must be unit norm within 1e-9.
    """
    if not isinstance(psi, PureState):
        psi = PureState(psi)
    if psi.dim != 8:
        raise ValueError(f"three_tangle needs an 8-amplitude state, got dim {psi.dim}")
    return float(4.0 * abs(_cayley_hyperdeterminant(psi.amplitudes)))


def make_canonical(kind: str) -> PureState:
    """The standard three-qubit states by name: ``"ghz"`` or ``"w"``."""
    k = kind.strip().lower()
    amps = np.zeros(8, dtype=complex)
    if k == "ghz":
        amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
    elif k == "w":
        amps[1] = amps[2] = amps[4] = 1.0 / math.sqrt(3.0)
    else:
        raise ValueError(f"unknown canonical state {kind!r} (expected 'ghz' or 'w')")
    return PureState(amps)


# --- sign permutation enumeration over states ---------------------------------

@dataclass
class PureEnumeration:
    """Result of enumerating signed permutations of a pure state.

    ``total`` counts everything enumerated before filtering;
    ``amplitudes`` holds the retained states' amplitude vectors as the
    rows of one read-only array, in deterministic generation order.
    """

    amplitudes: np.ndarray
    total: int

    @property
    def retained(self) -> int:
        return len(self.amplitudes)


def enumerate_pure_sign_perms(
    psi: PureState,
    filter: str = "any-pure",
    target: str = "amplitudes",
    tol: float = DEFAULT_TOL,
    cap: int = ENUMERATION_CAP,
) -> PureEnumeration:
    """Enumerate distinct signed permutations of a pure state.

    ``target`` selects what gets permuted:

    * ``"amplitudes"`` — permute the complex amplitude vector and flip
      signs of nonzero entries (entries equal up to overall sign count
      as one class).  Every output is automatically a unit-norm pure
      state.
    * ``"bloch"`` — permute the real coordinate vector of the projector
      in the traceless-basis chart.  Outputs are kept only when the
      reconstructed matrix is an actual state (positive within ``tol``).

    ``filter`` is ``"any-pure"`` (keep everything valid) or
    ``"w-type"`` (amplitude target, three qubits only: keep states whose
    three-way entanglement is at most ``tol``).

    The full count is checked against ``cap`` before enumerating.
    """
    if filter not in ("any-pure", "w-type"):
        raise ValueError(f"unknown filter {filter!r}")
    if target not in ("amplitudes", "bloch"):
        raise ValueError(f"unknown target {target!r}")
    if filter == "w-type":
        if target != "amplitudes":
            raise ValueError("the w-type filter applies to amplitude enumeration only")
        if psi.dim != 8:
            raise ValueError("the w-type filter needs a three-qubit state")

    if target == "amplitudes":
        classes = _enum.sign_classes(psi.amplitudes)
    else:
        classes = _enum.sign_classes(to_coords(psi.to_density()))
    total = _enum.count_signed_arrangements(classes)
    if total > cap:
        raise EnumerationTooLargeError(total, cap)
    kept = []
    for block in _enum.signed_arrangements(classes):
        if target == "bloch":
            block = _pure_chart_states(block, tol)
        elif filter == "w-type":
            block = block[4.0 * np.abs(_cayley_hyperdeterminant(block.T)) <= tol]
        kept.append(block)
    amplitudes = np.concatenate(kept)
    amplitudes.setflags(write=False)
    return PureEnumeration(amplitudes=amplitudes, total=total)


def _pure_chart_states(coords: np.ndarray, tol: float) -> np.ndarray:
    """Amplitude vectors, one per row, of the chart points in ``coords``
    whose matrices are states (smallest eigenvalue at least ``-tol``);
    their purity ``1/d + |c|^2`` is the input's, 1, so no row is mixed."""
    M = from_coords(coords)
    M = M[np.linalg.eigvalsh(M).min(axis=1) >= -tol]
    _, v = np.linalg.eigh(M)
    return _phase_fixed(v[..., -1])
