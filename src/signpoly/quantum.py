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

Chart points are plain float arrays: :func:`to_coords` maps a stack
``(..., d, d)`` of matrices to read-only ``(..., d*d - 1)`` vectors, and
:func:`from_coords` maps any stack ``(..., d*d - 1)`` of them back to
``(..., d, d)`` matrices.

:func:`enumerate_pure_sign_perms` filters the signed permutations of a
state.  The w-type filter keeps three-qubit rows whose three-tangle
(Coffman, Kundu & Wootters, PRA 61, 052306, 2000) is at most ``tol``.
The tangle is a function of eight pair products of the amplitudes, and a
sign flip negates pair products exactly, so it is computed once per sign
class of an arrangement (:func:`_class_tangles`), bit for bit the value
each row of the class would give, and only the rows asked for are built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _counts, _enum
from .errors import StateValidationError
from .majorization import DEFAULT_TOL, _real_array

#: Tolerance for the density-matrix invariants (Hermitian, unit trace,
#: positive semidefinite).
STATE_TOL = 1e-9
#: Unit-norm tolerance for pure-state amplitude vectors.
NORM_TOL = 1e-9
#: How far a purity may sit below 1 for a matrix to count as pure.
PURITY_TOL = 1e-8
#: How far below zero a diagonal entry or 2x2 principal minor of
#: ``M + tol I`` may compute before the Bloch filter drops a row without
#: diagonalizing it (see :func:`_pure_chart_states`).
_SCREEN_SLACK = 1e-12


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
    semidefinite (each within ``STATE_TOL``; NaN fails every check).

    Construction performs the checks and raises
    :class:`~signpoly.errors.StateValidationError` describing the first
    violated invariant.
    """

    __slots__ = ("_mat",)

    def __init__(self, matrix):
        self._mat = _state_stack([matrix])[0]

    @property
    def matrix(self) -> np.ndarray:
        """The underlying read-only complex matrix."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def _state_stack(matrices) -> np.ndarray:
    """A ``(k, d, d)`` stack of matrices as a read-only complex copy,
    validated in one :func:`_check_states` pass, which raises for the
    first matrix that is not a state."""
    M = np.array(matrices, dtype=complex)
    _check_states(M)
    M.setflags(write=False)
    return M


def _check_states(M: np.ndarray, psd: bool = True) -> None:
    """Raise ``StateValidationError`` for the first matrix of the stack
    ``M`` that is not a state within ``STATE_TOL``, naming the first
    invariant it violates in the order: square of dimension >= 2,
    finite, Hermitian, unit trace, and (with ``psd``) positive
    semidefinite.

    Matrices with a NaN or infinite entry are zeroed before any
    arithmetic, so nothing warns.  Every invariant is measured on the
    whole stack at once (the smallest eigenvalues by one batched
    ``eigvalsh``) into one table of passes, invariant by matrix, whose
    first failing matrix raises for its first failing invariant.
    """
    if M.ndim != 3 or M.shape[1] != M.shape[2] or M.shape[1] < 2:
        raise StateValidationError(
            "not-square", 0.0,
            f"expected a square matrix of dimension >= 2, got shape {M.shape[1:]}",
        )
    _counts.COUNTS.checked += len(M)
    finite = np.isfinite(M).all(axis=(1, 2))
    F = np.where(finite[:, None, None], M, 0.0)
    herm = np.abs(F - F.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    trace = np.abs(np.trace(F, axis1=1, axis2=2) - 1.0)
    lam = np.zeros(len(M))
    if psd:
        lam = np.linalg.eigvalsh((F + F.conj().transpose(0, 2, 1)) / 2.0).min(axis=1)
    passed = np.array([finite, herm <= STATE_TOL, trace <= STATE_TOL, lam >= -STATE_TOL])
    if passed.all():
        return
    i = int(np.argmin(passed.all(axis=0)))
    check = int(np.argmin(passed[:, i]))
    if check == 0:
        r, c = np.argwhere(~np.isfinite(M[i]))[0]
        raise StateValidationError(
            "not-finite", float(abs(M[i, r, c])),
            f"entry ({r}, {c}) is {M[i, r, c]}, not finite",
        )
    kind, dev, message = (
        ("not-hermitian", herm, "matrix deviates from Hermitian by {:.3e}"),
        ("bad-trace", trace, "trace deviates from 1 by {:.3e}"),
        ("not-psd", lam, f"smallest eigenvalue {{:.3e}} is below -{STATE_TOL:.1e}"),
    )[check - 1]
    raise StateValidationError(kind, float(dev[i]), message.format(dev[i]))


def validate_state(matrix) -> DensityMatrix:
    """``DensityMatrix(matrix)``: the invariants checked at ``STATE_TOL``,
    or a ``StateValidationError`` with its ``kind`` and ``magnitude``."""
    return DensityMatrix(matrix)


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
    _check_states(M[None], psd=False)
    return M


def purity(rho: DensityMatrix | np.ndarray) -> float:
    """``Tr(rho^2)`` as a real number; raw arrays are checked as in
    :func:`to_coords`."""
    M = _unit_trace_hermitian(rho)
    return float(np.real(np.sum(M * M.T)))


def to_coords(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Coordinates of a matrix, or of each matrix of a ``(..., d, d)``
    stack, in the orthonormal traceless basis, as a read-only
    ``(..., d*d - 1)`` array.

    Accepts any Hermitian unit-trace matrices (validated to 1e-9, the
    first that fails raising its own error), not only positive ones:
    the chart is defined on the whole hyperplane of unit-trace Hermitian
    matrices, and :func:`from_coords` inverts it there.
    """
    if isinstance(rho, DensityMatrix):
        return _chart(rho.matrix)
    M = np.asarray(rho, dtype=complex)
    _check_states(M.reshape(math.prod(M.shape[:-2]), *M.shape[-2:]), psd=False)
    return _chart(M)


def _chart(M: np.ndarray) -> np.ndarray:
    """:func:`to_coords` of a complex ``(..., d, d)`` array already known
    to hold Hermitian unit-trace matrices, without checking it again."""
    d = M.shape[-1]
    basis = traceless_hermitian_basis(d).reshape(d * d - 1, d * d)
    # Tr(M B) = sum_jk M_jk conj(B_jk) for Hermitian B, and conjugating
    # the sum leaves its real part unchanged.  One matrix-vector product
    # per matrix, so a stack's rows are bit for bit its matrices' charts.
    coords = (basis @ M.conj().reshape(M.shape[:-2] + (d * d, 1)))[..., 0].real
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
    c = _real_array(coords)
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

#: Cayley's 2x2x2 hyperdeterminant is a polynomial in eight pair
#: products ``t_a t_b`` of the amplitudes of ``|000>, ..., |111>``: the
#: mixed term's four, (000,111), (001,110), (010,101), (011,100), then
#: the second term's, (000,011), (001,010), (100,111), (101,110).  Row 0
#: holds each pair's first slot, row 1 its second.
_PAIRS = np.array([[0, 1, 2, 3, 0, 1, 4, 5],
                   [7, 6, 5, 4, 3, 2, 7, 6]])
#: For each set of negated slots (bit j for slot j), the set of pairs
#: whose product it negates (bit j for pair j of :data:`_PAIRS`).
_NEGATED_PAIRS = np.packbits(
    np.bitwise_xor(*(np.arange(256)[:, None] >> _PAIRS[:, None] & 1)),
    axis=1, bitorder="little")[:, 0]


def _hyperdeterminant(t):
    """Cayley's 2x2x2 hyperdeterminant of the amplitudes ``t`` of
    ``|000>, ..., |111>`` (numbers, or equal-length columns of them)."""
    t = np.asarray(t)
    return _cayley(t[_PAIRS[0]] * t[_PAIRS[1]])


def _cayley(p):
    """Cayley's hyperdeterminant from its eight pair products ``p``
    (numbers, or equal-length columns of them) in :data:`_PAIRS` order.

    It is the discriminant of the pencil ``det(x A + y B)`` of the
    slices ``A = t[0jk]`` and ``B = t[1jk]``: eleven products instead of
    the expanded sum's thirty-odd.
    """
    mixed = p[0] - p[1] - p[2] + p[3]
    _counts.COUNTS.determinants += np.size(mixed)
    return mixed * mixed - 4.0 * (p[4] - p[5]) * (p[6] - p[7])


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
    return float(4.0 * abs(_hyperdeterminant(psi.amplitudes)))


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

    ``total`` counts everything enumerated before filtering and
    ``retained`` what the filter kept; ``amplitudes`` holds the retained
    states' amplitude vectors (all of them, or the first ``limit``) as
    the rows of one read-only array, in deterministic generation order.
    """

    amplitudes: np.ndarray
    total: int
    retained: int


def enumerate_pure_sign_perms(
    psi: PureState,
    filter: str = "any-pure",
    target: str = "amplitudes",
    tol: float = DEFAULT_TOL,
    cap: int = _enum.ENUMERATION_CAP,
    limit: int | None = None,
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

    The full count is checked against ``cap`` before enumerating.  Given
    ``limit``, every retained state is counted but only the first
    ``limit`` are built and returned.
    """
    if filter not in ("any-pure", "w-type"):
        raise ValueError(f"unknown filter {filter!r}")
    if target not in ("amplitudes", "bloch"):
        raise ValueError(f"unknown target {target!r}")
    keep = None
    if filter == "w-type":
        if target != "amplitudes":
            raise ValueError("the w-type filter applies to amplitude enumeration only")
        if psi.dim != 8:
            raise ValueError("the w-type filter needs a three-qubit state")
        keep = functools.partial(_low_tangle, tol=tol)

    if target == "amplitudes":
        classes = _enum.sign_classes(psi.amplitudes)
    else:
        classes = _enum.sign_classes(to_coords(psi.to_density()))

        def keep(block, room):
            states = _pure_chart_states(block.rows(), tol)
            return len(states), states[:room]
    amplitudes, total, retained = _enum.listing(classes, cap, keep, limit)
    return PureEnumeration(amplitudes=amplitudes, total=total, retained=retained)


def _low_tangle(block: _enum.SignBlock, room: int, tol: float) -> tuple[int, np.ndarray]:
    """The number of rows of ``block`` (three-qubit states) whose
    three-tangle is at most ``tol``, and the first ``room`` of them,
    the only rows built (see :func:`_class_tangles`)."""
    tau, size, offset, local = _class_tangles(block)
    low = tau <= tol
    kept = int(size[low].sum())
    if not room:
        return kept, block.rows(np.empty(0, dtype=np.intp))
    return kept, block.rows(np.flatnonzero(low[offset[:, None] + local[block.pattern]])[:room])


def _class_tangles(block: _enum.SignBlock) -> tuple[np.ndarray, ...]:
    """The three-tangles ``4 |Det|`` of the rows of ``block``
    (three-qubit states), one per sign class of each arrangement.

    Negating an amplitude negates each pair product it enters, exactly
    in floating point, so a signed row's pair products are its
    arrangement's, each negated where the pair's two signs differ.
    Three changes of those eight negations leave ``|Det|`` bit for bit
    unchanged: negating a pair that holds a zero slot (its product is
    +-0); negating the four mixed pairs (``mixed * mixed`` is
    unchanged); and negating the four pairs of the second term (both of
    its factors negate).  So a sign row's class is its negated pairs
    with zero pairs dropped and each term's first other pair made
    positive, and ``Det`` is computed once per arrangement and class:
    at most 16 classes for any number of sign rows.  The classes read
    no amplitude (:func:`_tangle_classes`), so a cached block derives
    them once for every listing of its shape.

    Returns ``tau``, the tangle of each arrangement and class, arranged
    arrangement by arrangement; ``size``, the block rows each stands
    for; ``offset``, the index in ``tau`` of each arrangement's first
    class; and ``local``, the class of each sign row of each zero
    pattern among that pattern's classes.  Row ``a * step + r`` of the
    block has the tangle ``tau[offset[a] + local[block.pattern[a], r]]``,
    bit for bit the one computed from the row.
    """
    size, offset, local, at = block.derived(_tangle_classes)
    # Products of two class values, then their negations.
    products = block.values[:, None] * block.values
    products = np.concatenate((products, -products)).ravel()
    tau = 4.0 * np.abs(_cayley(products.take(at)))
    return tau, size, offset, local


def _tangle_classes(block: _enum.SignBlock) -> tuple[np.ndarray, ...]:
    """The value-free part of :func:`_class_tangles`: its ``size``,
    ``offset`` and ``local``, and ``at``, the index of each of the eight
    pair products of each determinant in the class values' products
    followed by their negations (a ``(2, m, m)`` array, flattened)."""
    first, second = _PAIRS
    live = np.packbits(block.nonzero[:, first] & block.nonzero[:, second],
                       axis=1, bitorder="little")
    negated = np.packbits(block.table[..., 0] < 0, axis=2, bitorder="little")[..., 0]
    key = _NEGATED_PAIRS[negated] & live
    for term in (0x0F, 0xF0):
        pairs = live & term
        key ^= np.where(key & pairs & -pairs, pairs, 0)
    # One class per distinct key of a pattern; the pattern in the high
    # bits, so each pattern's classes are consecutive.
    patterns, step = key.shape
    keys, local, size = np.unique(key + 256 * np.arange(patterns)[:, None],
                                  return_inverse=True, return_counts=True)
    start = np.searchsorted(keys, 256 * np.arange(patterns))
    local = local.reshape(patterns, step) - start[:, None]
    classes = np.diff(start, append=len(keys))[block.pattern]
    # Determinant i is of arrangement owner[i] in class pair_class[i].
    offset = np.cumsum(classes) - classes
    owner = np.repeat(np.arange(len(classes)), classes)
    pair_class = np.arange(len(owner)) - offset[owner] + start[block.pattern[owner]]
    # Every nonzero class occurs in every arrangement, so the largest
    # code is the last of the m class values (zero's is code 0).
    codes = block.codes.astype(np.intp)
    m = int(codes.max()) + 1
    at = (codes[:, first] * m + codes[:, second])[owner]
    at += m * m * (keys[pair_class, None] >> np.arange(8) & 1)
    return size[pair_class], offset, local, np.ascontiguousarray(at.T)


def _pure_chart_states(coords: np.ndarray, tol: float) -> np.ndarray:
    """Amplitude vectors, one per row, of the chart points in ``coords``
    whose matrices are states (smallest eigenvalue at least ``-tol``);
    their purity ``1/d + |c|^2`` is the input's, 1, so no row is mixed.

    ``eigvalsh`` decides, but only on the rows that pass a screen read
    off the coordinates.  If ``lambda_min(M) >= -tol`` then ``M + tol I``
    is positive semidefinite, so its diagonal entries ``rho_jj + tol``
    and its 2x2 principal minors ``(rho_jj + tol)(rho_kk + tol) -
    |rho_jk|^2`` are nonnegative (Horn & Johnson, *Matrix Analysis*,
    2nd ed., 7.1).  A row is dropped only when one of them computes
    below ``-_SCREEN_SLACK``.  Purity 1 bounds every entry of ``M`` and
    every eigenvalue by 1, so these quantities, and the ``lambda_min``
    of ``eigvalsh``, carry roundoff of about 1e-15 wherever they are
    near zero: the slack keeps every row that ``eigvalsh`` could keep.
    """
    d = math.isqrt(coords.shape[-1] + 1)
    p = d * (d - 1) // 2
    diagonal = traceless_hermitian_basis(d)[2 * p:].diagonal(axis1=1, axis2=2).real
    shifted = coords[:, 2 * p:] @ diagonal + (1.0 / d + tol)
    j, k = np.triu_indices(d, 1)
    # rho_jk = (c_sym - i c_antisym) / sqrt(2), the basis order above.
    minors = shifted[:, j] * shifted[:, k] - (coords[:, :p] ** 2 + coords[:, p:2 * p] ** 2) / 2
    passed = (shifted.min(axis=1) >= -_SCREEN_SLACK) & (minors.min(axis=1) >= -_SCREEN_SLACK)
    M = from_coords(coords[passed])
    _counts.COUNTS.diagonalized += len(M)
    M = M[np.linalg.eigvalsh(M).min(axis=1) >= -tol]
    _, v = np.linalg.eigh(M)
    return _phase_fixed(v[..., -1])
