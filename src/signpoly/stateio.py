"""Reading and writing state and decomposition documents.

Documents are JSON with a top-level ``"schema": 1``.  Complex numbers
are ``[re, im]`` pairs; matrices are flat row-major lists of ``d*d``
pairs.

State document (exactly one of ``matrix`` / ``amplitudes``)::

    {"schema": 1, "kind": "state", "dim": 2,
     "matrix": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}

    {"schema": 1, "kind": "state", "dim": 8,
     "amplitudes": [[0.0, 0.758], [0.0, 0.0], ...]}

Loading validates: a matrix document yields a
:class:`~signpoly.quantum.DensityMatrix` checked at ``STATE_TOL``, an
amplitude document the normalized :class:`~signpoly.quantum.PureState`
with its original norm, and a decomposition document a
:class:`~signpoly.algorithms.DecompositionInput`.

Decomposition document, whose entries take its ``dim`` (an entry may
repeat it, but not name another)::

    {"schema": 1, "kind": "decomposition", "dim": 2,
     "target": {... state body ...},
     "members": [{... state body ...}, ...],
     "weights": [0.25, 0.25, 0.5]}
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .algorithms import DecompositionInput
from .errors import FileFormatError
from .quantum import DensityMatrix, PureState, validate_state

SCHEMA_VERSION = 1


def _read_document(path, kind: str) -> tuple[dict, int]:
    """The JSON object at ``path`` and its ``dim``, once its schema, its
    ``"kind"`` (``kind`` when absent) and its ``dim`` (an integer >= 2)
    check out."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{p}: top level must be an object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise FileFormatError(f"{path}: expected \"schema\": {SCHEMA_VERSION}, "
                              f"got {doc.get('schema')!r}")
    if doc.get("kind", kind) != kind:
        raise FileFormatError(
            f"{path}: expected a {kind} document, got kind {doc['kind']!r}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise FileFormatError(f"{path}: \"dim\" must be an integer >= 2")
    return doc, dim


def _complex_pairs(obj, expected: int, where: str) -> np.ndarray:
    try:  # a ragged list (a pair of another length, or nested) raises
        pairs = np.asarray(obj if isinstance(obj, list) else None)
    except ValueError:
        pairs = np.asarray(None)
    if pairs.shape != (expected, 2) or pairs.dtype.kind not in "biuf":
        raise FileFormatError(f"{where}: expected a list of {expected} "
                              "[re, im] pairs of numbers")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[:, 0]


def _parse_state_body(body: dict, dim: int,
                      where: str) -> tuple[np.ndarray | PureState, float | None]:
    """The raw ``(dim, dim)`` matrix of a matrix body and ``None``, not
    yet validated as a state (a NaN or infinite entry is left to that
    check, which names it), or the normalized state of an amplitude
    body and its original norm.  ``dim`` is the document's; a body that
    names another ``"dim"`` is refused."""
    if "dim" in body and not (isinstance(body["dim"], int) and body["dim"] == dim):
        raise FileFormatError(
            f"{where}: \"dim\" must be the document's \"dim\", {dim}")
    has_matrix = "matrix" in body
    has_amps = "amplitudes" in body
    if has_matrix == has_amps:
        raise FileFormatError(
            f"{where}: provide exactly one of \"matrix\" / \"amplitudes\"")
    if has_matrix:
        flat = _complex_pairs(body["matrix"], dim * dim, f"{where}.matrix")
        return flat.reshape(dim, dim), None
    amps = _complex_pairs(body["amplitudes"], dim, f"{where}.amplitudes")
    if not np.all(np.isfinite(amps)):
        raise FileFormatError(f"{where}.amplitudes: entries must be finite")
    try:
        return PureState.normalized(amps)
    except ValueError as exc:
        raise FileFormatError(f"{where}.amplitudes: {exc}") from None


def _as_density(state: DensityMatrix | PureState) -> DensityMatrix:
    return state.to_density() if isinstance(state, PureState) else state


def load_state(path) -> tuple[DensityMatrix | PureState, float | None]:
    """Parse and validate a state document.

    Returns ``(state, norm)``: a :class:`~signpoly.quantum.DensityMatrix`
    and ``None`` for a matrix document, or the normalized
    :class:`~signpoly.quantum.PureState` and the original norm for an
    amplitude document.  Raises :class:`~signpoly.errors.FileFormatError`
    on any malformation (a zero amplitude vector included) and
    :class:`~signpoly.errors.StateValidationError` when a matrix is not
    a state at ``STATE_TOL``.
    """
    doc, dim = _read_document(path, "state")
    state, norm = _parse_state_body(doc, dim, str(path))
    if isinstance(state, PureState):
        return state, norm
    return validate_state(state), None


def load_decomposition(path) -> DecompositionInput:
    """Parse a decomposition document into the validating
    :class:`~signpoly.algorithms.DecompositionInput` (amplitude entries
    as their projectors), parsing every entry first, so a malformed one
    raises ``FileFormatError`` before a state error in an earlier one."""
    doc, dim = _read_document(path, "decomposition")
    if not isinstance(doc.get("target"), dict):
        raise FileFormatError(f"{path}: \"target\" must be a state object")
    entries = [_parse_state_body(doc["target"], dim, f"{path}.target")[0]]
    members_doc = doc.get("members")
    if not isinstance(members_doc, list) or not members_doc:
        raise FileFormatError(f"{path}: \"members\" must be a nonempty list")
    for i, body in enumerate(members_doc):
        if not isinstance(body, dict):
            raise FileFormatError(f"{path}.members[{i}]: must be a state object")
        entries.append(_parse_state_body(body, dim, f"{path}.members[{i}]")[0])
    weights = doc.get("weights")
    if (not isinstance(weights, list) or len(weights) != len(members_doc)
            or not all(isinstance(w, (int, float)) for w in weights)):
        raise FileFormatError(f"{path}: \"weights\" must be a list of "
                              f"{len(members_doc)} numbers")
    target, *members = [e.projector() if isinstance(e, PureState) else e
                        for e in entries]
    return DecompositionInput(target=target, members=members, weights=weights)


def _pairs(values: np.ndarray) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def state_document(dim: int, matrix=None, amplitudes=None) -> dict:
    """Build a state document from a matrix or an amplitude vector."""
    if (matrix is None) == (amplitudes is None):
        raise ValueError("provide exactly one of matrix / amplitudes")
    doc = {"schema": SCHEMA_VERSION, "kind": "state", "dim": dim}
    if matrix is not None:
        doc["matrix"] = _pairs(matrix)
    else:
        doc["amplitudes"] = _pairs(amplitudes)
    return doc


def decomposition_document(dim: int, target, members, weights) -> dict:
    """Build a decomposition document from matrices and weights."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "decomposition",
        "dim": dim,
        "target": {"matrix": _pairs(target)},
        "members": [{"matrix": _pairs(m)} for m in members],
        "weights": [float(w) for w in weights],
    }


def save_document(path, doc: dict) -> None:
    """Write a document as indented JSON."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
