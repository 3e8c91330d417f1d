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

Decomposition document::

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


def _read_json(path) -> dict:
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
    return doc


def _check_schema(doc: dict, where: str) -> None:
    if doc.get("schema") != SCHEMA_VERSION:
        raise FileFormatError(f"{where}: expected \"schema\": {SCHEMA_VERSION}, "
                              f"got {doc.get('schema')!r}")


def _complex_pairs(obj, expected: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != expected:
        raise FileFormatError(f"{where}: expected a list of {expected} [re, im] pairs")
    out = np.empty(expected, dtype=complex)
    for i, pair in enumerate(obj):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(v, (int, float)) for v in pair)):
            raise FileFormatError(f"{where}: entry {i} is not a [re, im] pair")
        out[i] = complex(pair[0], pair[1])
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise FileFormatError(f"{where}: entries must be finite")
    return out


def _parse_state_body(doc: dict, where: str) -> tuple[DensityMatrix | PureState,
                                                      float | None]:
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise FileFormatError(f"{where}: \"dim\" must be an integer >= 2")
    has_matrix = "matrix" in doc
    has_amps = "amplitudes" in doc
    if has_matrix == has_amps:
        raise FileFormatError(
            f"{where}: provide exactly one of \"matrix\" / \"amplitudes\"")
    if has_matrix:
        flat = _complex_pairs(doc["matrix"], dim * dim, f"{where}.matrix")
        return validate_state(flat.reshape(dim, dim)), None
    amps = _complex_pairs(doc["amplitudes"], dim, f"{where}.amplitudes")
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
    doc = _read_json(path)
    _check_schema(doc, str(path))
    kind = doc.get("kind", "state")
    if kind != "state":
        raise FileFormatError(f"{path}: expected a state document, got kind {kind!r}")
    return _parse_state_body(doc, str(path))


def load_decomposition(path) -> DecompositionInput:
    """Parse and validate a decomposition document (target, members,
    weights).

    Each entry is validated as a state at ``STATE_TOL`` (amplitude
    entries through their projector).  Raises
    :class:`~signpoly.errors.FileFormatError` on any malformation,
    :class:`~signpoly.errors.StateValidationError` for an entry that is
    not a state, and :class:`~signpoly.errors.DecompositionError` when
    the entries do not form a decomposition.
    """
    doc = _read_json(path)
    _check_schema(doc, str(path))
    kind = doc.get("kind", "decomposition")
    if kind != "decomposition":
        raise FileFormatError(
            f"{path}: expected a decomposition document, got kind {kind!r}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise FileFormatError(f"{path}: \"dim\" must be an integer >= 2")
    if not isinstance(doc.get("target"), dict):
        raise FileFormatError(f"{path}: \"target\" must be a state object")
    target, _ = _parse_state_body({"dim": dim, **doc["target"]}, f"{path}.target")
    members_doc = doc.get("members")
    if not isinstance(members_doc, list) or not members_doc:
        raise FileFormatError(f"{path}: \"members\" must be a nonempty list")
    members = []
    for i, body in enumerate(members_doc):
        if not isinstance(body, dict):
            raise FileFormatError(f"{path}.members[{i}]: must be a state object")
        member, _ = _parse_state_body({"dim": dim, **body}, f"{path}.members[{i}]")
        members.append(_as_density(member))
    weights = doc.get("weights")
    if (not isinstance(weights, list) or len(weights) != len(members)
            or not all(isinstance(w, (int, float)) for w in weights)):
        raise FileFormatError(f"{path}: \"weights\" must be a list of "
                              f"{len(members)} numbers")
    return DecompositionInput(target=_as_density(target), members=tuple(members),
                              weights=tuple(float(w) for w in weights))


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
