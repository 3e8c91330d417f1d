"""Reading and writing state and decomposition documents.

Documents are JSON with a top-level ``"schema": 1``.  Complex numbers
are ``[re, im]`` pairs; matrices are flat row-major lists of ``d*d``
pairs.

State document (exactly one of ``matrix`` / ``amplitudes``)::

    {"schema": 1, "kind": "state", "dim": 2,
     "matrix": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}

    {"schema": 1, "kind": "state", "dim": 8,
     "amplitudes": [[0.0, 0.758], [0.0, 0.0], ...]}

Amplitude vectors are normalized on load and the original norm is kept
so callers can report the scaling.

Decomposition document::

    {"schema": 1, "kind": "decomposition", "dim": 2,
     "target": {... state body ...},
     "members": [{... state body ...}, ...],
     "weights": [0.25, 0.25, 0.5]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError

SCHEMA_VERSION = 1


@dataclass
class LoadedState:
    """A state document after parsing.

    ``matrix`` is always populated (amplitude documents store the
    projector); ``amplitudes`` is present only when the document carried
    them, already normalized, with ``norm`` recording the original norm.
    """

    dim: int
    matrix: np.ndarray
    amplitudes: np.ndarray | None = None
    norm: float | None = None


@dataclass
class LoadedDecomposition:
    """A decomposition document after parsing; entries are raw matrices,
    not yet validated as states."""

    dim: int
    target: LoadedState
    members: list[LoadedState]
    weights: list[float]


def _fail(msg: str) -> FileFormatError:
    return FileFormatError(msg)


def _read_json(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise _fail(f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(f"{p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _fail(f"{p}: top level must be an object")
    return doc


def _check_schema(doc: dict, where: str) -> None:
    if doc.get("schema") != SCHEMA_VERSION:
        raise _fail(f"{where}: expected \"schema\": {SCHEMA_VERSION}, "
                    f"got {doc.get('schema')!r}")


def _complex_pairs(obj, expected: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != expected:
        raise _fail(f"{where}: expected a list of {expected} [re, im] pairs")
    out = np.empty(expected, dtype=complex)
    for i, pair in enumerate(obj):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(v, (int, float)) for v in pair)):
            raise _fail(f"{where}: entry {i} is not a [re, im] pair")
        out[i] = complex(pair[0], pair[1])
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise _fail(f"{where}: entries must be finite")
    return out


def _parse_state_body(doc: dict, where: str) -> LoadedState:
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise _fail(f"{where}: \"dim\" must be an integer >= 2")
    has_matrix = "matrix" in doc
    has_amps = "amplitudes" in doc
    if has_matrix == has_amps:
        raise _fail(f"{where}: provide exactly one of \"matrix\" / \"amplitudes\"")
    if has_matrix:
        flat = _complex_pairs(doc["matrix"], dim * dim, f"{where}.matrix")
        return LoadedState(dim=dim, matrix=flat.reshape(dim, dim))
    amps = _complex_pairs(doc["amplitudes"], dim, f"{where}.amplitudes")
    norm = float(np.linalg.norm(amps))
    if norm <= 1e-300:
        raise _fail(f"{where}: amplitude vector has zero norm")
    amps = amps / norm
    return LoadedState(dim=dim, matrix=np.outer(amps, amps.conj()),
                       amplitudes=amps, norm=norm)


def load_state(path) -> LoadedState:
    """Parse a state document; raises
    :class:`~signpoly.errors.FileFormatError` on any malformation."""
    doc = _read_json(path)
    _check_schema(doc, str(path))
    kind = doc.get("kind", "state")
    if kind != "state":
        raise _fail(f"{path}: expected a state document, got kind {kind!r}")
    return _parse_state_body(doc, str(path))


def load_decomposition(path) -> LoadedDecomposition:
    """Parse a decomposition document (target, members, weights).

    Entries are returned as raw matrices; state validation is the
    caller's decision.
    """
    doc = _read_json(path)
    _check_schema(doc, str(path))
    kind = doc.get("kind", "decomposition")
    if kind != "decomposition":
        raise _fail(f"{path}: expected a decomposition document, got kind {kind!r}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise _fail(f"{path}: \"dim\" must be an integer >= 2")
    if not isinstance(doc.get("target"), dict):
        raise _fail(f"{path}: \"target\" must be a state object")
    target = _parse_state_body({"dim": dim, **doc["target"]}, f"{path}.target")
    members_doc = doc.get("members")
    if not isinstance(members_doc, list) or not members_doc:
        raise _fail(f"{path}: \"members\" must be a nonempty list")
    members = []
    for i, body in enumerate(members_doc):
        if not isinstance(body, dict):
            raise _fail(f"{path}.members[{i}]: must be a state object")
        members.append(_parse_state_body({"dim": dim, **body}, f"{path}.members[{i}]"))
    weights = doc.get("weights")
    if (not isinstance(weights, list) or len(weights) != len(members)
            or not all(isinstance(w, (int, float)) for w in weights)):
        raise _fail(f"{path}: \"weights\" must be a list of "
                    f"{len(members)} numbers")
    return LoadedDecomposition(dim=dim, target=target, members=members,
                               weights=[float(w) for w in weights])


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
