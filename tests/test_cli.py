"""Command-line behavior: reports, exit codes, file handling."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from signpoly import (
    CrossPolytopeSpec,
    DecompositionError,
    DecompositionInput,
    DensityMatrix,
    PureState,
    StateValidationError,
    stateio,
    traceless_hermitian_basis,
)
from signpoly.cli import main

MIXED_2 = np.eye(2, dtype=complex) / 2
#: Maximally mixed state bodies, the qutrit one naming its "dim".
_QUBIT_BODY = {"matrix": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}
_QUTRIT_BODY = {"dim": 3, "matrix": [[1 / 3, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                     [1 / 3, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                     [1 / 3, 0.0]]}


@pytest.fixture
def w_example_file(tmp_path):
    amps = np.zeros(8, dtype=complex)
    amps[0] = 0.758j
    amps[2] = 0.809 - 0.588j
    amps[5] = 0.809 + 0.588j
    amps[7] = 0.242
    path = tmp_path / "w.json"
    stateio.save_document(path, stateio.state_document(8, amplitudes=amps))
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    amps = np.zeros(8)
    amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
    path = tmp_path / "ghz.json"
    stateio.save_document(path, stateio.state_document(8, amplitudes=amps))
    return str(path)


@pytest.fixture
def octahedral_file(tmp_path):
    basis = traceless_hermitian_basis(2)
    members = [MIXED_2 + s * 0.4 * basis[k] for k in range(3) for s in (1, -1)]
    path = tmp_path / "oct.json"
    stateio.save_document(path, stateio.decomposition_document(
        2, MIXED_2, members, [1 / 6] * 6))
    return str(path)


def _state_file(tmp_path, name, matrix):
    path = tmp_path / name
    stateio.save_document(path, stateio.state_document(len(matrix), matrix=matrix))
    return str(path)


def _parse_text(out):
    parsed = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(": ")
        parsed[key] = value
    return parsed


# -------------------------------------------------------------- state files

class TestStateIO:
    def test_state_round_trip(self, tmp_path):
        M = MIXED_2 + 0.3 * traceless_hermitian_basis(2)[1]
        path = tmp_path / "s.json"
        stateio.save_document(path, stateio.state_document(2, matrix=M))
        rho, norm = stateio.load_state(path)
        assert isinstance(rho, DensityMatrix)
        np.testing.assert_allclose(rho.matrix, M, atol=1e-15)
        assert norm is None

    def test_amplitudes_normalized_on_load(self, tmp_path):
        path = tmp_path / "s.json"
        stateio.save_document(path, stateio.state_document(
            2, amplitudes=np.array([3.0, 4.0])))
        psi, norm = stateio.load_state(path)
        assert isinstance(psi, PureState)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(psi.amplitudes, [0.6, 0.8])

    def test_decomposition_round_trip(self, tmp_path, octahedral_file):
        dec = stateio.load_decomposition(octahedral_file)
        assert isinstance(dec, DecompositionInput)
        assert dec.dim == 2
        assert len(dec.members) == 6
        assert sum(dec.weights) == pytest.approx(1.0)
        np.testing.assert_allclose(dec.target, MIXED_2, atol=1e-15)

    def test_non_psd_matrix_document_rejected(self, tmp_path):
        path = _state_file(tmp_path, "bad.json", np.diag([1.5, -0.5]))
        with pytest.raises(StateValidationError) as exc:
            stateio.load_state(path)
        assert exc.value.kind == "not-psd"

    def test_too_few_members_rejected(self, tmp_path):
        basis = traceless_hermitian_basis(2)
        members = [MIXED_2 + s * 0.4 * basis[0] for s in (1, -1)]
        path = tmp_path / "few.json"
        stateio.save_document(path, stateio.decomposition_document(
            2, MIXED_2, members, [0.5, 0.5]))
        with pytest.raises(DecompositionError):
            stateio.load_decomposition(path)

    @pytest.mark.parametrize("matrix", [
        np.diag([1.2, -0.2]),
        np.array([[0.5, 0.2], [0.0, 0.5]]),
        np.eye(2) * (0.5 + 1e-6),
        np.array([[0.5, math.nan], [0.0, 0.5]]),
    ], ids=["not-psd", "not-hermitian", "bad-trace", "nan"])
    def test_member_error_is_the_matrix_own(self, tmp_path, matrix):
        """Members are validated as one stack; the third, the first that
        is not a state, raises the error it raises alone (the fifth,
        also not a state, is never reported)."""
        basis = traceless_hermitian_basis(2)
        members = [MIXED_2 + s * 0.4 * basis[k] for k in range(3) for s in (1, -1)]
        members[2] = matrix
        members[4] = np.diag([2.0, -1.0])
        path = tmp_path / "bad.json"
        stateio.save_document(path, stateio.decomposition_document(
            2, MIXED_2, members, [1 / 6] * 6))
        with pytest.raises(StateValidationError) as exc:
            stateio.load_decomposition(path)
        with pytest.raises(StateValidationError) as alone:
            DensityMatrix(matrix)
        assert ((exc.value.kind, repr(exc.value.magnitude), str(exc.value))
                == (alone.value.kind, repr(alone.value.magnitude), str(alone.value)))

    def test_amplitude_members_load_through_their_projectors(self, tmp_path):
        s = 1.0 / math.sqrt(2.0)
        amps = [[1.0, 0.0], [0.0, 1.0], [s, s], [s, -s], [s, 1j * s], [s, -1j * s],
                [3.0, 4.0]]
        doc = stateio.decomposition_document(2, MIXED_2, [MIXED_2] * 7,
                                             [1 / 6] * 6 + [0.0])
        doc["members"] = [{"amplitudes": stateio._pairs(np.array(a))} for a in amps]
        path = tmp_path / "pure.json"
        stateio.save_document(path, doc)
        dec = stateio.load_decomposition(path)
        for member, a in zip(dec.members, amps):
            psi = np.array(a) / np.linalg.norm(a)
            np.testing.assert_allclose(member, np.outer(psi, psi.conj()),
                                       atol=1e-15)
        assert not dec.members.flags.writeable

    def test_format_error_is_reported_before_an_earlier_state_error(
            self, tmp_path, capsys):
        """Every entry is parsed before any is validated: a malformed last
        member wins over a first member that is not a state, with the
        same exit code."""
        basis = traceless_hermitian_basis(2)
        members = [MIXED_2 + s * 0.4 * basis[k] for k in range(3) for s in (1, -1)]
        members[0] = np.diag([1.2, -0.2])
        doc = stateio.decomposition_document(2, MIXED_2, members, [1 / 6] * 6)
        doc["members"][5] = {"matrix": [[0.5, 0.0]] * 3}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(stateio.FileFormatError, match=r"members\[5\]"):
            stateio.load_decomposition(path)
        assert main(["construct", str(path)]) == 2
        assert "members[5]" in capsys.readouterr().err

    def test_nan_amplitudes_exit_2(self, tmp_path, capsys):
        """JSON ``NaN`` parses as a float; an amplitude document holding
        one is refused by name, not normalized."""
        path = tmp_path / "nan.json"
        path.write_text('{"schema": 1, "kind": "state", "dim": 2, '
                        '"amplitudes": [[NaN, 0.0], [0.0, 0.0]]}')
        assert main(["check", str(path), str(path), "--alpha", "0.1"]) == 2
        assert "amplitudes: entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"matrix": np.eye(2) / 2, "amplitudes": [1.0, 0.0]}, {}],
        ids=["both", "neither"])
    def test_state_document_needs_exactly_one_payload(self, payload):
        with pytest.raises(ValueError, match="exactly one"):
            stateio.state_document(2, **payload)

    def test_zero_amplitudes_rejected(self, tmp_path):
        path = tmp_path / "zero.json"
        stateio.save_document(path, stateio.state_document(
            2, amplitudes=np.zeros(2)))
        with pytest.raises(stateio.FileFormatError):
            stateio.load_state(path)

    @pytest.mark.parametrize("doc", [
        {},                                                   # no schema
        {"schema": 2, "kind": "state", "dim": 2},             # wrong version
        {"schema": 1, "kind": "state", "dim": 1,
         "matrix": [[1.0, 0.0]]},                             # dim too small
        {"schema": 1, "kind": "state", "dim": 2},             # no payload
        {"schema": 1, "kind": "state", "dim": 2,
         "matrix": [[1, 0]] * 4, "amplitudes": [[1, 0]] * 2},  # both payloads
        {"schema": 1, "kind": "state", "dim": 2,
         "matrix": [[1.0, 0.0]] * 3},                         # wrong length
        {"schema": 1, "kind": "state", "dim": 2,
         "amplitudes": [[1.0], [0.0]]},                       # malformed pair
        {"schema": 1, "kind": "state", "dim": 2,
         "amplitudes": [["1.0", 0], [0, 0]]},                 # numeric string
        {"schema": 1, "kind": "state", "dim": 2,
         "amplitudes": [[1.0, None], [0, 0]]},                # null entry
        {"schema": 1, "kind": "state", "dim": 2,
         "amplitudes": [None, [0, 0]]},                       # null pair
        {"schema": 1, "kind": "state", "dim": 2,
         "amplitudes": [[1.0, 0, 0], [0, 0]]},                # three-element pair
        {"schema": 1, "kind": "state", "dim": 2,
         "amplitudes": [[1.0, 0, 0], [0, 0, 0]]},             # all pairs of three
        {"schema": 1, "kind": "state", "dim": 2,
         "amplitudes": [[[1.0, 0], 0], [0, 0]]},              # nested pair
        {"schema": 1, "kind": "state", "dim": 2,
         "amplitudes": [[[1.0, 0], [0, 0]], [[0, 0], [0, 0]]]},  # all nested
        {"schema": 1, "kind": "state", "dim": 2,
         "amplitudes": [{"re": 1.0, "im": 0}, [0, 0]]},       # object
        {"schema": 1, "kind": "state", "dim": 2,
         "amplitudes": {"re": [1.0, 0], "im": [0, 0]}},       # object payload
        {"schema": 1, "kind": "state", "dim": 2,
         "matrix": [[0.5, 0], [0, 0], [0, 0], "0.5"]},        # string entry
        {"schema": 1, "kind": "decomposition", "dim": 2},     # wrong kind
    ])
    def test_malformed_state_documents(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(stateio.FileFormatError):
            stateio.load_state(path)

    @pytest.mark.parametrize("change, entry", [
        ({"kind": "state"}, ""),                              # wrong kind
        ({"dim": 1}, ""),                                     # dim too small
        ({"dim": "2"}, ""),                                   # dim not an integer
        ({"target": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}, ""),  # bare list
        ({"members": []}, ""),                                # no members
        ({"members": {"matrix": [[0.5, 0.0]] * 4}}, ""),      # not a list
        ({"members": [[[0.5, 0.0]] * 4] * 6}, ".members[0]"),  # bare lists
        ({"weights": [1 / 5] * 5}, ""),                       # one too few
        ({"weights": [1 / 6] * 5 + ["0.1"]}, ""),             # a string
        ({"weights": None}, ""),                              # missing
        # Entries of a "dim": 2 document that say "dim": 3 (with 3x3
        # matrices): the document's "dim" governs every entry.
        ({"target": _QUTRIT_BODY}, ".target"),
        ({"members": [_QUTRIT_BODY] + [_QUBIT_BODY] * 5}, ".members[0]"),
        ({"target": _QUTRIT_BODY, "members": [_QUTRIT_BODY] * 9,
          "weights": [1 / 9] * 9}, ".target"),
    ], ids=["kind", "dim", "dim-type", "target", "members-empty",
            "members-object", "member-list", "weights-length",
            "weights-string", "weights-none", "target-dim", "member-dim",
            "every-dim"])
    def test_malformed_decomposition_documents(self, tmp_path, capsys,
                                               octahedral_file, change, entry):
        doc = json.loads(Path(octahedral_file).read_text())
        doc.update(change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(stateio.FileFormatError, match=f"^{re.escape(f'{path}{entry}: ')}"):
            stateio.load_decomposition(path)
        assert main(["construct", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_entries_may_repeat_the_document_dim(self, tmp_path, octahedral_file):
        doc = json.loads(Path(octahedral_file).read_text())
        for body in (doc["target"], *doc["members"]):
            body["dim"] = 2
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(doc))
        got = stateio.load_decomposition(path)
        want = stateio.load_decomposition(octahedral_file)
        for field in ("target", "members", "weights"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_pairs_parse_as_complex_does(self):
        """The array parse of ``[re, im]`` pairs gives ``complex(re, im)``
        bit for bit on every kind of JSON number, NaN and infinities
        included."""
        rng = np.random.default_rng(17)
        parts = [0, 1, -3, True, False, 0.5, -1e-300, 1e300, math.inf,
                 -math.inf, math.nan]
        for _ in range(200):
            k = int(rng.integers(2, 10))
            obj = [[parts[i] if i < len(parts) else float(rng.normal())
                    for i in rng.integers(0, 2 * len(parts), size=2)]
                   for _ in range(k)]
            expected = np.array([complex(re, im) for re, im in obj])
            parsed = stateio._complex_pairs(json.loads(json.dumps(obj)), k, "x")
            assert parsed.dtype == complex and parsed.shape == (k,)
            np.testing.assert_array_equal(parsed.view(float), expected.view(float))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(stateio.FileFormatError):
            stateio.load_state(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(stateio.FileFormatError):
            stateio.load_state(tmp_path / "absent.json")


# ----------------------------------------------------------------- commands

def test_enumerate_w_pipeline(capsys, w_example_file):
    rc = main(["enumerate", w_example_file, "--filter", "w-type"])
    assert rc == 0
    parsed = _parse_text(capsys.readouterr().out)
    assert parsed["total"] == "26880"
    assert parsed["retained"] == "5376"
    assert float(parsed["input_norm"]) ** 2 == pytest.approx(2.633578, abs=1e-9)


def test_enumerate_structured_matches_text(capsys, ghz_file):
    rc = main(["enumerate", ghz_file, "--format", "structured"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    rc = main(["enumerate", ghz_file])
    assert rc == 0
    text = _parse_text(capsys.readouterr().out)
    for key, value in doc.items():
        if isinstance(value, bool):
            assert text[key] == ("true" if value else "false")
        elif isinstance(value, float):
            assert float(text[key]) == value
        elif isinstance(value, int):
            assert int(text[key]) == value
        else:
            assert text[key] == str(value)


def test_enumerate_show_states(capsys, ghz_file):
    rc = main(["enumerate", ghz_file, "--format", "structured", "--show", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["states"]) == 3
    amp = np.array([complex(re, im) for re, im in doc["states"][0]])
    assert np.linalg.norm(amp) == pytest.approx(1.0)


def test_enumerate_show_states_as_text(capsys, ghz_file):
    """Text output writes the shown states as one JSON list of states,
    each a list of ``[re, im]`` pairs."""
    assert main(["enumerate", ghz_file, "--show", "2"]) == 0
    states = json.loads(_parse_text(capsys.readouterr().out)["states"])
    assert len(states) == 2
    for state in states:
        amp = np.array([complex(re, im) for re, im in state])
        assert amp.shape == (8,)
        assert np.linalg.norm(amp) == pytest.approx(1.0)


def test_enumerate_bloch_target(capsys, tmp_path):
    path = _state_file(tmp_path, "zero.json", np.diag([1.0, 0.0]))
    rc = main(["enumerate", path, "--target", "bloch"])
    assert rc == 0
    parsed = _parse_text(capsys.readouterr().out)
    assert parsed["total"] == "6"
    assert parsed["retained"] == "6"


def test_enumerate_cap_flag(w_example_file):
    assert main(["enumerate", w_example_file, "--cap", "100"]) == 3


def test_enumerate_cap_env(w_example_file, monkeypatch):
    monkeypatch.setenv("SIGNPOLY_CAP", "100")
    assert main(["enumerate", w_example_file]) == 3
    # an explicit flag wins over the environment
    assert main(["enumerate", w_example_file, "--cap", "30000"]) == 0


def test_enumerate_cap_below_one(w_example_file, capsys):
    assert main(["enumerate", w_example_file, "--cap", "0"]) == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--cap", "0", "enumeration cap must be at least 1"),
    ("--cap", "-5", "enumeration cap must be at least 1"),
    ("--seed", "-1", "--seed must be nonnegative"),
], ids=["cap-0", "cap-negative", "seed-negative"])
@pytest.mark.parametrize("command", ["volume", "tangle"])
def test_common_flags_are_checked_in_every_subcommand(command, flag, value,
                                                      message, ghz_file, capsys):
    """``--cap`` and ``--seed`` are refused out of range (exit 2) by
    subcommands that do not read them, with ``enumerate``'s message."""
    argv = ["volume", "--dim", "2"] if command == "volume" else ["tangle", ghz_file]
    assert main([*argv, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert main([*argv, flag, "1"]) == 0


def test_cap_env_is_read_by_enumerate_alone(ghz_file, monkeypatch, capsys):
    monkeypatch.setenv("SIGNPOLY_CAP", "0")
    assert main(["volume", "--dim", "2"]) == 0
    assert main(["tangle", ghz_file]) == 0
    assert main(["enumerate", ghz_file]) == 2
    assert capsys.readouterr().err == "error: enumeration cap must be at least 1\n"


def test_construct_negative_seed(capsys, octahedral_file):
    assert main(["construct", octahedral_file, "--verify-probes", "5",
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be nonnegative\n"


def test_enumerate_negative_show(w_example_file, capsys):
    assert main(["enumerate", w_example_file, "--show", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--show must be nonnegative" in captured.err


def test_enumerate_bad_cap_env(w_example_file, monkeypatch, capsys):
    monkeypatch.setenv("SIGNPOLY_CAP", "many")
    assert main(["enumerate", w_example_file]) == 2
    assert "SIGNPOLY_CAP" in capsys.readouterr().err


def test_construct_octahedral(capsys, octahedral_file):
    rc = main(["construct", octahedral_file, "--format", "structured"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == pytest.approx(0.4, abs=1e-6)
    assert doc["degenerate"] is False
    assert doc["vertex_states_valid"] == 6
    assert doc["fraction_closed_form"] == pytest.approx(
        8 * 0.4 ** 3 / math.pi, rel=1e-6)
    assert doc["fraction_volume_ratio"] == pytest.approx(
        doc["fraction_closed_form"], rel=1e-10)


def test_construct_reports_binding_direction(capsys, phase_calls,
                                             octahedral_file):
    rc = main(["construct", octahedral_file, "--format", "structured"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    n = doc["chart_dim"]
    assert phase_calls == {"phase1": 1, "phase2": 2 * n}
    assert 0 <= doc["binding_axis"] < doc["chart_dim"]
    assert doc["binding_sign"] in (1, -1)


def test_construct_verify_probes(capsys, octahedral_file):
    rc = main(["construct", octahedral_file, "--verify-probes", "25",
               "--seed", "11", "--format", "structured"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["probes_checked"] == 25
    assert doc["probes_inside"] == 25
    assert doc["seed"] == 11


def test_construct_negative_verify_probes(capsys, octahedral_file):
    assert main(["construct", octahedral_file, "--verify-probes", "-3"]) == 2
    captured = capsys.readouterr()
    assert (captured.out == ""
            and "--verify-probes must be nonnegative" in captured.err)


def test_construct_too_few_members(tmp_path, capsys):
    basis = traceless_hermitian_basis(2)
    members = [MIXED_2 + s * 0.4 * basis[0] for s in (1, -1)]
    path = tmp_path / "thin.json"
    stateio.save_document(path, stateio.decomposition_document(
        2, MIXED_2, members, [0.5, 0.5]))
    assert main(["construct", str(path)]) == 2
    assert "members" in capsys.readouterr().err


def test_construct_rejects_nan_weight(tmp_path, capsys):
    basis = traceless_hermitian_basis(2)
    members = [MIXED_2 + s * 0.4 * basis[k] for k in range(3) for s in (1, -1)]
    path = tmp_path / "nan.json"
    stateio.save_document(path, stateio.decomposition_document(
        2, MIXED_2, members, [math.nan] + [1 / 6] * 5))
    assert "NaN" in path.read_text()
    assert main(["construct", str(path)]) == 2
    assert "weights" in capsys.readouterr().err


def test_construct_with_an_invalid_vertex_counts_none(monkeypatch, capsys,
                                                     octahedral_file):
    """Vertex states are validated all or nothing: with one vertex past
    the Bloch sphere the report counts 0 of 6 valid."""
    import signpoly.cli
    solve = signpoly.cli.max_inscribed_cross_polytope

    def moved(*args, **kwargs):
        poly = solve(*args, **kwargs)
        return dataclasses.replace(
            poly, spec=CrossPolytopeSpec(0.5, [-0.3, 0.0, 0.0]))

    monkeypatch.setattr(signpoly.cli, "max_inscribed_cross_polytope", moved)
    assert main(["construct", octahedral_file, "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["vertex_states_valid"], doc["vertex_states_total"]) == (0, 6)


def test_construct_degenerate(tmp_path, capsys):
    basis = traceless_hermitian_basis(2)
    edge = MIXED_2 + 0.2 * basis[0]
    path = tmp_path / "deg.json"
    stateio.save_document(path, stateio.decomposition_document(
        2, edge, [edge] * 4, [0.25] * 4))
    rc = main(["construct", str(path), "--format", "structured"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degenerate"] is True
    assert doc["alpha"] == 0.0
    assert doc["vertex_states_total"] == 6
    assert doc["vertex_states_valid"] == 6


def test_check_member_and_nonmember(tmp_path, capsys):
    basis = traceless_hermitian_basis(2)
    center = _state_file(tmp_path, "center.json", MIXED_2)
    inside = _state_file(tmp_path, "in.json", MIXED_2 + 0.1 * basis[0])
    outside = _state_file(tmp_path, "out.json", MIXED_2 + 0.3 * basis[0])

    assert main(["check", center, inside, "--alpha", "0.2"]) == 0
    parsed = _parse_text(capsys.readouterr().out)
    assert parsed["member"] == "true"
    assert float(parsed["coord_distance_1norm"]) == pytest.approx(0.1, abs=1e-12)

    assert main(["check", center, outside, "--alpha", "0.2"]) == 1
    parsed = _parse_text(capsys.readouterr().out)
    assert parsed["member"] == "false"
    assert float(parsed["fraction_closed_form"]) == pytest.approx(
        8 * 0.2 ** 3 / math.pi, rel=1e-12)


def test_check_dimension_mismatch(tmp_path):
    a = _state_file(tmp_path, "a.json", MIXED_2)
    b = _state_file(tmp_path, "b.json", np.eye(3) / 3)
    assert main(["check", a, b, "--alpha", "0.1"]) == 2


def test_check_negative_alpha(tmp_path):
    a = _state_file(tmp_path, "a.json", MIXED_2)
    assert main(["check", a, a, "--alpha", "-1"]) == 2


def test_check_infinite_alpha_is_blamed_on_alpha(tmp_path, capsys):
    a = _state_file(tmp_path, "a.json", MIXED_2)
    assert main(["check", a, a, "--alpha", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alpha must be a finite nonnegative real\n"


def test_check_rejects_invalid_state(tmp_path):
    a = _state_file(tmp_path, "a.json", MIXED_2)
    bad = _state_file(tmp_path, "bad.json", np.diag([1.4, -0.4]))
    assert main(["check", a, bad, "--alpha", "0.1"]) == 2


def test_volume_report(capsys):
    rc = main(["volume", "--dim", "2", "--alpha", "0.4", "--format", "structured"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hs_volume"] == pytest.approx(math.pi / 6.0, rel=1e-12)
    assert doc["cross_volume"] == pytest.approx(0.8 ** 3 / 6.0, rel=1e-12)
    assert doc["insphere_radius"] == pytest.approx(0.4 / math.sqrt(3), rel=1e-12)
    assert doc["fraction_closed_form"] == pytest.approx(
        doc["fraction_volume_ratio"], rel=1e-10)


def test_volume_insphere_values(capsys):
    """The qubit chart (n = 3) at scale 1: insphere radius 1/sqrt(3),
    ball volume 4 pi/3 * 3^-1.5, cross volume 4/3, keys in report order."""
    rc = main(["volume", "--dim", "2", "--alpha", "1", "--format", "structured"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["command", "dim", "chart_dim", "hs_volume", "alpha",
                         "cross_volume", "fraction_closed_form",
                         "fraction_volume_ratio", "insphere_radius",
                         "ball_volume", "ball_to_cross_ratio"]
    assert doc["chart_dim"] == 3
    assert doc["insphere_radius"] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
    assert doc["ball_volume"] == pytest.approx(4.0 * math.pi / 3.0 * 3.0 ** -1.5,
                                               rel=1e-13)
    assert doc["cross_volume"] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert doc["ball_to_cross_ratio"] == pytest.approx(0.6045997880780726,
                                                       rel=1e-12)


def test_volume_zero_scale(capsys):
    """At scale 0 both volumes are 0 and the ratio is reported as 0."""
    rc = main(["volume", "--dim", "2", "--alpha", "0", "--format", "structured"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["insphere_radius"], doc["ball_volume"], doc["cross_volume"],
            doc["ball_to_cross_ratio"]) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("d", [12, 20])
def test_volume_ratios_survive_underflow(capsys, d):
    """The HS volume underflows past d = 19 and the cross and ball
    volumes long before; the volume-ratio fraction and the ball-to-cross
    ratio are taken of their logs, so they match the closed form and
    stay positive, and the ratio does not depend on the scale."""
    docs = {}
    for alpha in ("0.1", "0.5"):
        rc = main(["volume", "--dim", str(d), "--alpha", alpha,
                   "--format", "structured"])
        assert rc == 0
        docs[alpha] = doc = json.loads(capsys.readouterr().out)
        assert doc["fraction_volume_ratio"] == pytest.approx(
            doc["fraction_closed_form"], rel=1e-12)
        assert doc["ball_to_cross_ratio"] > 0.0
    assert docs["0.5"]["fraction_volume_ratio"] > 0.0
    assert docs["0.1"]["ball_to_cross_ratio"] == pytest.approx(
        docs["0.5"]["ball_to_cross_ratio"], rel=1e-12)


@pytest.mark.parametrize("argv, quantity", [
    (["volume", "--dim", "2", "--alpha", "1e308"], "cross-polytope volume"),
    (["volume", "--dim", "3", "--alpha", "1e40"], "cross-polytope volume"),
    (["check", "--alpha", "1e200"], "robustness fraction"),
], ids=["volume-d2", "volume-d3", "check"])
def test_overflowing_volume_is_bad_input(tmp_path, capsys, argv, quantity):
    """A volume or fraction too large for a float is invalid input (exit
    2) with one error line naming it, never a verdict or a traceback."""
    if argv[0] == "check":
        a = _state_file(tmp_path, "a.json", MIXED_2)
        argv = ["check", a, a, *argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the {quantity} overflows a float\n"


def test_volume_without_alpha(capsys):
    assert main(["volume", "--dim", "3"]) == 0
    parsed = _parse_text(capsys.readouterr().out)
    assert "hs_volume" in parsed
    assert "cross_volume" not in parsed


def test_volume_validation():
    assert main(["volume", "--dim", "1"]) == 2
    assert main(["volume", "--dim", "2", "--alpha", "-1"]) == 2


def test_tangle_ghz(capsys, ghz_file):
    rc = main(["tangle", ghz_file])
    assert rc == 0
    parsed = _parse_text(capsys.readouterr().out)
    assert float(parsed["tau3"]) == pytest.approx(1.0, abs=1e-10)


def test_tangle_of_example_state(capsys, w_example_file):
    rc = main(["tangle", w_example_file])
    assert rc == 0
    parsed = _parse_text(capsys.readouterr().out)
    # the example state itself carries sizable three-way entanglement;
    # only the filtered family members are tangle-free
    assert float(parsed["tau3"]) == pytest.approx(0.5963890504334584, rel=1e-9)


def test_tangle_wrong_dimension(tmp_path):
    path = _state_file(tmp_path, "qubit.json", np.diag([1.0, 0.0]))
    assert main(["tangle", path]) == 2


def test_malformed_file_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("[1, 2, 3]")
    assert main(["tangle", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_tolerance_flags(ghz_file):
    assert main(["tangle", ghz_file, "--tol", "-1"]) == 2


@pytest.mark.parametrize("extra", [
    ["--alpha", "nan"],
    ["--alpha", "0.5", "--tol", "nan"],
    ["--alpha", "0.5", "--tol-alpha", "nan"],
    ["--alpha", "inf"],
], ids=["alpha", "tol", "tol-alpha", "alpha-inf"])
def test_nan_tolerance_or_scale_is_bad_input(tmp_path, capsys, extra):
    """NaN, or an infinite scale, is invalid input (exit 2), never a
    verdict."""
    a = _state_file(tmp_path, "a.json", MIXED_2)
    assert main(["check", a, a, *extra]) == 2
    captured = capsys.readouterr()
    assert "member" not in captured.out and "error:" in captured.err


def test_state_files_validated_at_fixed_tolerance(tmp_path):
    # --tol loosens membership, the LP and the filters, never the 1e-9
    # validation of state files: a GHZ projector with an eigenvalue at
    # -5e-6 is rejected by every subcommand that reads a state file.
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    M = (1.0 + 5e-6) * np.outer(ghz, ghz)
    M[1, 1] = -5e-6
    bad = _state_file(tmp_path, "bad.json", M)
    mixed = _state_file(tmp_path, "mixed.json", np.eye(8) / 8)
    assert main(["enumerate", bad, "--tol", "1e-4"]) == 2
    assert main(["tangle", bad, "--tol", "1e-4"]) == 2
    assert main(["check", mixed, bad, "--alpha", "0.1", "--tol", "1e-4"]) == 2


# ------------------------------------------------ one parser per process

def test_option_values_do_not_leak_between_calls(capsys):
    assert main(["volume", "--dim", "2", "--alpha", "0.1",
                 "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 0.1
    assert main(["volume", "--dim", "2", "--format", "structured"]) == 0
    assert "alpha" not in json.loads(capsys.readouterr().out)


def test_cap_env_is_read_on_every_call(w_example_file, monkeypatch):
    monkeypatch.delenv("SIGNPOLY_CAP", raising=False)
    assert main(["enumerate", w_example_file]) == 0
    monkeypatch.setenv("SIGNPOLY_CAP", "100")
    assert main(["enumerate", w_example_file]) == 3


def test_argparse_exit_leaves_the_next_call_working(capsys):
    import signpoly

    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == signpoly.__version__
    with pytest.raises(SystemExit) as info:
        main(["volume", "--dim", "2", "--format", "yaml"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["volume", "--dim", "2", "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 2


def test_later_calls_build_no_parser(monkeypatch):
    """The parser is built once per process: after one ``main`` call,
    another constructs no ``ArgumentParser`` at all."""
    import argparse

    assert main(["volume", "--dim", "2"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["volume", "--dim", "3", "--alpha", "0.2"]) == 0
    assert built == []


def test_python_dash_m_entry_point():
    """``python -m signpoly``, run beside the package the tests import,
    so it needs no install and no ``PYTHONPATH``."""
    import subprocess
    import sys
    from pathlib import Path

    import signpoly
    proc = subprocess.run(
        [sys.executable, "-m", "signpoly", "volume", "--dim", "2"],
        capture_output=True, text=True,
        cwd=Path(signpoly.__file__).resolve().parents[1])
    assert proc.returncode == 0
    assert "hs_volume" in proc.stdout
