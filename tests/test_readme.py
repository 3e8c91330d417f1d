"""README's library tour runs as written, and says what it shows; its
state-file examples load."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from signpoly import DensityMatrix, PureState
from signpoly.stateio import load_state

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    tour: dict = {}
    exec(compile(blocks[0], str(README), "exec"), tour)
    assert tour["ok"]
    w, V = tour["w"], tour["V"]
    assert w.shape == (len(V),) and not w.flags.writeable
    np.testing.assert_allclose(w @ V.array, [1.0, -2.0, 0.5] + [0.0] * 5, atol=1e-9)
    assert tour["poly"].alpha == pytest.approx(0.4, abs=1e-12)
    assert tour["certificate_holds"](tour["poly"])


def test_state_file_examples_load(tmp_path):
    """The state example loads as written; the decomposition example
    elides its members, so its target body is loaded as a state."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    state, decomposition = (json.loads(block) for block in blocks)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    psi, norm = load_state(path)
    assert isinstance(psi, PureState) and psi.dim == 8 and norm > 0.0
    assert decomposition["kind"] == "decomposition"
    path.write_text(json.dumps({"schema": 1, "kind": "state",
                                "dim": decomposition["dim"],
                                **decomposition["target"]}))
    rho, norm = load_state(path)
    assert isinstance(rho, DensityMatrix) and norm is None
    np.testing.assert_array_equal(rho.matrix, np.eye(2) / 2)
