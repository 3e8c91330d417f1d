"""README's library tour runs as written, and says what it shows."""

import re
from pathlib import Path

import numpy as np
import pytest

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
