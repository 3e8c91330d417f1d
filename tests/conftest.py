"""Fixtures shared by the test modules."""

import pytest

from signpoly import simplex


@pytest.fixture
def phase_calls(monkeypatch):
    """Counts of the simplex kernel's phase-1 and phase-2 pivot loops
    from the start of the test on."""
    calls = {"phase1": 0, "phase2": 0}
    loop = simplex._pivot_loop

    def counting_loop(*args, phase, **kwargs):
        calls[f"phase{phase}"] += 1
        return loop(*args, phase=phase, **kwargs)

    monkeypatch.setattr(simplex, "_pivot_loop", counting_loop)
    return calls
