"""Fixtures shared by the test modules."""

import pytest

from signpoly import simplex


@pytest.fixture
def phase_calls(monkeypatch):
    """Counts of the simplex kernel's shared phase-1 solves, phase-1
    continuations and phase-2 runs from the start of the test on."""
    calls = {"phase1": 0, "continued": 0, "phase2": 0}
    phase1, loop = simplex._phase1, simplex._pivot_loop

    def counting_phase1(*args, **kwargs):
        calls["phase1"] += 1
        calls["continued"] -= 1  # its own loop is no continuation
        return phase1(*args, **kwargs)

    def counting_loop(*args, phase, **kwargs):
        calls["continued" if phase == 1 else "phase2"] += 1
        return loop(*args, phase=phase, **kwargs)

    monkeypatch.setattr(simplex, "_phase1", counting_phase1)
    monkeypatch.setattr(simplex, "_pivot_loop", counting_loop)
    return calls
