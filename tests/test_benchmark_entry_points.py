"""The names the benchmark reaches in ``signpoly`` still exist, and its
inputs stay answerable.

``perfbench/spans.py`` wraps functions by ``(module, name)`` and reads
attributes off their results; a simplification that renames or removes
one of them breaks ``perfbench/run.py --trace 1`` without failing any
other test.  Likewise a ``construct`` input that the library refuses
shows up only as a failed benchmark operation.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import signpoly
from signpoly import (
    DecompositionInput,
    certificate_holds,
    enumerate_pure_sign_perms,
    enumerate_sign_perm_vertices,
    make_canonical,
    max_inscribed_cross_polytope,
    stateio,
    traceless_hermitian_basis,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
PIVOTS = Path(__file__).resolve().parents[1] / "bench" / "pivots.py"

PUBLIC_NAMES = [
    "DEFAULT_TOL", "ENUMERATION_CAP", "CrossPolytopeCertificate",
    "CrossPolytopeSpec", "DecompositionError", "DecompositionInput",
    "DensityMatrix", "DimensionMismatchError",
    "EnumerationTooLargeError", "FileFormatError",
    "PureEnumeration", "PureState", "QuantumCrossPolytope", "SignpolyError",
    "SolverFailureError", "StateValidationError", "VertexSet", "ball_volume",
    "certificate_holds", "count_sign_perm_vertices", "cross_polytope_volume",
    "enumerate_perm_vertices", "enumerate_pure_sign_perms",
    "enumerate_sign_perm_vertices", "from_coords", "hs_distance", "hs_volume",
    "hull_member_lp", "hulls_disjoint", "insphere_radius",
    "majorizes", "make_canonical", "max_inscribed_cross_polytope",
    "pure_from_density", "purity", "rado_member", "robustness_fraction",
    "robustness_member", "sign_perm_member", "three_tangle", "to_coords",
    "traceless_hermitian_basis", "validate_state", "weakly_majorized",
]


def _load(monkeypatch, name, path):
    """The module at ``path``, registered as ``name`` for the test (its
    dataclasses look their module up there)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(monkeypatch):
    for modname, attr, *_ in _load(monkeypatch, "perfbench_spans", SPANS).TRACED:
        module = importlib.import_module(f"signpoly.{modname}")
        assert callable(getattr(module, attr)), f"signpoly.{modname}.{attr}"


def _octahedral():
    """The maximally mixed qubit as the mean of six states at +-0.4 on
    each chart axis."""
    mixed = np.eye(2) / 2
    basis = traceless_hermitian_basis(2)
    members = np.array([mixed + s * 0.4 * basis[k]
                        for k in range(3) for s in (1, -1)])
    return DecompositionInput(mixed, members, (1 / 6,) * 6)


def test_result_attributes_read_by_the_tracer():
    assert max_inscribed_cross_polytope(_octahedral()).spec.dimension == 3
    res = enumerate_pure_sign_perms(make_canonical("w"), filter="w-type")
    assert (res.total, res.retained) == (448, 256)
    assert enumerate_sign_perm_vertices([1.0, 2.0]).array.shape == (8, 2)


def test_public_names():
    assert sorted(signpoly.__all__) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 44


def test_construct_workload_inputs_certify(tmp_path, monkeypatch):
    """Every decomposition of the seed-3 ``construct`` workload loads and
    gets a scale whose certificate holds, so the refusal of an
    uncertified scale cannot turn a benchmark operation into a failure."""
    workloads = _load(monkeypatch, "perfbench_workloads",
                      PERFBENCH / "workloads.py")
    workloads.build_construct(np.random.default_rng(3), tmp_path, signpoly)
    paths = sorted(tmp_path.glob("*.json"))
    assert len(paths) == 126
    for path in paths:
        poly = max_inscribed_cross_polytope(stateio.load_decomposition(path))
        assert certificate_holds(poly), path.name


def test_pivot_counter_counts_a_construct(monkeypatch):
    """``bench/pivots.py`` counts by rebinding names in ``simplex``; if
    one of them is renamed or stops being called, its counts read 0
    without an error.  One small search runs one shared phase 1 and
    pivots in phase 2."""
    pivots = _load(monkeypatch, "bench_pivots", PIVOTS)
    counter, poly = pivots.count_pivots(
        signpoly, lambda: max_inscribed_cross_polytope(_octahedral()))
    assert certificate_holds(poly)
    assert counter.phase1_solves == 1
    assert counter.counts["phase2"] > 0
    assert counter.total == sum(counter.counts.values())
