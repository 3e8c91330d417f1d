"""The names the benchmark reaches in ``signpoly`` still exist.

``perfbench/spans.py`` wraps functions by ``(module, name)`` and reads
attributes off their results; a simplification that renames or removes
one of them breaks ``perfbench/run.py --trace 1`` without failing any
other test.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import signpoly
from signpoly import (
    DecompositionInput,
    DensityMatrix,
    enumerate_pure_sign_perms,
    enumerate_sign_perm_vertices,
    make_canonical,
    max_inscribed_cross_polytope,
    traceless_hermitian_basis,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

PUBLIC_NAMES = [
    "DEFAULT_TOL", "ENUMERATION_CAP", "CrossPolytopeCertificate",
    "CrossPolytopeSpec", "DecompositionError", "DecompositionInput",
    "DensityMatrix", "DimensionMismatchError",
    "EnumerationTooLargeError", "FileFormatError", "InsphereReport",
    "PureEnumeration", "PureState", "QuantumCrossPolytope", "SignpolyError",
    "SolverFailureError", "StateValidationError", "VertexSet", "ball_volume",
    "certificate_holds", "count_sign_perm_vertices", "cross_polytope_volume",
    "enumerate_perm_vertices", "enumerate_pure_sign_perms",
    "enumerate_sign_perm_vertices", "from_coords", "hs_distance", "hs_volume",
    "hull_member_lp", "hulls_disjoint", "insphere_radius", "insphere_report",
    "majorizes", "make_canonical", "max_inscribed_cross_polytope",
    "pure_from_density", "purity", "rado_member", "robustness_fraction",
    "robustness_member", "sign_perm_member", "three_tangle", "to_coords",
    "traceless_hermitian_basis", "validate_state", "weakly_majorized",
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for modname, attr, *_ in _load_spans().TRACED:
        module = importlib.import_module(f"signpoly.{modname}")
        assert callable(getattr(module, attr)), f"signpoly.{modname}.{attr}"


def test_result_attributes_read_by_the_tracer():
    mixed = np.eye(2) / 2
    basis = traceless_hermitian_basis(2)
    members = tuple(DensityMatrix(mixed + s * 0.4 * basis[k])
                    for k in range(3) for s in (1, -1))
    dec = DecompositionInput(DensityMatrix(mixed), members, (1 / 6,) * 6)
    assert max_inscribed_cross_polytope(dec).spec.dimension == 3
    res = enumerate_pure_sign_perms(make_canonical("w"), filter="w-type")
    assert (res.total, res.retained) == (448, 256)
    assert enumerate_sign_perm_vertices([1.0, 2.0]).array.shape == (8, 2)


def test_public_names():
    assert sorted(signpoly.__all__) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 46
