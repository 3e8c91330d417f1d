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
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

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
ENUM = Path(__file__).resolve().parents[1] / "bench" / "enum.py"
LOC = Path(__file__).resolve().parents[1] / "bench" / "loc.py"
VERDICTS = Path(__file__).resolve().parents[1] / "bench" / "verdicts.py"
RAW_PRICING = Path(__file__).resolve().parents[1] / "bench" / "raw_pricing.py"

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


def test_pivot_bench_counts_a_construct(monkeypatch):
    """``bench/pivots.py`` reads the kernel's own counts: one small
    search runs one shared phase 1 and pivots in phase 2, one inversion
    ends phase 1 and one batch rebuilds all six rays."""
    pivots = _load(monkeypatch, "bench_pivots", PIVOTS)
    counts, poly = pivots.count_pivots(
        signpoly, lambda: max_inscribed_cross_polytope(_octahedral()))
    assert certificate_holds(poly)
    assert (counts.solves, counts.rays) == (1, 6)
    assert counts.phase2 > 0
    summary = pivots._per_construct([counts])
    assert summary["inversions"] == {"phase1": 1, "refresh": 0, "batch": 1, "total": 2}
    assert summary["bland"] == 0
    assert counts.priced > 0


@pytest.mark.parametrize("script", [PIVOTS, RAW_PRICING, ENUM, VERDICTS],
                         ids=lambda path: path.stem)
def test_count_benches_refuse_a_tree_that_does_not_count(tmp_path, script):
    """A ``--src`` with no ``signpoly._counts``, as in trees whose
    library did not count its own work, is refused with one line and
    exit status 2."""
    (tmp_path / "signpoly").mkdir()
    (tmp_path / "signpoly" / "__init__.py").write_text("")
    (tmp_path / "signpoly" / "simplex.py").write_text("")
    done = subprocess.run([sys.executable, str(script), "--src", str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and "signpoly._counts" in done.stderr


def test_pivot_bench_reports_hull_peak_bytes(monkeypatch):
    """``bench/pivots.py`` reports, per ``hull`` probe kind, the median
    tracemalloc peak of one warm query (its ``hull_member_lp`` call and
    the ``sign_perm_member`` call beside it): on the 3,840 and 960
    vertices of n = 5 and 6 more than the weights over the set, and on
    the 26,880 vertices of n = 8 at most two float vectors that wide.
    It also reports the kernel's counts: ``priced``, the mean columns
    priced per query, ``sorts``, the mean passes priced by sort,
    ``passes``, the mean pricing passes, and ``bland``, the mean passes
    that applied Bland's rule, none on seed 3.  Query by query, every
    pass prices every column on the sets explicitly priced, and on the
    n = 8 listing, of more than
    ``geometry._SORT_ABOVE`` rows, no column of an LP matrix and one
    sort.  There is a pass per pivot and one more
    that finds the basis optimal, which only a member may skip, when
    its phase 1 ends at objective value 0 (:func:`_passes_hold`).  The
    aimed first pass is one of them; ``aimed``, the share of queries
    whose first pivot entered the aimed vertex, is 1.0 on seed 3."""
    pivots = _load(monkeypatch, "bench_pivots", PIVOTS)
    workloads = _load(monkeypatch, "perfbench_workloads", PERFBENCH / "workloads.py")
    kinds = pivots.hull_pivots(signpoly, workloads, 3)
    sizes = {"5": 3840, "6": 960, "8": 26880}
    assert len(kinds) == 7
    for kind, rec in kinds.items():
        m = sizes[kind[len("hull_n")]]
        assert rec["failures"] == rec["wrong"] == rec["bland"] == 0
        assert rec["aimed"] == 1.0, kind
        if m <= signpoly.geometry._SORT_ABOVE:
            assert 8 * m < rec["peak_bytes"], kind
            assert rec["sorts"] == 0, kind
        else:
            assert rec["priced"] == 0, kind
            assert rec["sorts"] == rec["passes"], kind
            assert rec["peak_bytes"] <= 2 * 8 * m, kind
    for kind, call, _ in pivots.hull_queries(signpoly, workloads, 3):
        _passes_hold(pivots, call, sizes[kind[len("hull_n")]])


def _passes_hold(pivots, call, m):
    """Asks one aimed hull query over ``m`` vertices and checks its
    passes: every column priced each pass up to ``geometry._SORT_ABOVE``
    vertices, one sort each pass above, one pass per pivot and one
    more, which only a member skips (its phase 1 stops, unpriced, at
    objective value 0), and the aimed vertex entered."""
    counts, (member, _) = pivots.count_pivots(signpoly, call)
    if m <= signpoly.geometry._SORT_ABOVE:
        assert (counts.priced, counts.sorts) == (m * counts.passes, 0)
    else:
        assert (counts.priced, counts.sorts) == (0, counts.passes)
    assert counts.solves == counts.aimed == 1
    assert counts.passes == counts.pivots + 1 or member and counts.passes == counts.pivots


def test_pivot_bench_counts_the_n9_queries(monkeypatch):
    """``bench/pivots.py``'s ``n9`` case asks the 483,840 signed
    permutations of ``N9_BASE`` and agrees with ``sign_perm_member``;
    the listing is priced by sort, one sort per pass and no column of an
    LP matrix, a pass per pivot and one more (:func:`_passes_hold`), and
    every query's first pivot enters the aimed vertex."""
    pivots = _load(monkeypatch, "bench_pivots", PIVOTS)
    workloads = _load(monkeypatch, "perfbench_workloads", PERFBENCH / "workloads.py")
    kinds = pivots.n9_pivots(signpoly, workloads, 3, mixes=1, scaled=2)
    assert sorted(kinds) == ["mix", "scaled"]
    assert [kinds["mix"]["probes"], kinds["scaled"]["probes"]] == [1, 2]
    for kind, rec in kinds.items():
        assert rec["failures"] == rec["wrong"] == 0
        assert rec["priced"] == 0, kind
        assert rec["sorts"] == rec["passes"], kind
        assert rec["aimed"] == 1.0, kind
    for kind, call, _ in pivots.n9_queries(signpoly, workloads, 3, mixes=1, scaled=2):
        _passes_hold(pivots, call, 483840)


def test_enum_bench_case_answers(monkeypatch):
    """``bench/enum.py`` builds each case from the library and the
    workload module; the smallest ``bloch`` case keeps the workload's
    24 states of 2,688 rows."""
    bench = _load(monkeypatch, "bench_enum", ENUM)
    workloads = _load(monkeypatch, "perfbench_workloads", PERFBENCH / "workloads.py")
    assert bench._case_call(signpoly, workloads, "perfbench_bloch")() == (2688, 24)


def test_enum_bench_lists_or_counts_the_n9_set(monkeypatch):
    """The ``perfbench_n9`` case of ``bench/enum.py`` reads the vertex
    set's array, so it lists all 483,840 rows (15 blocks); the
    ``perfbench_n9_count`` case asks ``len`` alone and lists none."""
    bench = _load(monkeypatch, "bench_enum", ENUM)
    src = Path(signpoly.__file__).parents[1]
    listed = bench.run_case(src, "perfbench_n9")
    counted = bench.run_case(src, "perfbench_n9_count")
    assert (listed["rows"], listed["blocks"]) == (483_840, 15)
    assert (counted["rows"], counted["blocks"]) == (483_840, 0)


def test_enum_bench_counts_the_w_type_blocks(monkeypatch):
    """The ``readme_w_type`` case of ``bench/enum.py`` counts every block
    that ``_enum.signed_arrangements`` yields for the README state (at
    1,024 rows a block, so there are several).  ``run_case`` puts the
    tree first on ``sys.path`` only while it runs, and counts in blocks
    of its own, so a second call in the same process counts the same."""
    bench = _load(monkeypatch, "bench_enum", ENUM)
    workloads = _load(monkeypatch, "workloads", PERFBENCH / "workloads.py")
    monkeypatch.setattr(signpoly._enum, "BLOCK_ROWS", 1 << 10)
    psi = signpoly.PureState.normalized([complex(*a) for a in workloads.README_STATE])[0]
    classes = signpoly._enum.sign_classes(psi.amplitudes)
    blocks = sum(1 for _ in signpoly._enum.signed_arrangements(classes))
    path, path_entries = sys.path, list(sys.path)
    src = Path(signpoly.__file__).parents[1]
    first = bench.run_case(src, "readme_w_type")
    assert sys.path is path and sys.path == path_entries
    assert (first["rows"], first["kept"]) == (26880, 5376)
    assert first["blocks"] == blocks == 27
    second = bench.run_case(src, "readme_w_type")
    assert (second["blocks"], second["tangle_evals"]) == (27, first["tangle_evals"])
    assert sys.path is path and sys.path == path_entries


def test_enum_bench_summary(monkeypatch):
    """``bench/enum.py`` reports the quartiles of the per-process wall
    times and refuses processes whose counts differ."""
    bench = _load(monkeypatch, "bench_enum", ENUM)
    runs = [{"rows": 10, "blocks": 1, "wall_s": w, "peak_rss_mb": 30.0 + w}
            for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    assert bench._summary(runs) == {
        "rows": 10, "blocks": 1, "wall_s": {"q1": 2.0, "median": 3.0, "q3": 4.0},
        "peak_rss_mb": 33.0}
    with pytest.raises(RuntimeError, match="counts differ"):
        bench._summary(runs + [{**runs[0], "blocks": 2}])


def test_enum_bench_repeat(monkeypatch, capsys):
    """``bench/enum.py --repeat K`` lists a case K times in one process,
    on fresh inputs of one shape: every listing repeats the counts, the
    README shape is described once for all four w-type listings, and a
    streamed listing describes each of its blocks every time."""
    bench = _load(monkeypatch, "bench_enum", ENUM)
    workloads = _load(monkeypatch, "workloads", PERFBENCH / "workloads.py")
    src = Path(signpoly.__file__).parents[1]
    fresh = [bench._case_call(signpoly, workloads, "readme_w_type", np.random.default_rng(i))
             for i in (1, 2)]
    assert fresh[0]() == fresh[1]() == (26880, 5376)
    signpoly._enum._shape_description.cache_clear()
    result = bench.run_case(src, "readme_w_type", repeat=4)
    assert {key: result[key] for key in ("rows", "kept", "blocks", "tangle_evals", "described")} \
        == {"rows": 26880, "kept": 5376, "blocks": 1, "tangle_evals": 1920, "described": 1}
    monkeypatch.setattr(signpoly._enum, "BLOCK_ROWS", 1 << 10)
    result = bench.run_case(src, "perfbench_bloch", repeat=2)
    assert (result["rows"], result["kept"], result["blocks"], result["described"]) \
        == (2688, 24, 3, 6)
    with pytest.raises(SystemExit):
        bench.main(["--repeat", "0"])
    assert "--repeat must be at least 1" in capsys.readouterr().err


def test_verdict_counter_counts_the_check_and_hull_blocks(monkeypatch):
    """``bench/verdicts.py`` reads the verdicts ``_majorized`` counts by
    rule, per operation kind.  The sorted entries settle 98 of the 128
    calls of the seed-3 ``check`` block and 67 of the 99 of its ``hull``
    block; robustness checks give no verdict, and ``rado_member`` none
    by domination."""
    verdicts = _load(monkeypatch, "bench_verdicts", VERDICTS)
    workloads = _load(monkeypatch, "perfbench_workloads", PERFBENCH / "workloads.py")
    report = verdicts.count(signpoly, workloads.build_check, 3)
    assert report["total"] == {"largest": 67, "dominated": 31, "sums": 30,
                               "calls": 128}
    assert {kind.rsplit("_", 1)[0] for kind in report} == {
        "check_robust", "check_rado", "check_sign_perm", "total"}
    for kind, rules in report.items():
        if kind.startswith("check_robust"):
            assert sum(rules.values()) == 0, kind
        if kind.startswith("check_rado"):
            assert rules["dominated"] == 0, kind
    report = verdicts.count(signpoly, workloads.build_hull, 3)
    assert report["total"] == {"largest": 12, "dominated": 55, "sums": 32,
                               "calls": 99}


#: 16 lines, 6 of them code: the two lines of the string that is not a
#: docstring count, the docstrings, comments and blank lines do not.
_LOC_MODULE = '''"""Module docstring
over two lines."""
import os  # a comment

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        s = """a string, not
a docstring"""
        return s + os.sep
'''


def test_raw_pricing_bench_answers_times_out_and_compares(monkeypatch):
    """``bench/raw_pricing.py`` answers a raw hull query with the
    kernel's count of its pivots; cuts a call that outlasts its limit as
    ``timeout``; and compares two runs only where both answered."""
    bench = _load(monkeypatch, "bench_raw_pricing", RAW_PRICING)
    V = enumerate_sign_perm_vertices([2.0, 1.0, 0.0]).array
    raw = signpoly.VertexSet(V)
    (x,) = bench.probes(V, True, 1, 0)
    with signpoly._counts._counting() as counts:
        rec = bench.ask(signpoly, lambda: signpoly.hull_member_lp(x, raw), 5.0)
    assert rec["answer"] is True and rec["pivots"] > 0
    assert counts.pivots == 0  # the query's pivots went to its own block
    assert bench.ask(signpoly, lambda: time.sleep(5.0), 0.05)["answer"] == "timeout"
    old = {"row": [{"answer": True}, {"answer": "timeout"}, {"answer": False}]}
    new = {"row": [{"answer": False}, {"answer": True}, {"answer": "solver failed"}]}
    assert bench.compare(old, new) == {"row": {"verdicts_differ": [0],
                                               "answered_only_old": [2],
                                               "answered_only_new": [1]}}


def test_loc_counts_code_lines(tmp_path, monkeypatch, capsys):
    """``bench/loc.py`` counts lines as ``wc -l`` does and code lines
    as lines holding a token outside docstrings and comments."""
    loc = _load(monkeypatch, "bench_loc", LOC)
    (tmp_path / "mod.py").write_text(_LOC_MODULE)
    (tmp_path / "empty.py").write_text("")
    assert loc.main(["--src", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["modules"] == {"empty.py": {"lines": 0, "code": 0},
                                 "mod.py": {"lines": 16, "code": 6}}
    assert report["total"] == {"lines": 16, "code": 6}
    assert report["public_names"] is None  # no __init__.py


def test_loc_reads_the_public_names(tmp_path, monkeypatch, capsys):
    """``bench/loc.py`` reports the length of the package's ``__all__``,
    parsed from its ``__init__.py`` without importing it: 44 on this
    tree, and that of any list or tuple assigned to it."""
    loc = _load(monkeypatch, "bench_loc", LOC)
    assert loc.main([]) == 0
    assert json.loads(capsys.readouterr().out)["public_names"] == len(PUBLIC_NAMES) == 44
    (tmp_path / "__init__.py").write_text('"""Doc."""\nimport os\n__all__ = ("a", "b")\n')
    assert loc.public_names(tmp_path / "__init__.py") == 2
    (tmp_path / "__init__.py").write_text("import os\n")
    assert loc.public_names(tmp_path / "__init__.py") is None
