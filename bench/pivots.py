"""Simplex pivot counts on the benchmark's ``hull`` and ``construct`` inputs.

Pivot counts do not depend on the machine, so they compare two versions
of the LP kernel exactly.  The inputs are those of one ``hull`` block
and the first ``construct`` block of ``perfbench/workloads.py`` for the
given seed, plus one larger ``construct`` (d=5, m=60, drawn from the same
seed) and 13 queries of the 483,840 signed permutations of
``N9_BASE`` (``n9``: 5 Dirichlet mixes of 3,000 vertices and 8 vertices
scaled by a factor in [0.9, 1.1], drawn from the same seed).  ``--src``
picks the ``signpoly`` to count, so the same command measures another
checkout::

    python3 bench/pivots.py --seed 3
    python3 bench/pivots.py --seed 3 --src ../parent/src
    python3 bench/pivots.py --seed 3 --stall-limit 5

Prints one JSON object: per ``hull`` probe kind the number of probes,
the mean, smallest and largest pivot count, ``priced``, the mean number
of columns of an LP matrix priced per query, ``sorts``, the mean number
of passes priced by one sort per query (the sets listed with more than
2^14 rows), ``passes``, the mean number of pricing
passes per query (one per pivot, one more where a pivot loop ends by
finding its basis optimal, and one more where the aimed column does not
enter), ``aimed``, the share of queries whose first
pivot entered the vertex most aligned with the probe (the aimed start
of phase 1), the solver failures, the answers that
disagree with the oracle and ``peak_bytes``, the median tracemalloc peak
of one warm query (each probe asked a second time);
the same, less ``peak_bytes``, per ``n9`` kind, against
``sign_perm_member``; for the ``construct`` block and the d=5 case the
phase-1 solves from the artificial basis and the mean pivots per
``construct``, split by where they happen:

- ``phase1``: in those phase-1 solves (one shared solve per
  ``construct``, or one per ray LP where phase 1 is not shared);
- ``drive_out``: artificials pivoted out between the phases;
- ``phase2``: phase 2;

and the mean basis inversions per ``construct``, split the same way:

- ``phase1``: in phase 1, its ``REFRESH_EVERY`` refreshes and the
  rebuild that ends it;
- ``refresh``: the ``REFRESH_EVERY`` refreshes of phase 2;
- ``batch``: the one batched inversion that rebuilds every ray's final
  basis after the last ray.

The d=5 case also reports its alpha, or the solver failure it raised.
Every ``hull`` and ``n9`` kind, the ``construct`` block and the d=5
case also report ``bland``, the mean passes that applied Bland's rule
(the entering column it picks, where it picks one, enters).
No wall time is taken: one unpaired timing of one tree varies from run
to run by more than the changes it would compare; pivot counts and
traced bytes do not depend on the clock.  ``--stall-limit``
overrides ``simplex.STALL_LIMIT``, the run of pivots that leave the
objective unchanged after which Bland's rule takes over, for a sweep
of that constant.

Every count is the kernel's own: each query runs inside
``signpoly._counts._counting()``, and the script reads the counts it
yields (see the ``_counts`` module docstring).  A ``--src`` tree
without ``signpoly._counts`` is refused with exit status 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import tempfile
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Where pivots happen, as ``_counts._Counts`` names them.
KINDS = ("phase1", "drive_out", "phase2")
#: The basis inversions reported, and the ``_counts._Counts`` names they read.
INVERSIONS = {"phase1": "phase1_inversions", "refresh": "phase2_inversions",
              "batch": "batch_inversions"}


def count_pivots(sp, call):
    """Run ``call()`` and return ``(the kernel's counts, result or
    exception)``."""
    with sp._counts._counting() as counts:
        try:
            result = call()
        except sp.errors.SolverFailureError as exc:
            result = exc
    return counts, result


def hull_peak_bytes(sp, call) -> int:
    """The tracemalloc peak, in bytes, of one ``call()`` of a ``hull``
    query (its ``hull_member_lp`` call and then the
    ``sign_perm_member`` call beside it, which allocates far less); a
    solver failure still counts the bytes it traced.  The kernel's counts
    are made fresh before the trace starts."""
    with sp._counts._counting():
        tracemalloc.start()
        try:
            call()
        except sp.errors.SolverFailureError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    return peak


def _per_kind(sp, queries, peak: bool) -> dict:
    """Per kind of the ``(kind, call, agrees)`` queries: the probes, the
    mean, smallest and largest pivot count, the mean columns priced,
    sort pricings and pricing passes, the share of aimed first pivots,
    the solver failures,
    the answers ``agrees`` refuses and, with ``peak``, the median of
    :func:`hull_peak_bytes`."""
    kinds = defaultdict(lambda: {"pivots": [], "priced": [], "sorts": [], "passes": [],
                                 "aimed": [], "bland": [], "failures": 0, "wrong": 0,
                                 "peak_bytes": []})
    for kind, call, agrees in queries:
        counts, answer = count_pivots(sp, call)
        rec = kinds[kind]
        for name in ("pivots", "priced", "sorts", "passes", "bland"):
            rec[name].append(getattr(counts, name))
        rec["aimed"].append(counts.aimed > 0)
        if isinstance(answer, Exception):
            rec["failures"] += 1
        elif not agrees(answer):
            rec["wrong"] += 1
        if peak:
            rec["peak_bytes"].append(hull_peak_bytes(sp, call))
    return {kind: {"probes": len(rec["pivots"]),
                   "mean": round(float(np.mean(rec["pivots"])), 1),
                   "min": int(min(rec["pivots"])), "max": int(max(rec["pivots"])),
                   "priced": round(float(np.mean(rec["priced"]))),
                   "sorts": round(float(np.mean(rec["sorts"])), 1),
                   "passes": round(float(np.mean(rec["passes"])), 1),
                   "aimed": round(float(np.mean(rec["aimed"])), 2),
                   "bland": round(float(np.mean(rec["bland"])), 1),
                   "failures": rec["failures"], "wrong": rec["wrong"],
                   **({"peak_bytes": int(np.median(rec["peak_bytes"]))}
                      if peak else {})}
            for kind, rec in sorted(kinds.items())}


def hull_queries(sp, workloads, seed: int) -> list:
    """The ``(kind, call, agrees)`` queries of one ``hull`` block."""
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build_hull(np.random.default_rng(seed), Path(tmp), sp)
    return [(op.kind, op.call, op.agrees) for op in wl.blocks[0]]


def hull_pivots(sp, workloads, seed: int) -> dict:
    return _per_kind(sp, hull_queries(sp, workloads, seed), peak=True)


def n9_queries(sp, workloads, seed: int, mixes: int = 5, scaled: int = 8,
               support: int = 3000) -> list:
    """The ``(kind, call, agrees)`` hull queries of the 483,840 signed
    permutations of ``N9_BASE``: ``mixes`` Dirichlet mixes of
    ``support`` vertices and ``scaled`` vertices scaled by a factor in
    [0.9, 1.1], against ``sign_perm_member``."""
    base = np.array(workloads.N9_BASE)
    verts = sp.geometry.enumerate_sign_perm_vertices(base)
    V = verts.array
    rng = np.random.default_rng(seed)
    probes = [("mix", rng.dirichlet(np.ones(support))
               @ V[rng.choice(len(V), support, replace=False)])
              for _ in range(mixes)]
    probes += [("scaled", rng.uniform(0.9, 1.1) * V[rng.integers(len(V))])
               for _ in range(scaled)]

    def query(kind, x):
        want = sp.majorization.sign_perm_member(x, base)
        return (kind, lambda: sp.geometry.hull_member_lp(x, verts),
                lambda answer: answer[0] == want)

    return [query(kind, x) for kind, x in probes]


def n9_pivots(sp, workloads, seed: int, **sizes) -> dict:
    """:func:`_per_kind` of the :func:`n9_queries` of ``sizes``."""
    return _per_kind(sp, n9_queries(sp, workloads, seed, **sizes), peak=False)


def _per_construct(counts) -> dict:
    """Mean phase-1 solves, pivots, basis inversions and Bland's rule
    passes per ``construct`` over the kernel's ``counts``."""
    mean = lambda name: round(float(np.mean([getattr(c, name) for c in counts])), 2)
    pivots = {kind: mean(kind) for kind in KINDS}
    pivots["total"] = mean("pivots")
    inversions = {kind: mean(name) for kind, name in INVERSIONS.items()}
    inversions["total"] = round(float(np.mean(
        [sum(getattr(c, name) for name in INVERSIONS.values()) for c in counts])), 2)
    return {"phase1_solves": mean("solves"), "pivots": pivots, "inversions": inversions,
            "bland": mean("bland")}


def construct_pivots(sp, workloads, seed: int) -> dict:
    counts = []
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build_construct(np.random.default_rng(seed), Path(tmp), sp)
        for op in wl.blocks[0]:
            op_counts, answer = count_pivots(sp, op.call)
            counts.append(op_counts)
            wrong += isinstance(answer, Exception) or not op.agrees(answer)
    return {"decompositions": len(counts), **_per_construct(counts), "wrong": wrong}


def _random_decomposition(sp, rng, d: int, m: int):
    """m Hilbert-Schmidt random states of dimension d and a Dirichlet(1)
    mix of them as the target, read back through
    ``stateio.load_decomposition`` from a document."""
    members = []
    for _ in range(m):
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = G @ G.conj().T
        members.append(M / np.trace(M).real)
    weights = rng.dirichlet(np.ones(m))
    target = sum(w * M for w, M in zip(weights, members))
    doc = sp.stateio.decomposition_document(d, target, members, weights)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "decomposition.json"
        sp.stateio.save_document(path, doc)
        return sp.stateio.load_decomposition(path)


def large_construct_pivots(sp, seed: int, d: int = 5, m: int = 60) -> dict:
    dec = _random_decomposition(sp, np.random.default_rng(seed), d, m)
    counts, poly = count_pivots(sp, lambda: sp.max_inscribed_cross_polytope(dec))
    result = {"d": d, "m": m, **_per_construct([counts])}
    if isinstance(poly, Exception):
        return {**result, "failure": str(poly)}
    return {**result, "alpha": poly.alpha}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the signpoly package")
    parser.add_argument("--stall-limit", type=int,
                        help="override simplex.STALL_LIMIT")
    args = parser.parse_args(argv)
    if not (args.src / "signpoly" / "_counts.py").is_file():
        print(f"{args.src}: signpoly does not count its own work (no signpoly._counts)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    sp = importlib.import_module("signpoly")
    for sub in ("_counts", "algorithms", "cli", "errors", "geometry", "majorization",
                "stateio"):
        importlib.import_module(f"signpoly.{sub}")
    workloads = importlib.import_module("workloads")
    if args.stall_limit is not None:
        sp.simplex.STALL_LIMIT = args.stall_limit
    print(json.dumps({"seed": args.seed,
                      "stall_limit": getattr(sp.simplex, "STALL_LIMIT", None),
                      "hull": hull_pivots(sp, workloads, args.seed),
                      "n9": n9_pivots(sp, workloads, args.seed),
                      "construct": construct_pivots(sp, workloads, args.seed),
                      "construct_large": large_construct_pivots(sp, args.seed)},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
