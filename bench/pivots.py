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
of one warm ``hull_member_lp`` call (each probe asked a second time);
the same, less ``peak_bytes``, per ``n9`` kind, against
``sign_perm_member``; for the ``construct`` block and the d=5 case the
phase-1 solves from the artificial basis and the mean pivots per
``construct``, split by where they happen:

- ``phase1``: in those phase-1 solves (one shared solve per
  ``construct``, or one per ray LP where phase 1 is not shared);
- ``drive_out``: artificials pivoted out between the phases;
- ``phase2``: phase 2;

and the mean basis inversions (``np.linalg.inv`` calls) per
``construct``, split the same way:

- ``phase1``: in phase 1, its ``REFRESH_EVERY`` refreshes and the
  rebuild that ends it;
- ``refresh``: the ``REFRESH_EVERY`` refreshes of phase 2;
- ``batch``: the one batched inversion that rebuilds every ray's final
  basis after the last ray.

The d=5 case also reports its alpha, or the solver failure it raised.
No wall time is taken: one unpaired timing of one tree varies from run
to run by more than the changes it would compare; pivot counts and
traced bytes do not depend on the clock.  ``--stall-limit``
overrides ``simplex.STALL_LIMIT``, the run of pivots that leave the
objective unchanged after which Bland's rule takes over, for a sweep
of that constant.  The columns priced are counted through
``simplex._price``, whose first argument is the matrix priced, and sort
pricings through ``simplex._sort_price``; the aimed first pass prices
through one of those two as well.  Passes are counted through the
``least`` and ``aligned`` methods of ``simplex._Whole`` and
``simplex._Sorted`` (``price``, not ``least``, in checkouts whose
sources write their own Bland's rule), and an aimed entry is a pass
through ``aligned`` followed by a pivot with no other pass between.
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


class PivotCounter:
    """Counts the pivots of ``sp.simplex`` by where they happen (the keys
    of :data:`KINDS`) while it is entered, the phase-1 solves from the
    artificial basis, the real columns priced, the passes priced by one
    sort, the pricing passes, the objective value at which the last
    phase-1 pivot loop ended, the aimed columns that entered, and the
    basis inversions
    (the keys of :data:`INVERSIONS`): in phase 1, single inversions
    elsewhere (the phase-2 refreshes), and stacked ones (the batched
    rebuild)."""

    KINDS = ("phase1", "drive_out", "phase2")
    INVERSIONS = ("phase1", "refresh", "batch")

    def __init__(self, sp):
        self.simplex = sp.simplex
        self.counts = dict.fromkeys(self.KINDS, 0)
        self.inversions = dict.fromkeys(self.INVERSIONS, 0)
        self.phase1_solves = 0
        self.priced = 0
        self.sorts = 0
        self.passes = 0
        self.objective = None
        self.aimed = 0
        self._aiming = False  # a pass through aligned, not yet followed
        self._where = ["drive_out"]

    def _inside(self, kind, fn, *args, **kwargs):
        self._where.append(kind)
        try:
            return fn(*args, **kwargs)
        finally:
            self._where.pop()

    def __enter__(self):
        simplex = self.simplex
        self._saved = simplex._pivot, simplex._phase1, simplex._pivot_loop
        pivot, phase1, loop = self._saved
        linalg = simplex.np.linalg
        self._inv = inv = linalg.inv

        def counted_inv(B):
            kind = ("phase1" if self._where[-1] == "phase1"
                    else "batch" if B.ndim > 2 else "refresh")
            self.inversions[kind] += 1
            return inv(B)

        def counted_pivot(*args):
            self.counts[self._where[-1]] += 1
            self.aimed += self._aiming
            self._aiming = False
            return pivot(*args)

        def counted_phase1(*args, **kwargs):
            self.phase1_solves += 1
            return self._inside("phase1", phase1, *args, **kwargs)

        self._price = price = simplex._price

        def counted_price(A, *args):
            self.priced += A.shape[1]
            return price(A, *args)

        self._sort_price = sort_price = simplex._sort_price

        def counted_sort_price(*args):
            self.sorts += 1
            return sort_price(*args)

        self._methods = {(cls, name): getattr(cls, name)
                         for cls in (simplex._Whole, simplex._Sorted)
                         for name in ("least", "price", "aligned") if hasattr(cls, name)}

        def counting(name, method):
            def counted(pricing, *args):
                self.passes += 1
                self._aiming = name == "aligned"
                return method(pricing, *args)
            return counted

        def counted_loop(state, *args, phase, **kwargs):
            iterations, outcome = self._inside(f"phase{phase}", loop, state, *args,
                                               phase=phase, **kwargs)
            if phase == 1:  # the sum of the basic artificials
                self.objective = float(state.T[:, -1] @ (state.basis >= state.A.shape[1]))
            return iterations, outcome

        simplex._pivot = counted_pivot
        simplex._phase1 = counted_phase1
        simplex._pivot_loop = counted_loop
        simplex._price = counted_price
        simplex._sort_price = counted_sort_price
        for (cls, name), method in self._methods.items():
            setattr(cls, name, counting(name, method))
        linalg.inv = counted_inv
        return self

    def __exit__(self, *exc):
        simplex = self.simplex
        simplex._pivot, simplex._phase1, simplex._pivot_loop = self._saved
        simplex._price, simplex._sort_price = self._price, self._sort_price
        for (cls, name), method in self._methods.items():
            setattr(cls, name, method)
        simplex.np.linalg.inv = self._inv

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def count_pivots(sp, call):
    """Run ``call()`` and return ``(pivot counter, result or exception)``."""
    with PivotCounter(sp) as counter:
        try:
            result = call()
        except sp.errors.SolverFailureError as exc:
            result = exc
    return counter, result


def hull_peak_bytes(sp, call) -> int:
    """The tracemalloc peak, in bytes, of the one ``hull_member_lp`` call
    that ``call()`` makes through ``sp.geometry``; a solver failure
    still counts the bytes it traced."""
    geometry = sp.geometry
    hull = geometry.hull_member_lp
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return hull(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    geometry.hull_member_lp = traced
    try:
        call()
    except sp.errors.SolverFailureError:
        pass
    finally:
        geometry.hull_member_lp = hull
    (peak,) = peaks
    return peak


def _per_kind(sp, queries, peak: bool) -> dict:
    """Per kind of the ``(kind, call, agrees)`` queries: the probes, the
    mean, smallest and largest pivot count, the mean columns priced,
    sort pricings and pricing passes, the share of aimed first pivots,
    the solver failures,
    the answers ``agrees`` refuses and, with ``peak``, the median of
    :func:`hull_peak_bytes`."""
    kinds = defaultdict(lambda: {"pivots": [], "priced": [], "sorts": [], "passes": [],
                                 "aimed": [], "failures": 0, "wrong": 0,
                                 "peak_bytes": []})
    for kind, call, agrees in queries:
        counter, answer = count_pivots(sp, call)
        rec = kinds[kind]
        rec["pivots"].append(counter.total)
        rec["priced"].append(counter.priced)
        rec["sorts"].append(counter.sorts)
        rec["passes"].append(counter.passes)
        rec["aimed"].append(counter.aimed > 0)
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


def _per_construct(counters) -> dict:
    """Mean phase-1 solves, pivots and basis inversions per ``construct``
    over ``counters``."""
    mean = lambda values: round(float(np.mean(values)), 2)
    pivots = {kind: mean([c.counts[kind] for c in counters])
              for kind in PivotCounter.KINDS}
    pivots["total"] = mean([c.total for c in counters])
    inversions = {kind: mean([c.inversions[kind] for c in counters])
                  for kind in PivotCounter.INVERSIONS}
    inversions["total"] = mean([sum(c.inversions.values()) for c in counters])
    return {"phase1_solves": mean([c.phase1_solves for c in counters]),
            "pivots": pivots, "inversions": inversions}


def construct_pivots(sp, workloads, seed: int) -> dict:
    counters = []
    wrong = 0
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build_construct(np.random.default_rng(seed), Path(tmp), sp)
        for op in wl.blocks[0]:
            counter, answer = count_pivots(sp, op.call)
            counters.append(counter)
            wrong += isinstance(answer, Exception) or not op.agrees(answer)
    return {"decompositions": len(counters), **_per_construct(counters),
            "wrong": wrong}


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
    counter, poly = count_pivots(
        sp, lambda: sp.max_inscribed_cross_polytope(dec))
    result = {"d": d, "m": m, **_per_construct([counter])}
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
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    sp = importlib.import_module("signpoly")
    for sub in ("algorithms", "cli", "errors", "geometry", "majorization", "simplex",
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
