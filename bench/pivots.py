"""Simplex pivot counts on the benchmark's ``hull`` and ``construct`` inputs.

Pivot counts do not depend on the machine, so they compare two versions
of the LP kernel exactly.  The inputs are those of one ``hull`` block
and the first ``construct`` block of ``perfbench/workloads.py`` for the
given seed.  ``--src`` picks the ``signpoly`` to count, so the same
command measures another checkout::

    python3 bench/pivots.py --seed 3
    python3 bench/pivots.py --seed 3 --src ../parent/src
    python3 bench/pivots.py --seed 3 --stall-limit 5

Prints one JSON object: per ``hull`` probe kind the number of probes,
the mean, smallest and largest pivot count, the solver failures and the
answers that disagree with the oracle; for ``construct`` the ray LPs
solved and the mean pivots per ray LP.  ``--stall-limit`` overrides
``simplex.STALL_LIMIT``, the degenerate run after which Bland's rule
takes over, for a sweep of that constant.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def count_pivots(sp, call):
    """Run ``call()`` and return ``(pivots, result or exception)``."""
    simplex = sp.simplex
    pivot = simplex._pivot
    count = [0]

    def counted(*args):
        count[0] += 1
        return pivot(*args)

    simplex._pivot = counted
    try:
        result = call()
    except sp.errors.SolverFailureError as exc:
        result = exc
    finally:
        simplex._pivot = pivot
    return count[0], result


def hull_pivots(sp, workloads, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build_hull(np.random.default_rng(seed), Path(tmp), sp)
    kinds = defaultdict(lambda: {"pivots": [], "failures": 0, "wrong": 0})
    for op in wl.blocks[0]:
        pivots, answer = count_pivots(sp, op.call)
        rec = kinds[op.kind]
        rec["pivots"].append(pivots)
        if isinstance(answer, Exception):
            rec["failures"] += 1
        elif not op.agrees(answer):
            rec["wrong"] += 1
    return {kind: {"probes": len(rec["pivots"]),
                   "mean": round(float(np.mean(rec["pivots"])), 1),
                   "min": int(min(rec["pivots"])), "max": int(max(rec["pivots"])),
                   "failures": rec["failures"], "wrong": rec["wrong"]}
            for kind, rec in sorted(kinds.items())}


def construct_pivots(sp, workloads, seed: int) -> dict:
    algorithms = sp.algorithms
    minimize = algorithms.minimize_nonneg
    solves = [0]

    def counted(*args, **kwargs):
        solves[0] += 1
        return minimize(*args, **kwargs)

    algorithms.minimize_nonneg = counted
    pivots = wrong = 0
    try:
        with tempfile.TemporaryDirectory() as tmp:
            wl = workloads.build_construct(np.random.default_rng(seed), Path(tmp), sp)
            for op in wl.blocks[0]:
                count, answer = count_pivots(sp, op.call)
                pivots += count
                wrong += not op.agrees(answer)
    finally:
        algorithms.minimize_nonneg = minimize
    return {"decompositions": len(wl.blocks[0]), "ray_lps": solves[0],
            "pivots_per_ray_lp": round(pivots / solves[0], 2), "wrong": wrong}


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
    for sub in ("algorithms", "cli", "errors", "geometry", "majorization", "simplex"):
        importlib.import_module(f"signpoly.{sub}")
    workloads = importlib.import_module("workloads")
    if args.stall_limit is not None:
        sp.simplex.STALL_LIMIT = args.stall_limit
    print(json.dumps({"seed": args.seed,
                      "stall_limit": getattr(sp.simplex, "STALL_LIMIT", None),
                      "hull": hull_pivots(sp, workloads, args.seed),
                      "construct": construct_pivots(sp, workloads, args.seed)},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
