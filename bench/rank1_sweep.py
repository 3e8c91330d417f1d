"""Time one phase-1 solve with each rank-1 update path of the simplex
pivot, across tableau sizes, to place ``simplex.ROW_UPDATE_BYTES``.

Both paths do the same arithmetic element by element, so the pivot
sequence and the answer are identical and only the update differs: the
whole tableau at once by one ``np.outer`` product, or one row at a
time.  The systems are hull systems ``[V^T; 1] z = [x; 1]`` over ``m``
random Gaussian points in ``n`` dimensions with ``x`` a random convex
combination of them (rows ``n + 1``, columns ``m``), the shape of the
``hull`` probes and of the ``construct`` ray LPs.  The two paths
alternate within each repetition::

    python3 bench/rank1_sweep.py --reps 101 --seed 1

Prints a JSON list with one entry per ``(n, m)``: the pivots, the
tableau size in KB and the median seconds of each path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = ([(8, m) for m in (20, 200, *range(1000, 15001, 1000), 27000)]
         + [(15, m) for m in (30, 300)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=101)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from signpoly import simplex

    rng = np.random.default_rng(args.seed)
    paths = {"outer": 1 << 60, "row_at_a_time": 0}
    rows = []
    for n, m in SIZES:
        V = rng.normal(size=(m, n))
        A = np.vstack([V.T, np.ones((1, m))])
        b = np.append(rng.dirichlet(np.ones(m)) @ V, 1.0)
        times = {name: [] for name in paths}
        for rep in range(args.reps):
            order = list(paths) if rep % 2 == 0 else list(paths)[::-1]
            for name in order:
                simplex.ROW_UPDATE_BYTES = paths[name]
                start = time.perf_counter()
                ok, _ = simplex.feasible_nonneg(A, b)
                times[name].append(time.perf_counter() - start)
                assert ok
        pivots = simplex._phase1(A, b, 50 * (n + 1 + m))[4]
        rows.append({"n": n, "m": m, "pivots": pivots,
                     "tableau_kb": round((n + 1) * (m + n + 2) * 8 / 1024, 1),
                     **{name: float(np.median(t)) for name, t in times.items()}})
    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
