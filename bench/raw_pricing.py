"""Verdicts, pivots and times of hull queries over raw wide vertex sets.

A raw array (or a :class:`VertexSet` built from one) is priced from its
LP matrix ``[V^T; 1]``, whatever its width; only listed sets are priced
by sort.  This script asks raw copies of three listings wider than 2^14
rows, each at scale 1 and 2^30:

- ``signed8``: the 26,880 signed permutations of (4, 3, 2, 1, 0, 0, 0, 0);
- ``signed9``: the 483,840 signed permutations of ``N9_BASE``
  (``perfbench/workloads.py``);
- ``unsigned8``: the 40,320 permutations of (0, ..., 7);

each ``aimed`` (``hull_member_lp`` on a ``VertexSet`` of the raw array)
and ``unaimed`` (``feasible_nonneg`` on its LP matrix and ``[x; 1]``).
Per set and scale, ``--probes`` probes (default 6) are drawn from
``default_rng(seed)``: alternately a Dirichlet mix of 20 vertices and
a vertex scaled about the set's centroid by a factor in [0.9, 1.1].
Every probe gets ``--limit`` seconds (default 20) of wall time, cut by
``SIGALRM``, so a phase 1 that pivots on for minutes reads
``timeout``.  ``--src`` picks the ``signpoly`` to run, so two checkouts
compare exactly::

    python3 bench/raw_pricing.py --out new.json
    python3 bench/raw_pricing.py --src ../parent/src --out old.json
    python3 bench/raw_pricing.py --compare old.json new.json

A run writes, per row (set, scale, aimed or not), each probe's answer
(``true``, ``false``, ``timeout`` or the solver failure's text), its
pivots and its milliseconds, and prints per row the answers, the total
pivots and the median time.  The pivots are the kernel's own count,
read from ``signpoly._counts._counting()`` (a pivot loop cut by the
alarm still adds its pivots); a ``--src`` tree without
``signpoly._counts`` is refused with exit status 2.  ``--compare``
prints, per row, the probes whose verdicts differ where both runs
answered and the probes that one run answered and the other did not.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N9_BASE = [5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]
SETS = {"signed8": (True, [4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
        "signed9": (True, N9_BASE),
        "unsigned8": (False, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])}
SCALES = {"x1": 1.0, "x2^30": 2.0**30}


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def probes(V, signed: bool, count: int, seed: int) -> list:
    """``count`` probes of the rows of ``V``: Dirichlet mixes of 20
    vertices and vertices scaled about the centroid, alternately."""
    rng = np.random.default_rng(seed)
    centroid = np.zeros(V.shape[1]) if signed else np.full(V.shape[1], V[0].mean())
    out = []
    for i in range(count):
        if i % 2 == 0:
            out.append(rng.dirichlet(np.ones(20)) @ V[rng.choice(len(V), 20, replace=False)])
        else:
            out.append(centroid + rng.uniform(0.9, 1.1) * (V[rng.integers(len(V))] - centroid))
    return out


def ask(sp, call, limit: float) -> dict:
    """Run ``call()`` under a ``limit``-second alarm, counting pivots."""
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    with sp._counts._counting() as counts:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            answer = bool(call()[0])
        except _Timeout:
            answer = "timeout"
        except sp.errors.SolverFailureError as exc:
            answer = str(exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return {"answer": answer, "pivots": counts.pivots,
            "ms": round(1e3 * (time.perf_counter() - start), 2)}


def run(sp, count: int, seed: int, limit: float) -> dict:
    rows = {}
    for name, (signed, base) in SETS.items():
        listing = (sp.geometry.enumerate_sign_perm_vertices if signed
                   else sp.geometry.enumerate_perm_vertices)
        for label, scale in SCALES.items():
            V = listing(scale * np.array(base)).array
            raw = sp.geometry.VertexSet(V)
            A = raw._columns()
            xs = probes(V, signed, count, seed)
            rows[f"{name} {label} aimed"] = [
                ask(sp, lambda: sp.geometry.hull_member_lp(x, raw), limit) for x in xs]
            rows[f"{name} {label} unaimed"] = [
                ask(sp, lambda: sp.simplex.feasible_nonneg(A, np.append(x, 1.0)), limit)
                for x in xs]
            del raw, A  # free the n = 9 matrix before the next listing
    return rows


def summary(rows: dict) -> dict:
    """Per row the answers (a solver failure as ``failure``), the total
    pivots and the median milliseconds."""
    short = lambda answer: answer if isinstance(answer, bool) or answer == "timeout" \
        else "failure"
    return {row: {"answers": [short(r["answer"]) for r in recs],
                  "pivots": sum(r["pivots"] for r in recs),
                  "median_ms": float(np.median([r["ms"] for r in recs]))}
            for row, recs in rows.items()}


def compare(old: dict, new: dict) -> dict:
    """Per row, the probes whose verdicts differ where both answered, and
    the probes that only one run answered."""
    out = {}
    for row in old:
        a = [r["answer"] for r in old[row]]
        b = [r["answer"] for r in new[row]]
        out[row] = {
            "verdicts_differ": [i for i, (u, v) in enumerate(zip(a, b))
                                if isinstance(u, bool) and isinstance(v, bool) and u != v],
            "answered_only_old": [i for i, (u, v) in enumerate(zip(a, b))
                                  if isinstance(u, bool) and not isinstance(v, bool)],
            "answered_only_new": [i for i, (u, v) in enumerate(zip(a, b))
                                  if isinstance(v, bool) and not isinstance(u, bool)]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the signpoly package")
    parser.add_argument("--probes", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--limit", type=float, default=20.0,
                        help="seconds of wall time per probe")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        print(json.dumps(compare(old, new), indent=1))
        return 0
    if not (args.src / "signpoly" / "_counts.py").is_file():
        print(f"{args.src}: signpoly does not count its own work (no signpoly._counts)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(args.src.resolve()))
    sp = importlib.import_module("signpoly")
    for sub in ("_counts", "errors", "geometry"):
        importlib.import_module(f"signpoly.{sub}")
    rows = run(sp, args.probes, args.seed, args.limit)
    if args.out:
        args.out.write_text(json.dumps(rows, indent=1))
    print(json.dumps(summary(rows), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
