"""Scales and certificates of ``construct`` over a fixed sweep of random
decompositions.

The sweep is seeds 0-899 with d in {2, 3}, ``m = d^2 + seed mod 20``
members and Dirichlet concentration 0.2 (targets near the hull
boundary), plus seeds 0-149 with the same d and m at concentration 1.0:
2,100 decompositions, drawn as ``_random_decomposition`` in
``tests/test_algorithms.py`` draws them.  ``--src`` picks the
``signpoly`` to run, so two checkouts compare exactly::

    python3 bench/sweep.py --out new.json
    python3 bench/sweep.py --src ../parent/src --out old.json
    python3 bench/sweep.py --compare old.json new.json

A run writes, per case, the scale as ``repr(float)`` (or the error it
raised) and whether ``certificate_holds`` accepts the result, and prints
the totals.  ``--compare`` prints how many scales differ at all between
two runs and the largest difference.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def cases():
    for concentration, seeds in ((0.2, range(900)), (1.0, range(150))):
        for seed in seeds:
            for d in (2, 3):
                yield seed, d, d * d + seed % 20, concentration


def random_decomposition(sp, seed, d, m, concentration):
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(m):
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = G @ G.conj().T
        members.append(sp.DensityMatrix(M / np.trace(M).real))
    weights = rng.dirichlet(np.full(m, concentration))
    target = sum(w * M.matrix for w, M in zip(weights, members))
    return sp.DecompositionInput(sp.DensityMatrix(target), tuple(members),
                                 tuple(weights))


def run(sp) -> dict:
    results = {}
    for seed, d, m, concentration in cases():
        dec = random_decomposition(sp, seed, d, m, concentration)
        key = f"{seed}/{d}/{m}/{concentration}"
        try:
            poly = sp.max_inscribed_cross_polytope(dec)
        except sp.SolverFailureError as exc:
            results[key] = {"error": str(exc)}
            continue
        results[key] = {"alpha": repr(poly.alpha),
                        "certificate": bool(sp.certificate_holds(poly))}
    done = [r for r in results.values() if "alpha" in r]
    return {"cases": len(results),
            "raises": len(results) - len(done),
            "certificate_failures": sum(not r["certificate"] for r in done),
            "results": results}


def compare(old: dict, new: dict) -> dict:
    both = [k for k in old["results"]
            if "alpha" in old["results"][k] and "alpha" in new["results"][k]]
    diffs = [abs(float(old["results"][k]["alpha"]) - float(new["results"][k]["alpha"]))
             for k in both]
    return {"compared": len(both),
            "alphas_differing": sum(d != 0.0 for d in diffs),
            "max_abs_difference": max(diffs, default=0.0),
            "raises": [old["raises"], new["raises"]],
            "certificate_failures": [old["certificate_failures"],
                                     new["certificate_failures"]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the signpoly package")
    parser.add_argument("--out", type=Path, help="write the per-case results here")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="compare two written runs instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(p.read_text()) for p in args.compare)
        print(json.dumps(compare(old, new), indent=1))
        return 0
    sys.path.insert(0, str(args.src.resolve()))
    sp = importlib.import_module("signpoly")
    report = run(sp)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({k: v for k, v in report.items() if k != "results"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
