"""Scales and certificates of ``construct`` over a fixed sweep of random
decompositions.

Two blocks, reported separately:

- ``sweep``: seeds 0-899 with d in {2, 3}, ``m = d^2 + seed mod 20``
  members and Dirichlet concentration 0.2 (targets near the hull
  boundary), plus seeds 0-149 with the same d and m at concentration
  1.0: 2,100 decompositions, drawn as ``_random_decomposition`` in
  ``tests/test_algorithms.py`` draws them;
- ``stress``: 450 larger or centred decompositions.  360 are drawn the
  same way with d = 4, 5, 6 and m = 40, 60, 80, at concentrations 1.0
  and 0.2, on seeds 0-99, 0-59 and 0-19.  90 are centred on the
  maximally mixed state, drawn as ``_centred_decomposition`` in the
  tests draws them: for d = 3, 4, 5, 6, K = d + 1 Haar unitaries ``U``
  each with a Dirichlet(1) spectrum ``p``, the d members ``U
  diag(roll(p, j)) U^+`` per ``U`` and uniform weights, on seeds 0-29,
  0-29, 0-19 and 0-9.

Every decomposition is written as a document and read back through
``stateio.load_decomposition``, so the same script runs any checkout
that reads decomposition documents.  ``--src`` picks the ``signpoly``
to run, so two checkouts compare exactly::

    python3 bench/sweep.py --out new.json
    python3 bench/sweep.py --src ../parent/src --out old.json
    python3 bench/sweep.py --compare old.json new.json

A run writes, per case, the scale as ``repr(float)`` (or the error it
raised), whether ``certificate_holds`` accepts the result, and the
sha256 of the certificate's ``t``, ``witnesses`` and ``hyperplane``
bytes, and prints the totals per block.  ``--compare`` prints per block
how many scales differ at all between two runs, the largest difference,
and how many certificates differ in any bit.  The
centred block needs scipy (``scipy.stats.unitary_group``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: (d, m, concentration, seeds) of the random stress cases
STRESS = ((4, 40, 1.0, 100), (4, 40, 0.2, 100), (5, 60, 1.0, 60),
          (5, 60, 0.2, 60), (6, 80, 1.0, 20), (6, 80, 0.2, 20))
#: (d, seeds) of the centred stress cases, with K = d + 1 unitaries
CENTRED = ((3, 30), (4, 30), (5, 20), (6, 10))


def cases():
    """``(block, key, draw, args)`` per case; ``draw(*args)`` returns
    the target, the members and the weights."""
    for concentration, seeds in ((0.2, range(900)), (1.0, range(150))):
        for seed in seeds:
            for d in (2, 3):
                m = d * d + seed % 20
                yield ("sweep", f"{seed}/{d}/{m}/{concentration}",
                       random_matrices, (seed, d, m, concentration))
    for d, m, concentration, seeds in STRESS:
        for seed in range(seeds):
            yield ("stress", f"{seed}/{d}/{m}/{concentration}",
                   random_matrices, (seed, d, m, concentration))
    for d, seeds in CENTRED:
        for seed in range(seeds):
            yield ("stress", f"centred/{seed}/{d}/{d + 1}",
                   centred_matrices, (seed, d, d + 1))


def random_matrices(seed, d, m, concentration):
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(m):
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = G @ G.conj().T
        members.append(M / np.trace(M).real)
    weights = rng.dirichlet(np.full(m, concentration))
    target = sum(w * M for w, M in zip(weights, members))
    return target, members, weights


def centred_matrices(seed, d, K):
    from scipy.stats import unitary_group

    rng = np.random.default_rng(seed)
    members = []
    for _ in range(K):
        U = unitary_group.rvs(d, random_state=rng)
        p = rng.dirichlet(np.ones(d))
        members += [U @ np.diag(np.roll(p, j)) @ U.conj().T for j in range(d)]
    weights = np.full(K * d, 1.0 / (K * d))
    target = sum(w * M for w, M in zip(weights, members))
    return target, members, weights


def load(sp, path: Path, target, members, weights):
    """The decomposition as ``stateio.load_decomposition`` reads it back
    from a document written to ``path``."""
    doc = sp.stateio.decomposition_document(len(target), target, members, weights)
    sp.stateio.save_document(path, doc)
    return sp.stateio.load_decomposition(path)


def digest(cert) -> str:
    """sha256 of the bytes of ``t``, ``witnesses`` and ``hyperplane``."""
    h = hashlib.sha256()
    for a in (cert.t, cert.witnesses, cert.hyperplane):
        h.update(a.tobytes())
    return h.hexdigest()


def run(sp) -> dict:
    results, blocks = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "decomposition.json"
        for block, key, draw, args in cases():
            dec = load(sp, path, *draw(*args))
            blocks.setdefault(block, []).append(key)
            try:
                poly = sp.max_inscribed_cross_polytope(dec)
            except sp.SolverFailureError as exc:
                results[key] = {"error": str(exc)}
                continue
            results[key] = {"alpha": repr(poly.alpha),
                            "certificate": bool(sp.certificate_holds(poly)),
                            "digest": digest(poly.certificate)}
    totals = {}
    for block, keys in blocks.items():
        done = [results[k] for k in keys if "alpha" in results[k]]
        totals[block] = {"cases": len(keys), "raises": len(keys) - len(done),
                         "certificate_failures": sum(not r["certificate"]
                                                     for r in done)}
    return {"blocks": totals, "keys": blocks, "results": results}


def compare(old: dict, new: dict) -> dict:
    report = {}
    for block, keys in new["keys"].items():
        both = [k for k in keys
                if "alpha" in old["results"][k] and "alpha" in new["results"][k]]
        diffs = [abs(float(old["results"][k]["alpha"])
                     - float(new["results"][k]["alpha"])) for k in both]
        report[block] = {
            "compared": len(both),
            "alphas_differing": sum(d != 0.0 for d in diffs),
            "max_abs_difference": max(diffs, default=0.0),
            "certificates_differing": sum(
                old["results"][k]["digest"] != new["results"][k]["digest"]
                for k in both),
            "raises": [old["blocks"][block]["raises"], new["blocks"][block]["raises"]],
            "certificate_failures": [old["blocks"][block]["certificate_failures"],
                                     new["blocks"][block]["certificate_failures"]]}
    return report


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
    importlib.import_module("signpoly.stateio")
    report = run(sp)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report["blocks"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
