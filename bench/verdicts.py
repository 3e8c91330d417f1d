"""Which rule settles each majorization verdict on the benchmark's inputs.

A majorization predicate sorts both points, then answers from the
sorted entries when they settle the verdict (a largest entry above the
anchor's, or every sorted entry at or below the anchor's) and sums
partial sums only when they do not.  This script counts, for the
inputs of one ``check`` block and one ``hull`` block of
``perfbench/workloads.py`` at the given seed, the calls settled each
way.  The counts do not depend on the machine, and ``--src`` picks the
``signpoly`` to count, so the same command counts another checkout::

    python3 bench/verdicts.py --seed 3
    python3 bench/verdicts.py --seed 3 --src ../parent/src

Prints one JSON object: per workload, per predicate and per length
``n`` of its points, the outermost calls (``rado_member`` calls
``majorizes``, which is not counted again) split by what settled them:

- ``largest``: a non-member answered from the largest entries;
- ``dominated``: a member answered from entrywise domination;
- ``sums``: the calls that reached the partial sums;

and the same three counts over the whole workload.  A call is counted
as reaching the sums when the tree's ``majorization._partial_sums_desc``
runs inside it, and as settled otherwise, by its verdict.  ``hull``
operations also call ``hull_member_lp``; it is replaced by a stub while
they run, since only their ``sign_perm_member`` call is counted.
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
PREDICATES = ("majorizes", "weakly_majorized", "rado_member", "sign_perm_member")
RULES = ("largest", "dominated", "sums")


class VerdictCounter:
    """Counts the outermost calls of the majorization predicates of
    ``sp`` by predicate, by length of the first point and by the rule
    that settled them, while it is entered."""

    def __init__(self, sp):
        self.module = sp.majorization
        self.counts = defaultdict(lambda: defaultdict(lambda: dict.fromkeys(RULES, 0)))
        self._depth = 0
        self._summed = 0

    def _counted(self, name, fn):
        def call(x, a, *args, **kwargs):
            self._depth += 1
            summed = self._summed
            try:
                verdict = fn(x, a, *args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                rule = ("sums" if self._summed > summed
                        else "dominated" if verdict else "largest")
                self.counts[name][len(x)][rule] += 1
            return verdict
        return call

    def __enter__(self):
        self._saved = {name: getattr(self.module, name)
                       for name in (*PREDICATES, "_partial_sums_desc")}
        sums = self._saved["_partial_sums_desc"]

        def counted_sums(*args, **kwargs):
            self._summed += 1
            return sums(*args, **kwargs)

        self.module._partial_sums_desc = counted_sums
        for name in PREDICATES:
            setattr(self.module, name, self._counted(name, self._saved[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(self.module, name, fn)

    def report(self) -> dict:
        out = {name: {str(n): rules for n, rules in sorted(by_n.items())}
               for name, by_n in sorted(self.counts.items())}
        out["total"] = {rule: sum(rules[rule] for by_n in self.counts.values()
                                  for rules in by_n.values())
                        for rule in RULES}
        out["total"]["calls"] = sum(out["total"].values())
        return out


def count_check(sp, workloads, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build_check(np.random.default_rng(seed), Path(tmp), sp)
        with VerdictCounter(sp) as counter:
            for op in wl.blocks[0]:
                op.call()
    return counter.report()


def count_hull(sp, workloads, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build_hull(np.random.default_rng(seed), Path(tmp), sp)
    lp = sp.geometry.hull_member_lp
    sp.geometry.hull_member_lp = lambda x, vertices: (None, None)
    try:
        with VerdictCounter(sp) as counter:
            for op in wl.blocks[0]:
                op.call()
    finally:
        sp.geometry.hull_member_lp = lp
    return counter.report()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the signpoly package to count")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    sp = importlib.import_module("signpoly")
    for sub in ("geometry", "majorization"):
        importlib.import_module(f"signpoly.{sub}")
    workloads = importlib.import_module("workloads")
    print(json.dumps({"seed": args.seed,
                      "check": count_check(sp, workloads, args.seed),
                      "hull": count_hull(sp, workloads, args.seed)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
