"""Which rule settles each majorization verdict on the benchmark's inputs.

A majorization predicate sorts both points, then answers from the
sorted entries when they settle the verdict (a largest entry above the
anchor's, or every sorted entry at or below the anchor's) and sums
partial sums only when they do not.  This script runs the operations of
one ``check`` block and one ``hull`` block of ``perfbench/workloads.py``
at the given seed, each in a counting block of its own
(``signpoly._counts._counting()``), and reads the verdicts that
``majorization._majorized`` counts by the rule that settled them.  The
counts do not depend on the machine, and ``--src`` picks the
``signpoly`` to count, so the same command counts another checkout::

    python3 bench/verdicts.py --seed 3
    python3 bench/verdicts.py --seed 3 --src ../parent/src

Prints one JSON object: per workload and per operation kind, the
verdicts settled by each rule:

- ``largest``: a non-member answered from the largest entries;
- ``dominated``: a member answered from entrywise domination;
- ``sums``: the verdicts that reached the partial sums;

and the same three counts over the whole workload, with their sum as
``calls``.  A ``hull`` operation asks ``hull_member_lp`` too, whose LP
gives no majorization verdict.  A ``--src`` tree without
``signpoly._counts`` is refused with exit status 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RULES = ("largest", "dominated", "sums")


def count(sp, build, seed: int) -> dict:
    """Run the first block that the workload builder ``build`` makes at
    ``seed`` and return its verdicts by op kind and rule, and over all
    of them."""
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for op in build(np.random.default_rng(seed), Path(tmp), sp).blocks[0]:
            with sp._counts._counting() as counts:
                op.call()
            rules = report.setdefault(op.kind, dict.fromkeys(RULES, 0))
            for rule in RULES:
                rules[rule] += getattr(counts, rule)
    report = dict(sorted(report.items()))
    total = {rule: sum(rules[rule] for rules in report.values()) for rule in RULES}
    report["total"] = {**total, "calls": sum(total.values())}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the signpoly package to count")
    args = parser.parse_args(argv)
    if not (args.src / "signpoly" / "_counts.py").is_file():
        print(f"{args.src}: signpoly does not count its own work (no signpoly._counts)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    sp = importlib.import_module("signpoly")
    for sub in ("_counts", "geometry", "majorization"):
        importlib.import_module(f"signpoly.{sub}")
    workloads = importlib.import_module("workloads")
    print(json.dumps({"seed": args.seed,
                      "check": count(sp, workloads.build_check, args.seed),
                      "hull": count(sp, workloads.build_hull, args.seed)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
