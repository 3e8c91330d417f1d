"""Wall time and peak memory of the vertex enumerator on fixed inputs.

Every case runs in a fresh subprocess, so its peak RSS is its own.
``--src`` picks the ``signpoly`` to measure, so the same command
measures another checkout::

    python3 bench/enum.py
    python3 bench/enum.py --src ../parent/src

Prints one JSON object with, per case: the rows listed (for the w-type
cases, the rows streamed through the filter and the rows kept), the
blocks ``_enum.signed_arrangements`` yielded in one run, the median wall
time of three runs in the same process, and the process's peak RSS
(``ru_maxrss``) in MB.  The ``bloch`` cases likewise give the rows
streamed and the states kept.  Cases:

- ``perfbench_n9``: the signed permutations of the ``enumerate``
  workload's n=9 base vector (483,840 rows);
- ``signed_n10``: those of ``[1,1,2,2,3,3,4,0,0,0]`` (9,676,800 rows);
- ``unsigned_n10``: the plain permutations of ``1..10`` (3,628,800 rows);
- ``readme_w_type``: ``--filter w-type`` on the README state (26,880
  rows streamed, 5,376 kept);
- ``w_type_stream``: ``--filter w-type`` on a state with 8 distinct
  nonzero amplitude magnitudes (10,321,920 rows streamed, none stored
  but the kept ones);
- ``perfbench_bloch``: ``--target bloch`` on the ``enumerate``
  workload's real qutrit, at theta = 0.1 (2,688 rows, 24 kept);
- ``generic_qutrit_bloch``: ``--target bloch`` on a qutrit with
  complex normal amplitudes from ``default_rng(0)``, whose 8 chart
  coordinates are distinct and nonzero (10,321,920 rows, 64 kept).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CASES = ("perfbench_n9", "signed_n10", "unsigned_n10", "readme_w_type", "w_type_stream",
         "perfbench_bloch", "generic_qutrit_bloch")
RUNS = 3


def _case_call(sp, workloads, name: str):
    """The case's call; it returns ``(rows, kept)``, ``kept`` None when
    every row is kept."""
    if name == "perfbench_n9":
        a = np.array(workloads.N9_BASE)
        return lambda: (len(sp.geometry.enumerate_sign_perm_vertices(a)), None)
    if name == "signed_n10":
        a = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 0.0, 0.0, 0.0])
        return lambda: (len(sp.geometry.enumerate_sign_perm_vertices(a)), None)
    if name == "unsigned_n10":
        a = np.arange(1.0, 11.0)
        return lambda: (len(sp.geometry.enumerate_perm_vertices(a)), None)
    kwargs = {"filter": "w-type"}
    cap = sp.geometry.ENUMERATION_CAP
    if name == "readme_w_type":
        amps = [complex(re, im) for re, im in workloads.README_STATE]
        psi = sp.quantum.PureState.normalized(amps)[0]
    elif name == "w_type_stream":
        psi = sp.quantum.PureState.normalized(np.arange(1.0, 9.0))[0]
        cap = 11_000_000
    elif name == "perfbench_bloch":
        psi = sp.quantum.PureState([np.cos(0.1), np.sin(0.1), 0.0])
        kwargs = {"target": "bloch"}
    else:
        rng = np.random.default_rng(0)
        psi = sp.quantum.PureState.normalized(rng.normal(size=3) + 1j * rng.normal(size=3))[0]
        kwargs = {"target": "bloch"}
        cap = 11_000_000

    def call():
        res = sp.quantum.enumerate_pure_sign_perms(psi, cap=cap, **kwargs)
        return res.total, res.retained
    return call


def run_case(src: Path, name: str) -> dict:
    """Run one case ``RUNS`` times in this process and measure it."""
    sys.path[:0] = [str(src.resolve()), str(ROOT / "perfbench")]
    sp = importlib.import_module("signpoly")
    for sub in ("_enum", "geometry", "quantum"):
        importlib.import_module(f"signpoly.{sub}")
    workloads = importlib.import_module("workloads")
    call = _case_call(sp, workloads, name)

    blocks = 0
    signed_arrangements = sp._enum.signed_arrangements

    def counted(*args, **kwargs):
        nonlocal blocks
        for block in signed_arrangements(*args, **kwargs):
            blocks += 1
            yield block

    sp._enum.signed_arrangements = counted
    times = []
    for _ in range(RUNS):
        blocks = 0
        start = time.perf_counter()
        rows, kept = call()
        times.append(time.perf_counter() - start)
    result = {"rows": rows, "blocks": blocks}
    if kept is not None:
        result["kept"] = kept
    result["median_wall_s"] = round(statistics.median(times), 4)
    result["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the signpoly package")
    parser.add_argument("--in-process", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.in_process:
        print(json.dumps(run_case(args.src, args.in_process)))
        return 0
    results = {}
    for name in CASES:
        out = subprocess.run(
            [sys.executable, __file__, "--src", str(args.src), "--in-process", name],
            check=True, capture_output=True, text=True).stdout
        results[name] = json.loads(out)
    print(json.dumps({"src": str(args.src), "runs": RUNS, "cases": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
