"""Wall time and peak memory of the vertex enumerator on fixed inputs.

Each case runs once (or ``--repeat`` times) in each of ``--procs``
fresh subprocesses, so every process starts from a fresh heap and every
peak RSS is the run's own.
``--src`` picks the ``signpoly`` to measure, so the same command
measures another checkout; ``--against`` measures a second one too,
alternating processes between the two trees (the first process of a
case runs ``--src``, the next one ``--against`` first, and so on), so
both see the same drift of a shared host::

    python3 bench/enum.py
    python3 bench/enum.py --src ../parent/src
    python3 bench/enum.py --against ../parent/src --procs 8 --case unsigned_n10

Prints one JSON object with, per case (and, with ``--against``, per
tree): the rows listed (for the w-type cases, the rows streamed through
the filter and the rows kept), the blocks ``_enum.signed_arrangements``
yielded in one run (every listing, filtered or not, takes its blocks
from it), the quartiles of the wall time over the processes, and
the median over the processes of the peak RSS (``ru_maxrss``) in MB.
The w-type cases also give the tangle evaluations: the hyperdeterminants
computed (the columns passed to ``quantum._cayley``).  The ``bloch``
cases likewise give the rows streamed and the states kept.  Cases:

- ``perfbench_n9``: the signed permutations of the ``enumerate``
  workload's n=9 base vector (483,840 rows);
- ``signed_n10``: those of ``[1,1,2,2,3,3,4,0,0,0]`` (9,676,800 rows);
- ``unsigned_n10``: the plain permutations of ``1..10`` (3,628,800 rows);
- ``any_pure``: the default ``--filter any-pure`` on the state
  ``[1,2,3,4,5,6,0,0]`` (normalized; 1,290,240 rows, every one kept);
- ``any_pure_show_0`` and ``any_pure_show_3``: the same state through
  ``signpoly enumerate FILE --show 0`` (or ``--show 3``), run by
  ``cli.main`` in the process, which counts every row and prints none
  (or three);
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

``--repeat K`` runs a case K times in each process, the first time on
the input above and then on fresh inputs of the same multiset shape:
the vectors and amplitudes permuted, their signs flipped and, for
complex amplitudes, a global phase applied (a vertex case's vector is
also scaled by a factor in [0.5, 2]; the ``perfbench_bloch`` qutrit
takes a new theta in [0.05, 0.15], as the workload draws it; the
generic qutrit only a global phase).  Every listing must repeat the
counts above; the case then reports the block descriptions built over
the K listings (``described``: the blocks ``_enum._descriptions``
yields) and the median wall time
per listing in ``wall_s``, so a repeat shows what one process's
repeated listings share::

    python3 bench/enum.py --repeat 20 --case readme_w_type --against ../parent/src
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CASES = ("perfbench_n9", "signed_n10", "unsigned_n10", "any_pure", "any_pure_show_0",
         "any_pure_show_3", "readme_w_type", "w_type_stream", "perfbench_bloch",
         "generic_qutrit_bloch")
#: Cases that report the tangle evaluations.
W_TYPE_CASES = ("readme_w_type", "w_type_stream")


def _case_call(sp, workloads, name: str, rng=None):
    """The case's call; it returns ``(rows, kept)``, ``kept`` None for
    a vertex listing or a library listing that keeps every row.  Given
    ``rng``, the input is a fresh one of the same multiset shape."""
    def fresh(v, signed=True, scale=False):
        v = np.asarray(v)
        if rng is None:
            return v
        v = rng.permutation(v)
        if signed:
            v = v * rng.choice([-1.0, 1.0], len(v))
        if np.iscomplexobj(v):
            v = v * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        return v * rng.uniform(0.5, 2.0) if scale else v

    if name == "perfbench_n9":
        a = fresh(np.array(workloads.N9_BASE), scale=True)
        return lambda: (len(sp.geometry.enumerate_sign_perm_vertices(a)), None)
    if name == "signed_n10":
        a = fresh(np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 0.0, 0.0, 0.0]), scale=True)
        return lambda: (len(sp.geometry.enumerate_sign_perm_vertices(a)), None)
    if name == "unsigned_n10":
        a = fresh(np.arange(1.0, 11.0), signed=False, scale=True)
        return lambda: (len(sp.geometry.enumerate_perm_vertices(a)), None)
    if name.startswith("any_pure_show_"):
        return _cli_call(sp, name.rsplit("_", 1)[1], fresh)
    kwargs = {"filter": "w-type"}
    cap = sp.geometry.ENUMERATION_CAP
    if name == "any_pure":
        psi = sp.quantum.PureState.normalized(
            fresh([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0]))[0]
        kwargs = {}
    elif name == "readme_w_type":
        amps = [complex(re, im) for re, im in workloads.README_STATE]
        psi = sp.quantum.PureState.normalized(fresh(amps))[0]
    elif name == "w_type_stream":
        psi = sp.quantum.PureState.normalized(fresh(np.arange(1.0, 9.0)))[0]
        cap = 11_000_000
    elif name == "perfbench_bloch":
        theta = 0.1 if rng is None else rng.uniform(0.05, 0.15)
        sign = 1.0 if rng is None else rng.choice([-1.0, 1.0])
        psi = sp.quantum.PureState([np.cos(theta), sign * np.sin(theta), 0.0])
        kwargs = {"target": "bloch"}
    else:
        parts = np.random.default_rng(0).normal(size=(2, 3))
        amps = parts[0] + 1j * parts[1]
        phase = 1.0 if rng is None else np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        psi = sp.quantum.PureState.normalized(phase * amps)[0]
        kwargs = {"target": "bloch"}
        cap = 11_000_000

    def call():
        res = sp.quantum.enumerate_pure_sign_perms(psi, cap=cap, **kwargs)
        return res.total, res.retained
    return call


def _cli_call(sp, show: str, fresh):
    """``signpoly enumerate FILE --show SHOW`` on ``fresh([1..6,0,0])``,
    with ``(total, retained)`` read from its structured report."""
    amps = fresh(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0]))
    doc = {"schema": 1, "kind": "state", "dim": 8,
           "amplitudes": [[a, 0.0] for a in (amps / np.linalg.norm(amps)).tolist()]}
    path = Path(tempfile.mkdtemp()) / "state.json"
    path.write_text(json.dumps(doc))

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            sp.cli.main(["enumerate", str(path), "--show", show, "--format", "structured"])
        path.unlink()
        path.parent.rmdir()
        report = json.loads(out.getvalue())
        return report["total"], report["retained"]
    return call


def run_case(src: Path, name: str, repeat: int = 1) -> dict:
    """Run one case ``repeat`` times in this process, the first time on
    its input and then on fresh inputs of the same shape, and measure
    it.  ``sys.path`` and the counted names are restored on return, so
    a second call counts afresh."""
    restore = [(sys, "path", sys.path)]
    sys.path = [str(src.resolve()), str(ROOT / "perfbench"), *sys.path]
    try:
        sp = importlib.import_module("signpoly")
        for sub in ("_enum", "cli", "geometry", "quantum"):
            importlib.import_module(f"signpoly.{sub}")
        workloads = importlib.import_module("workloads")
        calls = [_case_call(sp, workloads, name)]
        calls += [_case_call(sp, workloads, name, np.random.default_rng(i))
                  for i in range(1, repeat)]

        blocks = described = 0
        signed_arrangements = sp._enum.signed_arrangements

        def counted(*args, **kwargs):
            nonlocal blocks
            for block in signed_arrangements(*args, **kwargs):
                blocks += 1
                yield block

        describer = sp._enum._descriptions

        def counted_descriptions(*args, **kwargs):
            nonlocal described
            for description in describer(*args, **kwargs):
                described += 1
                yield description

        evaluations = 0
        cayley = sp.quantum._cayley

        def counted_cayley(t):
            nonlocal evaluations
            evaluations += np.shape(t)[-1] if np.ndim(t) > 1 else 1
            return cayley(t)

        restore += [(sp._enum, "signed_arrangements", signed_arrangements),
                    (sp._enum, "_descriptions", describer),
                    (sp.quantum, "_cayley", cayley)]
        sp._enum.signed_arrangements = counted
        sp._enum._descriptions = counted_descriptions
        sp.quantum._cayley = counted_cayley
        walls, counts = [], []
        for call in calls:
            blocks = evaluations = 0
            start = time.perf_counter()
            rows, kept = call()
            walls.append(time.perf_counter() - start)
            counts.append((rows, kept, blocks, evaluations))
    finally:
        for owner, attr, value in restore:
            setattr(owner, attr, value)
    if any(count != counts[0] for count in counts):
        raise RuntimeError(f"counts differ between listings of one shape: {counts}")
    result = {"rows": rows, "blocks": blocks}
    if kept is not None:
        result["kept"] = kept
    if name in W_TYPE_CASES:
        result["tangle_evals"] = evaluations
    result["described"] = described
    result["wall_s"] = float(np.median(walls))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def _in_fresh_process(src: Path, name: str, repeat: int) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--src", str(src), "--repeat", str(repeat),
         "--in-process", name],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _summary(runs: list) -> dict:
    """The counts of the first run (every run must repeat them), the
    wall-time quartiles and the median peak RSS."""
    counts = {key: value for key, value in runs[0].items()
              if key not in ("wall_s", "peak_rss_mb")}
    for run in runs[1:]:
        if any(run[key] != value for key, value in counts.items()):
            raise RuntimeError(f"counts differ between processes: {counts} {run}")
    q1, median, q3 = np.percentile([run["wall_s"] for run in runs], [25, 50, 75])
    return {**counts,
            "wall_s": {"q1": round(q1, 4), "median": round(median, 4),
                       "q3": round(q3, 4)},
            "peak_rss_mb": round(float(np.median([run["peak_rss_mb"] for run in runs])), 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the signpoly package")
    parser.add_argument("--against", type=Path,
                        help="a second signpoly directory, measured in "
                             "processes alternating with --src")
    parser.add_argument("--procs", type=int, default=5,
                        help="fresh processes per case and tree (default 5)")
    parser.add_argument("--case", action="append", choices=CASES,
                        help="run only this case (repeatable; default all)")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="listings per process, on fresh same-shape "
                             "inputs after the first (default 1)")
    parser.add_argument("--in-process", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.in_process:
        print(json.dumps(run_case(args.src, args.in_process, args.repeat)))
        return 0
    if args.procs < 1:
        parser.error("--procs must be at least 1")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    trees = [args.src] + ([args.against] if args.against else [])
    results = {}
    for name in args.case or CASES:
        runs = {tree: [] for tree in trees}
        for i in range(args.procs):
            for tree in trees[::-1] if i % 2 else trees:
                runs[tree].append(_in_fresh_process(tree, name, args.repeat))
        if args.against:
            results[name] = {"src": _summary(runs[args.src]),
                             "against": _summary(runs[args.against])}
        else:
            results[name] = _summary(runs[args.src])
    print(json.dumps({"src": str(args.src),
                      "against": None if args.against is None else str(args.against),
                      "procs": args.procs, "repeat": args.repeat, "cases": results},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
