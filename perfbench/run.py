"""signpoly benchmark: four closed-loop workloads timed from outside the library.

Run from the repository root:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see workloads.py): ``construct`` (``signpoly construct``
through ``cli.main``, many narrow LPs), ``enumerate`` (``signpoly
enumerate`` with the w-type and bloch filters, plus an n=9 vertex
enumeration), ``hull`` (probe points answered by ``hull_member_lp`` over
vertex sets built in set-up and by ``sign_perm_member``; few wide LPs)
and ``check`` (``robustness_member``, ``sign_perm_member``,
``rado_member``).

Load model: one client in one process, closed loop, no extra threads;
BLAS is pinned to one thread.  A run repeats whole blocks of
operations; the number of blocks is ``--seconds`` divided by the
workload's nominal block time (measured on a 2-vCPU x86 VM with Python
3.11), so a run lasts about ``--seconds`` there and does the same work
everywhere, unless a slow host makes it pass twice ``--seconds``.  Every
answer is then checked against an oracle outside the timed region.

Timings are paired with a reference.  The speed of the shared host this
benchmark was built on swings by up to 50% within seconds, for the
library's code and for plain CPU loops alike, so raw wall-clock times of
runs a minute apart differ by more than any useful bound.  Each timed
operation therefore runs twice, once with the program (``src/signpoly``)
and once with a frozen copy of the first measured commit's program
(``perfbench/reference/signpoly_ref``, never edited), alternating which
goes first, on the same inputs.  A timing metric is the program's figure
divided by the copy's figure from the same run, times the copy's nominal
figure on the reference machine (``NOMINAL``): the program's time in
reference-machine seconds.  Set-up is paired the same way, in fresh
processes.  The raw wall-clock figures are printed too.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it runs a fixed number of blocks untraced and then traced, and reports
per-layer metrics from spans around the public functions of each module.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts operations that raised or disagreed with the oracle (the error
rate is ``failed / attempted``); ``correct`` is false when any answer
disagreed.  The program is imported from ``src/`` next to this
directory; without it the benchmark exits with a nonzero status and
prints no result; so does one without the reference copy.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from array import array  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("construct", "enumerate", "hull", "check")
#: Package name and import root of the program and of its frozen copy.
PACKAGES = {"program": ("signpoly", ROOT / "src"),
            "reference": ("signpoly_ref", HERE / "reference")}
SUBMODULES = ("_enum", "algorithms", "cli", "geometry", "majorization", "quantum",
              "simplex", "stateio")
#: The reference copy's figures on the reference machine (2-vCPU x86 VM,
#: Python 3.11.7, numpy 2.4.6): medians of its raw figures over three
#: to six seeds.  They only fix the scale of the reported timings;
#: never change them, or every later figure moves.
NOMINAL = {
    "construct": {"setup_s": 0.6214, "ops_per_s": 4.599, "op_s.p50": 0.1816, "op_s.tail": 0.2271},
    "enumerate": {"setup_s": 0.267, "ops_per_s": 4.03, "op_s.p50": 0.197, "op_s.tail": 0.243},
    "hull": {"setup_s": 0.2965, "ops_per_s": 19.9, "op_s.p50": 0.0016, "op_s.tail": 0.0666},
    "check": {"setup_s": 0.1669, "ops_per_s": 13120.0, "op_s.p50": 4.204e-05,
              "op_s.tail": 3.378e-04},
}
#: A run stops early once it has taken this many times --seconds.
DEADLINE_FACTOR = 2.0
#: Fresh-process set-ups per run and package, paired program/reference;
#: setup_s is the median of the pairs' ratios.
SETUP_PAIRS = 3
#: Latency tail: the highest percentile with at least this many samples
#: beyond it, but no higher than TAIL_MAX.  Only ``check`` (~3*10^5
#: samples per run) reaches the cap: beyond p99 its samples are mostly
#: stalls of the host (several per second, 1-8 ms each) rather than the
#: program; over five seeds p99.9 spread by 17% of its median.
TAIL_SAMPLES = 10
TAIL_MAX = 99.0


def import_package(which: str):
    """Import the program or the reference copy, with every submodule,
    from its own directory and nowhere else."""
    name, src = PACKAGES[which]
    sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module(name)
        for sub in SUBMODULES:
            importlib.import_module(f"{name}.{sub}")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import {name} from {src}: {exc}")
    if Path(pkg.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: {name} came from {pkg.__file__}, not {src}")
    return pkg


def set_up(workload: str, seed: int, workdir: Path, which: str):
    """Import a package, generate and write its inputs, build vertex sets,
    warm up.  The same seed gives both packages the same inputs."""
    import numpy as np
    import workloads
    sp = import_package(which)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.BUILDERS[workload](np.random.default_rng(seed), workdir, sp)
    for op in wl.warmup:
        op.call()
    # Set-up objects live for the whole run; keep the collector off them.
    gc.collect()
    gc.freeze()
    return wl


class Records:
    """Answers and latencies of one closed-loop run, kept in flat arrays so
    the benchmark adds few objects for the garbage collector to walk."""

    def __init__(self, blocks):
        self.ops = [op for block in blocks for op in block]
        self.starts = [0]
        for block in blocks:
            self.starts.append(self.starts[-1] + len(block))
        self.index = array("l")
        self.latency = array("d")
        self.answers = []
        self.elapsed = 0.0

    def __len__(self):
        return len(self.latency)


def _timed(call, clock=time.perf_counter):
    """(answer, seconds) of one call; an exception is the answer."""
    t = clock()
    try:
        answer = call()
    except Exception as exc:  # a failed operation is data, not a crash
        answer = exc
    return answer, clock() - t


def run_blocks(blocks, count: int, deadline: float = float("inf")):
    """Closed loop over ``count`` whole blocks, cycling through the list,
    stopping early after the block that passes ``deadline`` seconds."""
    rec = Records(blocks)
    clock = time.perf_counter
    start = clock()
    for done in range(count):
        if clock() - start >= deadline:
            break
        b = done % len(blocks)
        for i in range(rec.starts[b], rec.starts[b + 1]):
            answer, seconds = _timed(rec.ops[i].call)
            rec.latency.append(seconds)
            rec.index.append(i)
            rec.answers.append(answer)
    rec.elapsed = clock() - start
    return rec


def run_paired(blocks, ref_blocks, count: int, deadline: float):
    """Like :func:`run_blocks`, but each operation is followed or preceded
    (alternately) by the same operation on the reference copy.  Returns
    the program's records and the reference's latencies, index for index."""
    rec = Records(blocks)
    ref_ops = [op for block in ref_blocks for op in block]
    ref_latency = array("d")
    clock = time.perf_counter
    start = clock()
    for done in range(count):
        if clock() - start >= deadline:
            break
        b = done % len(blocks)
        for i in range(rec.starts[b], rec.starts[b + 1]):
            if len(rec) % 2:
                _, ref_s = _timed(ref_ops[i].call)
                answer, seconds = _timed(rec.ops[i].call)
            else:
                answer, seconds = _timed(rec.ops[i].call)
                _, ref_s = _timed(ref_ops[i].call)
            rec.latency.append(seconds)
            ref_latency.append(ref_s)
            rec.index.append(i)
            rec.answers.append(answer)
    rec.elapsed = clock() - start
    return rec, ref_latency


def verify(*runs):
    """Judge every answer; returns (raised, wrong, distinct problems)."""
    raised = wrong = 0
    problems = []
    for rec in runs:
        for i, answer in zip(rec.index, rec.answers):
            op = rec.ops[i]
            if isinstance(answer, Exception):
                raised += 1
                msg = f"{op.kind}: {type(answer).__name__}: {answer}"
            elif not op.agrees(answer):
                wrong += 1
                msg = f"{op.kind}: answer disagrees with oracle"
            else:
                continue
            if msg not in problems:
                problems.append(msg)
    return raised, wrong, problems


def tail_percentile(n: int) -> float:
    """The highest percentile with TAIL_SAMPLES samples beyond it, capped
    at TAIL_MAX; runs with under 20 samples (only with a tiny --seconds)
    get p50."""
    return min(max(100.0 * (1.0 - TAIL_SAMPLES / n), 50.0), TAIL_MAX)


def raw_timings(seconds_total: float, latencies, q: float) -> dict[str, float]:
    import numpy as np
    lat = np.array(latencies)
    return {"ops_per_s": lat.size / seconds_total, "op_s.p50": float(np.percentile(lat, 50)),
            "op_s.tail": float(np.percentile(lat, q))}


def setup_pairs(args) -> list[tuple[float, float]]:
    """(program, reference) set-up times of fresh processes, each measured
    by the process itself; the order within a pair alternates."""
    def one(which):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", which],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]

    pairs = []
    for k in range(SETUP_PAIRS):
        if k % 2:
            ref = one("reference")
            pairs.append((one("program"), ref))
        else:
            prog = one("program")
            pairs.append((prog, one("reference")))
    return pairs


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    workdir = WORKDIR / str(os.getpid())
    try:
        which = args.setup_only or "program"
        wl = set_up(args.workload, args.seed, workdir / which, which)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            return traced_run(args, wl)
        # One operation of each kind with the program alone, before the
        # reference copy is loaded, so that peak RSS is the program's own.
        one_each = {}
        for op in (op for block in wl.blocks for op in block):
            one_each.setdefault(op.kind, op)
        first = run_blocks([list(one_each.values())], 1)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref = set_up(args.workload, args.seed, workdir / "reference", "reference")
        # A fixed amount of work per run, sized to last about --seconds on
        # the reference machine, so every run has the same operations and
        # the same number of latency samples.  On a host much slower than
        # that, the run stops after the block that passes DEADLINE_FACTOR
        # times --seconds, which bounds its length.
        rec, ref_latency = run_paired(
            wl.blocks, ref.blocks, max(1, round(args.seconds / wl.block_seconds)),
            DEADLINE_FACTOR * args.seconds)
        raised, wrong, problems = verify(first, rec)
        setups = setup_pairs(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:  # another run's directory is still there
            pass

    n = len(rec)
    q = tail_percentile(n)
    prog = raw_timings(sum(rec.latency), rec.latency, q)
    prog["setup_s"] = statistics.median(p for p, _ in setups)
    base = raw_timings(sum(ref_latency), ref_latency, q)
    base["setup_s"] = statistics.median(r for _, r in setups)
    speed = {"ops_per_s": prog["ops_per_s"] / base["ops_per_s"],
             "op_s.p50": prog["op_s.p50"] / base["op_s.p50"],
             "op_s.tail": prog["op_s.tail"] / base["op_s.tail"],
             "setup_s": statistics.median(p / r for p, r in setups)}
    nominal = NOMINAL[args.workload]
    metrics = {name: metric(nominal[name] * speed[name], unit) for name, unit in
               (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s.p50", "s"), ("op_s.tail", "s"))}
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    failed = raised + wrong
    attempted = len(first) + n

    print(f"workload {args.workload}  seed {args.seed}  {n} paired ops in {rec.elapsed:.3f} s")
    kinds = {}
    for i, lat, ref_lat in zip(rec.index, rec.latency, ref_latency):
        kinds.setdefault(rec.ops[i].kind, ([], []))
        kinds[rec.ops[i].kind][0].append(lat)
        kinds[rec.ops[i].kind][1].append(ref_lat)
    for kind, (lats, ref_lats) in kinds.items():
        print(f"  {kind:24s} {len(lats):7d} ops  median {statistics.median(lats):.6f} s"
              f"  (reference {statistics.median(ref_lats):.6f} s)")
    print(f"{'metric':14s} {'reported':>12s} {'program':>12s} {'reference':>12s}"
          "  (program and reference: raw wall clock)")
    for name, m in metrics.items():
        print(f"{name:14s} {m['value']:12.6g} {prog.get(name, m['value']):12.6g} "
              f"{base.get(name, float('nan')):12.6g} {m['unit']}")
    print("  setup_s pairs (program/reference): "
          + ", ".join(f"{p:.4f}/{r:.4f}" for p, r in setups))
    print(f"  op_s.tail is p{q:.4f}: {n * (1 - q / 100):.0f} of {n} samples lie beyond it")
    print(f"{'error_rate':14s} {failed / attempted:.6g} ratio  ({failed} of {attempted} attempted: "
          f"{raised} raised, {wrong} wrong)")
    for p in problems:
        print(f"  failure: {p}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(args, wl) -> int:
    import spans
    untraced = run_blocks(wl.blocks, wl.trace_blocks)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_blocks(wl.blocks, wl.trace_blocks)
    finally:
        tracer.uninstall()
    raised, wrong, problems = verify(untraced, traced)
    layers = tracer.layer_metrics()
    rate_u = len(untraced) / untraced.elapsed
    rate_t = len(traced) / traced.elapsed
    layers["trace.untraced_ops_per_s"] = (rate_u, "1/s")
    layers["trace.ops_per_s"] = (rate_t, "1/s")
    layers["trace.overhead_ratio"] = (rate_u / rate_t, "ratio")
    print(f"workload {args.workload}  seed {args.seed}  traced: {wl.trace_blocks} blocks, "
          f"{len(traced)} ops, {len(tracer.name)} spans")
    for name, (value, unit) in layers.items():
        print(f"{name:52s} {value:.6g} {unit}")
    n = len(untraced) + len(traced)
    failed = raised + wrong
    print(f"{'error_rate':52s} {failed / n:.6g} ratio  ({failed} of {n} attempted: "
          f"{raised} raised, {wrong} wrong)")
    for p in problems:
        print(f"  failure: {p}")
    print(json.dumps({"correct": wrong == 0, "attempted": n, "failed": failed,
                      "metrics": {k: metric(v, u) for k, (v, u) in layers.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", choices=tuple(PACKAGES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
