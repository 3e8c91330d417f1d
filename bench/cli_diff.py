"""Byte-for-byte comparison of ``python -m signpoly`` between two trees.

Runs one fixed set of command lines, covering every subcommand,
against the ``signpoly`` under ``--src`` and the one under
``--against`` (default: this checkout's ``src``) and compares stdout,
stderr and exit code of every run, so a refactor that must not change
what the commands print can be checked against its parent::

    python3 bench/cli_diff.py --src ../parent/src
    python3 bench/cli_diff.py --src ../parent/src --against ../other/src

The 192 cases, with input documents written from numpy alone (seeded,
so every run writes the same files):

- ``volume``: d in {2, 3, 4, 5} at alpha in {0, 0.1, 0.4, 1, -1, nan,
  1e200}, each d without ``--alpha``, and d = 2 with ``--cap 0``, a
  flag it does not read but refuses out of range (exit 2);
- ``check``: four centre/probe pairs (d = 2, 3, 4, and a close d = 2
  pair) at alpha in {0, 0.2, 0.7, 3, -1, 1e200, inf, nan};
- ``construct``: six seeded decompositions with d = 2-4, one of them
  with Dirichlet(0.05) weights, each with and without
  ``--verify-probes 20 --seed S``, and the first with
  ``--verify-probes -1`` (exit 2); the first d = 3 one with
  ``"dim": 3`` in every entry, and the same with a top-level
  ``"dim": 2``, which its entries contradict (exit 2);
- ``enumerate``: a seeded signed permutation (and global phase) of the
  README's three-qubit example under ``--filter any-pure``, the default
  filter with ``--show 3``, ``w-type``, ``w-type --show 3``,
  ``w-type --show -1`` (exit 2), ``--cap 100`` (exit 3), and at the cap
  boundary ``--cap 26880`` (its count, exit 0) and ``--cap 26879``
  (exit 3); seeded qutrit and qubit states under
  ``--target bloch``, the qubit with ``--show 3`` and the qutrit at
  ``--cap 2688`` (its count) and ``--cap 2687`` (exit 3); and
  ``w-type`` with ``bloch``, which is refused (exit 2);
- ``tangle``: the GHZ and the W state, and the GHZ state with
  ``--seed -1`` (exit 2);

each in the text and the structured format.  Prints one JSON object
with the case counts and every case that differs; for a structured case
whose stdout differs, it lists the report keys that differ with both
values and, for floats, their relative difference.  Exits 1 if any case
differs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

VOLUME_DIMS = (2, 3, 4, 5)
ALPHAS = ("0", "0.1", "0.4", "1", "-1", "nan", "1e200")
CHECK_ALPHAS = ("0", "0.2", "0.7", "3", "-1", "1e200", "inf", "nan")
#: (seed, d, members, Dirichlet concentration of the weights)
DECOMPOSITIONS = ((0, 2, 6, 1.0), (1, 2, 9, 1.0), (2, 3, 12, 1.0),
                  (3, 3, 20, 1.0), (4, 4, 24, 1.0), (5, 3, 14, 0.05))
#: The README's three-qubit example: amplitudes of |000>, |010>, |101>, |111>.
README_STATE = {0: 0.758j, 2: 0.809 - 0.588j, 5: 0.809 + 0.588j, 7: 0.242}
FORMATS = ("text", "structured")
#: command lines run at once
JOBS = 2


def _pairs(matrix) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in np.ravel(matrix)]


def _random_state(rng, d: int) -> np.ndarray:
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    M = G @ G.conj().T
    return M / np.trace(M).real


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def _state_file(path: Path, matrix) -> str:
    return _write(path, {"schema": 1, "kind": "state", "dim": len(matrix),
                         "matrix": _pairs(matrix)})


def _amplitude_file(path: Path, amps) -> str:
    return _write(path, {"schema": 1, "kind": "state", "dim": len(amps),
                         "amplitudes": _pairs(amps)})


def cases(workdir: Path) -> list[list[str]]:
    """The command lines, with their input documents written to ``workdir``."""
    runs = []
    for d in VOLUME_DIMS:
        runs.append(["volume", "--dim", str(d)])
        runs += [["volume", "--dim", str(d), "--alpha", a] for a in ALPHAS]
    runs.append(["volume", "--dim", "2", "--cap", "0"])

    rng = np.random.default_rng(15)
    for i, (d, step) in enumerate(((2, 0.3), (3, 0.3), (4, 0.3), (2, 0.05))):
        center = 0.5 * np.eye(d) / d + 0.5 * _random_state(rng, d)
        probe = (1.0 - step) * center + step * _random_state(rng, d)
        files = [_state_file(workdir / f"{name}{i}.json", m)
                 for name, m in (("center", center), ("probe", probe))]
        runs += [["check", *files, "--alpha", a] for a in CHECK_ALPHAS]

    for seed, d, m, concentration in DECOMPOSITIONS:
        rng = np.random.default_rng(seed)
        members = [_random_state(rng, d) for _ in range(m)]
        weights = rng.dirichlet(np.full(m, concentration))
        target = sum(w * M for w, M in zip(weights, members))
        path = _write(workdir / f"dec{seed}.json", {
            "schema": 1, "kind": "decomposition", "dim": d,
            "target": {"matrix": _pairs(target)},
            "members": [{"matrix": _pairs(M)} for M in members],
            "weights": [float(w) for w in weights]})
        runs.append(["construct", path])
        runs.append(["construct", path, "--verify-probes", "20",
                     "--seed", str(seed + 7)])
    runs.append(["construct", str(workdir / "dec0.json"), "--verify-probes", "-1"])
    # The d=3 decomposition with "dim": 3 in every entry, under its own
    # "dim" and under "dim": 2, which the entries contradict (exit 2).
    doc = json.loads((workdir / "dec2.json").read_text())
    for body in (doc["target"], *doc["members"]):
        body["dim"] = 3
    runs.append(["construct", _write(workdir / "dec2_dims.json", doc)])
    runs.append(["construct", _write(workdir / "dec2_dim2.json", {**doc, "dim": 2})])

    rng = np.random.default_rng(16)
    w = np.zeros(8, dtype=complex)
    w[list(README_STATE)] = list(README_STATE.values())
    w = (w[rng.permutation(8)] * rng.choice([-1.0, 1.0], 8)
         * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    w_path = _amplitude_file(workdir / "w_example.json", w)
    theta = rng.uniform(0.05, 0.15)
    qutrit = _amplitude_file(workdir / "qutrit.json",
                             [math.cos(theta), -math.sin(theta), 0.0])
    qubit = _amplitude_file(workdir / "qubit.json",
                            rng.normal(size=2) + 1j * rng.normal(size=2))
    runs += [["enumerate", w_path, "--filter", "any-pure"],
             ["enumerate", w_path, "--show", "3"],
             ["enumerate", w_path, "--filter", "w-type"],
             ["enumerate", w_path, "--filter", "w-type", "--show", "3"],
             ["enumerate", w_path, "--filter", "w-type", "--show", "-1"],
             ["enumerate", w_path, "--cap", "100"],
             ["enumerate", w_path, "--cap", "26880"],
             ["enumerate", w_path, "--cap", "26879"],
             ["enumerate", qutrit, "--target", "bloch"],
             ["enumerate", qutrit, "--target", "bloch", "--cap", "2688"],
             ["enumerate", qutrit, "--target", "bloch", "--cap", "2687"],
             ["enumerate", qubit, "--target", "bloch", "--show", "3"],
             ["enumerate", qubit, "--target", "bloch", "--filter", "w-type"]]

    ghz = np.zeros(8)
    ghz[[0, 7]] = 1.0 / math.sqrt(2.0)
    w_state = np.zeros(8)
    w_state[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
    runs += [["tangle", _amplitude_file(workdir / f"{name}.json", amps)]
             for name, amps in (("ghz", ghz), ("w", w_state))]
    runs.append(["tangle", str(workdir / "ghz.json"), "--seed", "-1"])
    return [run + ["--format", fmt] for run in runs for fmt in FORMATS]


def run_case(src: Path, argv: list[str]) -> tuple[str, str, int]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("SIGNPOLY_CAP", None)
    proc = subprocess.run([sys.executable, "-m", "signpoly", *argv], env=env,
                          capture_output=True, text=True)
    return proc.stdout, proc.stderr, proc.returncode


def field_diff(old: str, new: str) -> dict | None:
    """The keys of two structured reports whose values differ, with the
    value on each side that has the key and, where both are floats,
    their relative difference; None when either output is not a JSON
    object."""
    try:
        a, b = json.loads(old), json.loads(new)
    except json.JSONDecodeError:
        return None
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return None
    fields = {}
    for key in {**a, **b}:
        x, y = a.get(key), b.get(key)
        # as printed, so a NaN equals a NaN
        if key in a and key in b and json.dumps(x) == json.dumps(y):
            continue
        fields[key] = {side: doc[key] for side, doc in (("old", a), ("new", b))
                       if key in doc}
        if isinstance(x, float) and isinstance(y, float):
            scale = max(abs(x), abs(y))
            fields[key]["rel_diff"] = abs(x - y) / scale if scale else 0.0
    return fields


def _difference(run: list[str], old: tuple, new: tuple) -> dict:
    out = {"argv": " ".join(Path(a).name if a.endswith(".json") else a
                            for a in run),
           "differs": [what for what, x, y in zip(("stdout", "stderr", "exit"),
                                                  old, new) if x != y]}
    if "stdout" in out["differs"] and run[-1] == "structured":
        fields = field_diff(old[0], new[0])
        if fields is not None:
            out["fields"] = fields
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="directory holding one signpoly package")
    parser.add_argument("--against", type=Path, default=ROOT / "src",
                        help="directory holding the other (default: ./src)")
    args = parser.parse_args(argv)
    trees = [args.src.resolve(), args.against.resolve()]
    with tempfile.TemporaryDirectory() as tmp:
        runs = cases(Path(tmp))
        with ThreadPoolExecutor(JOBS) as pool:
            results = [list(pool.map(lambda a, src=src: run_case(src, a), runs))
                       for src in trees]
    differ = [_difference(run, old, new)
              for run, old, new in zip(runs, *results) if old != new]
    print(json.dumps({"cases": len(runs),
                      "by_command": Counter(run[0] for run in runs),
                      "exit_codes": sorted({r[2] for r in results[1]}),
                      "differences": differ}, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
