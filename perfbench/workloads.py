"""Seeded inputs, operations and answer oracles for the four workloads.

A workload is a list of blocks; a block is a list of operations run in
order.  The runner repeats whole blocks (cycling through the list) until
the run's time is up, so every run sees the same mix of operation kinds.
Where an operation's cost depends strongly on its input, each block
holds fresh inputs, so a longer run averages over more of them.

Each builder takes the package to run, ``sp``: the program under test
(``signpoly``) or the frozen reference copy (``signpoly_ref``).  Built
twice from generators with the same seed, a workload gives both packages
the same inputs, operation for operation.  Every operation calls into
the package through a module attribute (``sp.geometry.hull_member_lp``,
``sp.cli.main``, ...), never through a name bound at import time, so a
traced run can rebind the function.

Oracles run after the timed region and are independent of the code
under test: scipy's HiGHS solver for LPs, exact counting formulas for
enumeration, and direct numpy for the chart and for majorization.  The
chart basis itself is the library's convention and is taken from it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Absolute agreement required between ``construct``'s alpha and the
#: ray-LP oracle (the library bisects to 1e-8).
ALPHA_TOL = 1e-6
#: Membership tolerance used by the library's predicates and the oracles.
MEMBER_TOL = 1e-9

#: The 8-amplitude state from the README, as [re, im] pairs.
README_STATE = [(0.0, 0.758), (0.0, 0.0), (0.809, -0.588), (0.0, 0.0),
                (0.0, 0.0), (0.809, 0.588), (0.0, 0.0), (0.242, 0.0)]

#: ``hull_member_lp`` raises ``SolverFailureError("no admissible pivot in
#: entering column")`` on this probe against the 26,880-vertex set,
#: although it is a member (scipy and ``sign_perm_member`` agree).  It
#: stays in every ``hull`` block so the defect shows in the error rate.
DEFECT_PROBE = 0.9179802462889692 * np.array([4.0, -3.0, 0.0, -2.0, 0.0, 0.0, 0.0, 1.0])

#: Scaled-vertex probes against the 26,880-vertex set are drawn from this
#: fixed generator, not from the run's seed: they cost 0.02-3 s each
#: depending on the probe, so a seeded handful would make the rate depend
#: on the seed.  The first four cost about 0.06, 0.4, 0.6 and 0.7 s.
FIXED_BOUNDARY_SEED = 0
FIXED_BOUNDARY_COUNT = 4
#: Extra copies per block of the first (about 0.06 s) boundary probe.  A
#: two-block run then has 14 slow samples, so the tail percentile (ten
#: samples beyond it) falls among the six samples of that one probe.
#: With only the ten other slow samples, it fell on the slowest fast
#: probe, a single seed-dependent sample that spread by 13% across seeds.
FIRST_BOUNDARY_COPIES = 2

HULL_BASES = {5: [5.0, 4.0, 3.0, 2.0, 1.0],
              6: [3.0, 2.0, 1.0, 0.0, 0.0, 0.0],
              8: [4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]}
N9_BASE = [5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]


class Op:
    """One timed operation and the oracle that judges its answer.

    ``call`` runs the operation and returns its answer; ``oracle``
    computes the expected answer (once, outside the timed region);
    ``judge(answer, expected)`` says whether they agree.
    """

    __slots__ = ("kind", "call", "oracle", "judge", "_expected")

    def __init__(self, kind: str, call: Callable[[], object],
                 oracle: Callable[[], object], judge: Callable[[object, object], bool]):
        self.kind = kind
        self.call = call
        self.oracle = oracle
        self.judge = judge
        self._expected = None

    def agrees(self, answer) -> bool:
        if self._expected is None:
            self._expected = self.oracle()
        return bool(self.judge(answer, self._expected))


@dataclass
class Workload:
    blocks: list[list[Op]]
    warmup: list[Op]
    #: Nominal seconds per block on the reference machine, program and
    #: reference copy together; sets how many blocks a run of
    #: ``--seconds`` does.
    block_seconds: float
    #: Blocks run (untraced, then traced) by a ``--trace 1`` run.
    trace_blocks: int


# -- shared helpers -------------------------------------------------------

def _pairs(values) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _cli_call(sp, argv: list[str]) -> Callable[[], str]:
    """``cli.main(argv)`` with output captured; a nonzero exit raises."""
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = sp.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"signpoly {argv[0]} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue()
    return call


def _random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """A full-rank density matrix from the Hilbert-Schmidt measure."""
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    M = G @ G.conj().T
    return M / np.trace(M).real


def _chart_coords(sp, M: np.ndarray) -> np.ndarray:
    """Coordinates ``Tr(M B_k)`` along the library's traceless basis."""
    basis = np.array(sp.quantum.traceless_hermitian_basis(M.shape[0]))
    return np.einsum("ij,kji->k", M, basis).real


def _weakly_majorized(x: np.ndarray, a: np.ndarray) -> bool:
    sx = np.cumsum(np.sort(x)[::-1])
    sa = np.cumsum(np.sort(a)[::-1])
    return bool(np.all(sx <= sa + MEMBER_TOL))


def _scipy_feasible(x: np.ndarray, V: np.ndarray) -> bool:
    """Is ``x`` a convex combination of the rows of ``V``?  (HiGHS.)"""
    from scipy.optimize import linprog
    m = V.shape[0]
    res = linprog(np.zeros(m), A_eq=np.vstack([V.T, np.ones((1, m))]),
                  b_eq=np.append(x, 1.0), bounds=(0, None), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"scipy linprog status {res.status}: {res.message}")
    return res.status == 0


# -- construct --------------------------------------------------------------

CONSTRUCT_BLOCKS = 5
CONSTRUCT_D3_PER_BLOCK = 24   # d=3, m=20: ~0.2 s each
CONSTRUCT_D4_PER_BLOCK = 1    # d=4, m=40: ~1.2 s each


def _ray_alpha(sp, target: np.ndarray, members: list[np.ndarray]) -> float:
    """Largest t with every ``±t e_k`` in the hull of the translated
    members, as one LP: a weight vector ``w_j >= 0`` with
    ``V^T w_j = t s_j e_k``, ``sum w_j = 1`` for each of the 2n rays j,
    all sharing t.  Solved by scipy's HiGHS."""
    from scipy.optimize import linprog
    V = np.array([_chart_coords(sp, M) for M in members]) - _chart_coords(sp, target)
    m, n = V.shape
    rays = 2 * n
    A = np.zeros((rays * (n + 1), rays * m + 1))
    b = np.zeros(rays * (n + 1))
    for j in range(rays):
        rows, cols = slice(j * (n + 1), j * (n + 1) + n), slice(j * m, (j + 1) * m)
        A[rows, cols] = V.T
        A[j * (n + 1) + j // 2, -1] = -1.0 if j % 2 == 0 else 1.0
        A[j * (n + 1) + n, cols] = 1.0
        b[j * (n + 1) + n] = 1.0
    c = np.zeros(rays * m + 1)
    c[-1] = -1.0
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"ray LP status {res.status}: {res.message}")
    return -res.fun


def _construct_op(sp, rng, workdir: Path, name: str, d: int, m: int) -> Op:
    members = [_random_density(rng, d) for _ in range(m)]
    weights = rng.dirichlet(np.ones(m))
    target = sum(w * M for w, M in zip(weights, members))
    path = _write_json(workdir / f"{name}.json", {
        "schema": 1, "kind": "decomposition", "dim": d,
        "target": {"matrix": _pairs(target)},
        "members": [{"matrix": _pairs(M)} for M in members],
        "weights": [float(w) for w in weights],
    })
    return Op(f"construct_d{d}", _cli_call(sp, ["construct", path, "--format", "structured"]),
              lambda: _ray_alpha(sp, target, members),
              lambda out, alpha: abs(json.loads(out)["alpha"] - alpha) <= ALPHA_TOL)


def build_construct(rng: np.random.Generator, workdir: Path, sp) -> Workload:
    blocks = []
    for b in range(CONSTRUCT_BLOCKS):
        ops = [_construct_op(sp, rng, workdir, f"dec{b}_{i}", 3, 20)
               for i in range(CONSTRUCT_D3_PER_BLOCK)]
        for j in range(CONSTRUCT_D4_PER_BLOCK):
            ops.insert((j + 1) * len(ops) // (CONSTRUCT_D4_PER_BLOCK + 1),
                       _construct_op(sp, rng, workdir, f"dec{b}_d4_{j}", 4, 40))
        blocks.append(ops)
    warm = _construct_op(sp, rng, workdir, "warmup", 3, 20)
    return Workload(blocks, [warm], block_seconds=8.8, trace_blocks=1)


# -- enumerate ---------------------------------------------------------------

ENUMERATE_BLOCKS = 6
#: w-type operations per block, against one bloch and one n=9 operation.
#: The tail percentile has ten samples beyond it; with one n=9 case per
#: block, a run's few (slow) n=9 samples all lie beyond it, and the tail
#: and the median both fall inside the larger w-type group.  Equal
#: shares would put the tail at the second-fastest n=9 sample, an
#: extreme that spread by 14% across seeds.
W_TYPE_PER_BLOCK = 5
W_TYPE_COUNTS = (26880, 5376)
BLOCH_COUNTS = (2688, 24)


def _count_signed(a) -> int:
    """``2^m n! / (prod m_i!  n_zero!)`` for distinct absolute values."""
    mags = np.abs(np.asarray(a, dtype=float))
    nonzero = mags[mags > 0]
    _, mult = np.unique(nonzero, return_counts=True)
    count = math.factorial(mags.size) * 2 ** nonzero.size // math.factorial(mags.size - nonzero.size)
    for k in mult:
        count //= math.factorial(int(k))
    return count


def _counts_judge(out: str, expected: tuple[int, int]) -> bool:
    report = json.loads(out)
    return (report["total"], report["retained"]) == expected


def build_enumerate(rng: np.random.Generator, workdir: Path, sp) -> Workload:
    readme = np.array([complex(re, im) for re, im in README_STATE])
    blocks = []
    for b in range(ENUMERATE_BLOCKS):
        w_ops = []
        for k in range(W_TYPE_PER_BLOCK):
            # Signed permutations and a global phase leave both counts unchanged.
            amps = (readme[rng.permutation(8)] * rng.choice([-1.0, 1.0], 8)
                    * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            w_path = _write_json(workdir / f"w{b}_{k}.json", {
                "schema": 1, "kind": "state", "dim": 8, "amplitudes": _pairs(amps)})
            w_ops.append(Op(
                "enumerate_w_type",
                _cli_call(sp, ["enumerate", w_path, "--filter", "w-type", "--format", "structured"]),
                lambda: W_TYPE_COUNTS, _counts_judge))
        # Real qutrit state on |0>,|1>; theta in [0.05, 0.15] keeps the
        # eight chart coordinates' magnitudes distinct (2,688 vertices).
        theta = rng.uniform(0.05, 0.15)
        qutrit = [math.cos(theta), rng.choice([-1.0, 1.0]) * math.sin(theta), 0.0]
        b_path = _write_json(workdir / f"b{b}.json",
                             {"schema": 1, "kind": "state", "dim": 3, "amplitudes": _pairs(qutrit)})
        a9 = rng.uniform(0.5, 2.0) * rng.permutation(N9_BASE) * rng.choice([-1.0, 1.0], 9)
        blocks.append(w_ops[:1] + [
            Op("enumerate_bloch",
               _cli_call(sp, ["enumerate", b_path, "--target", "bloch", "--format", "structured"]),
               lambda: BLOCH_COUNTS, _counts_judge),
        ] + w_ops[1:3] + [
            Op("enumerate_n9",
               lambda a9=a9: len(sp.geometry.enumerate_sign_perm_vertices(a9)),
               lambda a9=a9: _count_signed(a9), lambda got, want: got == want),
        ] + w_ops[3:])
    return Workload(blocks, [blocks[0][1]], block_seconds=3.8, trace_blocks=2)


# -- hull ----------------------------------------------------------------------

#: Seeded probes per block: (vertex set n, kind, count).  Interior mixes
#: are Dirichlet combinations of HULL_MIX_SUPPORT[n] random vertices;
#: they cost ~0.6 ms (n=6), ~1.2 ms (n=5) and ~13 ms (n=8) with little
#: spread, and the n=5 mixes are the largest group so the median
#: operation falls inside them.  Scaled vertices (factor in [0.9, 1.1])
#: sit near the boundary and cost 1-20 ms at n=5 and n=6.
HULL_SEEDED = ((6, "mix", 20), (5, "mix", 40), (5, "scaled", 10), (6, "scaled", 10),
               (8, "mix", 12))
HULL_MIX_SUPPORT = {5: 200, 6: 200, 8: 2000}


def _hull_op(sp, kind: str, x: np.ndarray, n: int, vertices) -> Op:
    a = np.array(HULL_BASES[n])

    def call():
        member, _ = sp.geometry.hull_member_lp(x, vertices)
        return member, sp.majorization.sign_perm_member(x, a)

    def oracle():
        lp = _scipy_feasible(x, vertices.array)
        if lp != _weakly_majorized(np.abs(x), a):
            raise RuntimeError(f"oracles disagree on {x.tolist()}")
        return lp

    return Op(kind, call, oracle, lambda got, want: got == (want, want))


def build_hull(rng: np.random.Generator, workdir: Path, sp) -> Workload:
    vsets = {n: sp.geometry.enumerate_sign_perm_vertices(a) for n, a in HULL_BASES.items()}
    fast = []
    for n, kind, count in HULL_SEEDED:
        V = vsets[n].array
        for _ in range(count):
            if kind == "mix":
                k = HULL_MIX_SUPPORT[n]
                x = rng.dirichlet(np.ones(k)) @ V[rng.choice(len(V), k, replace=False)]
            else:
                x = rng.uniform(0.9, 1.1) * V[rng.integers(len(V))]
            fast.append(_hull_op(sp, f"hull_n{n}_{kind}", x, n, vsets[n]))
    fast = [fast[i] for i in rng.permutation(len(fast))]
    V8 = vsets[8].array
    slow = [_hull_op(sp, "hull_n8_defect", DEFECT_PROBE, 8, vsets[8])]
    fixed = np.random.default_rng(FIXED_BOUNDARY_SEED)
    for k in range(FIXED_BOUNDARY_COUNT):
        x = fixed.uniform(0.9, 1.1) * V8[fixed.integers(len(V8))]
        slow.append(_hull_op(sp, "hull_n8_boundary", x, 8, vsets[8]))
        if k == 0:
            first = x
        elif k <= FIRST_BOUNDARY_COPIES:
            slow.append(_hull_op(sp, "hull_n8_boundary", first, 8, vsets[8]))
    block = list(fast)
    for j, op in enumerate(slow):
        block.insert((j + 1) * len(fast) // (len(slow) + 1) + j, op)
    warmup = [next(op for op in fast if op.kind == f"hull_n{n}_mix") for n in (5, 6, 8)]
    return Workload([block], warmup, block_seconds=9.6, trace_blocks=1)


# -- check -----------------------------------------------------------------------

CHECK_DIMS = (2, 3, 4)
#: Operations per block for each n of sign_perm_member and rado_member.
#: The n=1000 calls (~30 us, sort-bound) get twice the share of the
#: n=8 and n=100 ones (~13 us, per-call overhead), so the median
#: operation falls in the middle of the n=1000 group, not at its edge.
CHECK_SIZES = {8: 16, 100: 16, 1000: 32}
#: robustness_member calls per block for each d (55-170 us each).
CHECK_PER_DIM = 16
CHECK_ALPHA = 0.05


def _robustness_op(sp, rng, d: int) -> Op:
    center_m = 0.5 * np.eye(d) / d + 0.5 * _random_density(rng, d)
    # A traceless Hermitian displacement with coordinate 1-norm spread
    # around alpha, small enough that the probe stays positive.
    H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = H + H.conj().T
    H -= np.trace(H) / d * np.eye(d)
    H *= rng.uniform(0.3, 1.7) * CHECK_ALPHA / np.abs(_chart_coords(sp, H)).sum()
    probe_m = center_m + H
    center = sp.quantum.DensityMatrix(center_m)
    probe = sp.quantum.DensityMatrix(probe_m)
    return Op(f"check_robust_d{d}",
              lambda: sp.algorithms.robustness_member(probe, center, CHECK_ALPHA),
              lambda: bool(np.abs(_chart_coords(sp, probe_m) - _chart_coords(sp, center_m)).sum()
                           <= CHECK_ALPHA + MEMBER_TOL),
              lambda got, want: got == want)


def _sign_perm_op(sp, rng, n: int) -> Op:
    a = rng.uniform(0.0, 1.0, n)
    if rng.random() < 0.5:
        x = a * rng.uniform(0.5, 1.0, n)          # componentwise below |a|: member
    else:
        x = a.copy()
        x[np.argmax(x)] *= 1.05                   # largest entry too big: not a member
    x = x[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
    return Op(f"check_sign_perm_n{n}",
              lambda: sp.majorization.sign_perm_member(x, a),
              lambda: _weakly_majorized(np.abs(x), np.abs(a)),
              lambda got, want: got == want)


def _rado_op(sp, rng, n: int) -> Op:
    a = rng.uniform(0.0, 1.0, n)
    w = rng.dirichlet(np.ones(3))
    x = sum(wi * a[rng.permutation(n)] for wi in w)   # in the permutohedron
    if rng.random() < 0.5:
        spread = 0.05 * (a.max() - a.min())
        x = a[rng.permutation(n)]
        x[np.argmax(x)] += spread                    # same total, top entry too big
        x[np.argmin(x)] -= spread

    def oracle():
        if abs(x.sum() - a.sum()) > MEMBER_TOL:
            return False
        return _weakly_majorized(x, a)

    return Op(f"check_rado_n{n}", lambda: sp.majorization.rado_member(x, a), oracle,
              lambda got, want: got == want)


def build_check(rng: np.random.Generator, workdir: Path, sp) -> Workload:
    ops = [_robustness_op(sp, rng, d) for d in CHECK_DIMS for _ in range(CHECK_PER_DIM)]
    for n, count in CHECK_SIZES.items():
        ops += [_sign_perm_op(sp, rng, n) for _ in range(count)]
        ops += [_rado_op(sp, rng, n) for _ in range(count)]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    kinds = {}
    for op in ops:
        kinds.setdefault(op.kind, op)
    return Workload([ops], list(kinds.values()), block_seconds=0.025, trace_blocks=150)


BUILDERS = {
    "construct": build_construct,
    "enumerate": build_enumerate,
    "hull": build_hull,
    "check": build_check,
}
