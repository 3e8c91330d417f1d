"""Command-line interface.

Subcommands::

    signpoly enumerate FILE [--target {amplitudes,bloch}] [--filter {any-pure,w-type}]
    signpoly construct FILE [--verify-probes N]
    signpoly check CENTER PROBE --alpha A
    signpoly volume --dim D [--alpha A]
    signpoly tangle FILE

FILE arguments are JSON documents as described in
:mod:`signpoly.stateio`.  Each command returns its report and exit
code; :func:`main` writes the report in the chosen format.  Exit codes:
0 success (for ``check``: member), 1 non-member, 2 malformed or invalid
input, 3 resource limit hit or solver failure (enumeration cap, LP
iteration cap, or a ``construct`` scale whose certificate fails).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .algorithms import (
    DEFAULT_TOL_ALPHA,
    _displacement,
    _in_cross_polytope,
    _log_hs_volume,
    hs_volume,
    max_inscribed_cross_polytope,
    robustness_fraction,
)
from .errors import (
    EnumerationTooLargeError,
    SignpolyError,
    SolverFailureError,
    StateValidationError,
)
from .geometry import (
    ENUMERATION_CAP,
    _exp,
    _log_ball_volume,
    _log_cross_polytope_volume,
    ball_volume,
    cross_polytope_volume,
    insphere_radius,
)
from .majorization import DEFAULT_TOL
from .quantum import (
    PureState,
    enumerate_pure_sign_perms,
    hs_distance,
    pure_from_density,
    three_tangle,
)
from .stateio import _as_density, _pairs, load_decomposition, load_state

EXIT_OK = 0
EXIT_NON_MEMBER = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE = 3

CAP_ENV_VAR = "SIGNPOLY_CAP"


def _short(tol: float) -> str:
    """A tolerance as help text writes it: ``1e-9``, not ``1e-09``."""
    return f"{tol:.0e}".replace("e-0", "e-")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then kept
    for the process: parsing never changes it, and each ``parse_args``
    returns a fresh namespace, so in-process callers of :func:`main`
    stop paying for the build (and for collecting its reference
    cycles) on every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help=f"membership/LP tolerance (default {_short(DEFAULT_TOL)})")
    common.add_argument("--tol-alpha", type=float, default=DEFAULT_TOL_ALPHA,
                        help="construct: scales at or below this are reported "
                             f"as degenerate (default {_short(DEFAULT_TOL_ALPHA)})")
    common.add_argument("--cap", type=int, default=None,
                        help=f"enumeration cap (default {ENUMERATION_CAP}, "
                             f"or ${CAP_ENV_VAR} when set)")
    common.add_argument("--format", choices=("text", "structured"), default="text",
                        help="output as key/value text or a JSON object")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized spot checks")

    parser = argparse.ArgumentParser(
        prog="signpoly",
        description="Sign permutation polytopes over Euclidean points and "
                    "quantum states.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="enumerate signed permutations of a pure state")
    p.add_argument("file", help="state document (JSON)")
    p.add_argument("--target", choices=("amplitudes", "bloch"),
                   default="amplitudes",
                   help="permute the amplitude vector or the coordinate chart")
    p.add_argument("--filter", choices=("any-pure", "w-type"), default="any-pure",
                   help="keep everything valid, or only states with "
                        "three-way entanglement below --tol")
    p.add_argument("--show", type=int, default=0, metavar="N",
                   help="include the first N retained states in the report")

    p = sub.add_parser("construct", parents=[common],
                       help="largest cross-polytope inside a convex decomposition")
    p.add_argument("file", help="decomposition document (JSON)")
    p.add_argument("--verify-probes", type=int, default=0, metavar="N",
                   help="spot-check N random interior points of the result "
                        "for membership (uses --seed)")

    p = sub.add_parser("check", parents=[common],
                       help="membership of a probe state in a cross-polytope")
    p.add_argument("center", help="center state document (JSON)")
    p.add_argument("probe", help="probe state document (JSON)")
    p.add_argument("--alpha", type=float, required=True,
                   help="cross-polytope scale")

    p = sub.add_parser("volume", parents=[common],
                       help="Hilbert-Schmidt and cross-polytope volume report")
    p.add_argument("--dim", type=int, required=True,
                   help="Hilbert space dimension d (the chart has d^2 - 1 axes)")
    p.add_argument("--alpha", type=float, default=None,
                   help="also report the cross-polytope of this scale")

    p = sub.add_parser("tangle", parents=[common],
                       help="three-way entanglement of a three-qubit pure state")
    p.add_argument("file", help="state document (JSON)")
    return parser


def _checked_cap(cap: int) -> int:
    if cap < 1:
        raise ValueError("enumeration cap must be at least 1")
    return cap


def _resolve_cap(args) -> int:
    """``--cap`` (checked by :func:`_check_flags`), else
    ``$SIGNPOLY_CAP``, else :data:`ENUMERATION_CAP`."""
    if args.cap is not None:
        return args.cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is None:
        return ENUMERATION_CAP
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(
            f"${CAP_ENV_VAR} must be an integer, got {env!r}"
        ) from None
    return _checked_cap(cap)


def _check_flags(args) -> None:
    """Refuse a common flag out of range, in every subcommand, whether
    or not that subcommand reads it."""
    if not args.tol > 0.0:
        raise ValueError("--tol must be positive")
    if not args.tol_alpha > 0.0:
        raise ValueError("--tol-alpha must be positive")
    if args.cap is not None:
        _checked_cap(args.cap)
    if args.seed is not None and args.seed < 0:
        raise ValueError("--seed must be nonnegative")


def _render_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list):
        return json.dumps(v)
    return str(v)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key}: {_render_value(value)}")


def _load_pure(path) -> tuple[PureState, float | None]:
    state, norm = load_state(path)
    return (state if isinstance(state, PureState) else pure_from_density(state)), norm


def cmd_enumerate(args) -> tuple[dict, int]:
    if args.show < 0:
        raise ValueError("--show must be nonnegative")
    cap = _resolve_cap(args)
    psi, norm = _load_pure(args.file)
    result = enumerate_pure_sign_perms(
        psi, filter=args.filter, target=args.target, tol=args.tol, cap=cap
    )
    report = {
        "command": "enumerate",
        "target": args.target,
        "filter": args.filter,
        "dim": psi.dim,
        "total": result.total,
        "retained": result.retained,
    }
    if norm is not None:
        report["input_norm"] = norm
    if args.show > 0:
        report["states"] = [_pairs(a) for a in result.amplitudes[:args.show]]
    return report, EXIT_OK


def cmd_tangle(args) -> tuple[dict, int]:
    psi, norm = _load_pure(args.file)
    tau = three_tangle(psi)
    report = {"command": "tangle", "dim": psi.dim, "tau3": tau}
    if norm is not None:
        report["input_norm"] = norm
    return report, EXIT_OK


def _fractions(d: int, alpha: float) -> dict:
    """The share of all d-level states in the cross-polytope of scale
    ``alpha``, in closed form and as its volume over the HS volume; the
    ratio is taken of the logs, so it does not underflow where the HS
    volume does."""
    return {
        "fraction_closed_form": robustness_fraction(d, alpha),
        "fraction_volume_ratio": _exp(
            _log_cross_polytope_volume(d * d - 1, alpha) - _log_hs_volume(d),
            "volume ratio") if alpha > 0.0 else 0.0,
    }


def cmd_construct(args) -> tuple[dict, int]:
    if args.verify_probes < 0:
        raise ValueError("--verify-probes must be nonnegative")
    decomposition = load_decomposition(args.file)
    poly = max_inscribed_cross_polytope(
        decomposition, tol_alpha=args.tol_alpha, lp_tol=args.tol
    )
    d = poly.dim
    alpha = poly.alpha
    spec = poly.spec
    try:
        valid = len(poly.vertex_states())
    except StateValidationError:
        valid = 0
    report = {
        "command": "construct",
        "dim": d,
        "chart_dim": d * d - 1,
        "members": len(decomposition.members),
        "alpha": alpha,
        "degenerate": poly.degenerate,
        "edge_length": spec.edge_length(),
        "insphere_radius": spec.insphere_radius(),
        "cross_volume": spec.volume(),
        "hs_volume": hs_volume(d),
        **_fractions(d, alpha),
        "vertex_states_valid": valid,
        "vertex_states_total": 2 * spec.dimension,
        "binding_axis": poly.certificate.binding_axis,
        "binding_sign": poly.certificate.binding_sign,
    }
    if args.verify_probes > 0 and not poly.degenerate:
        rng = np.random.default_rng(args.seed)
        verts = spec.vertices().array
        hits = 0
        for _ in range(args.verify_probes):
            w = rng.dirichlet(np.ones(len(verts)))
            hits += int(_in_cross_polytope(w @ verts - spec.center, alpha, args.tol))
        report["probes_checked"] = args.verify_probes
        report["probes_inside"] = hits
        if args.seed is not None:
            report["seed"] = args.seed
    return report, EXIT_OK


def cmd_check(args) -> tuple[dict, int]:
    center = _as_density(load_state(args.center)[0])
    probe = _as_density(load_state(args.probe)[0])
    c = _displacement(probe, center, args.alpha)
    member = _in_cross_polytope(c, args.alpha, args.tol)
    d = center.dim
    report = {
        "command": "check",
        "dim": d,
        "alpha": args.alpha,
        "coord_distance_1norm": float(np.abs(c).sum()),
        "hs_distance": hs_distance(probe, center),
        "member": member,
        **_fractions(d, args.alpha),
    }
    return report, EXIT_OK if member else EXIT_NON_MEMBER


def cmd_volume(args) -> tuple[dict, int]:
    d = args.dim
    n = d * d - 1
    report = {"command": "volume", "dim": d, "chart_dim": n,
              "hs_volume": hs_volume(d)}
    if args.alpha is not None:
        radius = insphere_radius(n, args.alpha)
        cross = cross_polytope_volume(n, args.alpha)
        ball = ball_volume(n, radius)
        report.update({
            "alpha": args.alpha,
            "cross_volume": cross,
            **_fractions(d, args.alpha),
            "insphere_radius": radius,
            "ball_volume": ball,
            "ball_to_cross_ratio": math.exp(
                _log_ball_volume(n, radius)
                - _log_cross_polytope_volume(n, args.alpha))
            if radius > 0.0 else 0.0,
        })
    return report, EXIT_OK


_DISPATCH = {
    "enumerate": cmd_enumerate,
    "construct": cmd_construct,
    "check": cmd_check,
    "volume": cmd_volume,
    "tangle": cmd_tangle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        report, code = _DISPATCH[args.command](args)
    except (SignpolyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Exit 3 on a resource limit or a solver failure; any other is bad input.
        resource = isinstance(exc, (EnumerationTooLargeError, SolverFailureError))
        return EXIT_RESOURCE if resource else EXIT_INPUT_ERROR
    _emit(report, args.format)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
