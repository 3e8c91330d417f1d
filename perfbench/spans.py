"""In-memory spans around the public functions of each ``signpoly`` module.

Tracing works by rebinding names for the duration of a traced run: every
``signpoly`` module (and the package namespace) that holds a traced
function gets a wrapper in its place, so calls between modules, and the
calls a module makes to its own functions through its globals, pass
through the wrapper.  Nothing under ``src/`` changes, and
:meth:`Tracer.uninstall` puts the original objects back.

Each span keeps its name, parent span id, start, end, whether it raised,
and a small dict of counts taken from the call's arguments or result.
Self time is a span's duration minus the durations of its direct
children.  Generator functions get one span per ``next`` call, so their
busy time is the time spent producing rows, not the consumer's time
between rows.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import numpy as np

_clock = time.perf_counter


def _lp_info(args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    return {"cols": np.shape(A)[1], "feasible": int(bool(result[0]))}


def _vertex_info(args, kwargs, result):
    return {"vertices": len(result), "bytes_out": result.array.nbytes}


def _pure_enum_info(args, kwargs, result):
    return {"total": result.total, "retained": result.retained}


def _cross_info(args, kwargs, result):
    return {"chart_dim": result.spec.dimension}


# (module, function, span name, info hook, generator?, trace memory?)
TRACED = (
    ("simplex", "feasible_nonneg", "simplex.feasible_nonneg", _lp_info, False, False),
    ("geometry", "hull_member_lp", "geometry.hull_member_lp", None, False, False),
    ("geometry", "enumerate_sign_perm_vertices",
     "geometry.enumerate_sign_perm_vertices", _vertex_info, False, True),
    ("algorithms", "max_inscribed_cross_polytope",
     "algorithms.max_inscribed_cross_polytope", _cross_info, False, False),
    ("algorithms", "robustness_member", "algorithms.robustness_member", None, False, False),
    ("_enum", "signed_arrangements", "enum.signed_arrangements", None, True, False),
    ("_enum", "distinct_permutations", "enum.distinct_permutations", None, True, False),
    ("quantum", "enumerate_pure_sign_perms", "quantum.enumerate_pure_sign_perms",
     _pure_enum_info, False, False),
    ("quantum", "to_coords", "quantum.to_coords", None, False, False),
    ("quantum", "from_coords", "quantum.from_coords", None, False, False),
    ("quantum", "validate_state", "quantum.validate_state", None, False, False),
    ("majorization", "majorizes", "majorization.majorizes", None, False, False),
    ("majorization", "weakly_majorized", "majorization.weakly_majorized", None, False, False),
    ("majorization", "rado_member", "majorization.rado_member", None, False, False),
    ("majorization", "sign_perm_member", "majorization.sign_perm_member", None, False, False),
    ("stateio", "load_state", "stateio.load_state", None, False, False),
    ("stateio", "load_decomposition", "stateio.load_decomposition", None, False, False),
    ("cli", "main", "cli.main", None, False, False),
)


class Tracer:
    """Records spans while installed; computes per-layer metrics after."""

    def __init__(self):
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.raised: list[bool] = []
        self.info: list[dict | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(_clock())
        self.end.append(0.0)
        self.raised.append(False)
        self.info.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, raised: bool = False, info: dict | None = None) -> None:
        self.end[sid] = _clock()
        self.raised[sid] = raised
        self.info[sid] = info
        self._stack.pop()

    def _wrap_call(self, name, fn, info_hook, trace_memory):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            if trace_memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if trace_memory:
                    tracemalloc.stop()
                self._close(sid, raised=True)
                raise
            info = info_hook(args, kwargs, result) if info_hook else None
            if trace_memory:
                info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._close(sid, info=info)
            return result
        return wrapper

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = fn(*args, **kwargs)

            def timed():
                while True:
                    sid = self._open(name)
                    try:
                        row = next(rows)
                    except StopIteration:
                        self._close(sid)
                        return
                    except BaseException:
                        self._close(sid, raised=True)
                        raise
                    self._close(sid, info={"rows": 1})
                    yield row
            return timed()
        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every module that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "signpoly" or n.startswith("signpoly."))]
        for modname, attr, name, info_hook, is_gen, trace_memory in TRACED:
            original = getattr(sys.modules[f"signpoly.{modname}"], attr)
            if is_gen:
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap_call(name, original, info_hook, trace_memory)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    # -- metrics ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every recorded span, as name -> (value, unit)."""
        names = np.array(self.name, dtype=str)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        raised = np.array(self.raised, dtype=bool)
        has_parent = parent >= 0
        child_time = np.zeros(len(dur))
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        parent_name = np.where(has_parent, names[np.where(has_parent, parent, 0)], "")

        def sel(*span_names):
            return np.flatnonzero(np.isin(names, span_names))

        def info_sum(idx, key):
            return float(sum(self.info[i][key] for i in idx if self.info[i]))

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}

        lp = sel("simplex.feasible_nonneg")
        lp_ok = lp[~raised[lp]]
        out["simplex.feasible_nonneg.calls"] = (len(lp), "count")
        out["simplex.feasible_nonneg.busy_s"] = (float(dur[lp].sum()), "s")
        out["simplex.feasible_nonneg.cols_mean"] = (ratio(info_sum(lp_ok, "cols"), len(lp_ok)), "count")
        out["simplex.feasible_nonneg.feasible_ratio"] = (
            ratio(info_sum(lp_ok, "feasible"), len(lp_ok)), "ratio")
        out["simplex.feasible_nonneg.failures"] = (int(raised[lp].sum()), "count")

        cross = sel("algorithms.max_inscribed_cross_polytope")
        cross_ok = cross[~raised[cross]]
        solves = int(np.sum((names == "geometry.hull_member_lp")
                            & (parent_name == "algorithms.max_inscribed_cross_polytope")))
        out["algorithms.max_inscribed_cross_polytope.busy_s"] = (float(dur[cross].sum()), "s")
        out["algorithms.max_inscribed_cross_polytope.self_s"] = (float(self_time[cross].sum()), "s")
        out["algorithms.max_inscribed_cross_polytope.lp_solves"] = (ratio(solves, len(cross)), "count")
        out["algorithms.max_inscribed_cross_polytope.useful_ratio"] = (
            ratio(2 * info_sum(cross_ok, "chart_dim"), solves), "ratio")

        hull = sel("geometry.hull_member_lp")
        out["geometry.hull_member_lp.calls"] = (len(hull), "count")
        out["geometry.hull_member_lp.busy_s"] = (float(dur[hull].sum()), "s")
        out["geometry.hull_member_lp.self_s"] = (float(self_time[hull].sum()), "s")

        ev = sel("geometry.enumerate_sign_perm_vertices")
        ev_ok = ev[~raised[ev]]
        bytes_out = info_sum(ev_ok, "bytes_out")
        out["geometry.enumerate_sign_perm_vertices.busy_s"] = (float(dur[ev].sum()), "s")
        out["geometry.enumerate_sign_perm_vertices.vertices"] = (info_sum(ev_ok, "vertices"), "count")
        out["geometry.enumerate_sign_perm_vertices.bytes_out"] = (bytes_out, "B")
        out["geometry.enumerate_sign_perm_vertices.peak_over_out"] = (
            ratio(info_sum(ev_ok, "peak_bytes"), bytes_out), "ratio")

        for gen in ("signed_arrangements", "distinct_permutations"):
            idx = sel(f"enum.{gen}")
            out[f"enum.{gen}.rows"] = (info_sum(idx, "rows"), "count")
            out[f"enum.{gen}.busy_s"] = (float(dur[idx].sum()), "s")

        pe = sel("quantum.enumerate_pure_sign_perms")
        pe_ok = pe[~raised[pe]]
        total = info_sum(pe_ok, "total")
        retained = info_sum(pe_ok, "retained")
        out["quantum.enumerate_pure_sign_perms.busy_s"] = (float(dur[pe].sum()), "s")
        out["quantum.enumerate_pure_sign_perms.self_s"] = (float(self_time[pe].sum()), "s")
        out["quantum.enumerate_pure_sign_perms.total"] = (total, "count")
        out["quantum.enumerate_pure_sign_perms.retained"] = (retained, "count")
        out["quantum.enumerate_pure_sign_perms.retained_ratio"] = (ratio(retained, total), "ratio")

        chart = sel("quantum.to_coords", "quantum.from_coords")
        out["quantum.chart.calls"] = (len(chart), "count")
        out["quantum.chart.busy_s"] = (float(dur[chart].sum()), "s")

        # Outermost majorization calls only: rado_member -> majorizes is one call.
        maj = np.char.startswith(names, "majorization.")
        maj_outer = np.flatnonzero(maj & ~np.char.startswith(parent_name, "majorization."))
        maj_busy = float(dur[maj_outer].sum())
        out["majorization.calls"] = (len(maj_outer), "count")
        out["majorization.busy_s"] = (maj_busy, "s")
        out["majorization.us_per_call"] = (ratio(maj_busy * 1e6, len(maj_outer)), "us")

        load = sel("stateio.load_state", "stateio.load_decomposition")
        out["stateio.load.calls"] = (len(load), "count")
        out["stateio.load.busy_s"] = (float(dur[load].sum()), "s")

        main = sel("cli.main")
        out["cli.main.calls"] = (len(main), "count")
        out["cli.main.self_s"] = (float(self_time[main].sum()), "s")
        return out
