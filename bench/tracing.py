"""Spans around the module-level names through which ordmech's layers
call one another, for the benchmark's traced passes.

``Tracer.install`` replaces each wrap point, and every other reference to
the same function object in an ``ordmech`` module, with a wrapper that
records a span (name, start, end, parent span, op id); ``uninstall``
puts the originals back. A wrap point that no longer exists is reported
as missing instead of failing the run, so the benchmark survives later
changes that delete or rename a function.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

CALLS, TOTAL, SELF = "calls", "total_s", "self_s"
AUDIT_ENTRIES = ("audit_sum_social_choice", "audit_percentile_social_choice",
                 "audit_additive_assignment")
AUDIT_FLAGS = ("witness_repaired", "witness_at_scale_limit", "sampled_lower_bound",
               "unbounded_ratio")
SOLVER_KEYS = ("brute_force", "matching", "bottleneck", "k_center", "k_median",
               "facility_location")

# (span name, module, attribute; "A.b" is an attribute of class A and
# "SOLVERS[k]" an entry of the registry dict), and the stats reported.
WRAP_POINTS = (
    ("fileio.load_instance", "ordmech.fileio", "load_instance", (CALLS, TOTAL, SELF)),
    ("fileio.audit_report_to_dict", "ordmech.fileio", "audit_report_to_dict", (TOTAL,)),
    ("fileio.save_report", "ordmech.fileio", "save_report", (TOTAL,)),
    ("core.FullMetric.validate", "ordmech.core", "FullMetric.__post_init__", (CALLS, TOTAL)),
    ("core.validate_distance_matrix", "ordmech.core", "validate_distance_matrix",
     (CALLS, TOTAL)),
    ("core.consistency_constraints", "ordmech.core", "consistency_constraints",
     (CALLS, TOTAL)),
    ("core.check_consistency", "ordmech.core", "check_consistency", (CALLS, TOTAL)),
    *((f"social_choice.{f}", "ordmech.social_choice", f, (CALLS, TOTAL, SELF))
      for f in ("majority_graph", "distance_partial_order", "median_winner",
                "copeland_winner")),
    *((f"solvers.{k}", "ordmech.solvers", f"SOLVERS[{k}]", (CALLS, TOTAL))
      for k in SOLVER_KEYS),
    ("lp.solve_lp", "ordmech.lp", "solve_lp", (CALLS, TOTAL)),
    *((f"audit.{f}", "ordmech.audit", f, (CALLS, TOTAL, SELF)) for f in AUDIT_ENTRIES),
    ("cli.main", "ordmech.cli", "main", (CALLS, TOTAL, SELF)),
    ("gallery.verify_worked_example", "ordmech.gallery", "verify_worked_example",
     (CALLS, TOTAL)),
)

# Metrics derived from what a wrap point saw, keyed by the span they need.
DERIVED = {
    "lp.solve_lp": {"status_unbounded": "count", "status_infeasible": "count",
                    "rows_max": "count", "cols_max": "count",
                    "dense_mb_max": "MB_computed", "dense_mb_sum": "MB_computed"},
    "core.consistency_constraints": {"rows_max": "count"},
}
# solve_lp's shapes and statuses need these parameter names.
LP_SHAPE, LP_SHAPE_ARGS = "lp.solve_lp.shape", {"c", "A_ub", "A_eq"}
AUDIT_DERIVED = {"audit.lp_per_op": "count", "audit.alternatives": "count",
                 **{f"audit.flags.{f}": "count" for f in AUDIT_FLAGS}}
# Measured outside the span passes, by the harness.
EXTRA = {"op.peak_alloc_mb": "MB", "trace.overhead_pct": "%"}
STAT_UNITS = {CALLS: "count", TOTAL: "s", SELF: "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _, stats in WRAP_POINTS:
        for stat in stats:
            units[f"{name}.{stat}"] = STAT_UNITS[stat]
        for key, unit in DERIVED.get(name, {}).items():
            units[f"{name}.{key}"] = unit
    return {**units, **AUDIT_DERIVED, **EXTRA}


def _resolve(module_name: str, attr: str):
    """(owner, key, original) for a wrap point, or None if it is gone."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    if attr.startswith("SOLVERS["):
        registry = getattr(module, "SOLVERS", None)
        key = attr[len("SOLVERS["):-1]
        if not isinstance(registry, dict) or key not in registry:
            return None
        return registry, key, registry[key]
    owner = module
    *path, key = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, key, None)):
        return None
    return owner, key, getattr(owner, key)


def _shape(a) -> tuple[int, int]:
    if a is None:
        return 0, 0
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) != 2:
        return 0, 0
    return int(shape[0]), int(shape[1])


class Tracer:
    """Spans and per-call details for one traced pass at a time."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op_id]
        self.details: dict[int, dict] = {}
        self.stack: list[int] = []
        self.op_id: str | None = None
        self.missing: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -------------------------------------------------------- installing

    def install(self) -> None:
        self.missing.clear()
        for name, module_name, attr, _ in WRAP_POINTS:
            found = _resolve(module_name, attr)
            if found is None:
                self.missing.add(name)
                continue
            owner, key, original = found
            wrapper = self._wrap(name, original)
            self._patch(owner, key, wrapper)
            if isinstance(owner, (dict, type)):
                continue
            # Rebind copies made by ``from .x import f`` elsewhere in the package.
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "ordmech" or mod_name.startswith("ordmech.")) \
                        and mod is not owner:
                    for attr_name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr_name, wrapper)

    def _patch(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Root span of one op; the layer spans inside it carry its id."""
        self.op_id = op_id
        idx = len(self.spans)
        span = ["op", time.perf_counter(), 0.0, None, op_id]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.op_id = None

    def _wrap(self, name: str, fn):
        on_return = self._detail_hook(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None, tracer.op_id]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if on_return is not None:
                tracer.details[idx] = on_return(args, kwargs, result)
            return result

        return wrapper

    def _detail_hook(self, name: str, fn):
        if name == "lp.solve_lp":
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):
                sig = None
            if sig is None or not LP_SHAPE_ARGS <= set(sig.parameters):
                self.missing.add(LP_SHAPE)
                return None

            def lp_detail(args, kwargs, result):
                try:
                    bound = sig.bind(*args, **kwargs).arguments
                except TypeError:
                    return {}
                c = bound.get("c")
                cols = len(c) if c is not None else 0
                rows = _shape(bound.get("A_ub"))[0] + _shape(bound.get("A_eq"))[0]
                return {"rows": rows, "cols": cols, "status": getattr(result, "status", None)}
            return lp_detail
        if name == "core.consistency_constraints":
            return lambda args, kwargs, result: {"rows": _shape(getattr(result, "A", None))[0]}
        if name.startswith("audit."):
            return lambda args, kwargs, result: {
                "flags": tuple(getattr(result, "flags", ())),
                "alternatives": len(getattr(result, "per_alternative", ()))}
        return None

    # ----------------------------------------------------------- reading

    def reset(self) -> None:
        self.spans.clear()
        self.details.clear()
        self.stack.clear()

    def pass_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - covered[idx]
        out: dict[str, float] = {}
        for name, _, _, stats in WRAP_POINTS:
            values = {CALLS: calls[name], TOTAL: total[name], SELF: self_time[name]}
            for stat in stats:
                out[f"{name}.{stat}"] = values[stat]
        lp = [d for i, d in self.details.items() if self.spans[i][0] == "lp.solve_lp" and d]
        dense_mb = [d["rows"] * d["cols"] * 8 / 1e6 for d in lp]
        statuses = Counter(d["status"] for d in lp)
        out.update({"lp.solve_lp.status_unbounded": statuses["unbounded"],
                    "lp.solve_lp.status_infeasible": statuses["infeasible"],
                    "lp.solve_lp.rows_max": max((d["rows"] for d in lp), default=0),
                    "lp.solve_lp.cols_max": max((d["cols"] for d in lp), default=0),
                    "lp.solve_lp.dense_mb_max": max(dense_mb, default=0.0),
                    "lp.solve_lp.dense_mb_sum": sum(dense_mb)})
        out["core.consistency_constraints.rows_max"] = max(
            (d["rows"] for i, d in self.details.items()
             if self.spans[i][0] == "core.consistency_constraints"), default=0)
        audits = [d for i, d in self.details.items() if self.spans[i][0].startswith("audit.")]
        out["audit.lp_per_op"] = calls["lp.solve_lp"] / max(n_ops, 1)
        out["audit.alternatives"] = sum(d["alternatives"] for d in audits)
        for flag in AUDIT_FLAGS:
            out[f"audit.flags.{flag}"] = sum(flag in d["flags"] for d in audits)
        return out

    def missing_metrics(self) -> set[str]:
        """Metric names whose wrap point was not found at install time."""
        gone = set()
        for metric in metric_units():
            span = next((name for name, *_ in WRAP_POINTS if metric.startswith(name + ".")),
                        None)
            if span in self.missing:
                gone.add(metric)
        if all(f"audit.{f}" in self.missing for f in AUDIT_ENTRIES):
            gone |= {m for m in AUDIT_DERIVED if m != "audit.lp_per_op"}
        if "lp.solve_lp" in self.missing:
            gone.add("audit.lp_per_op")
        if LP_SHAPE in self.missing:
            gone |= {f"lp.solve_lp.{key}" for key in DERIVED["lp.solve_lp"]}
        return gone

    def op_lp_totals(self) -> dict[str, tuple[int, int, int]]:
        """op id -> (LP count, computed dense LP bytes, largest LP's bytes)."""
        totals: dict[str, tuple[int, int, int]] = {}
        for idx, (name, _, _, _, op_id) in enumerate(self.spans):
            if name == "lp.solve_lp":
                d = self.details.get(idx, {})
                nbytes = d.get("rows", 0) * d.get("cols", 0) * 8
                count, total, largest = totals.get(op_id, (0, 0, 0))
                totals[op_id] = (count + 1, total + nbytes, max(largest, nbytes))
        return totals


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes; counts repeat exactly."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
