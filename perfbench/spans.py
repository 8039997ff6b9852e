"""Spans around the library's public calls, recorded from outside.

The tracer replaces module attributes with timing wrappers and puts the
originals back afterwards; nothing under src/ is edited.  Modules that
import a function by name hold their own reference to it, so every such
name is wrapped where it is looked up (see WRAPPED).

A span is [name, op, parent, start, end]: op is the workload operation
it belongs to ("setup" or a pass number) and parent is the index of the
enclosing span, -1 at top level.  Spans stay in memory until the run
ends and are then written to a side file.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

# module -> attributes to wrap, and the span name each one records.
# routing.route_cycle looks up ratio_bfs/close_cycle/insert_missing as
# module globals, so wrapping them on quorumcycles.routing catches the
# calls made from inside routing; report and cli import route_all,
# missing_pairs and enumerate_faults by name.
WRAPPED = {
    "routing": ["route_all", "route_cycle", "ratio_bfs", "close_cycle",
                "insert_missing"],
    "faultsim": ["enumerate_faults"],
    "lighttrail": ["missing_pairs"],
    "quorums": ["search_min_base", "bundled_base"],
    "topology": ["bundled_topology", "generate_mappings"],
    "report": ["run_experiment", "emit", "mean_ci", "route_all",
               "missing_pairs", "enumerate_faults", "bundled_topology",
               "generate_mappings", "bundled_base"],
    "cli": ["main", "route_all", "bundled_topology", "generate_mappings"],
}

EXACT_COUNTS = ("routing.cycle_edges", "quorums.nodes",
                "quorums.levels_exhausted")


def _home(fn) -> str:
    """Span name: the module that defines the function, then its name."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _counts(name: str, result, seconds: float) -> dict[str, float]:
    """Exact work counts read off a call's result at the boundary."""
    if name == "routing.route_all":
        return {"routing.cycle_edges": sum(c.length for c in result)}
    if name == "quorums.search_min_base":
        kind = "exhaust" if result.exhausted_k else "find"
        return {"quorums.nodes": result.nodes_explored,
                "quorums.levels_exhausted": len(result.exhausted_k),
                f"quorums.search.{kind}_s": seconds}
    return {}


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self.counts: list[tuple[object, str, float]] = []
        self.op: object = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        name = _home(fn)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, self.op, stack[-1] if stack else -1,
                    perf_counter(), 0.0]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            for key, value in _counts(name, result, span[4] - span[3]).items():
                counts.append((self.op, key, value))
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for mod_name, attrs in WRAPPED.items():
            mod = getattr(self.lib, mod_name)
            for attr in attrs:
                fn = getattr(mod, attr)
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest quantile with at least ten samples beyond it, and its value.

    With ten or fewer samples no quantile qualifies; the maximum is
    reported with quantile 1.0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 1.0, ordered[-1]
    return (n - 10) / n, ordered[n - 11]


def layer_metrics(tracer: Tracer, traced_ops: list) -> tuple[dict, dict]:
    """Per-layer metrics for the set-up phase plus one median pass.

    Times and counts are summed per operation; the set-up phase counts
    once, and the traced passes contribute their median.  Returns
    (metrics, details) where details holds the tail quantiles used and
    whether every pass produced the same exact counts.
    """
    ops = ["setup"] + list(traced_ops)
    per_op: dict[object, dict[str, float]] = {op: {} for op in ops}

    def add(op, key, value):
        if op in per_op:
            bucket = per_op[op]
            bucket[key] = bucket.get(key, 0.0) + value

    child_time = [0.0] * len(tracer.spans)
    for name, op, parent, start, end in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    route_all_s = []
    for sid, (name, op, parent, start, end) in enumerate(tracer.spans):
        dur = end - start
        add(op, f"{name}.calls", 1)
        add(op, f"{name}.s", dur)
        add(op, f"{name}.self_s", dur - child_time[sid])
        if name == "routing.route_all" and op in per_op:
            route_all_s.append(dur)
    for op, key, value in tracer.counts:
        add(op, key, value)

    def value(key: str) -> float:
        setup = per_op["setup"].get(key, 0.0)
        passes = [per_op[op].get(key, 0.0) for op in traced_ops]
        return setup + (statistics.median(passes) if passes else 0.0)

    m = {}
    for key in ("routing.route_all.calls", "routing.route_all.s",
                "routing.route_cycle.calls", "routing.route_cycle.self_s",
                "routing.ratio_bfs.calls", "routing.ratio_bfs.s",
                "routing.close_cycle.calls", "routing.close_cycle.s",
                "routing.insert_missing.calls", "routing.insert_missing.s",
                "routing.cycle_edges",
                "faultsim.enumerate_faults.s",
                "lighttrail.missing_pairs.calls", "lighttrail.missing_pairs.s",
                "quorums.search.exhaust_s", "quorums.search.find_s",
                "quorums.nodes", "quorums.levels_exhausted",
                "report.run_experiment.s", "report.emit.s",
                "report.mean_ci.calls", "cli.main.s"):
        m[key] = value(key)
    m["report.self_s"] = value("report.run_experiment.self_s")
    m["cli.self_s"] = value("cli.main.self_s")
    m["topology.setup_s"] = sum(value(f"{k}.s") for k in (
        "topology.bundled_topology", "topology.generate_mappings",
        "quorums.bundled_base"))
    search_s = m["quorums.search.exhaust_s"] + m["quorums.search.find_s"]
    m["quorums.nodes_per_s"] = m["quorums.nodes"] / search_s if search_s else 0.0
    if route_all_s:
        q, tail = _tail(route_all_s)
        m["routing.route_all.p50_s"] = statistics.median(route_all_s)
        m["routing.route_all.ptail_s"] = tail
    else:
        q = None
        m["routing.route_all.p50_s"] = m["routing.route_all.ptail_s"] = 0.0

    steady = all(len({per_op[op].get(k, 0.0) for op in traced_ops}) <= 1
                 for k in EXACT_COUNTS)
    details = {"route_all_samples": len(route_all_s), "ptail_quantile": q,
               "exact_counts_equal_across_passes": steady,
               "spans": len(tracer.spans)}
    return m, details
