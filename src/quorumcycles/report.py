"""Experiment orchestration and summary statistics.

Runs the full grid (redundancy level x trail mode x fault order) for a
network, aggregating per-mapping metrics into means with 95% confidence
intervals, and renders result rows as an aligned table, csv, json, or
plot-ready series data.

The unit of replication is the node mapping: every metric is computed
per mapping first and the interval is taken across mappings.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import islice
from math import sqrt
from pathlib import Path
from statistics import fmean, stdev
from typing import Sequence

from .faultsim import enumerate_faults, evaluate
from .lighttrail import (DeploymentPlan, FaultModel, TrailMode, links_used,
                         missing_pairs)
from .quorums import (QuorumBase, SearchBudget, SearchBudgetExhausted,
                      bundled_base, generate_quorums, is_r_redundant,
                      load_base, search_min_base)
from .routing import RoutingInfeasibleError, route_all
from .topology import (BUNDLED, bundled_topology, generate_mappings,
                       load_topology)

# normal-approximation z for the 95% level; sample counts here are large
# enough that the t correction is noise
Z_95 = 1.96


class InsufficientSamplesError(ValueError):
    pass


class ExperimentError(RuntimeError):
    """Raised when an experiment cell cannot be computed.

    Carries any rows finished before the failure so partial results
    are not lost.
    """

    def __init__(self, message: str, rows: Sequence["ResultRow"] = ()):
        super().__init__(message)
        self.rows = list(rows)


@dataclass(frozen=True)
class CISummary:
    mean: float
    lo: float
    hi: float
    n: int
    level: float = 0.95

    def __post_init__(self):
        if not self.lo <= self.mean <= self.hi:
            raise ValueError(
                f"interval [{self.lo}, {self.hi}] does not bracket {self.mean}")


def mean_ci(samples: Sequence[float], level: float = 0.95) -> CISummary:
    """Mean with normal-approximation confidence interval (z = 1.96)."""
    if level != 0.95:
        raise ValueError("only the 0.95 level is supported")
    n = len(samples)
    if n < 2:
        raise InsufficientSamplesError(
            f"need at least 2 samples for an interval, got {n}")
    m = fmean(samples)
    half = Z_95 * stdev(samples) / sqrt(n)
    return CISummary(mean=m, lo=m - half, hi=m + half, n=n)


@dataclass(frozen=True)
class ExperimentSpec:
    """One network's slice of the experiment grid."""

    network: str
    topology: str
    r_values: tuple[int, ...]
    modes: tuple[TrailMode, ...]
    fault_orders: tuple[int, ...]
    mapping_count: int
    seed: int
    fault_model: FaultModel = FaultModel.TRUNCATED
    base_files: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if not self.network:
            raise ValueError("network name must be non-empty")
        if not self.r_values or any(r < 1 for r in self.r_values):
            raise ValueError(f"bad redundancy list: {self.r_values}")
        if not self.modes:
            raise ValueError("at least one trail mode is required")
        if any(o not in (1, 2) for o in self.fault_orders):
            raise ValueError(f"fault orders must be 1 or 2: {self.fault_orders}")
        if self.mapping_count < 1:
            raise ValueError(f"mapping count must be >= 1: {self.mapping_count}")


@dataclass(frozen=True)
class ResultRow:
    """One metric cell: key fields plus its interval, flat for csv."""

    network: str
    r: int
    mode: str
    metric: str
    fault_order: int
    mean: float
    lo: float
    hi: float
    n: int
    excluded: int

    @property
    def summary(self) -> CISummary:
        return CISummary(mean=self.mean, lo=self.lo, hi=self.hi, n=self.n)


_COLUMNS = ("network", "r", "mode", "metric", "fault_order",
            "mean", "lo", "hi", "n", "excluded_mappings")


def load_experiment_spec(path: str | Path) -> list[ExperimentSpec]:
    """Parse a spec file; a bare object or an {"experiments": [...]} list."""
    path = Path(path)
    raw = json.loads(path.read_text())
    if isinstance(raw, dict) and "experiments" in raw:
        entries = raw["experiments"]
    else:
        entries = [raw]
    return [_spec_from_dict(e, path.resolve().parent) for e in entries]


def _spec_from_dict(d: dict, base_dir: Path) -> ExperimentSpec:
    def resolve(ref: str) -> str:
        if ref in BUNDLED:
            return ref
        p = Path(ref)
        return str(p if p.is_absolute() else base_dir / p)

    try:
        topology = resolve(d["topology"])
        r_raw = d["r"]
        r_values = tuple(r_raw) if isinstance(r_raw, list) else (int(r_raw),)
        spec = ExperimentSpec(
            network=d.get("network", d["topology"]),
            topology=topology,
            r_values=r_values,
            modes=tuple(TrailMode(m) for m in d.get("modes", ["paired"])),
            fault_orders=tuple(d.get("fault_orders", [1])),
            mapping_count=int(d["mappings"]),
            seed=int(d["seed"]),
            fault_model=FaultModel(d.get("fault_model", "truncated")),
            base_files=tuple(sorted(
                (int(r), resolve(p)) for r, p in d.get("bases", {}).items())),
        )
    except KeyError as exc:
        raise ValueError(f"experiment spec missing required field {exc}") from exc
    return spec


def _resolve_base(n: int, r: int, base_files: dict[int, str],
                  search_budget: int) -> QuorumBase:
    path = base_files.get(r)
    if path is not None:
        base = load_base(path)
        if base.n != n:
            raise ValueError(
                f"base file {path} is for n={base.n}, topology has n={n}")
        base = QuorumBase(n=n, r=r, members=base.members)
        if not is_r_redundant(base):
            raise ValueError(
                f"base file {path} is not {r}-redundant for n={n}")
        return base
    bundled = bundled_base(n, r)
    if bundled is not None:
        return bundled
    result = search_min_base(n, r, SearchBudget(max_nodes=search_budget))
    return result.base


def run_experiment(spec: ExperimentSpec, *,
                   search_budget: int = 2_000_000) -> list[ResultRow]:
    """All result rows for one spec; deterministic given the spec."""
    if spec.topology in BUNDLED:
        g = bundled_topology(spec.topology)
    else:
        g = load_topology(spec.topology)
    mappings = generate_mappings(g.n, spec.mapping_count, spec.seed)
    base_files = dict(spec.base_files)
    scenario_sets = {o: enumerate_faults(g, o) for o in spec.fault_orders}
    all_scenarios = [s for scenarios in scenario_sets.values() for s in scenarios]
    total_pairs = g.n * (g.n - 1)

    rows: list[ResultRow] = []
    for r in spec.r_values:
        try:
            base = _resolve_base(g.n, r, base_files, search_budget)
        except (OSError, ValueError, SearchBudgetExhausted) as exc:
            raise ExperimentError(
                f"{spec.network} r={r}: no usable quorum base ({exc})",
                rows) from exc
        qs = generate_quorums(base)
        cycle_lists = []
        excluded = 0
        for m in mappings:
            try:
                cycle_lists.append(tuple(route_all(g, qs, m)))
            except RoutingInfeasibleError:
                excluded += 1
        if len(cycle_lists) < 2:
            raise ExperimentError(
                f"{spec.network} r={r}: only {len(cycle_lists)} of "
                f"{spec.mapping_count} mappings routed", rows)

        for mode in spec.modes:
            plans = [DeploymentPlan(n=g.n, mode=mode, cycles=cycles)
                     for cycles in cycle_lists]

            def add(metric: str, order: int, samples: list[float]):
                ci = mean_ci(samples)
                rows.append(ResultRow(
                    network=spec.network, r=r, mode=mode.value, metric=metric,
                    fault_order=order, mean=ci.mean, lo=ci.lo, hi=ci.hi,
                    n=ci.n, excluded=excluded))

            add("links", 0, [float(links_used(p)) for p in plans])
            gaps = [missing_pairs(p) for p in plans]
            add("missing", 0, [float(mp.count) for mp in gaps])
            add("missing_pct", 0, [mp.percent for mp in gaps])

            if spec.fault_orders:
                cov: dict[int, list[float]] = {o: [] for o in spec.fault_orders}
                for plan in plans:
                    # one call over every order shares the per-cycle memo
                    counts = iter(evaluate(plan, all_scenarios,
                                           spec.fault_model))
                    for order, scenarios in scenario_sets.items():
                        served = sum(islice(counts, len(scenarios)))
                        cov[order].append(
                            100.0 * served / (len(scenarios) * total_pairs))
                for order in spec.fault_orders:
                    add("coverage", order, cov[order])
    return rows


def emit(rows: Sequence[ResultRow], format: str) -> str:
    """Render rows as table, csv, json, or plotdata text."""
    if not rows:
        raise ValueError("no rows to emit")
    if format == "csv":
        return _emit_csv(rows)
    if format == "json":
        return _emit_json(rows)
    if format == "table":
        return _emit_table(rows)
    if format == "plotdata":
        return _emit_plotdata(rows)
    raise ValueError(f"unknown format: {format!r}")


def _cells(row: ResultRow) -> tuple:
    return (row.network, row.r, row.mode, row.metric, row.fault_order,
            row.mean, row.lo, row.hi, row.n, row.excluded)


def _emit_csv(rows: Sequence[ResultRow]) -> str:
    # repr() floats round-trip exactly, keeping csv -> parse lossless
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v
                         for v in _cells(row)])
    return buf.getvalue()


def parse_rows_csv(text: str) -> list[ResultRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != _COLUMNS:
        raise ValueError(f"unexpected csv header: {header}")
    rows = []
    for rec in reader:
        if len(rec) != len(_COLUMNS):
            raise ValueError(f"row has {len(rec)} cells: {rec}")
        rows.append(ResultRow(
            network=rec[0], r=int(rec[1]), mode=rec[2], metric=rec[3],
            fault_order=int(rec[4]), mean=float(rec[5]), lo=float(rec[6]),
            hi=float(rec[7]), n=int(rec[8]), excluded=int(rec[9])))
    return rows


def _emit_json(rows: Sequence[ResultRow]) -> str:
    return json.dumps([dict(zip(_COLUMNS, _cells(r))) for r in rows], indent=2)


def _emit_table(rows: Sequence[ResultRow]) -> str:
    def fmt(v) -> str:
        return f"{v:.4f}" if isinstance(v, float) else str(v)

    grid = [list(_COLUMNS)] + [[fmt(v) for v in _cells(r)] for r in rows]
    widths = [max(len(line[i]) for line in grid) for i in range(len(_COLUMNS))]
    out = []
    for line in grid:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"


def _emit_plotdata(rows: Sequence[ResultRow]) -> str:
    """Series per network, grouped by metric and fault order.

    Point x labels combine redundancy and mode ("R2-single") so one
    axis can mix cells the way the coverage figures do.
    """
    groups: dict[tuple[str, int], dict[str, list]] = {}
    for row in rows:
        series = groups.setdefault((row.metric, row.fault_order), {})
        series.setdefault(row.network, []).append({
            "x": f"R{row.r}-{row.mode}",
            "mean": row.mean, "lo": row.lo, "hi": row.hi, "n": row.n,
        })
    out = {"groups": [
        {"metric": metric, "fault_order": order,
         "series": [{"name": name, "points": pts}
                    for name, pts in groups[(metric, order)].items()]}
        for metric, order in sorted(groups)
    ]}
    return json.dumps(out, indent=2)
