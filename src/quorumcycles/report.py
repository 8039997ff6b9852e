"""Experiment orchestration and summary statistics.

Runs the full grid (redundancy level x trail mode x fault order) for a
network, aggregating per-mapping metrics into means with 95% confidence
intervals, and renders result rows as an aligned table, csv or json.

The unit of replication is the node mapping: every metric is computed
per mapping first and the interval is taken across mappings.
`route_mappings` is the per-mapping unit of work; `report` and the
cli's `simulate` both route their mappings through it, side by side in
forked worker processes, one per available CPU.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from math import sqrt
from pathlib import Path
from statistics import fmean, stdev
from typing import Sequence

from .faultsim import enumerate_faults, evaluate
from .lighttrail import (DeploymentPlan, FaultModel, TrailMode, links_used,
                         missing_pairs)
from .quorums import (DEFAULT_SEARCH_BUDGET, QuorumBase, QuorumSet,
                      SearchBudget, SearchBudgetExhausted, bundled_base,
                      generate_quorums, is_r_redundant, load_base, search_min_base)
from .routing import CycleRoute, RoutingInfeasibleError, route_all
from .topology import (BUNDLED, NodeMapping, Topology, bundled_topology,
                       generate_mappings, load_topology)

# normal-approximation z for the 95% level; sample counts here are large
# enough that the t correction is noise
Z_95 = 1.96


class InsufficientSamplesError(ValueError):
    pass


class ExperimentError(RuntimeError):
    """Raised when an experiment cell cannot be computed."""


@dataclass(frozen=True)
class CISummary:
    mean: float
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not self.lo <= self.mean <= self.hi:
            raise ValueError(
                f"interval [{self.lo}, {self.hi}] does not bracket {self.mean}")


def mean_ci(samples: Sequence[float]) -> CISummary:
    """Mean with normal-approximation 95% confidence interval (z = 1.96)."""
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
        # type() rather than isinstance(): true would otherwise pass as 1
        if not self.r_values or any(type(r) is not int or r < 1 for r in self.r_values):
            raise ValueError(f"r values must be positive ints: {self.r_values}")
        if not self.modes:
            raise ValueError("at least one trail mode is required")
        # coerced now: a bad plain string would otherwise fail after routing
        object.__setattr__(self, "modes", tuple(map(TrailMode, self.modes)))
        object.__setattr__(self, "fault_model", FaultModel(self.fault_model))
        if any(type(o) is not int or o not in (1, 2) for o in self.fault_orders):
            raise ValueError(f"fault orders must be ints 1 or 2: {self.fault_orders}")
        # every cell is a 95% interval, which needs two samples
        if type(self.mapping_count) is not int or self.mapping_count < 2:
            raise ValueError(f"mapping count must be an int >= 2: {self.mapping_count!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int: {self.seed!r}")
        # a repeated value would route, evaluate and emit the same cells twice
        for field in ("r_values", "modes", "fault_orders"):
            values = getattr(self, field)
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate entries in {field}: {values}")
        # a base for an r that never runs would be silently ignored
        for r, _ in self.base_files:
            if r not in self.r_values:
                raise ValueError(f"bases key {r} is not in r values {self.r_values}")


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


_COLUMNS = ("network", "r", "mode", "metric", "fault_order",
            "mean", "lo", "hi", "n", "excluded_mappings")


def load_experiment_spec(path: str | Path) -> list[ExperimentSpec]:
    """Parse a spec file; a bare object or an {"experiments": [...]} list."""
    path = Path(path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(raw, dict) and "experiments" in raw:
        # a grid-wide "seed" or "mappings" here would otherwise be ignored
        unknown = sorted(raw.keys() - {"experiments"})
        if unknown:
            raise ValueError(f"unknown spec file field(s): {', '.join(unknown)}")
        entries = raw["experiments"]
        if not isinstance(entries, list):
            raise ValueError(f"experiments must be a list, got {entries!r}")
        if not entries:
            raise ValueError("experiments list is empty")
    else:
        entries = [raw]
    return [_spec_from_dict(e, path.resolve().parent) for e in entries]


_JSON_KINDS = {str: "a string", list: "a list", dict: "an object"}
_REQUIRED = object()
_SPEC_FIELDS = frozenset({"network", "topology", "r", "modes", "fault_orders",
                          "mappings", "seed", "fault_model", "bases"})


def _spec_from_dict(d: object, base_dir: Path) -> ExperimentSpec:
    if not isinstance(d, dict):
        raise ValueError(f"experiment spec must be an object, got {d!r}")
    unknown = sorted(d.keys() - _SPEC_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown experiment spec field(s): {', '.join(unknown)}")

    def field(name: str, kind: type = object, default=_REQUIRED):
        if name not in d:
            if default is _REQUIRED:
                raise ValueError(f"experiment spec missing required field '{name}'")
            return default
        value = d[name]
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {value!r}")
        return value

    def resolve(ref: str) -> str:
        if ref in BUNDLED:
            return ref
        p = Path(ref)
        return str(p if p.is_absolute() else base_dir / p)

    topology = field("topology", str)
    bases = field("bases", dict, {})
    for r, ref in bases.items():
        # decimal digits only: int() would also take " 1", "+1" and "01"
        if not (r.isascii() and r.isdigit()) or r.startswith("0"):
            raise ValueError(f"bases keys must be positive ints, got {r!r}")
        if not isinstance(ref, str):
            raise ValueError(f"bases entry {r} must be a file path, got {ref!r}")
    r_raw = field("r")
    return ExperimentSpec(
        network=field("network", str, topology),
        topology=resolve(topology),
        r_values=tuple(r_raw) if isinstance(r_raw, list) else (r_raw,),
        modes=tuple(field("modes", list, ["paired"])),
        fault_orders=tuple(field("fault_orders", list, [1])),
        mapping_count=field("mappings"),
        seed=field("seed"),
        fault_model=d.get("fault_model", FaultModel.TRUNCATED),
        base_files=tuple(sorted((int(r), resolve(p)) for r, p in bases.items())),
    )


def _resolve_base(n: int, r: int, base_files: dict[int, str]) -> QuorumBase:
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
    result = search_min_base(n, r, SearchBudget(max_nodes=DEFAULT_SEARCH_BUDGET))
    return result.base


def route_mappings(g: Topology, qs: QuorumSet, mappings: Sequence[NodeMapping],
                   ) -> list[tuple[CycleRoute, ...] | RoutingInfeasibleError]:
    """Per mapping, in order: its routed cycles, or the error excluding it.

    Only RoutingInfeasibleError excludes a mapping; any other exception
    is a fault in the program and propagates.  There is one worker per
    CPU in the affinity mask, at most one per mapping, and mapping i is
    routed by worker i % workers.  The caller routes share 0 and forks
    the other workers, unless it runs other threads.  The result never
    depends on the worker count, nor does which mapping's exception
    propagates.  A worker's exception keeps its type and message only
    if it survives a pickle round trip; otherwise it arrives as a
    RuntimeError carrying them.  Either way it loses its traceback,
    __cause__ and __context__.
    """
    # call-time imports, as on the forked path, so that importing this
    # module stays as cheap as it is
    import os
    import sys
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(mappings))
    # a child forked beside another thread may inherit a lock held forever
    threading = sys.modules.get("threading")
    threaded = threading is not None and threading.active_count() > 1

    def route(m: NodeMapping):
        try:
            return route_all(g, qs, m)
        except RoutingInfeasibleError as exc:
            return exc

    if workers <= 1 or threaded or not hasattr(os, "fork"):
        return [route(m) for m in mappings]
    return _route_forked(route, mappings, workers)


def _route_forked(route, mappings: Sequence[NodeMapping], workers: int) -> list:
    """route_mappings' result, mapping i routed by worker i % workers.

    This process is worker 0 and forks the others.  Each child sends its
    share back through a pipe and leaves by os._exit, so it never flushes
    the caller's stdio or runs exit handlers.  Every child is read and
    waited for, even when this process's own share raises.  Of the
    exceptions raised, the one of the lowest mapping propagates.
    """
    import marshal
    import os

    shares = [None] * workers
    pipes, pids = {}, {}
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(route, mappings, k, workers, (r, w), pipes.values())
            os.close(w)
            pipes[k], pids[k] = open(r, "rb"), pid
        shares[0] = _run_share(route, mappings, 0, workers, Exception)
    finally:
        data, status = {}, {}
        try:
            for k, pipe in pipes.items():
                data[k] = pipe.read()
        finally:
            # a child blocked on an unread pipe gets EPIPE and exits
            for pipe in pipes.values():
                pipe.close()
            for k, pid in pids.items():
                status[k] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for k, pid in pids.items():
        if status[k] != 0 or not data[k]:
            shares[k] = None, k, RuntimeError(
                f"worker {pid} exited with status {status[k]} "
                "before sending a result")
            continue
        plain, index, pickled = marshal.loads(data[k])
        if pickled is None:
            shares[k] = list(map(_routed_from_plain, plain)), None, None
        else:
            import pickle
            shares[k] = None, index, pickle.loads(pickled)

    failed = [(index, exc) for _, index, exc in shares if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    out = [None] * len(mappings)
    for k, (results, _, _) in enumerate(shares):
        out[k::workers] = results
    return out


def _child(route, mappings: Sequence[NodeMapping], k: int, step: int,
           pipe: tuple[int, int], inherited) -> None:
    """Worker k's whole life after the fork: send its share, never return.

    It closes the read ends it holds, its own and the earlier workers',
    so a parent that stops reading makes a child's write fail at once.
    """
    import os
    r, w = pipe
    code = 1
    try:
        os.close(r)
        for other in inherited:
            other.close()
        payload = _share_payload(
            _run_share(route, mappings, k, step, BaseException))
        with open(w, "wb") as out:
            out.write(payload)
        code = 0
    finally:
        os._exit(code)


def _run_share(route, mappings: Sequence[NodeMapping], k: int, step: int,
               catch: type) -> tuple:
    """(results, None, None) for mappings k, k + step, ...; on an
    exception of type catch, (None, the mapping's index, the exception)."""
    results = []
    try:
        for m in mappings[k::step]:
            results.append(route(m))
    except catch as exc:
        return None, k + step * len(results), exc
    return results, None, None


def _share_payload(share: tuple) -> bytes:
    """A worker's share as marshal bytes: routes and exclusions as plain
    tuples, or the exception pickled.

    marshal is built in, and pickle costs a routed run resident memory
    (about 0.4 MB), so pickle is imported only for an exception.  One
    that does not survive the pickle round trip is sent as a
    RuntimeError naming its type and message, its traceback as a note.
    """
    import marshal
    results, index, exc = share
    if exc is None:
        return marshal.dumps((list(map(_plain_routed, results)), None, None))
    import pickle
    try:
        pickled = pickle.dumps(exc)
        pickle.loads(pickled)
    except Exception:
        import traceback
        plain = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        plain.add_note("".join(traceback.format_exception(exc)))
        pickled = pickle.dumps(plain)
    return marshal.dumps((None, index, pickled))


def _plain_routed(routed):
    """A mapping's cycles as a tuple of node sequences, or its exclusion
    as a list [message, {quorum: plain failure}]."""
    if isinstance(routed, RoutingInfeasibleError):
        return [str(routed), {i: _plain_routed(e)
                              for i, e in routed.failures.items()}]
    return tuple(c.sequence for c in routed)


def _routed_from_plain(plain):
    if isinstance(plain, list):
        message, failures = plain
        return RoutingInfeasibleError(message, {
            i: _routed_from_plain(e) for i, e in failures.items()})
    return tuple(map(CycleRoute, plain))


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """All result rows for one spec; deterministic given the spec."""
    if spec.topology in BUNDLED:
        g = bundled_topology(spec.topology)
    else:
        g = load_topology(spec.topology)
    mappings = generate_mappings(g.n, spec.mapping_count, spec.seed)
    base_files = dict(spec.base_files)
    scenario_sets = {o: enumerate_faults(g, o) for o in spec.fault_orders}
    total_pairs = g.n * (g.n - 1)

    rows: list[ResultRow] = []
    for r in spec.r_values:
        try:
            base = _resolve_base(g.n, r, base_files)
        except (OSError, ValueError, SearchBudgetExhausted) as exc:
            raise ExperimentError(
                f"{spec.network} r={r}: no usable quorum base ({exc})"
            ) from exc
        routed = route_mappings(g, generate_quorums(base), mappings)
        cycle_lists = [c for c in routed if isinstance(c, tuple)]
        excluded = len(routed) - len(cycle_lists)
        if len(cycle_lists) < 2:
            raise ExperimentError(
                f"{spec.network} r={r}: only {len(cycle_lists)} of "
                f"{spec.mapping_count} mappings routed")

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
            gaps = [len(missing_pairs(p)) for p in plans]
            add("missing", 0, [float(count) for count in gaps])
            add("missing_pct", 0, [100.0 * count / total_pairs for count in gaps])
            for order, scenarios in scenario_sets.items():
                add("coverage", order, [
                    100.0 * sum(evaluate(p, scenarios, spec.fault_model))
                    / (len(scenarios) * total_pairs) for p in plans])
    return rows


def emit(rows: Sequence[ResultRow], format: str) -> str:
    """Render rows in one of FORMATS."""
    if not rows:
        raise ValueError("no rows to emit")
    render = FORMATS.get(format)
    if render is None:
        raise ValueError(f"unknown format: {format!r}")
    return render(rows)


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


# format name -> renderer; the cli offers exactly these names
FORMATS = {"table": _emit_table, "csv": _emit_csv, "json": _emit_json}
