"""The benchmark's three workloads, their inputs and their output checks.

Each workload calls the library only through module attributes
(`lib.routing.route_all(...)`), so the tracer's wrappers see every call.
`setup` makes a workload's inputs; the benchmark repeats it in fresh
processes to time it.  A pass is the timed operation of the closed loop;
`steps` lists its calls, which the benchmark times one by one, and the
pass's output is the list of their results.  `inspect` checks one pass's
output and returns the excluded work items, the errors found and a
digest of the output; `deep_check` runs slower cross-checks once per
run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
from pathlib import Path

DEFAULT_SEED = 7
ROOT = Path(__file__).resolve().parent.parent


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_report_csv(text: str, mappings: int, r_values, modes, orders):
    """Structure of a report csv: the full grid, each cell sane.

    Returns (excluded, errors, routed) where routed maps r to the number
    of mappings that routed.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    errors, excluded, routed = [], [], {}
    expected = {(str(r), m, metric, "0") for r in r_values for m in modes
                for metric in ("links", "missing", "missing_pct")}
    expected |= {(str(r), m, "coverage", str(o))
                 for r in r_values for m in modes for o in orders}
    got = {(row["r"], row["mode"], row["metric"], row["fault_order"])
           for row in rows}
    if got != expected or len(rows) != len(expected):
        errors.append(f"report grid has {len(rows)} rows, "
                      f"missing {sorted(expected - got)}")
    for row in rows:
        r, n, lost = int(row["r"]), int(row["n"]), int(row["excluded_mappings"])
        mean = float(row["mean"])
        if n + lost != mappings:
            errors.append(f"r={r} {row['mode']} {row['metric']}: n={n} + "
                          f"excluded={lost} != {mappings} mappings")
        if row["metric"] == "coverage" and not 0.0 <= mean <= 100.0:
            errors.append(f"r={r} {row['mode']} coverage {mean} outside [0, 100]")
        if row["mode"] == "paired" and row["metric"] == "missing" and mean != 0:
            errors.append(f"r={r} paired plans miss {mean} pairs fault-free")
        if r not in routed:
            routed[r] = n
            excluded += [f"r={r}: mapping excluded by run_experiment "
                         f"(reason not reported)"] * lost
    return excluded, errors, routed


class Workload:
    """Defaults for the optional steps; subclasses define the rest."""

    seeded = True

    def cleanup(self):
        pass

    def deep_check(self, output) -> list[str]:
        return []


class ReportDemo(Workload):
    """`quorumcycles report` on experiments/nsfnet_demo.json, csv to stdout."""

    name = "report_demo"

    def setup(self, lib, seed, smoke, work_dir):
        self.lib = lib
        raw = json.loads((ROOT / "experiments" / "nsfnet_demo.json").read_text())
        spec = raw["experiments"][0]
        spec["seed"] = seed
        if smoke:
            spec["mappings"] = 2
        self.mappings = spec["mappings"]
        self.r_values = spec["r"]
        self.modes = spec["modes"]
        self.orders = spec["fault_orders"]
        self.n = lib.topology.bundled_topology(spec["topology"]).n
        self.spec_path = Path(work_dir) / f"spec-{os.getpid()}.json"
        self.spec_path.write_text(json.dumps(raw))
        self.argv = ["report", "--spec-file", str(self.spec_path),
                     "--format", "csv"]

    def cleanup(self):
        self.spec_path.unlink(missing_ok=True)

    def units(self):
        return len(self.r_values) * self.mappings

    def steps(self):
        return [self.report]

    def report(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.lib.cli.main(self.argv)
        return rc, out.getvalue(), err.getvalue()

    def inspect(self, outputs):
        (rc, text, err), = outputs
        if rc != 0:
            return [], [f"report exited {rc}: {err.strip()}"], sha256([text]), {}
        excluded, errors, routed = check_report_csv(
            text, self.mappings, self.r_values, self.modes, self.orders)
        items = {"cycles": self.n * sum(routed.values())}
        return excluded, errors, sha256([text]), items


class Backbone54(Workload):
    """report.run_experiment on the 54-node network, r=1, fault orders 1 and 2."""

    name = "backbone54"

    def setup(self, lib, seed, smoke, work_dir):
        self.lib = lib
        net = "nsfnet" if smoke else "chinese"
        self.n = lib.topology.bundled_topology(net).n
        self.spec = lib.report.ExperimentSpec(
            network=net, topology=net, r_values=(1,),
            modes=(lib.lighttrail.TrailMode.PAIRED,
                   lib.lighttrail.TrailMode.SINGLE),
            fault_orders=(1, 2), mapping_count=2, seed=seed)

    def units(self):
        return self.spec.mapping_count

    def steps(self):
        return [lambda: self.lib.report.run_experiment(self.spec)]

    def inspect(self, outputs):
        rows, = outputs
        text = self.lib.report.emit(rows, "csv")
        excluded, errors, routed = check_report_csv(
            text, self.spec.mapping_count, self.spec.r_values,
            [m.value for m in self.spec.modes], self.spec.fault_orders)
        items = {"cycles": self.n * sum(routed.values())}
        return excluded, errors, sha256([text]), items


class Search(Workload):
    """quorums.search_min_base with no node budget.

    Exhaust cases prove an infeasible size level before finding a base;
    the find case succeeds at its first level.  No randomness: the seed
    is recorded and ignored.
    """

    name = "search"
    seeded = False
    CASES = [(28, 2, "exhaust"), (29, 2, "exhaust"), (41, 1, "exhaust"),
             (43, 1, "exhaust"), (40, 2, "find")]
    SMOKE_CASES = [(20, 1, "exhaust")]

    def setup(self, lib, seed, smoke, work_dir):
        self.lib = lib
        self.cases = self.SMOKE_CASES if smoke else self.CASES

    def units(self):
        return len(self.cases)

    def steps(self):
        return [functools.partial(self._search, n, r) for n, r, _ in self.cases]

    def _search(self, n, r):
        q = self.lib.quorums
        return q.search_min_base(n, r, q.SearchBudget(max_nodes=None))

    def inspect(self, results):
        errors, lines = [], []
        for (n, r, kind), res in zip(self.cases, results):
            base = res.base
            lines.append(f"{n},{r},{list(base.members)},{base.k_hat},"
                         f"{res.proven_minimal},{list(res.exhausted_k)}")
            if (base.n, base.r) != (n, r) or not res.proven_minimal:
                errors.append(f"({n},{r}): got n={base.n} r={base.r} "
                              f"proven_minimal={res.proven_minimal}")
            if bool(res.exhausted_k) != (kind == "exhaust"):
                errors.append(f"({n},{r}) is a {kind} case but exhausted "
                              f"levels {res.exhausted_k}")
        items = {"nodes": sum(res.nodes_explored for res in results)}
        return [], errors, sha256(lines), items

    def deep_check(self, results):
        q = self.lib.quorums
        errors = []
        for (n, r, _), res in zip(self.cases, results):
            report = q.verify_quorum_set(q.generate_quorums(res.base), r)
            if not report.ok:
                errors.append(f"({n},{r}) base fails verification: "
                              f"{report.violations}")
        return errors


WORKLOADS = {w.name: w for w in (ReportDemo, Backbone54, Search)}
