#!/usr/bin/env python3
"""Peak resident memory of a routed run: the caller's and its workers'.

report.route_mappings forks one worker per CPU beyond the first, so a
run's memory is more than the caller's own peak.  This runs one of two
fixed runs in this process and prints, as one JSON line:

- caller_mb: the peak RSS of this process (getrusage RUSAGE_SELF)
- largest_worker_mb: the peak RSS of the largest forked worker
  (RUSAGE_CHILDREN); it counts the pages a worker shares copy-on-write
  with the caller, so it overstates what the worker adds
- forks: the workers forked over the whole run
- bound_mb: caller_mb plus largest_worker_mb for each worker that can
  run at the same time, an upper bound on the run's resident memory

The runs:
- report_demo: `report --format csv` on experiments/nsfnet_demo.json
- backbone54: run_experiment on the 54-node `chinese` network, r = 1,
  paired and single, fault orders 1 and 2, 2 mappings

Run each in a fresh process; --src picks the source tree to import, so
two checkouts can be compared:

    python3 scripts/worker_rss.py report_demo --seed 7
    python3 scripts/worker_rss.py backbone54 --src ../other/src
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def mb(who: int) -> float:
    return round(resource.getrusage(who).ru_maxrss / 1024, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("run", choices=("report_demo", "backbone54"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from quorumcycles import cli, report
    from quorumcycles.lighttrail import TrailMode

    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    os.fork = fork
    if args.run == "report_demo":
        raw = json.loads((ROOT / "experiments/nsfnet_demo.json").read_text())
        raw["experiments"][0]["seed"] = args.seed
        mappings = raw["experiments"][0]["mappings"]
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "spec.json"
            spec.write_text(json.dumps(raw))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["report", "--spec-file", str(spec),
                                 "--format", "csv"])
        if code != 0:
            return code
    else:
        mappings = 2
        report.run_experiment(report.ExperimentSpec(
            network="chinese", topology="chinese", r_values=(1,),
            modes=(TrailMode.PAIRED, TrailMode.SINGLE), fault_orders=(1, 2),
            mapping_count=mappings, seed=args.seed))

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    caller = mb(resource.RUSAGE_SELF)
    worker = mb(resource.RUSAGE_CHILDREN) if forks else 0.0
    at_once = min(cpus, mappings) - 1 if forks else 0
    print(json.dumps({"run": args.run, "seed": args.seed, "cpus": cpus,
                      "caller_mb": caller, "largest_worker_mb": worker,
                      "forks": len(forks),
                      "bound_mb": round(caller + at_once * worker, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
