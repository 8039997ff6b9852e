#!/usr/bin/env python3
"""Run the headline experiment grid and print the result tables.

Desk scale by default: 100 mappings on the small networks, fewer on the
big ones (the 54-node backbone costs about 4.5 s per mapping across the
three redundancy levels on a 2-vCPU VM), single-fault everywhere,
two-fault only on the 14-node network.  The whole desk run finishes in
under two minutes there (99 s, 45 s of it on the 54-node backbone).
--full switches to 1000 mappings and two-fault on every network; budget
a day for the 54-node backbone.  Output lands in experiments/ as
tables_{scale}.csv.  --networks restricts the grid: such a run prints
its table but writes nothing, so it never replaces the whole grid's
artifacts with a subset of their rows.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quorumcycles.lighttrail import TrailMode
from quorumcycles.report import ExperimentSpec, emit, run_experiment

NETWORKS = ("nsfnet", "arpanet", "american", "chinese")
DESK_MAPPINGS = {"nsfnet": 100, "arpanet": 100, "american": 50, "chinese": 10}
SEED = 20250815
OUT_DIR = Path(__file__).resolve().parents[1] / "experiments"


def specs(full: bool) -> list[ExperimentSpec]:
    out = []
    for name in NETWORKS:
        orders = (1, 2) if (full or name == "nsfnet") else (1,)
        out.append(ExperimentSpec(
            network=name, topology=name, r_values=(1, 2, 3),
            modes=(TrailMode.PAIRED, TrailMode.SINGLE),
            fault_orders=orders,
            mapping_count=1000 if full else DESK_MAPPINGS[name], seed=SEED,
        ))
    return out


def main(argv: list[str] | None = None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true",
                        help="1000 mappings, two-fault on all networks")
    parser.add_argument("--networks", nargs="+", default=list(NETWORKS),
                        choices=NETWORKS,
                        help="run only these; nothing is written to "
                             "experiments/ unless all of them run")
    args = parser.parse_args(argv)

    rows = []
    for spec in specs(args.full):
        if spec.network not in args.networks:
            continue
        t0 = time.perf_counter()
        rows.extend(run_experiment(spec))
        print(f"{spec.network}: done in {time.perf_counter()-t0:.1f}s",
              file=sys.stderr)

    print(emit(rows, "table"))
    if set(args.networks) != set(NETWORKS):
        print("ran a subset of the networks; nothing written to experiments/",
              file=sys.stderr)
        return
    scale = "full" if args.full else "desk"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"tables_{scale}.csv").write_text(emit(rows, "csv"))
    print(f"wrote experiments/tables_{scale}.csv", file=sys.stderr)


if __name__ == "__main__":
    main()
