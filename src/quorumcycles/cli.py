"""Command-line front end.

Subcommands cover the pipeline end to end: searching and verifying
quorum bases, routing cycles on a topology, exhaustive fault
simulation, and experiment reports.  All inputs and outputs are plain
files or stdout; any error exits nonzero.

Seed defaults: `simulate --seed` defaults to 0, and `route` uses the
identity mapping unless --mapping-seed is given.  Identical flags
always produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from pathlib import Path

from . import report
from .faultsim import enumerate_faults, evaluate
from .lighttrail import DeploymentPlan, FaultModel, TrailMode
from .quorums import (DEFAULT_SEARCH_BUDGET, QuorumBase, SearchBudget,
                      generate_quorums, load_base, save_base, search_min_base,
                      verify_quorum_set)
from .routing import RoutingInfeasibleError, route_all
from .topology import (BUNDLED, NodeMapping, Topology, bundled_topology,
                       generate_mappings, load_topology)


def _load_network(args) -> tuple[Topology, QuorumBase]:
    """The --topology and --base-file inputs, checked to be the same size."""
    if args.topology in BUNDLED:
        g = bundled_topology(args.topology)
    else:
        g = load_topology(args.topology)
    base = load_base(args.base_file)
    if base.n != g.n:
        raise ValueError(f"base is for n={base.n}, topology has n={g.n}")
    return g, base


def _cmd_quorum_search(args) -> int:
    result = search_min_base(args.n, args.r,
                             SearchBudget(max_nodes=args.budget))
    base = result.base
    print(f"n={base.n} r={base.r} k_hat={base.k_hat}")
    print(f"members: {' '.join(map(str, base.members))}")
    if result.proven_minimal:
        print("minimal: proven")
    else:
        skipped = ",".join(map(str, result.skipped_k))
        print(f"minimal: not proven (budget skipped k={skipped})")
    print(f"nodes explored: {result.nodes_explored}")
    if args.out:
        save_base(result, args.out)
        print(f"saved: {args.out}")
    return 0


def _cmd_quorum_verify(args) -> int:
    base = load_base(args.base_file)
    check = verify_quorum_set(generate_quorums(base), args.r)
    print(f"n={check.n} r={args.r} k_hat={check.k_hat} "
          f"min_pair_multiplicity={check.min_pair_multiplicity}")
    for v in check.violations:
        print(f"violation: {v}")
    print("ok" if check.ok else "FAILED")
    return 0 if check.ok else 1


def _mapping_for(args, n: int) -> NodeMapping:
    if args.mapping_seed is None:
        return NodeMapping.identity(n)
    return generate_mappings(n, 2, args.mapping_seed)[1]


def _cmd_route(args) -> int:
    g, base = _load_network(args)
    mapping = _mapping_for(args, g.n)
    cycles = route_all(g, generate_quorums(base), mapping)
    total = 0
    for i, cycle in enumerate(cycles, start=1):
        total += cycle.length
        seq = "-".join(map(str, cycle.sequence))
        print(f"quorum {i}: hub={cycle.hub} len={cycle.length} {seq}")
    print(f"cycles: {len(cycles)}  total edges: {total}")
    return 0


def _cmd_simulate(args) -> int:
    g, base = _load_network(args)
    qs = generate_quorums(base)
    mode = TrailMode(args.mode)
    model = FaultModel(args.fault_model)
    mappings = generate_mappings(g.n, args.mappings, args.seed)
    scenarios = enumerate_faults(g, args.faults)
    total = g.n * (g.n - 1)

    # routed before the dump opens: the workers fork with no file open
    routed = report.route_mappings(g, qs, mappings)
    rows, means = [], []
    # samples stream to a temporary file that replaces the target only
    # once every mapping is done, so an error never leaves a partial dump
    tmp = f"{args.dump_samples}.tmp" if args.dump_samples else None
    try:
        with (open(tmp, "w", encoding="utf-8") if tmp
              else contextlib.nullcontext()) as dump:
            for idx, cycles in enumerate(routed):
                if isinstance(cycles, RoutingInfeasibleError):
                    rows.append([idx, "excluded", 0, "",
                                 f"{type(cycles).__name__}: {cycles}"])
                    continue
                plan = DeploymentPlan(n=g.n, mode=mode, cycles=cycles)
                counts = evaluate(plan, scenarios, model)
                mean = sum(counts) / (len(scenarios) * total)
                means.append(mean)
                rows.append([idx, "ok", len(scenarios), repr(mean), ""])
                if dump is not None:
                    for scenario, served in zip(scenarios, counts):
                        dump.write(json.dumps({
                            "mapping": idx,
                            "edges": [list(e) for e in scenario],
                            "served": served, "total": total,
                        }) + "\n")
        if tmp:
            os.replace(tmp, args.dump_samples)
    except BaseException:
        if tmp:
            Path(tmp).unlink(missing_ok=True)
        raise

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["mapping", "status", "scenarios", "mean_coverage", "detail"])
    writer.writerows(rows)
    if means:
        grand = sum(means) / len(means)
        print(f"mean coverage over {len(means)} mappings: "
              f"{grand:.6f} ({len(rows) - len(means)} excluded)",
              file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    # looked up on the module at call time, so a wrapper set on report
    # (as perfbench/spans.py sets them) is the function that runs
    rows = []
    for spec in report.load_experiment_spec(args.spec_file):
        rows.extend(report.run_experiment(spec))
    text = report.emit(rows, args.format)
    # UTF-8 whatever the locale, as specs are read; a text-only stream
    # (io.StringIO under contextlib.redirect_stdout) takes the str as is
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        sys.stdout.write(text)
    else:
        sys.stdout.flush()
        out.write(text.encode("utf-8"))
        out.flush()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quorumcycles",
        description="Redundant quorum cycle routing and fault simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    quorum = sub.add_parser("quorum", help="quorum base operations")
    qsub = quorum.add_subparsers(dest="quorum_command", required=True)

    qs = qsub.add_parser("search", help="find a minimal redundant base")
    qs.add_argument("--n", type=int, required=True, help="ring size")
    qs.add_argument("--r", type=int, required=True, help="redundancy level")
    qs.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                    help="search nodes allowed per quorum size level "
                         f"(default {DEFAULT_SEARCH_BUDGET})")
    qs.add_argument("--out", help="write the base as JSON here")
    qs.set_defaults(func=_cmd_quorum_search)

    qv = qsub.add_parser("verify", help="verify a stored base by enumeration")
    qv.add_argument("--base-file", required=True)
    qv.add_argument("--r", type=int, required=True)
    qv.set_defaults(func=_cmd_quorum_verify)

    rt = sub.add_parser("route", help="route one cycle per quorum")
    rt.add_argument("--topology", required=True,
                    help=f"file path or one of {', '.join(BUNDLED)}")
    rt.add_argument("--base-file", required=True)
    rt.add_argument("--mapping-seed", type=int, default=None,
                    help="permute node roles (default: identity mapping)")
    rt.set_defaults(func=_cmd_route)

    sim = sub.add_parser("simulate", help="exhaustive link-fault simulation")
    sim.add_argument("--topology", required=True)
    sim.add_argument("--base-file", required=True)
    sim.add_argument("--mode", choices=[m.value for m in TrailMode],
                     required=True)
    sim.add_argument("--faults", type=int, choices=[1, 2], required=True)
    sim.add_argument("--mappings", type=int, required=True,
                     help="mapping ensemble size (first is identity)")
    sim.add_argument("--seed", type=int, default=0,
                     help="mapping RNG seed (default 0)")
    sim.add_argument("--fault-model",
                     choices=[m.value for m in FaultModel],
                     default=FaultModel.TRUNCATED.value)
    sim.add_argument("--dump-samples",
                     help="write raw per-scenario samples as JSON lines")
    sim.set_defaults(func=_cmd_simulate)

    rp = sub.add_parser("report", help="run an experiment spec and render rows")
    rp.add_argument("--spec-file", required=True)
    rp.add_argument("--format", choices=list(report.FORMATS), default="table")
    rp.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
