"""Benchmark of the quorumcycles pipeline: search, routing, fault sweeps.

Run one workload:

    python3 perfbench/run.py --workload backbone54 --seed 7 --seconds 26 --trace 0

Each workload runs the library in this one process, closed loop, one
caller: the next pass starts when the previous one returns, for about
--seconds (at least one pass; with --trace 1 at least one untraced and
one traced pass).  A pass is a fixed list of calls, each timed on its
own; a pass time is the sum over its calls of that call's median time
over the passes, so a burst of load that hits one call of one pass does
not move it.  The last stdout line is a JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The full
record (samples, failures, digests, provenance) is written to
perfbench/out/, and with --trace 1 the spans too.

`--workload all` runs every workload in its own process and prints a
table; add `--smoke` to run them at a tiny size and check that every
metric named in BENCHMARK.json is reported with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS, Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MODULES = ("topology", "quorums", "routing", "lighttrail", "faultsim",
           "report", "cli")
SETUP_PROBES = 5


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name == "trace.overhead_frac":
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".calls") or name in EXACT_COUNTS:
        return "count"
    return "s"


def out_path(kind: str, workload: str, args, trace: int) -> Path:
    tag = "-smoke" if args.smoke else ""
    suffix = "jsonl" if kind == "spans" else "json"
    return OUT / f"{kind}-{workload}-seed{args.seed}-trace{trace}{tag}.{suffix}"


def load_library():
    """Import quorumcycles from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "quorumcycles" / "__init__.py").is_file():
        raise SystemExit(f"error: no quorumcycles sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("quorumcycles")
    if Path(pkg.__file__).resolve().parent != src / "quorumcycles":
        raise SystemExit(f"error: imported quorumcycles from {pkg.__file__}")
    lib = argparse.Namespace()
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"quorumcycles.{name}"))
    return lib


def provenance(seed: int) -> dict:
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_sha": sha, "git_dirty": dirty, "seed": seed,
            "loadavg_start": loadavg()}


def loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="utf-8") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def probe_setup(args) -> list[float]:
    """Wall time of the light set-up in fresh processes: interpreter start,
    imports, loading topologies and bases, generating mappings."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--probe-setup"] + (["--smoke"] if args.smoke else [])
    walls = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return walls


def run_workload(args) -> int:
    lib = load_library()
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]()
    if args.probe_setup:
        wl.setup(lib, args.seed, args.smoke, OUT)
        wl.cleanup()
        return 0

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "provenance": provenance(args.seed)}
    probes = [] if args.trace else probe_setup(args)
    tracer = Tracer(lib)
    start = time.perf_counter()
    try:
        with tracer if args.trace else contextlib.nullcontext():
            wl.setup(lib, args.seed, args.smoke, OUT)
        record["setup_in_process_s"] = time.perf_counter() - start

        passes = []
        loop_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer.op = len(passes)
            gc.collect()
            out, walls, exc = [], [], None
            with tracer if traced else contextlib.nullcontext():
                for step in wl.steps():
                    t = time.perf_counter()
                    try:
                        out.append(step())
                    except Exception:
                        exc = traceback.format_exc()
                        break
                    finally:
                        walls.append(time.perf_counter() - t)
            passes.append({"traced": traced, "walls": walls,
                           "out": None if exc else out, "exc": exc})
            # stop when the next pass would end more than half a pass late
            kinds = {p["traced"] for p in passes}
            if (time.perf_counter() - loop_start + sum(walls) / 2 >= args.seconds
                    and len(kinds) == (2 if args.trace else 1)):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        checked = check_outputs(wl, args, passes)
    finally:
        wl.cleanup()

    plain = [p for p in passes if not p["traced"]]
    wall_s = pass_time(plain)
    if args.trace:
        metrics, details = layer_metrics(
            tracer, [i for i, p in enumerate(passes) if p["traced"]])
        metrics["trace.overhead_frac"] = (
            pass_time([p for p in passes if p["traced"]]) / wall_s - 1)
        record["trace_details"] = details
        spans_path = out_path("spans", wl.name, args, 1)
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {"setup_s": statistics.median(probes),
                   "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    items = checked.pop("items")
    record.update(checked)
    record["setup_probe_s"] = probes
    record["step_walls"] = [(p["walls"], p["traced"]) for p in passes]
    record["samples"] = {"wall_s": len(plain), "setup_s": len(probes)}
    record["derived"] = {f"{k}_per_s": v / wall_s for k, v in items.items()}
    record["derived"]["fail_frac"] = record["failed"] / record["attempted"]
    record["provenance"]["loadavg_end"] = loadavg()
    result = {"correct": checked["correct"], "attempted": checked["attempted"],
              "failed": checked["failed"],
              "metrics": {k: {"value": v, "unit": unit(k)}
                          for k, v in sorted(metrics.items())}}
    record["result"] = result
    path = out_path("result", wl.name, args, args.trace)
    path.write_text(json.dumps(record, indent=1))
    print(f"{wl.name}: {len(passes)} passes, wall_s median {wall_s:.4f}, "
          f"failed {result['failed']}/{result['attempted']}; "
          f"record in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def pass_time(passes) -> float:
    """Sum over a pass's calls of each call's median time over the passes
    that reached it."""
    steps = max(len(p["walls"]) for p in passes)
    return sum(statistics.median(p["walls"][i] for p in passes
                                 if len(p["walls"]) > i)
               for i in range(steps))


def check_outputs(wl, args, passes) -> dict:
    """Check every pass's output, outside the timed phase.

    A pass fails as a whole when it raised, when its output fails a
    check, or when it differs from the first pass (traced or not);
    otherwise each excluded work item counts as one failure.
    """
    pinned = None
    if not args.smoke and (args.seed == DEFAULT_SEED or not wl.seeded):
        pinned = json.loads((HERE / "golden.json").read_text())[wl.name]
    units = wl.units()
    failed, bad_passes, reasons, digests, items = 0, 0, [], [], {}
    deep_errors = None
    for i, p in enumerate(passes):
        errors, excluded = [], []
        if p["exc"] is not None:
            errors.append(f"raised: {p['exc']}")
        else:
            try:
                excluded, errors, digest, items = wl.inspect(p["out"])
                if deep_errors is None:
                    deep_errors = wl.deep_check(p["out"])
                    errors += deep_errors
            except Exception:
                errors.append(f"check raised: {traceback.format_exc()}")
                digest = None
            digests.append(digest)
            if pinned is not None and digest != pinned:
                errors.append(f"digest {digest} != pinned {pinned}")
            if digest != digests[0]:
                errors.append("output differs from the first pass")
        if errors:
            bad_passes += 1
            failed += units
            reasons += [f"pass {i}: {e}" for e in errors]
        else:
            failed += min(units, len(excluded))
            reasons += [f"pass {i}: excluded {e}" for e in excluded]
    return {"correct": bad_passes == 0, "attempted": units * len(passes),
            "failed": failed, "failure_reasons": reasons[:50],
            "digest": digests[0] if digests else None,
            "pinned_digest": pinned, "deep_check_ran": deep_errors is not None,
            "items": items}


def run_all(args) -> int:
    """Every workload in its own process; with --smoke, both trace modes
    and a check of metric names and units against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    traces = (0, 1) if args.smoke else (args.trace,)
    problems = []
    print(f"{'workload':<12} {'metric':<32} {'value':>14}  unit")
    for name in WORKLOADS:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                                  capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{name} trace={trace}: exit "
                                f"{done.returncode}: {done.stderr.strip()}")
                continue
            result = json.loads(lines[-1])
            record = json.loads(out_path("result", name, args, trace).read_text())
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} "
                                f"differ from BENCHMARK.json {want[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: "
                                f"{record['failure_reasons'][:3]}")
            if not record["deep_check_ran"]:
                problems.append(f"{name} trace={trace}: output checks did not run")
            shown = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
            if trace == 0:
                shown.update((k, (v, "ratio" if k == "fail_frac" else "1/s"))
                             for k, v in record["derived"].items())
            for key, (value, u) in shown.items():
                print(f"{name:<12} {key:<32} {value:>14.6g}  {u}")
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
