"""Command-line behaviour: outputs, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from quorumcycles import QuorumBase, bundled_base, cli, save_base
from quorumcycles.cli import main

from conftest import read_rows

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def tri_files(tmp_path):
    topo = tmp_path / "tri.txt"
    topo.write_text("n 3\n1 2\n1 3\n2 3\n")
    base = tmp_path / "tri_base.json"
    save_base(QuorumBase(n=3, r=1, members=(1, 2)), str(base))
    return str(topo), str(base)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ quorum

def test_quorum_search_finds_known_minimum(capsys):
    code, out, _ = run(capsys, "quorum", "search", "--n", "7", "--r", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=7 r=1 k_hat=3"
    assert lines[1] == "members: 1 2 4"
    assert lines[2] == "minimal: proven"
    assert lines[3].startswith("nodes explored: ")


def test_quorum_search_writes_base_file(capsys, tmp_path):
    out_path = tmp_path / "b.json"
    code, out, _ = run(capsys, "quorum", "search", "--n", "5", "--r", "2",
                       "--out", str(out_path))
    assert code == 0
    assert f"saved: {out_path}" in out
    payload = json.loads(out_path.read_text())
    assert payload["n"] == 5
    assert payload["r"] == 2
    assert payload["proven_minimal"] is True


def test_quorum_search_infeasible(capsys):
    code, _, err = run(capsys, "quorum", "search", "--n", "4", "--r", "5")
    assert code == 1
    assert err.startswith("error: ")


# sha256 of stdout and stderr; when the search gained its tight pruning
# bound and pinned its first slot, only the `nodes explored` lines moved,
# and its multiplier cut moved none of these five
SEARCH_PINS = {
    ("14", "2", None): (
        "ba409566e2424a50374eeaef8d7dfed4b86f1a3613f7f2f28256fca7b08a058c", ""),
    ("20", "3", None): (
        "4e768e60a653aadc974df667815d64b51213bae09c224bfd6b8ce370cc6a331b", ""),
    ("24", "1", None): (
        "967407896d5cc391205e58f4b0492a69c86ea513e3e8318240e84ae29e2a4b6f", ""),
    # skips k=9,10: "minimal: not proven (budget skipped k=9,10)"
    ("24", "3", "100"): (
        "33dfdb0049f2e70db53869cc96d3937c24e798b88a402b2c55818cc02a1669a3", ""),
    # every level skipped: SearchBudgetExhausted on stderr, exit 1
    ("16", "2", "2"): (
        "", "ac6f0b6e8e8cd4f47a478879d992a06b592b766e8abb0fc291b8d4912dbfeeb3"),
}


@pytest.mark.parametrize("n,r,budget", list(SEARCH_PINS))
def test_quorum_search_stdout_pinned(capsys, n, r, budget):
    argv = ["quorum", "search", "--n", n, "--r", r]
    if budget is not None:
        argv += ["--budget", budget]
    code, out, err = run(capsys, *argv)

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest() if text else ""

    assert code == (1 if err else 0)
    assert (digest(out), digest(err)) == SEARCH_PINS[(n, r, budget)]


def test_quorum_search_proves_54_node_base_under_default_budget(capsys):
    # the k=8 level is exhausted inside the default 2M nodes a level
    code, out, _ = run(capsys, "quorum", "search", "--n", "54", "--r", "1")
    assert code == 0
    assert out.splitlines() == ["n=54 r=1 k_hat=9",
                                "members: 1 2 3 4 5 10 16 22 32",
                                "minimal: proven",
                                "nodes explored: 336270"]


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_quorum_search_rejects_bad_budget(capsys, budget):
    code, out, err = run(capsys, "quorum", "search", "--n", "14", "--r", "1",
                         "--budget", budget)
    assert code == 1
    assert out == ""
    assert err == ("error: budget max_nodes must be None or an int >= 1, "
                   f"got {budget}\n")


def test_quorum_verify_ok(capsys, tri_files):
    _, base = tri_files
    code, out, _ = run(capsys, "quorum", "verify",
                       "--base-file", base, "--r", "1")
    assert code == 0
    assert out.splitlines()[-1] == "ok"


def test_quorum_verify_rejects_higher_r(capsys, tri_files):
    _, base = tri_files
    code, out, _ = run(capsys, "quorum", "verify",
                       "--base-file", base, "--r", "2")
    assert code == 1
    assert out.splitlines()[-1] == "FAILED"
    assert "violation:" in out


def test_quorum_verify_rejects_r_zero(capsys, tri_files):
    _, base = tri_files
    code, out, err = run(capsys, "quorum", "verify",
                         "--base-file", base, "--r", "0")
    assert code == 1
    assert out == ""
    assert err == "error: r must be a positive int, got 0\n"


def test_quorum_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "quorum", "verify",
                       "--base-file", str(tmp_path / "nope.json"), "--r", "1")
    assert code == 1
    assert "error:" in err


# ------------------------------------------------------------------- route

def test_route_triangle(capsys, tri_files):
    topo, base = tri_files
    code, out, _ = run(capsys, "route", "--topology", topo,
                       "--base-file", base)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("quorum ") for line in lines[:3])
    assert lines[3] == "cycles: 3  total edges: 9"


def test_route_bundled_topology(capsys, tmp_path):
    base = tmp_path / "b.json"
    code, out, _ = run(capsys, "quorum", "search", "--n", "14", "--r", "1",
                       "--out", str(base))
    assert code == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "route", "--topology", "nsfnet",
                       "--base-file", str(base))
    assert code == 0
    assert out.splitlines()[-1].startswith("cycles: 14  total edges: ")


def test_route_mapping_seed_changes_hubs(capsys, tri_files):
    topo, base = tri_files
    _, plain, _ = run(capsys, "route", "--topology", topo, "--base-file", base)
    _, seeded, _ = run(capsys, "route", "--topology", topo,
                       "--base-file", base, "--mapping-seed", "11")
    assert plain.splitlines()[-1] == seeded.splitlines()[-1]
    assert plain != seeded


def test_route_base_size_mismatch(capsys, tri_files):
    _, base = tri_files
    code, _, err = run(capsys, "route", "--topology", "nsfnet",
                       "--base-file", base)
    assert code == 1
    assert "base is for n=3, topology has n=14" in err


# ---------------------------------------------------------------- simulate

def test_simulate_triangle_values(capsys, tri_files):
    topo, base = tri_files
    code, out, err = run(capsys, "simulate", "--topology", topo,
                         "--base-file", base, "--mode", "paired",
                         "--faults", "1", "--mappings", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mapping,status,scenarios,mean_coverage,detail"
    assert len(lines) == 3
    for idx, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(idx)
        assert cells[1] == "ok"
        assert cells[2] == "3"
        # every fault is hub-adjacent for some rotation, which serves all pairs
        assert float(cells[3]) == 1.0
    assert "mean coverage over 2 mappings:" in err
    assert "(0 excluded)" in err


def test_simulate_byte_identical_reruns(capsys, tri_files):
    topo, base = tri_files
    argv = ["simulate", "--topology", topo, "--base-file", base,
            "--mode", "single", "--faults", "2", "--mappings", "3",
            "--seed", "11"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_simulate_whole_cycle_model(capsys, tri_files):
    topo, base = tri_files
    code, out, _ = run(capsys, "simulate", "--topology", topo,
                       "--base-file", base, "--mode", "paired",
                       "--faults", "1", "--mappings", "1",
                       "--fault-model", "whole-cycle")
    assert code == 0
    # every single fault kills all three copies of the ring
    assert out.splitlines()[1].split(",")[3] == "0.0"


def test_simulate_dump_samples(capsys, tmp_path, tri_files):
    topo, base = tri_files
    dump = tmp_path / "samples.jsonl"
    code, _, _ = run(capsys, "simulate", "--topology", topo,
                     "--base-file", base, "--mode", "paired",
                     "--faults", "1", "--mappings", "2",
                     "--dump-samples", str(dump))
    assert code == 0
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    assert len(records) == 6
    assert {rec["mapping"] for rec in records} == {0, 1}
    identity = [rec for rec in records if rec["mapping"] == 0]
    served = {tuple(rec["edges"][0]): rec["served"] for rec in identity}
    assert served == {(1, 2): 6, (1, 3): 6, (2, 3): 6}
    assert all(rec["total"] == 6 for rec in records)
    assert not (tmp_path / "samples.jsonl.tmp").exists()


def test_simulate_dump_is_atomic(capsys, monkeypatch, tmp_path, tri_files):
    # the second sample fails to render, after the first was written
    topo, base = tri_files
    dump = tmp_path / "samples.jsonl"
    real = json.dumps
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("dump writer crashed")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=fail_second))
    code, out, err = run(capsys, "simulate", "--topology", topo,
                         "--base-file", base, "--mode", "paired",
                         "--faults", "1", "--mappings", "3",
                         "--dump-samples", str(dump))
    assert code == 1
    assert len(calls) == 2
    assert "dump writer crashed" in err
    assert not dump.exists()
    assert not (tmp_path / "samples.jsonl.tmp").exists()


def test_simulate_excludes_unroutable_mappings(capsys, tmp_path):
    # two triangles joined by the bridge 3-4: no quorum that spans the
    # bridge can close an edge-distinct cycle
    topo = tmp_path / "barbell.txt"
    topo.write_text("n 6\n1 2\n1 3\n2 3\n3 4\n4 5\n4 6\n5 6\n")
    base = tmp_path / "b.json"
    save_base(QuorumBase(n=6, r=1, members=(1, 2, 4)), str(base))
    code, out, err = run(capsys, "simulate", "--topology", str(topo),
                         "--base-file", str(base), "--mode", "paired",
                         "--faults", "1", "--mappings", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["mapping"] for row in rows] == ["0", "1"]
    for row in rows:
        assert row["status"] == "excluded"
        assert row["scenarios"] == "0"
        assert row["mean_coverage"] == ""

    def detail(*csets):
        return "RoutingInfeasibleError: 6 of 6 quorums could not be routed: " + "; ".join(
            f"quorum {i}: every seed failed for communication set {cset}"
            "; bridges separating the set: [(3, 4)]" for i, cset in enumerate(csets, 1))

    assert [row["detail"] for row in rows] == [
        detail([1, 2, 4], [2, 3, 5], [3, 4, 6], [1, 4, 5], [2, 5, 6], [1, 3, 6]),
        detail([1, 3, 5], [2, 3, 6], [1, 2, 4], [1, 5, 6], [3, 4, 6], [2, 4, 5])]
    assert "mean coverage" not in err


def test_simulate_programming_error_is_not_excluded(capsys, monkeypatch,
                                                    tri_files):
    topo, base = tri_files

    def broken(*args, **kwargs):
        raise TypeError("bug in routing")

    monkeypatch.setattr("quorumcycles.report.route_all", broken)
    code, out, err = run(capsys, "simulate", "--topology", topo,
                         "--base-file", base, "--mode", "paired",
                         "--faults", "1", "--mappings", "2")
    assert code == 1
    assert "excluded" not in out
    assert err == "error: bug in routing\n"


def test_simulate_excludes_only_the_unroutable_mapping(
        capsys, tri_files, second_mapping_unroutable, cpus):
    cpus(1)
    topo, base = tri_files
    code, out, err = run(capsys, "simulate", "--topology", topo,
                         "--base-file", base, "--mode", "paired",
                         "--faults", "1", "--mappings", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["status"], row["detail"]) for row in rows] == [
        ("ok", ""), ("excluded", "RoutingInfeasibleError: forced"),
        ("ok", "")]
    assert "(1 excluded)" in err


def test_simulate_excludes_only_the_unroutable_mapping_in_two_workers(
        capsys, tri_files, second_mapping_unroutable, cpus):
    cpus(2)
    topo, base = tri_files
    code, out, err = run(capsys, "simulate", "--topology", topo,
                         "--base-file", base, "--mode", "paired",
                         "--faults", "1", "--mappings", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["status"], row["detail"]) for row in rows] == [
        ("ok", ""), ("excluded", "RoutingInfeasibleError: forced"),
        ("ok", "")]
    assert "(1 excluded)" in err


def test_report_and_simulate_measure_the_same_coverage(capsys, tmp_path):
    # report takes the bundled base itself; simulate reads it from a file
    base = tmp_path / "n14_r3.json"
    save_base(bundled_base(14, 3), str(base))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "topology": "nsfnet", "r": [3], "modes": ["single"],
        "fault_orders": [2], "mappings": 4, "seed": 3,
    }))
    code, out, _ = run(capsys, "report", "--spec-file", str(spec),
                       "--format", "csv")
    assert code == 0
    (cov,) = [r for r in read_rows(out) if r.metric == "coverage"]
    code, out, _ = run(capsys, "simulate", "--topology", "nsfnet",
                       "--base-file", str(base),
                       "--mode", "single", "--faults", "2",
                       "--mappings", "4", "--seed", "3")
    assert code == 0
    means = [float(row["mean_coverage"])
             for row in csv.DictReader(io.StringIO(out))]
    assert len(means) == cov.n == 4
    assert cov.mean == pytest.approx(100 * sum(means) / len(means), rel=1e-12)


def test_simulate_base_size_mismatch(capsys, tri_files):
    _, base = tri_files
    code, _, err = run(capsys, "simulate", "--topology", "nsfnet",
                       "--base-file", base, "--mode", "paired",
                       "--faults", "1", "--mappings", "2")
    assert code == 1
    assert "base is for n=3" in err


# ------------------------------------------------------------------ report

def test_report_csv(capsys, tmp_path, tri_files):
    topo, _ = tri_files
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "network": "tri", "topology": topo, "r": [1],
        "modes": ["paired"], "fault_orders": [1],
        "mappings": 3, "seed": 2,
    }))
    code, out, _ = run(capsys, "report", "--spec-file", str(spec),
                       "--format", "csv")
    assert code == 0
    rows = read_rows(out)
    assert {r.metric for r in rows} == {"links", "missing", "missing_pct",
                                        "coverage"}
    assert all(r.network == "tri" for r in rows)


def test_report_bad_spec(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("{\"topology\": \"nsfnet\"}")
    code, _, err = run(capsys, "report", "--spec-file", str(spec),
                       "--format", "csv")
    assert code == 1
    assert "error:" in err


def test_report_rejects_duplicate_spec_entries(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "topology": "nsfnet", "r": [1, 1], "modes": ["paired", "paired"],
        "fault_orders": [1, 1], "mappings": 2, "seed": 0,
    }))
    code, out, err = run(capsys, "report", "--spec-file", str(spec),
                         "--format", "csv")
    assert (code, out) == (1, "")
    assert err == "error: duplicate entries in r_values: (1, 1)\n"


def test_report_rejects_single_mapping(capsys, tmp_path, monkeypatch):
    # one mapping cannot give an interval: refused before any routing
    routed = []
    monkeypatch.setattr("quorumcycles.report.route_all",
                        lambda *args: routed.append(args))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"topology": "nsfnet", "r": [1],
                                "mappings": 1, "seed": 0}))
    code, out, err = run(capsys, "report", "--spec-file", str(spec),
                         "--format", "csv")
    assert (code, out, routed) == (1, "", [])
    assert err == "error: mapping count must be an int >= 2: 1\n"


def test_report_reads_spec_as_utf8_under_ascii_locale(tmp_path):
    # topologies, bases and the spec are read, and the rows written, as
    # UTF-8 whatever the locale; PYTHONIOENCODING must not be needed
    import os
    import subprocess
    import sys
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "network": "nsfnet-Zürich", "topology": "nsfnet", "r": [1],
        "modes": ["single"], "fault_orders": [1], "mappings": 2, "seed": 0,
    }, ensure_ascii=False), encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
    env.pop("PYTHONIOENCODING", None)
    for extra in ({}, {"PYTHONIOENCODING": "utf-8"}):
        proc = subprocess.run(
            [sys.executable, "-m", "quorumcycles", "report",
             "--spec-file", str(spec), "--format", "csv"],
            capture_output=True, env={**env, **extra})
        assert (proc.returncode, proc.stderr) == (0, b""), extra
        rows = read_rows(proc.stdout.decode("utf-8"))
        assert {row.network for row in rows} == {"nsfnet-Zürich"}, extra


# sha256 of the outputs every speedup must leave byte for byte unchanged
SIMULATE_PINS = {
    "stdout": "9dc5163e61d7ab240a5a41f5c4d6e9c653e709de6319d7efe4e0f4d6ff432892",
    "stderr": "b1313e4a65561e0be42c9197207a6bdb369a914e4401a477620ceb1b57a08379",
    "samples": "121813e861bc277043ac048d85edd9d7506a8a9db0ed90a5786e15fa28c6c566",
}
REPORT_DEMO_CSV_PIN = (
    "a61b2147f1ec586a88a1384b449d10bda42029efbd6439b69bcb7c53020e56cd")
# `route` stdout: quorum numbers, hubs, lengths and every cycle's walk
ROUTE_PINS = {
    ("nsfnet", "n14_r3.json", "5"):
        "22ac22ead1f215c16d8638b87e2084de7211a0c8d2b09949fc4f9d942d93b76f",
    ("chinese", "n54_r1.json", None):
        "73b9706b9b511b254c03073702e049423142c855b1448eea20f815e32aedae9b",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_simulate_nsfnet_outputs_pinned(capsys, tmp_path):
    dump = tmp_path / "samples.jsonl"
    code, out, err = run(
        capsys, "simulate", "--topology", "nsfnet",
        "--base-file", str(REPO / "src/quorumcycles/data/bases/n14_r3.json"),
        "--mode", "single", "--faults", "2", "--mappings", "4",
        "--seed", "3", "--dump-samples", str(dump))
    assert code == 0
    assert {"stdout": sha256(out.encode()), "stderr": sha256(err.encode()),
            "samples": sha256(dump.read_bytes())} == SIMULATE_PINS


@pytest.mark.parametrize("network,base,seed", list(ROUTE_PINS))
def test_route_stdout_pinned(capsys, network, base, seed):
    argv = ["route", "--topology", network, "--base-file",
            str(REPO / "src/quorumcycles/data/bases" / base)]
    if seed is not None:
        argv += ["--mapping-seed", seed]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert sha256(out.encode()) == ROUTE_PINS[network, base, seed]


def test_report_demo_csv_pinned(capsys):
    code, out, _ = run(capsys, "report", "--spec-file",
                       str(REPO / "experiments/nsfnet_demo.json"),
                       "--format", "csv")
    assert code == 0
    assert sha256(out.encode()) == REPORT_DEMO_CSV_PIN


def test_report_demo_csv_is_the_same_in_one_and_two_workers(capsys, cpus):
    outs = []
    for count in (1, 2):
        cpus(count)
        outs.append(run(capsys, "report", "--spec-file",
                        str(REPO / "experiments/nsfnet_demo.json"),
                        "--format", "csv"))
    assert outs[0][0] == 0
    assert outs[0] == outs[1]


def test_simulate_outputs_are_the_same_in_one_and_two_workers(capsys, cpus,
                                                               tmp_path):
    outputs = []
    for count in (1, 2):
        cpus(count)
        dump = tmp_path / f"samples{count}.jsonl"
        code, out, err = run(
            capsys, "simulate", "--topology", "nsfnet",
            "--base-file", str(REPO / "src/quorumcycles/data/bases/n14_r3.json"),
            "--mode", "single", "--faults", "1", "--mappings", "4",
            "--seed", "3", "--dump-samples", str(dump))
        assert code == 0
        outputs.append((out, err, dump.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("count, forked", [(4, 2), (1, 0)])
def test_workers_are_capped_by_mappings_and_cpus(capsys, monkeypatch, cpus,
                                                 tri_files, count, forked):
    # on 4 CPUs, 3 mappings need 2 children; a broken cap forks at most 3
    real, forks = os.fork, []

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    cpus(count)
    topo, base = tri_files
    code, out, _ = run(capsys, "simulate", "--topology", topo,
                       "--base-file", base, "--mode", "paired",
                       "--faults", "1", "--mappings", "3")
    assert code == 0
    assert len(out.splitlines()) == 4
    assert len(forks) == forked


def test_report_format_outside_formats_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--spec-file", "unused.json", "--format", "plotdata"])
    assert exc.value.code == 2
    assert "invalid choice: 'plotdata'" in capsys.readouterr().err


# ------------------------------------------------------------------- misc

def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point(tri_files):
    import subprocess
    import sys
    topo, base = tri_files
    proc = subprocess.run(
        [sys.executable, "-m", "quorumcycles", "route",
         "--topology", topo, "--base-file", base],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "cycles: 3  total edges: 9"
