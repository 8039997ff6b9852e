"""Command-line behaviour: outputs, exit codes, determinism."""

import csv
import hashlib
import io
import json

import pytest

from quorumcycles import QuorumBase, cli, parse_rows_csv, save_base
from quorumcycles.cli import main


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


# sha256 of stdout and stderr, taken before the search moved to bitmasks
SEARCH_PINS = {
    ("14", "2", None): (
        "011fc8aa8f5a8e7dcfe4e40e6909fd6215a48a8394839b4144bc7dc2e033a37b", ""),
    ("20", "3", None): (
        "c710ddddca444efc872b81ba769e9d473d6e5251f7c41c464a41849460e3459c", ""),
    ("24", "1", None): (
        "98d27bcf1d6e14c4a71583f03da08ef39d19bb15d0734293905f15bee8dbc77a", ""),
    # skips k=9,10: "minimal: not proven (budget skipped k=9,10)"
    ("24", "3", "100"): (
        "80fb67e772532f7e196bad4af515a2dd321d3c8551c9307fbe4868dedc27179b", ""),
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
    topo, base = tri_files
    dump = tmp_path / "samples.jsonl"
    real = cli.evaluate
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("evaluator crashed")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", fail_second)
    code, out, err = run(capsys, "simulate", "--topology", topo,
                         "--base-file", base, "--mode", "paired",
                         "--faults", "1", "--mappings", "3",
                         "--dump-samples", str(dump))
    assert code == 1
    assert "evaluator crashed" in err
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
        assert row["detail"].startswith("RoutingInfeasibleError: ")
    assert "mean coverage" not in err


def test_simulate_programming_error_is_not_excluded(capsys, monkeypatch,
                                                    tri_files):
    topo, base = tri_files

    def broken(*args, **kwargs):
        raise TypeError("bug in routing")

    monkeypatch.setattr(cli, "route_all", broken)
    code, out, err = run(capsys, "simulate", "--topology", topo,
                         "--base-file", base, "--mode", "paired",
                         "--faults", "1", "--mappings", "2")
    assert code == 1
    assert "excluded" not in out
    assert err == "error: bug in routing\n"


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
    rows = parse_rows_csv(out)
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
