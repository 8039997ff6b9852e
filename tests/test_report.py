"""Statistics, experiment orchestration, and output rendering."""

import json
import os
import pickle
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quorumcycles import (
    CISummary,
    ExperimentError,
    ExperimentSpec,
    FaultModel,
    InsufficientSamplesError,
    QuorumBase,
    ResultRow,
    RoutingInfeasibleError,
    Topology,
    TrailMode,
    bundled_base,
    bundled_topology,
    emit,
    generate_mappings,
    generate_quorums,
    load_experiment_spec,
    mean_ci,
    parse_rows_csv,
    run_experiment,
    save_base,
)

from quorumcycles import report

from oracles import mean_interval


# ---------------------------------------------------------------- mean_ci

def test_mean_ci_constant_samples():
    ci = mean_ci([5.0, 5.0, 5.0, 5.0])
    assert (ci.mean, ci.lo, ci.hi, ci.n) == (5.0, 5.0, 5.0, 4)


def test_mean_ci_alternating_samples():
    samples = [0.0, 10.0] * 500
    ci = mean_ci(samples)
    assert ci.mean == pytest.approx(5.0)
    assert ci.hi - ci.mean == pytest.approx(0.31006, abs=5e-6)
    m, half = mean_interval(samples)
    assert ci.mean == pytest.approx(m)
    assert ci.hi - ci.mean == pytest.approx(half)


def test_mean_ci_needs_two_samples():
    with pytest.raises(InsufficientSamplesError):
        mean_ci([3.0])
    with pytest.raises(InsufficientSamplesError):
        mean_ci([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=40))
def test_mean_ci_matches_closed_form(samples):
    ci = mean_ci(samples)
    m, half = mean_interval(samples)
    assert ci.mean == pytest.approx(m, rel=1e-9, abs=1e-9)
    assert ci.hi - ci.lo == pytest.approx(2 * half, rel=1e-9, abs=1e-9)
    assert ci.lo <= ci.mean <= ci.hi


def test_cisummary_must_bracket_mean():
    with pytest.raises(ValueError, match="bracket"):
        CISummary(mean=5.0, lo=6.0, hi=7.0, n=3)


# ------------------------------------------------------------- spec model

def test_spec_validation():
    good = dict(network="x", topology="nsfnet", r_values=(1,),
                modes=(TrailMode.PAIRED,), fault_orders=(1,),
                mapping_count=5, seed=0)
    ExperimentSpec(**good)
    for field, value in [("network", ""), ("r_values", ()),
                         ("r_values", (0,)), ("modes", ()),
                         ("fault_orders", (3,)), ("mapping_count", 0),
                         ("r_values", (1, 2, 1)),
                         ("modes", (TrailMode.PAIRED, TrailMode.PAIRED)),
                         ("fault_orders", (1, 1)),
                         ("r_values", (1.5,)), ("r_values", ("2",)),
                         ("r_values", (True,)), ("fault_orders", (True,)),
                         ("fault_orders", (2.0,)),
                         ("mapping_count", 2.7), ("mapping_count", "5"),
                         ("mapping_count", True), ("seed", 1.9),
                         ("seed", "0"), ("seed", False),
                         ("modes", ("bogus",)), ("fault_model", "bogus")]:
        with pytest.raises(ValueError):
            ExperimentSpec(**{**good, field: value})
    plain = ExperimentSpec(**{**good, "modes": ("paired",),
                              "fault_model": "whole-cycle"})
    # identity, not ==: a str enum member equals its plain value
    assert (plain.modes[0] is TrailMode.PAIRED
            and plain.fault_model is FaultModel.WHOLE_CYCLE), plain


def test_load_spec_bare_and_wrapped(tmp_path):
    entry = {"network": "demo", "topology": "nsfnet", "r": [1, 2],
             "modes": ["paired", "single"], "fault_orders": [1, 2],
             "mappings": 10, "seed": 3}
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(entry))
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"experiments": [entry, entry]}))

    (spec,) = load_experiment_spec(bare)
    assert spec.network == "demo"
    assert spec.r_values == (1, 2)
    assert spec.modes == (TrailMode.PAIRED, TrailMode.SINGLE)
    assert spec.fault_orders == (1, 2)
    assert spec.mapping_count == 10
    assert spec.seed == 3
    assert spec.fault_model is FaultModel.TRUNCATED
    assert len(load_experiment_spec(wrapped)) == 2


def test_load_spec_rejects_unknown_keys(tmp_path):
    # misspelt fields must not fall back to their defaults silently
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"topology": "nsfnet", "r": 1, "mappings": 4,
                             "seed": 0, "fault_order": [2],
                             "mode": ["single"]}))
    with pytest.raises(ValueError) as info:
        load_experiment_spec(p)
    assert str(info.value) == \
        "unknown experiment spec field(s): fault_order, mode"
    demo = Path(__file__).resolve().parents[1] / "experiments" / "nsfnet_demo.json"
    (spec,) = load_experiment_spec(demo)
    assert spec.network == "nsfnet"
    assert spec.fault_model is FaultModel.TRUNCATED


def test_load_spec_scalar_r_and_defaults(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"topology": "nsfnet", "r": 2,
                             "mappings": 4, "seed": 0}))
    (spec,) = load_experiment_spec(p)
    assert spec.network == "nsfnet"
    assert spec.r_values == (2,)
    assert spec.modes == (TrailMode.PAIRED,)
    assert spec.fault_orders == (1,)
    # a scalar is checked like a list entry, not truncated to an int
    p.write_text(json.dumps({"topology": "nsfnet", "r": 1.5,
                             "mappings": 4, "seed": 0}))
    with pytest.raises(ValueError, match="r values must be positive ints"):
        load_experiment_spec(p)
    # mappings and seed are not truncated either
    p.write_text(json.dumps({"topology": "nsfnet", "r": 1,
                             "mappings": 2.7, "seed": 0}))
    with pytest.raises(ValueError, match="mapping count must be an int"):
        load_experiment_spec(p)
    p.write_text(json.dumps({"topology": "nsfnet", "r": 1,
                             "mappings": 4, "seed": 1.9}))
    with pytest.raises(ValueError, match="seed must be an int"):
        load_experiment_spec(p)


def test_spec_rejects_single_mapping(tmp_path, monkeypatch):
    # every cell is a 95% interval over mappings, which needs two samples:
    # one mapping is refused with the spec, before any quorum is routed
    def no_routing(*args):
        raise AssertionError("routed a spec that cannot give an interval")

    monkeypatch.setattr(report, "route_all", no_routing)
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"topology": "nsfnet", "r": 1,
                             "mappings": 1, "seed": 0}))
    with pytest.raises(ValueError, match="mapping count must be an int >= 2: 1"):
        (spec,) = load_experiment_spec(p)
        run_experiment(spec)


def test_load_spec_resolves_relative_paths(tmp_path):
    (tmp_path / "net.txt").write_text("n 3\n1 2\n1 3\n2 3\n")
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"topology": "net.txt", "r": 1,
                             "mappings": 4, "seed": 0,
                             "bases": {"1": "b.json"}}))
    (spec,) = load_experiment_spec(p)
    assert spec.topology == str(tmp_path / "net.txt")
    assert spec.base_files == ((1, str(tmp_path / "b.json")),)


def test_load_spec_missing_field(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"topology": "nsfnet", "r": 1, "seed": 0}))
    with pytest.raises(ValueError, match="mappings"):
        load_experiment_spec(p)


@pytest.mark.parametrize("override,message", [
    ({"bases": ["x"]}, "bases must be an object, got ['x']"),
    ({"bases": {"true": "b.json"}}, "bases keys must be positive ints, got 'true'"),
    ({"bases": {" 1": "b.json"}}, "bases keys must be positive ints, got ' 1'"),
    ({"bases": {"01": "b.json"}}, "bases keys must be positive ints, got '01'"),
    ({"bases": {"1": 5}}, "bases entry 1 must be a file path, got 5"),
    ({"modes": "paired"}, "modes must be a list, got 'paired'"),
    ({"fault_orders": 1}, "fault_orders must be a list, got 1"),
    ({"topology": 5}, "topology must be a string, got 5"),
    ({"network": 5}, "network must be a string, got 5"),
    ({"bases": {"2": "b.json"}}, "bases key 2 is not in r values (1,)"),
])
def test_load_spec_names_malformed_field(tmp_path, override, message):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"topology": "nsfnet", "r": 1, "mappings": 4,
                             "seed": 0, **override}))
    with pytest.raises(ValueError) as info:
        load_experiment_spec(p)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("payload,message", [
    ([{"topology": "nsfnet"}], "experiment spec must be an object"),
    ({"experiments": [1]}, "experiment spec must be an object, got 1"),
    ({"experiments": {"topology": "nsfnet"}}, "experiments must be a list"),
    ({"experiments": []}, "experiments list is empty"),
    ({"experiments": [{"topology": "nsfnet", "r": 1, "mappings": 4, "seed": 0}],
      "seed": 99, "mappings": 500},
     "unknown spec file field(s): mappings, seed"),
])
def test_load_spec_rejects_non_object_entries(tmp_path, payload, message):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as info:
        load_experiment_spec(p)
    assert str(info.value).startswith(message)


# ---------------------------------------------------------- run_experiment

def tri_spec(tmp_path, **overrides):
    (tmp_path / "tri.txt").write_text("n 3\n1 2\n1 3\n2 3\n")
    kwargs = dict(network="tri", topology=str(tmp_path / "tri.txt"),
                  r_values=(1,), modes=(TrailMode.SINGLE, TrailMode.PAIRED),
                  fault_orders=(1,), mapping_count=3, seed=1)
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def test_run_experiment_triangle(tmp_path):
    rows = run_experiment(tri_spec(tmp_path))
    cells = {(r.mode, r.metric, r.fault_order): r for r in rows}
    assert len(rows) == 8

    # every quorum cycle on a triangle is the full ring
    assert cells[("single", "links", 0)].mean == 9.0
    assert cells[("paired", "links", 0)].mean == 18.0
    assert cells[("paired", "missing", 0)].mean == 0.0
    assert cells[("paired", "missing_pct", 0)].mean == 0.0
    # the three rotated hubs close the one-way gaps even in single mode
    assert cells[("single", "missing", 0)].mean == 0.0
    assert cells[("paired", "coverage", 1)].mean >= cells[
        ("single", "coverage", 1)].mean
    for row in rows:
        assert row.network == "tri"
        assert row.n == 3
        assert row.excluded == 0
        assert row.lo <= row.mean <= row.hi


def test_run_experiment_deterministic(tmp_path):
    spec = tri_spec(tmp_path)
    a = emit(run_experiment(spec), "csv")
    b = emit(run_experiment(spec), "csv")
    assert a == b


def test_run_experiment_uses_base_file(tmp_path):
    base_path = tmp_path / "b.json"
    save_base(QuorumBase(n=3, r=1, members=(1, 2)),
              str(base_path))
    spec = tri_spec(tmp_path, base_files=((1, str(base_path)),))
    assert emit(run_experiment(spec), "csv") == emit(
        run_experiment(tri_spec(tmp_path)), "csv")


def test_run_experiment_rejects_wrong_size_base(tmp_path):
    base_path = tmp_path / "b.json"
    save_base(QuorumBase(n=5, r=1, members=(1, 2, 3)),
              str(base_path))
    with pytest.raises(ExperimentError, match="n=5"):
        run_experiment(tri_spec(tmp_path, base_files=((1, str(base_path)),)))


def test_run_experiment_rejects_weak_base(tmp_path):
    base_path = tmp_path / "b.json"
    save_base(QuorumBase(n=3, r=1, members=(1,)), str(base_path))
    spec = tri_spec(tmp_path, base_files=((1, str(base_path)),))
    with pytest.raises(ExperimentError, match="redundant"):
        run_experiment(spec)


@pytest.mark.parametrize("payload", ['"nrmembers"', "[3, 1, 2]"])
def test_run_experiment_rejects_non_object_base(tmp_path, payload):
    base_path = tmp_path / "b.json"
    base_path.write_text(payload)
    spec = tri_spec(tmp_path, base_files=((1, str(base_path)),))
    with pytest.raises(ExperimentError, match="must hold a JSON object"):
        run_experiment(spec)


@pytest.mark.parametrize("members, message", [
    ('[1, "2", 3]', "members must be ints"),
    ("5", "members must be a list"),
])
def test_run_experiment_rejects_malformed_base_members(tmp_path, members,
                                                       message):
    base_path = tmp_path / "b.json"
    base_path.write_text(f'{{"n": 3, "r": 1, "members": {members}}}')
    spec = tri_spec(tmp_path, base_files=((1, str(base_path)),))
    with pytest.raises(ExperimentError, match=message):
        run_experiment(spec)


def test_run_experiment_base_programming_error_propagates(tmp_path,
                                                        monkeypatch):
    def broken(n, r):
        raise TypeError("bug in base lookup")

    monkeypatch.setattr(report, "bundled_base", broken)
    with pytest.raises(TypeError, match="bug in base lookup"):
        run_experiment(tri_spec(tmp_path))


def test_run_experiment_counts_excluded_mapping(tmp_path,
                                               second_mapping_unroutable, cpus):
    cpus(1)
    rows = run_experiment(tri_spec(tmp_path))
    assert len(second_mapping_unroutable) == 3
    assert len(rows) == 8
    assert {(r.n, r.excluded) for r in rows} == {(2, 1)}


def test_run_experiment_counts_excluded_mapping_in_two_workers(
        tmp_path, second_mapping_unroutable, cpus):
    cpus(2)
    rows = run_experiment(tri_spec(tmp_path))
    assert len(rows) == 8
    assert {(r.n, r.excluded) for r in rows} == {(2, 1)}


def test_run_experiment_routing_programming_error_propagates(tmp_path,
                                                            monkeypatch):
    def broken(*args):
        raise TypeError("bug in routing")

    monkeypatch.setattr(report, "route_all", broken)
    with pytest.raises(TypeError, match="bug in routing"):
        run_experiment(tri_spec(tmp_path))


def test_run_experiment_orders_sweep_like_separate_specs(tmp_path):
    # each order's coverage comes from its own sweep, in spec order
    def coverage(orders):
        rows = run_experiment(tri_spec(tmp_path, fault_orders=orders))
        return [r for r in rows if r.metric == "coverage"]

    both, twos, ones = coverage((2, 1)), coverage((2,)), coverage((1,))
    assert both == [row for pair in zip(twos, ones) for row in pair]
    assert [r.fault_order for r in both] == [2, 1, 2, 1]
    assert both[0].mean != both[1].mean


def test_run_experiment_unroutable_topology(tmp_path):
    (tmp_path / "path.txt").write_text("n 3\n1 2\n2 3\n")
    spec = tri_spec(tmp_path, topology=str(tmp_path / "path.txt"))
    with pytest.raises(ExperimentError):
        run_experiment(spec)


# ---------------------------------------------------------- route_mappings

@pytest.fixture
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tri_inputs(count=4):
    return (Topology(n=3, edges=((1, 2), (1, 3), (2, 3))),
            generate_quorums(QuorumBase(n=3, r=1, members=(1, 2))),
            generate_mappings(3, count, 1))


def fail_for(monkeypatch, bad: dict):
    """report.route_all, raising bad[i] for mapping i of tri_inputs."""
    real, mappings = report.route_all, tri_inputs()[2]

    def route_all(g, qs, m):
        for i, exc in bad.items():
            if m == mappings[i]:
                raise exc
        return real(g, qs, m)

    monkeypatch.setattr(report, "route_all", route_all)


def routed_by(cpus, count, *args):
    cpus(count)
    return report.route_mappings(*args)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs a forked worker")


def test_route_mappings_is_the_same_in_two_workers(cpus, no_child_left):
    g = bundled_topology("nsfnet")
    qs = generate_quorums(bundled_base(14, 1))
    mappings = generate_mappings(14, 5, 3)
    assert routed_by(cpus, 2, g, qs, mappings) == \
        routed_by(cpus, 1, g, qs, mappings)


def test_exclusions_are_the_same_in_two_workers(cpus, no_child_left):
    # two triangles joined by the bridge 3-4: every mapping is excluded
    g = Topology(n=6, edges=((1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6),
                             (5, 6)))
    qs = generate_quorums(QuorumBase(n=6, r=1, members=(1, 2, 4)))
    mappings = generate_mappings(6, 3, 0)

    def shape(exc):
        return (type(exc), str(exc),
                {i: shape(e) for i, e in exc.failures.items()})

    serial = routed_by(cpus, 1, g, qs, mappings)
    assert all(isinstance(e, RoutingInfeasibleError) for e in serial)
    assert [shape(e) for e in routed_by(cpus, 2, g, qs, mappings)] \
        == [shape(e) for e in serial]


def test_routing_infeasible_error_survives_pickling():
    inner = RoutingInfeasibleError("every seed failed")
    exc = RoutingInfeasibleError("1 of 3 quorums could not be routed",
                                 failures={2: inner})
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is RoutingInfeasibleError
    assert str(back) == str(exc)
    assert list(back.failures) == [2]
    assert str(back.failures[2]) == "every seed failed"


def test_worker_programming_error_propagates(monkeypatch, tmp_path, cpus,
                                             no_child_left):
    # mapping 1 is the forked worker's with two workers
    fail_for(monkeypatch, {1: TypeError("bug in routing")})
    cpus(2)
    with pytest.raises(TypeError, match="^bug in routing$"):
        run_experiment(tri_spec(tmp_path, mapping_count=4))


@pytest.mark.parametrize("bad, raised", [
    ({1: TypeError("worker's"), 2: ValueError("parent's")}, TypeError),
    ({0: ValueError("parent's"), 1: TypeError("worker's")}, ValueError),
])
def test_first_failing_mapping_decides_the_error(monkeypatch, cpus,
                                                 no_child_left, bad, raised):
    fail_for(monkeypatch, bad)
    for count in (1, 2):
        with pytest.raises(raised):
            routed_by(cpus, count, *tri_inputs())


class TwoFieldError(Exception):
    # pickles, but cannot be rebuilt from its args alone
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


@needs_fork
def test_unpicklable_worker_error_arrives_as_text(monkeypatch, cpus,
                                                  no_child_left):
    fail_for(monkeypatch, {1: TwoFieldError(7, "odd state")})
    with pytest.raises(RuntimeError) as info:
        routed_by(cpus, 2, *tri_inputs())
    assert str(info.value) == "TwoFieldError: 7: odd state"
    assert "TwoFieldError" in info.value.__notes__[0]


@needs_fork
def test_threaded_caller_routes_in_process(monkeypatch, cpus, no_child_left):
    real, forks = os.fork, []

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        routed = routed_by(cpus, 2, *tri_inputs())
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert forks == []
    assert routed == routed_by(cpus, 1, *tri_inputs())


@needs_fork
def test_worker_that_dies_without_a_result(monkeypatch, cpus, no_child_left):
    parent, real, mappings = os.getpid(), report.route_all, tri_inputs()[2]

    def route_all(g, qs, m):
        if m == mappings[1] and os.getpid() != parent:
            os._exit(3)
        return real(g, qs, m)

    monkeypatch.setattr(report, "route_all", route_all)
    with pytest.raises(RuntimeError, match="exited with status 3 before"):
        routed_by(cpus, 2, *tri_inputs())


# ---------------------------------------------------------------- emitters

def sample_rows():
    rows = []
    for net in ["alpha", "beta", "gamma", "delta"]:
        for r, mode in [(1, "paired"), (2, "single"), (3, "single")]:
            rows.append(ResultRow(
                network=net, r=r, mode=mode, metric="coverage", fault_order=1,
                mean=99.0 + r / 7, lo=98.5, hi=99.9, n=100, excluded=0))
    return rows


def test_emit_csv_round_trip():
    rows = sample_rows()
    text = emit(rows, "csv")
    lines = text.splitlines()
    assert lines[0] == ("network,r,mode,metric,fault_order,"
                        "mean,lo,hi,n,excluded_mappings")
    assert len(lines) == 13
    assert parse_rows_csv(text) == rows


def test_emit_csv_is_lossless(tmp_path):
    row = ResultRow(network="x", r=1, mode="paired", metric="coverage",
                    fault_order=2, mean=1 / 3, lo=0.1 + 0.2, hi=0.5,
                    n=7, excluded=1)
    (back,) = parse_rows_csv(emit([row], "csv"))
    assert back == row
    assert back.mean == 1 / 3


def test_parse_rows_csv_rejects_bad_input():
    with pytest.raises(ValueError, match="header"):
        parse_rows_csv("a,b,c\n1,2,3\n")
    good = emit(sample_rows(), "csv")
    truncated = good.splitlines()[0] + "\nx,1,paired\n"
    with pytest.raises(ValueError, match="cells"):
        parse_rows_csv(truncated)


def test_emit_json():
    data = json.loads(emit(sample_rows(), "json"))
    assert len(data) == 12
    assert data[0]["network"] == "alpha"
    assert data[0]["excluded_mappings"] == 0


def test_emit_table():
    text = emit(sample_rows(), "table")
    lines = text.splitlines()
    assert lines[0].split() == list(
        "network r mode metric fault_order mean lo hi n excluded_mappings".split())
    assert len(lines) == 13
    assert all(not line.endswith(" ") for line in lines)
    assert "99.1429" in text  # 99 + 1/7 at table precision


def test_emit_rejects_empty_and_unknown():
    with pytest.raises(ValueError, match="no rows"):
        emit([], "csv")
    for format in ("yaml", "plotdata"):
        with pytest.raises(ValueError, match="unknown format"):
            emit(sample_rows(), format)
