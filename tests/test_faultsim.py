"""Exhaustive fault enumeration and per-scenario evaluation."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quorumcycles import (
    CycleRoute,
    DeploymentPlan,
    FaultModel,
    NodeMapping,
    Topology,
    TrailMode,
    bundled_base,
    bundled_topology,
    enumerate_faults,
    evaluate,
    generate_mappings,
    generate_quorums,
    route_all,
)

from oracles import plan_served_pairs

TRI_PLAN = DeploymentPlan(
    n=3, mode=TrailMode.PAIRED,
    cycles=(CycleRoute(sequence=(1, 2, 3, 1)),))


# --------------------------------------------------------------- scenarios

def test_enumerate_single_faults(triangle):
    assert enumerate_faults(triangle, 1) == (((1, 2),), ((1, 3),), ((2, 3),))


def test_enumerate_double_faults(square):
    scenarios = enumerate_faults(square, 2)
    assert len(scenarios) == 6
    assert scenarios == tuple(itertools.combinations(square.edges, 2))


def test_enumerate_counts_on_bundled_network():
    g = bundled_topology("nsfnet")
    assert len(enumerate_faults(g, 1)) == 22
    assert len(enumerate_faults(g, 2)) == 231


def test_enumerate_rejects_bad_orders(triangle):
    for order in (0, True, 1.5):
        with pytest.raises(ValueError, match="int >= 1"):
            enumerate_faults(triangle, order)
    with pytest.raises(ValueError):
        enumerate_faults(triangle, 4)


# --------------------------------------------------------------- evaluate

def served(plan, *edges, fault_model=FaultModel.TRUNCATED):
    return evaluate(plan, [edges], fault_model)[0]


def test_evaluate_accepts_links_either_way_round():
    plan = DeploymentPlan(
        n=4, mode=TrailMode.SINGLE,
        cycles=(CycleRoute(sequence=(1, 2, 3, 4, 1)),
                CycleRoute(sequence=(1, 3, 2, 1))))
    for model in FaultModel:
        assert served(plan, (3, 1), (2, 1), fault_model=model) == \
            served(plan, (1, 2), (1, 3), fault_model=model)
        assert served(plan, (3, 2), fault_model=model) == \
            served(plan, (2, 3), fault_model=model)
    # a written-backwards link must not miss: the square loses pairs
    assert served(plan, (3, 2)) < served(plan)


def test_evaluate_counts_repeated_link_once():
    for edges in [((1, 2), (2, 1)), ((2, 3), (2, 3)), ((3, 2), (2, 3))]:
        assert served(TRI_PLAN, *edges) == served(TRI_PLAN, edges[0])
    assert served(TRI_PLAN, (2, 3), (3, 2), (1, 2)) == \
        served(TRI_PLAN, (1, 2), (2, 3))


def test_triangle_paired_per_scenario():
    got = {e: served(TRI_PLAN, e) for e in [(1, 2), (1, 3), (2, 3)]}
    # hub-adjacent breaks keep 6 of 6 pairs, the opposite edge only 4
    assert got == {(1, 2): 6, (1, 3): 6, (2, 3): 4}


def test_coverage_sample_fields():
    total = TRI_PLAN.n * (TRI_PLAN.n - 1)
    assert total == 6
    assert evaluate(TRI_PLAN, [((2, 3),)])[0] / total == pytest.approx(4 / 6)


def test_simulate_sink_receives_every_sample(triangle):
    scenarios = list(enumerate_faults(triangle, 1))
    assert evaluate(TRI_PLAN, scenarios) == [6, 6, 4]
    assert evaluate(TRI_PLAN, scenarios[::-1]) == [4, 6, 6]
    assert evaluate(TRI_PLAN, []) == []


def test_evaluate_fault_model_by_value_matches_enum():
    g = bundled_topology("nsfnet")
    cycles = tuple(route_all(g, generate_quorums(bundled_base(14, 1)),
                             NodeMapping.identity(14)))
    plan = DeploymentPlan(n=14, mode="paired", cycles=cycles)
    scenarios = enumerate_faults(g, 1)
    for model, total in [(FaultModel.TRUNCATED, 3960),
                         (FaultModel.WHOLE_CYCLE, 3632)]:
        assert sum(evaluate(plan, scenarios, model)) == total
        assert evaluate(plan, scenarios, model.value) == \
            evaluate(plan, scenarios, model)
    with pytest.raises(ValueError, match="not a valid FaultModel"):
        evaluate(plan, scenarios, "bogus")


def test_whole_cycle_single_plan_always_dark():
    assert served(TRI_PLAN, (1, 2), fault_model=FaultModel.WHOLE_CYCLE) == 0


def test_simulate_triangle_means(triangle):
    total = 3 * 2
    single = enumerate_faults(triangle, 1)
    assert sum(evaluate(TRI_PLAN, single)) / (len(single) * total) == \
        pytest.approx((6 + 6 + 4) / (3 * 6))
    double = enumerate_faults(triangle, 2)
    assert sum(evaluate(TRI_PLAN, double)) / (len(double) * total) == \
        pytest.approx(2 / 9)


def test_simulate_whole_cycle_zero(triangle):
    counts = evaluate(TRI_PLAN, enumerate_faults(triangle, 1),
                      FaultModel.WHOLE_CYCLE)
    assert counts == [0, 0, 0]


def test_simulate_deterministic(triangle):
    scenarios = enumerate_faults(triangle, 2)
    assert evaluate(TRI_PLAN, scenarios) == evaluate(TRI_PLAN, scenarios)


# --------------------------------------------------------------- properties

@st.composite
def ring_plan_case(draw):
    n = draw(st.integers(min_value=4, max_value=8))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    cycles = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        nodes = rng.sample(range(1, n + 1), rng.randint(3, n))
        cycles.append(CycleRoute(sequence=tuple(nodes) + (nodes[0],)))
    edges = sorted({e for c in cycles for e in c.edges})
    return n, cycles, edges, rng


@settings(max_examples=120, deadline=None)
@given(ring_plan_case())
def test_double_fault_no_better_than_parts(case):
    n, cycles, edges, rng = case
    if len(edges) < 2:
        return
    e1, e2 = rng.sample(edges, 2)
    plan = DeploymentPlan(n=n, mode=TrailMode.PAIRED, cycles=tuple(cycles))
    both = served(plan, e1, e2)
    assert both <= served(plan, e1)
    assert both <= served(plan, e2)


@settings(max_examples=120, deadline=None)
@given(ring_plan_case())
def test_paired_coverage_dominates_single(case):
    n, cycles, edges, rng = case
    edge = rng.choice(edges)
    modes = {
        mode: served(DeploymentPlan(n=n, mode=mode, cycles=tuple(cycles)), edge)
        for mode in TrailMode
    }
    assert modes[TrailMode.SINGLE] <= modes[TrailMode.PAIRED]


@settings(max_examples=100, deadline=None)
@given(ring_plan_case())
def test_memoized_evaluator_matches_oracle(case):
    n, cycles, edges, rng = case
    plan = DeploymentPlan(n=n, mode=TrailMode.PAIRED, cycles=tuple(cycles))
    seqs = [c.sequence for c in cycles]
    # one call, so repeated and overlapping faults reuse the plan's tables;
    # each link is written either way round, which the oracle ignores
    scenarios = [tuple(e[::-1] if rng.random() < 0.5 else e
                       for e in rng.sample(edges, 2))
                 for _ in range(6)]
    scenarios += scenarios[:3]
    got = evaluate(plan, scenarios)
    assert got == [len(plan_served_pairs(seqs, True, s)) for s in scenarios]


def assert_evaluate_matches_plan_union(n, cycles, scenarios):
    # the oracle, not served_pairs_plan: that shares evaluate's kernel
    seqs = [c.sequence for c in cycles]
    for mode in TrailMode:
        plan = DeploymentPlan(n=n, mode=mode, cycles=tuple(cycles))
        for model in FaultModel:
            got = evaluate(plan, scenarios, model)
            assert got == [
                len(plan_served_pairs(
                    seqs, mode is TrailMode.PAIRED, s,
                    whole_cycle=model is FaultModel.WHOLE_CYCLE))
                for s in scenarios]


@settings(max_examples=60, deadline=None)
@given(ring_plan_case())
def test_evaluate_matches_uncached_plan_union(case):
    n, cycles, edges, rng = case
    g = Topology(n=n, edges=tuple(edges))
    scenarios = enumerate_faults(g, 1) + enumerate_faults(g, 2)
    if len(edges) >= 3:
        # three breaks on one ring leave a middle one that must not matter
        triples = enumerate_faults(g, 3)
        scenarios += tuple(rng.sample(triples, min(40, len(triples))))
    assert_evaluate_matches_plan_union(n, cycles, scenarios)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_evaluate_matches_plan_union_on_routed_walks(r):
    # routed cycles revisit nodes, which simple rings never do
    g = bundled_topology("nsfnet")
    qs = generate_quorums(bundled_base(g.n, r))
    scenarios = (enumerate_faults(g, 1) + enumerate_faults(g, 2)
                 + enumerate_faults(g, 3))
    plans = [route_all(g, qs, m) for m in generate_mappings(g.n, 2, seed=5)]
    assert any(len(set(c.sequence)) < c.length for p in plans for c in p)
    for cycles in plans:
        assert_evaluate_matches_plan_union(g.n, cycles, scenarios)


@pytest.mark.parametrize("mapping", [0, 1])
def test_evaluate_matches_plan_union_on_chinese_plans(mapping):
    # 54 cycles of about 20 links: failed links that share a cycle, and
    # cycles no failed link touches, come in every mix, as they do at scale
    g = bundled_topology("chinese")
    qs = generate_quorums(bundled_base(g.n, 1))
    cycles = route_all(g, qs, generate_mappings(g.n, 2, seed=5)[mapping])
    # every link of this network lies on some cycle, so the link on no
    # cycle joins two nodes the network does not link
    off_cycle = next((1, w) for w in range(2, g.n + 1) if w not in g.adjacency[1])
    rng = random.Random(20261018 + mapping)
    scenarios = []
    for i in range(300):
        links = rng.sample(g.edges, rng.randrange(1, 4))
        if i % 4 == 1:
            links.append(links[0])
        if i % 5 == 2:
            links[-1] = links[-1][::-1]
        if i % 7 == 3:
            links[rng.randrange(len(links))] = off_cycle
        scenarios.append(tuple(links))
    failed = [{tuple(sorted(e)) for e in s} for s in scenarios]
    shared = sum(any(len(c.edges & f) >= 2 for c in cycles) for f in failed)
    assert shared >= 50, shared
    assert_evaluate_matches_plan_union(g.n, cycles, scenarios)
