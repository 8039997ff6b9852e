"""Trail service accounting: served pairs, link usage, gap reports."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from quorumcycles import (
    CycleRoute,
    DeploymentPlan,
    FaultModel,
    ServedPairs,
    TrailMode,
    links_used,
    missing_pairs,
    served_pairs_cycle,
    served_pairs_plan,
)

from oracles import plan_served_pairs, trail_served_pairs


SQUARE = CycleRoute(sequence=(1, 2, 3, 4, 1), hub=1)
TRIANGLE = CycleRoute(sequence=(1, 2, 3, 1), hub=1)


def plan(mode, *cycles, n=4):
    return DeploymentPlan(n=n, mode=mode, cycles=tuple(cycles))


# ---------------------------------------------------------------- ServedPairs

def test_served_pairs_empty():
    sp = ServedPairs(n=5, bits=0)
    assert sp.count == 0
    assert sp.total == 20
    assert sp.pairs() == frozenset()
    assert (1, 2) not in sp


def test_served_pairs_contains_and_pairs():
    sp = served_pairs_cycle(SQUARE, TrailMode.SINGLE, 4)
    assert (1, 2) in sp
    assert (4, 1) in sp
    assert (3, 2) not in sp
    assert sp.pairs() == {
        (1, 2), (1, 3), (1, 4),
        (2, 3), (2, 4), (2, 1),
        (3, 4), (3, 1),
        (4, 1),
    }
    assert sp.count == 9


# ------------------------------------------------------------- fault-free

def test_square_single_fault_free():
    sp = served_pairs_cycle(SQUARE, TrailMode.SINGLE, 4)
    assert sp.count == 9
    # the downstream-only gaps of a one-way ring trail
    missing = {(3, 2), (4, 2), (4, 3)}
    assert {(a, b) for a in range(1, 5) for b in range(1, 5)
            if a != b} - sp.pairs() == missing


def test_square_paired_fault_free():
    sp = served_pairs_cycle(SQUARE, TrailMode.PAIRED, 4)
    assert sp.count == 12
    assert sp.count == sp.total


def test_triangle_single_fault_free():
    sp = served_pairs_cycle(TRIANGLE, TrailMode.SINGLE, 3)
    assert sp.pairs() == {(1, 2), (1, 3), (2, 3), (2, 1), (3, 1)}


# ------------------------------------------------------------- with faults

def test_square_paired_cut_far_edge():
    sp = served_pairs_cycle(SQUARE, TrailMode.PAIRED, 4,
                            failed_edges=[(2, 3)])
    assert sp.count == 8
    lost = {(2, 3), (3, 2), (2, 4), (4, 2)}
    assert sp.pairs() == {(a, b) for a in range(1, 5)
                          for b in range(1, 5) if a != b} - lost


def test_triangle_paired_cut_opposite_edge():
    sp = served_pairs_cycle(TRIANGLE, TrailMode.PAIRED, 3,
                            failed_edges=[(2, 3)])
    assert sp.pairs() == {(1, 2), (2, 1), (1, 3), (3, 1)}


def test_triangle_paired_cut_hub_edge():
    # a break next to the hub still leaves the long way round in each direction
    for edge in [(1, 2), (1, 3)]:
        sp = served_pairs_cycle(TRIANGLE, TrailMode.PAIRED, 3,
                                failed_edges=[edge])
        assert sp.count == 6


def test_failed_edge_order_irrelevant():
    a = served_pairs_cycle(SQUARE, TrailMode.PAIRED, 4, failed_edges=[(2, 3)])
    b = served_pairs_cycle(SQUARE, TrailMode.PAIRED, 4, failed_edges=[(3, 2)])
    assert a == b


def test_off_cycle_fault_is_harmless():
    sp = served_pairs_cycle(TRIANGLE, TrailMode.SINGLE, 4,
                            failed_edges=[(1, 4)])
    assert sp == served_pairs_cycle(TRIANGLE, TrailMode.SINGLE, 4)


def test_whole_cycle_model_darkens_hit_cycle():
    sp = served_pairs_cycle(SQUARE, TrailMode.PAIRED, 4,
                            failed_edges=[(2, 3)],
                            fault_model=FaultModel.WHOLE_CYCLE)
    assert sp.count == 0


def test_whole_cycle_model_spares_untouched_cycle():
    p = plan(TrailMode.SINGLE, SQUARE, TRIANGLE)
    sp = served_pairs_plan(p, failed_edges=[(3, 4)],
                           fault_model=FaultModel.WHOLE_CYCLE)
    # (3,4) is only on the square; the triangle keeps serving
    assert sp == served_pairs_cycle(TRIANGLE, TrailMode.SINGLE, 4)


def test_double_fault_isolates_middle():
    # the 2-3 stretch sits between two breaks in both orientations: dark
    sp = served_pairs_cycle(SQUARE, TrailMode.PAIRED, 4,
                            failed_edges=[(1, 2), (3, 4)])
    assert sp.pairs() == {(4, 1), (1, 4)}


# ------------------------------------------------------------- plans

def test_plan_union_of_cycles():
    rev = CycleRoute(sequence=(1, 4, 3, 2, 1), hub=1)
    p = plan(TrailMode.SINGLE, SQUARE, rev)
    assert served_pairs_plan(p).count == 12


def test_plan_leaves_absent_node_unserved():
    p = plan(TrailMode.PAIRED, TRIANGLE, n=4)
    sp = served_pairs_plan(p)
    assert sp.count == 6
    assert all((4, b) not in sp and (b, 4) not in sp for b in (1, 2, 3))


def test_plan_rejects_out_of_range_node():
    with pytest.raises(ValueError, match="out of range"):
        plan(TrailMode.SINGLE, SQUARE, n=3)
    with pytest.raises(ValueError, match="out of range"):
        served_pairs_cycle(TRIANGLE, TrailMode.PAIRED, 2)
    for mode in ("bogus", "PAIRED", None):
        with pytest.raises(ValueError, match="not a valid TrailMode"):
            plan(mode, SQUARE)


# ------------------------------------------------------------- link usage

def test_links_used_counts_orientations():
    assert links_used(plan(TrailMode.SINGLE, SQUARE)) == 4
    assert links_used(plan(TrailMode.PAIRED, SQUARE)) == 8
    assert links_used(plan(TrailMode.SINGLE, TRIANGLE, n=3)) == 3
    assert links_used(plan(TrailMode.PAIRED, TRIANGLE, n=3)) == 6
    assert links_used(plan(TrailMode.PAIRED, SQUARE, TRIANGLE)) == 14
    # a mode given by its value is the same mode, not the other one
    assert plan("paired", SQUARE).mode is TrailMode.PAIRED
    assert links_used(plan("paired", SQUARE)) == 8
    assert links_used(plan("single", SQUARE)) == 4


# ------------------------------------------------------------- gap report

def test_missing_pairs_triangle_single():
    mp = missing_pairs(plan(TrailMode.SINGLE, TRIANGLE, n=3))
    assert mp.count == 1
    assert mp.pairs == ((3, 2),)
    assert mp.total == 6
    assert mp.percent == pytest.approx(100 / 6)


def test_missing_pairs_square_single():
    mp = missing_pairs(plan(TrailMode.SINGLE, SQUARE))
    assert mp.count == 3
    assert mp.pairs == ((3, 2), (4, 2), (4, 3))
    assert mp.percent == pytest.approx(25.0)


def test_missing_pairs_paired_complete():
    mp = missing_pairs(plan(TrailMode.PAIRED, SQUARE))
    assert mp.count == 0
    assert mp.percent == 0.0
    assert mp.pairs == ()


# ------------------------------------------------------------- properties

def ring_cycles(draw, n):
    """A few fabricated rings over shuffled subsets of 1..n."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(min_value=1, max_value=3))
    cycles = []
    for _ in range(count):
        size = rng.randint(3, n)
        nodes = rng.sample(range(1, n + 1), size)
        cycles.append(CycleRoute(sequence=tuple(nodes) + (nodes[0],),
                                 hub=nodes[0]))
    return cycles


@st.composite
def plan_and_faults(draw):
    n = draw(st.integers(min_value=4, max_value=9))
    cycles = ring_cycles(draw, n)
    all_edges = sorted({e for c in cycles for e in c.edges})
    k = draw(st.integers(min_value=0, max_value=min(3, len(all_edges))))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    failed = rng.sample(all_edges, k)
    return n, cycles, failed


@settings(max_examples=200, deadline=None)
@given(plan_and_faults())
def test_matches_fragment_oracle(case):
    n, cycles, failed = case
    for mode in TrailMode:
        p = DeploymentPlan(n=n, mode=mode, cycles=tuple(cycles))
        got = served_pairs_plan(p, failed_edges=failed)
        want = plan_served_pairs([c.sequence for c in cycles],
                                 paired=mode is TrailMode.PAIRED,
                                 failed_edges=failed)
        assert got.pairs() == want
        clean = plan_served_pairs([c.sequence for c in cycles],
                                  paired=mode is TrailMode.PAIRED,
                                  failed_edges=())
        gaps = sorted((a, b) for a in range(1, n + 1)
                      for b in range(1, n + 1)
                      if a != b and (a, b) not in clean)
        mp = missing_pairs(p)
        assert mp.pairs == tuple(gaps)
        assert mp.count == len(gaps)
        assert mp.total == n * (n - 1)
        assert mp.percent == pytest.approx(100 * len(gaps) / (n * (n - 1)))


@settings(max_examples=150, deadline=None)
@given(plan_and_faults())
def test_whole_cycle_matches_oracle(case):
    n, cycles, failed = case
    p = DeploymentPlan(n=n, mode=TrailMode.PAIRED, cycles=tuple(cycles))
    got = served_pairs_plan(p, failed_edges=failed,
                            fault_model=FaultModel.WHOLE_CYCLE)
    want = plan_served_pairs([c.sequence for c in cycles], paired=True,
                             failed_edges=failed, whole_cycle=True)
    assert got.pairs() == want


@settings(max_examples=150, deadline=None)
@given(plan_and_faults())
def test_extra_fault_never_helps(case):
    n, cycles, failed = case
    if not failed:
        return
    p = DeploymentPlan(n=n, mode=TrailMode.PAIRED, cycles=tuple(cycles))
    fewer = served_pairs_plan(p, failed_edges=failed[:-1])
    more = served_pairs_plan(p, failed_edges=failed)
    assert more.bits & ~fewer.bits == 0


@settings(max_examples=150, deadline=None)
@given(plan_and_faults())
def test_paired_dominates_single(case):
    n, cycles, failed = case
    single = served_pairs_plan(
        DeploymentPlan(n=n, mode=TrailMode.SINGLE, cycles=tuple(cycles)),
        failed_edges=failed)
    paired = served_pairs_plan(
        DeploymentPlan(n=n, mode=TrailMode.PAIRED, cycles=tuple(cycles)),
        failed_edges=failed)
    assert single.bits & ~paired.bits == 0


@settings(max_examples=150, deadline=None)
@given(plan_and_faults())
def test_truncated_dominates_whole_cycle(case):
    n, cycles, failed = case
    p = DeploymentPlan(n=n, mode=TrailMode.PAIRED, cycles=tuple(cycles))
    trunc = served_pairs_plan(p, failed_edges=failed)
    whole = served_pairs_plan(p, failed_edges=failed,
                              fault_model=FaultModel.WHOLE_CYCLE)
    assert whole.bits & ~trunc.bits == 0


@settings(max_examples=100, deadline=None)
@given(plan_and_faults())
def test_paired_links_double_single(case):
    n, cycles, _ = case
    single = DeploymentPlan(n=n, mode=TrailMode.SINGLE, cycles=tuple(cycles))
    paired = DeploymentPlan(n=n, mode=TrailMode.PAIRED, cycles=tuple(cycles))
    assert links_used(paired) == 2 * links_used(single)


@settings(max_examples=100, deadline=None)
@given(plan_and_faults())
def test_single_trail_oracle_per_cycle(case):
    n, cycles, failed = case
    for c in cycles:
        got = served_pairs_cycle(c, TrailMode.SINGLE, n, failed_edges=failed)
        assert got.pairs() == trail_served_pairs(c.sequence, failed)
