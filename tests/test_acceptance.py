"""End-to-end acceptance gate.

Each test covers one shipping criterion and prints a single PASS line
when it holds (run with -s to see them); a failing criterion surfaces
as an ordinary test failure.  Heavier checks share module-scoped
fixtures so the whole gate stays within its time budgets.
"""

import itertools
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from quorumcycles import (
    CycleRoute,
    DeploymentPlan,
    FaultModel,
    NodeMapping,
    QuorumBase,
    RoutingInfeasibleError,
    SearchBudget,
    Topology,
    TrailMode,
    bundled_base,
    bundled_topology,
    emit,
    enumerate_faults,
    generate_quorums,
    is_r_redundant,
    load_experiment_spec,
    missing_pairs,
    parse_rows_csv,
    route_all,
    route_cycle,
    run_experiment,
    save_base,
    search_min_base,
    served_pairs_plan,
    verify_quorum_set,
)
from quorumcycles.cli import main as cli_main

from oracles import (
    min_base_exhaustive,
    minimal_cycle_length,
    random_connected_graph,
    redundant_by_enumeration,
)

SEED = 20250815
NETWORKS = ("nsfnet", "arpanet", "american", "chinese")
EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"
DESK_SPEC = EXPERIMENTS / "desk.json"
DESK_TABLE = EXPERIMENTS / "tables_desk.csv"


def note(num: int, text: str):
    print(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def khat_table():
    """Proven-minimal base sizes for n in 4..20, r in 1..3."""
    table = {}
    for n in range(4, 21):
        for r in (1, 2, 3):
            result = search_min_base(n, r, SearchBudget(max_nodes=None))
            assert result.proven_minimal
            table[(n, r)] = result
    return table


@pytest.fixture(scope="module")
def nsfnet_rows():
    """The desk grid's NSFNET experiment, shared by the table criteria."""
    (spec,) = [s for s in load_experiment_spec(DESK_SPEC) if s.network == "nsfnet"]
    started = time.monotonic()
    rows = run_experiment(spec)
    elapsed = time.monotonic() - started
    cells = {(r.r, r.mode, r.metric, r.fault_order): r for r in rows}
    return cells, elapsed


def test_criterion_1_search_matches_exhaustive(khat_table):
    started = time.monotonic()
    for n in range(4, 14):
        for r in (1, 2, 3):
            result = khat_table[(n, r)]
            report = verify_quorum_set(generate_quorums(result.base), r)
            assert report.ok, (n, r, report.violations)
            k_want, _ = min_base_exhaustive(n, r)
            assert result.base.k_hat == k_want, (n, r)
    elapsed = time.monotonic() - started
    assert elapsed < 300
    note(1, f"search minimum equals exhaustive minimum for 30 (n, r) "
            f"combinations in {elapsed:.1f}s")


def test_criterion_2_redundancy_predicate_matches_oracle():
    rng = random.Random(SEED)
    checked = 0
    for _ in range(10_000):
        n = rng.randint(4, 20)
        k = rng.randint(1, n)
        members = (1,) + tuple(rng.sample(range(2, n + 1), k - 1))
        r = rng.randint(1, 3)
        base = QuorumBase(n=n, r=r, members=members)
        assert is_r_redundant(base) == redundant_by_enumeration(members, n, r)
        checked += 1
    note(2, f"difference-count predicate agreed with enumeration on "
            f"{checked} random bases")


def test_criterion_3_sizing_law(khat_table):
    for n in range(4, 21):
        k1 = khat_table[(n, 1)].base.k_hat
        k2 = khat_table[(n, 2)].base.k_hat
        k3 = khat_table[(n, 3)].base.k_hat
        assert k1 <= k2 <= k3, n
        slack = 1 + 2 / k1
        assert k2 / k1 <= math.sqrt(2) * slack, n
        assert k3 / k1 <= math.sqrt(3) * slack, n
    note(3, "size growth stays within sqrt(r) bounds for n in 4..20")


def check_routing_quality(adj, edges, n, cset):
    g = Topology(n=n, edges=tuple(edges))
    optimum = minimal_cycle_length(adj, cset)
    try:
        cycle = route_cycle(g, frozenset(cset))
    except RoutingInfeasibleError:
        assert optimum is None, (edges, cset)
        return 0
    assert optimum is not None, (edges, cset)
    assert cycle.sequence[0] == cycle.sequence[-1]
    assert set(cset) <= set(cycle.sequence)
    assert len(set(cycle.edge_list)) == cycle.length
    assert cycle.length <= 1.2 * optimum, (edges, cset, cycle.length, optimum)
    return 1


def test_criterion_4_routing_within_1_2_of_optimum():
    started = time.monotonic()
    routed = infeasible = 0

    # every labelled connected graph on up to 5 nodes, every target set
    for n in range(3, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for picks in itertools.product((0, 1), repeat=len(pairs)):
            edges = [e for e, keep in zip(pairs, picks) if keep]
            adj = {v: [] for v in range(1, n + 1)}
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
            if not all(adj.values()):
                continue
            seen = set()
            stack = [1]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(adj[v])
            if len(seen) != n:
                continue
            for size in range(1, min(4, n) + 1):
                for cset in itertools.combinations(range(1, n + 1), size):
                    hit = check_routing_quality(adj, edges, n, cset)
                    routed += hit
                    infeasible += 1 - hit

    # seeded samples of denser graphs on 6..8 nodes
    rng = random.Random(SEED)
    for n in (6, 7, 8):
        for _ in range(120):
            edges = random_connected_graph(rng, n, rng.randint(0, n))
            adj = {v: [] for v in range(1, n + 1)}
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
            for _ in range(5):
                size = rng.randint(1, 4)
                cset = tuple(rng.sample(range(1, n + 1), size))
                hit = check_routing_quality(adj, edges, n, cset)
                routed += hit
                infeasible += 1 - hit

    elapsed = time.monotonic() - started
    assert elapsed < 600
    note(4, f"{routed} routed cycles all within 1.2x of optimum "
            f"({infeasible} correctly refused) in {elapsed:.1f}s")


def test_criterion_5_paired_plans_serve_everything():
    for name in NETWORKS:
        g = bundled_topology(name)
        base = bundled_base(g.n, 1)
        assert base is not None, name
        qs = generate_quorums(base)
        assert verify_quorum_set(qs, 1).ok, name
        cycles = route_all(g, qs, NodeMapping.identity(g.n))
        plan = DeploymentPlan(n=g.n, mode=TrailMode.PAIRED,
                              cycles=tuple(cycles))
        gaps = missing_pairs(plan)
        assert len(gaps) == 0, (name, sorted(gaps)[:5])
        served = served_pairs_plan(plan)
        assert len(served) == g.n * (g.n - 1), name
    note(5, "fault-free paired plans serve 100.00% of ordered pairs "
            "on all four bundled networks")


def test_criterion_6_resource_trend(nsfnet_rows):
    cells, elapsed = nsfnet_rows
    assert elapsed < 1800

    paired = {r: cells[(r, "paired", "links", 0)].mean for r in (1, 2, 3)}
    single = {r: cells[(r, "single", "links", 0)].mean for r in (1, 2, 3)}
    assert paired[1] < paired[2] < paired[3]

    red3 = 100.0 * (paired[1] - single[3]) / paired[1]
    red2 = 100.0 * (paired[1] - single[2]) / paired[1]
    assert 30.0 <= red3 <= 50.0, red3
    assert red2 > red3, (red2, red3)
    note(6, f"paired links {paired[1]:.1f} < {paired[2]:.1f} < "
            f"{paired[3]:.1f}; single-R3 saves {red3:.1f}%, "
            f"single-R2 saves {red2:.1f}% (run took {elapsed:.0f}s)")


def test_criterion_7_fault_coverage_bands(nsfnet_rows):
    cells, _ = nsfnet_rows
    one = {r: cells[(r, "paired", "coverage", 1)].mean for r in (1, 2, 3)}
    two = {r: cells[(r, "paired", "coverage", 2)].mean for r in (1, 2, 3)}

    assert one[1] <= one[2] <= one[3]
    for r in (1, 2, 3):
        assert one[r] >= 99.0, (r, one[r])
        assert two[r] >= 97.0, (r, two[r])
        for order in (1, 2):
            s = cells[(r, "single", "coverage", order)].mean
            p = cells[(r, "paired", "coverage", order)].mean
            assert s <= p + 1e-9, (r, order, s, p)
    note(7, f"single-fault paired coverage {one[1]:.2f} <= {one[2]:.2f} "
            f"<= {one[3]:.2f} (all >= 99); two-fault floor "
            f"{min(two.values()):.2f} >= 97")


def test_desk_table_holds_current_nsfnet_rows(nsfnet_rows):
    # the fixture runs the nsfnet entry of experiments/desk.json, so the
    # committed artifact cannot go stale without this failing
    cells, _ = nsfnet_rows
    emitted = emit(list(cells.values()), "csv").split("\n", 1)[1]
    committed = "".join(line for line in DESK_TABLE.read_text().splitlines(True)
                        if line.startswith("nsfnet,"))
    assert emitted == committed


def test_desk_table_is_exactly_the_desk_grid():
    # reads only the committed csv: every cell the grid implies, in
    # desk.json order and no other, each counting every mapping once
    specs = load_experiment_spec(DESK_SPEC)
    assert [s.network for s in specs] == list(NETWORKS)
    want = [(s.network, r, mode.value, metric, order)
            for s in specs for r in s.r_values for mode in s.modes
            for metric, order in [("links", 0), ("missing", 0), ("missing_pct", 0)]
            + [("coverage", o) for o in s.fault_orders]]
    rows = parse_rows_csv(DESK_TABLE.read_text(encoding="utf-8"))
    assert [(row.network, row.r, row.mode, row.metric, row.fault_order)
            for row in rows] == want
    mappings = {s.network: s.mapping_count for s in specs}
    for row in rows:
        assert row.n + row.excluded == mappings[row.network], row


def test_full_spec_scales_only_mappings_and_fault_orders():
    desk = load_experiment_spec(DESK_SPEC)
    full = load_experiment_spec(EXPERIMENTS / "full.json")
    assert full == [replace(s, mapping_count=1000, fault_orders=(1, 2))
                    for s in desk]


def test_criterion_8_structural_fault_properties():
    rng = random.Random(SEED)
    for case in range(1000):
        n = rng.randint(4, 9)
        cycles = []
        for _ in range(rng.randint(1, 3)):
            nodes = rng.sample(range(1, n + 1), rng.randint(3, n))
            cycles.append(CycleRoute(sequence=tuple(nodes) + (nodes[0],)))
        plans = {mode: DeploymentPlan(n=n, mode=mode, cycles=tuple(cycles))
                 for mode in TrailMode}
        edges = sorted({e for c in cycles for e in c.edges})
        fewer = rng.sample(edges, min(len(edges), rng.randint(1, 2)))
        extra = fewer + rng.sample([e for e in edges if e not in fewer],
                                   min(1, len(edges) - len(fewer)))

        small = served_pairs_plan(plans[TrailMode.PAIRED], failed_edges=fewer)
        large = served_pairs_plan(plans[TrailMode.PAIRED], failed_edges=extra)
        assert large <= small, case

        s = served_pairs_plan(plans[TrailMode.SINGLE], failed_edges=fewer)
        assert s <= small, case

        whole = served_pairs_plan(plans[TrailMode.PAIRED], failed_edges=fewer,
                                  fault_model=FaultModel.WHOLE_CYCLE)
        assert whole <= small, case

        graph = Topology(
            n=n, edges=tuple(random_connected_graph(rng, n, rng.randint(0, 3))))
        m = len(graph.edges)
        assert len(enumerate_faults(graph, 2)) == m * (m - 1) // 2, case
    note(8, "monotonicity, mode and model dominance, and the two-fault "
            "count held on 1000 randomized fixtures")


def test_criterion_9_simulate_byte_identical(capsys, tmp_path):
    base_path = tmp_path / "n14_r1.json"
    save_base(bundled_base(14, 1), str(base_path))
    argv = ["simulate", "--topology", "nsfnet", "--base-file", str(base_path),
            "--mode", "paired", "--faults", "1", "--mappings", "5",
            "--seed", "3"]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "mapping,status,scenarios,mean_coverage,detail"
    note(9, "repeated simulate runs with identical flags emit "
            "byte-identical csv")
