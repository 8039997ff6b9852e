import gc
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quorumcycles import routing
from quorumcycles.disjoint import pair_cycle
from quorumcycles.quorums import QuorumBase, bundled_base, generate_quorums
from quorumcycles.routing import (CycleRoute, RoutingInfeasibleError,
                                  close_cycle, insert_missing, ratio_bfs,
                                  route_all, route_cycle)
from quorumcycles.topology import (NodeMapping, Topology, bundled_topology,
                                   generate_mappings, parse_topology)

from conftest import adjacency_dict
from oracles import (all_c_paths, best_insertion, best_shortest_path,
                     detour_walk, minimal_cycle_length, random_connected_graph,
                     reference_route_cycle)


def graph(n, edges):
    return Topology(n=n, edges=tuple(sorted(edges)))


def assert_valid_cycle(cycle: CycleRoute, g: Topology, cset):
    seq = cycle.sequence
    assert seq[0] == seq[-1] == cycle.hub
    for a, b in zip(seq, seq[1:]):
        assert g.has_edge(a, b), (a, b)
    assert len(cycle.edge_list) == len(set(cycle.edge_list))
    assert set(cset) <= cycle.nodes


def test_cycle_route_rejects_malformed():
    with pytest.raises(ValueError, match="at least 3"):
        CycleRoute(sequence=(1, 2, 1))
    with pytest.raises(ValueError, match="return"):
        CycleRoute(sequence=(1, 2, 3, 4))
    with pytest.raises(ValueError, match="reuses"):
        CycleRoute(sequence=(1, 2, 1, 2, 1))


def test_ratio_bfs_direct_edge(triangle):
    assert ratio_bfs(triangle, 1, {1, 3}) == (1, 3)


def test_ratio_bfs_forced_path():
    g = graph(3, [(1, 2), (2, 3)])
    assert ratio_bfs(g, 1, {1, 3}) == (1, 2, 3)


def test_ratio_bfs_prefers_denser_route():
    # two 3-hop routes from 1 to 6; only the upper one passes member 3
    g = graph(6, [(1, 2), (2, 3), (3, 6), (1, 4), (4, 5), (5, 6)])
    assert ratio_bfs(g, 1, {1, 3, 6}) == (1, 2, 3, 6)


def ratio_key(path, cset):
    inside = sum(1 for v in path if v in cset)
    return (-Fraction(inside, len(path)), len(path) - 1, path)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_ratio_bfs_matches_exhaustive_scan(seed):
    rng = random.Random(seed)
    n = rng.randrange(4, 8)
    g = graph(n, random_connected_graph(rng, n, rng.randrange(0, n)))
    cset = frozenset(rng.sample(range(1, n + 1), rng.randrange(2, min(n, 4) + 1)))
    source = min(cset)
    got = ratio_bfs(g, source, cset)

    adj = adjacency_dict(g)
    # seed paths end at other members; shortest per target, most members,
    # then lexicographic, exactly as documented
    paths = [p for p, _ in all_c_paths(adj, source, cset)
             if len(p) > 1 and p[-1] in cset]
    shortest = {}
    for p in paths:
        t = p[-1]
        if t not in shortest or len(p) < len(shortest[t]):
            shortest[t] = p
    best = {}
    for p in paths:
        t = p[-1]
        if len(p) != len(shortest[t]):
            continue
        inside = sum(1 for v in p if v in cset)
        key = (-inside, p)
        if t not in best or key < best[t]:
            best[t] = key
    candidates = [cand[1] for cand in best.values()]
    expected = min(candidates, key=lambda p: ratio_key(p, cset))
    assert got == expected


def test_close_cycle_triangle(triangle):
    cycle = close_cycle(triangle, (1, 2))
    assert cycle.sequence == (1, 2, 3, 1)


def test_close_cycle_ring(ring5):
    assert close_cycle(ring5, (1, 2)).sequence == (1, 2, 3, 4, 5, 1)


def test_close_cycle_bridge_fails():
    g = graph(3, [(1, 2), (2, 3)])
    assert close_cycle(g, (1, 2)) is None


def test_close_cycle_rejects_path_off_the_graph(square):
    with pytest.raises(ValueError, match="share no link"):
        close_cycle(square, (1, 3))


def test_insert_adjacent_to_consecutive_nodes(square):
    g = graph(5, list(square.edges) + [(1, 5), (2, 5)])
    cycle = CycleRoute(sequence=(1, 2, 3, 4, 1))
    grown = insert_missing(g, cycle, 5)
    assert grown.sequence == (1, 5, 2, 3, 4, 1)
    assert grown.length == cycle.length + 1


def test_insert_picks_earliest_replacement_on_ties(square):
    # 5 reaches {2,3,4}: replacing (2,3) or (3,4) both give length 5
    g = graph(5, list(square.edges) + [(2, 5), (3, 5), (4, 5)])
    cycle = CycleRoute(sequence=(1, 2, 3, 4, 1))
    grown = insert_missing(g, cycle, 5)
    assert grown.sequence == (1, 2, 5, 3, 4, 1)


def test_insert_pendant_node_fails(triangle):
    g = graph(4, list(triangle.edges) + [(1, 4)])
    cycle = CycleRoute(sequence=(1, 2, 3, 1))
    assert insert_missing(g, cycle, 4) is None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_insert_is_strictly_longer_and_valid(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 9)
    g = graph(n, random_connected_graph(rng, n, rng.randrange(2, n)))
    # grow some cycle first, then insert a node off it
    try:
        cycle = route_cycle(g, {1, 2})
    except RoutingInfeasibleError:
        return
    missing = [v for v in g.nodes if v not in cycle.nodes]
    if not missing:
        return
    v = missing[0]
    grown = insert_missing(g, cycle, v)
    if grown is None:
        return
    assert grown.length > cycle.length
    assert v in grown.nodes
    assert cycle.nodes <= grown.nodes
    assert_valid_cycle(grown, g, cycle.nodes | {v})


def test_insert_matches_scan_of_every_position():
    # insert_missing visits positions best-first and stops early; it must
    # pick what trying every link position picks, infeasible cases included
    rng = random.Random(20251018)
    outcomes = {"inserted": 0, "infeasible": 0}
    for _ in range(150):
        n = rng.randrange(5, 17)
        g = graph(n, random_connected_graph(rng, n, rng.randrange(0, n)))
        size = rng.randrange(2, min(n, 6) + 1)
        cset = frozenset(rng.sample(range(1, n + 1), size))
        cycle = close_cycle(g, ratio_bfs(g, min(cset), cset), cset)
        if cycle is None:
            continue
        adj = adjacency_dict(g)
        seq = cycle.sequence
        for v in sorted(set(g.nodes) - cycle.nodes):
            expected = best_insertion(adj, seq, v, cset)
            if expected is None:
                assert insert_missing(g, cycle, v, cset) is None
                outcomes["infeasible"] += 1
                continue
            _, pos, det = expected
            got = insert_missing(g, cycle, v, cset).sequence
            assert got == seq[:pos + 1] + det[1:] + seq[pos + 2:], (g.edges, seq, v)
            outcomes["inserted"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_insert_memo_answers_as_a_fresh_search(monkeypatch):
    # one memo across limits in any order, and across both directions of
    # one cycle, must give what a call with a fresh memo gives
    detours = 0
    original = routing._detour

    def counting(*args, **kwargs):
        nonlocal detours
        detours += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(routing, "_detour", counting)

    def inserted(*args, **kwargs):
        route = insert_missing(*args, **kwargs)
        return route and route.sequence

    rng = random.Random(20261020)
    outcomes = {"cycle": 0, "none": 0}
    shared = fresh = 0
    for _ in range(80):
        n = rng.randrange(5, 15)
        g = graph(n, random_connected_graph(rng, n, rng.randrange(0, n)))
        cset = frozenset(rng.sample(range(1, n + 1), rng.randrange(2, min(n, 5) + 1)))
        cycle = close_cycle(g, ratio_bfs(g, min(cset), cset), cset)
        if cycle is None:
            continue
        back = CycleRoute(sequence=cycle.sequence[::-1])
        for v in sorted(set(g.nodes) - cycle.nodes):
            memo = {}
            limits = [None] + list(range(cycle.length, cycle.length + 8))
            calls = [(route, limit) for route in (cycle, back) for limit in limits]
            rng.shuffle(calls)
            for route, limit in calls:
                before = detours
                want = inserted(g, route, v, cset, limit=limit)
                fresh += detours - before
                before = detours
                assert inserted(g, route, v, cset, limit=limit, memo=memo) == want
                shared += detours - before
                outcomes["none" if want is None else "cycle"] += 1
    assert min(outcomes.values()) >= 100, outcomes
    assert 3 * shared < fresh, (shared, fresh)


def test_tree_legs_and_detours_match_oracle():
    # insert_missing derives both greedy legs at a link position from one
    # BFS off the cycle and re-searches only when they share a link; legs
    # and detours must equal the brute-force referee's, unreachable
    # positions included
    rng = random.Random(20261018)
    seen = {"legs": 0, "unreachable": 0, "overlap": 0, "disjoint": 0}
    for _ in range(150):
        n = rng.randrange(5, 17)
        g = graph(n, random_connected_graph(rng, n, rng.randrange(0, n)))
        size = rng.randrange(2, min(n, 6) + 1)
        cset = frozenset(rng.sample(range(1, n + 1), size))
        cycle = close_cycle(g, ratio_bfs(g, min(cset), cset), cset)
        if cycle is None:
            continue
        adj = adjacency_dict(g)
        seq = cycle.sequence
        links = [frozenset(e) for e in zip(seq, seq[1:])]
        cycle_bits = routing._walk_bits(g, seq)
        for v in sorted(set(g.nodes) - cycle.nodes):
            dv, legs = routing._off_cycle_legs(g, v, cycle_bits, cset)
            for a, b in zip(seq, seq[1:]):
                banned = set(links) - {frozenset((a, b))}
                first = best_shortest_path(adj, a, v, banned, cset)
                back = best_shortest_path(adj, v, b, banned, cset)
                if a not in dv and b not in dv:
                    assert first is None and back is None
                    seen["unreachable"] += 1
                    continue
                got = legs(a, b)
                assert [leg[1] for leg in got] == [first, back], (g.edges, seq, v)
                for leg in got:
                    assert leg[0] == len(cset.intersection(leg[1]))
                    assert leg[2] == routing._walk_bits(g, leg[1])
                seen["legs"] += 1
                seen["overlap" if got[0][2] & got[1][2] else "disjoint"] += 1
                det = routing._detour(g, *got, cycle_bits ^ g.link_bits[a][b],
                                      cset, len(g.edges))
                assert det == detour_walk(adj, a, v, b, banned, cset), (g.edges, seq, v)
    assert min(seen.values()) >= 20, seen


def test_layered_paths_under_ban_masks_match_oracle():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(3, 11)
        g = graph(n, random_connected_graph(rng, n, rng.randrange(0, n)))
        adj = adjacency_dict(g)
        mask = rng.getrandbits(len(g.edges))
        banned = {frozenset(e) for i, e in enumerate(g.edges) if mask >> i & 1}
        cset = frozenset(rng.sample(range(1, n + 1), rng.randrange(0, n + 1)))
        source = rng.randrange(1, n + 1)
        tree = routing._layered_paths(g, source, cset, mask)
        for goal in g.nodes:
            path = best_shortest_path(adj, source, goal, banned, cset)
            bounded = routing._layered_paths(g, source, cset, mask, {goal})
            assert tree.get(goal) == bounded.get(goal)
            if path is None:
                assert goal not in tree
                continue
            # a depth cap keeps exactly the entries that fit under it
            hops = len(path) - 1
            assert routing._layered_paths(g, source, cset, mask, (),
                                          hops).get(goal) == tree[goal]
            if hops:
                assert goal not in routing._layered_paths(g, source, cset, mask,
                                                          (), hops - 1)
            count, got, bits = tree[goal]
            assert got == path, (g.edges, mask, source, goal)
            assert count == len(cset.intersection(path))
            assert bits == routing._walk_bits(g, path)


def test_seed_rank_orders_as_fractions():
    # _rank's float ratio must sort and tie exactly as the fraction does
    # for every path of up to 200 nodes
    pairs = [(p, q) for q in range(1, 201) for p in range(q + 1)]
    ratio = {(p, q): routing._rank(p, (0,) * q)[0] for p, q in pairs}
    assert (sorted(pairs, key=lambda pq: (ratio[pq], pq))
            == sorted(pairs, key=lambda pq: (-Fraction(*pq), pq)))
    assert len(set(ratio.values())) == len({Fraction(p, q) for p, q in pairs})


def test_route_cycle_triangle(triangle):
    cycle = route_cycle(triangle, {1, 2, 3})
    assert cycle.length == 3
    assert_valid_cycle(cycle, triangle, {1, 2, 3})


def test_route_cycle_ring_is_whole_ring(ring5):
    cycle = route_cycle(ring5, {1, 3})
    assert cycle.length == 5


def test_route_cycle_k4_optimal(k4):
    for cset in [{1, 2, 3}, {2, 3, 4}, {1, 4}]:
        cycle = route_cycle(k4, cset)
        assert cycle.length == 3
        assert_valid_cycle(cycle, k4, cset)


def test_route_cycle_hub_rotation(k4):
    cycle = route_cycle(k4, {2, 3, 4}, hub=3)
    assert cycle.sequence[0] == cycle.sequence[-1] == 3


def test_route_cycle_singleton_uses_girth(square):
    cycle = route_cycle(square, {3})
    assert cycle.length == 4  # the square has no shorter closed walk


def test_route_cycle_across_bridge_fails():
    g = graph(6, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
    with pytest.raises(RoutingInfeasibleError) as info:
        route_cycle(g, {1, 5})
    assert str(info.value) == ("every seed failed for communication set [1, 5]"
                               "; bridges separating the set: [(3, 4)]")


def test_route_cycle_leaves_no_cyclic_garbage():
    # some finishes of this route fail; nothing the call leaves behind may
    # tie its frame, insertion memo and all, into a reference cycle
    g = graph(6, [(1, 2), (1, 3), (1, 6), (2, 3), (2, 5), (3, 6), (4, 5), (4, 6)])
    gc.collect()
    gc.disable()
    try:
        assert route_cycle(g, set(g.nodes), hub=1).sequence == (1, 2, 5, 4, 6, 3, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("stage,args", [
    (ratio_bfs, (-1, {-1, 2})), (ratio_bfs, (5, {5, 2})), (ratio_bfs, (1, {1, 9})),
    (close_cycle, ((-1, 3),)), (insert_missing, (CycleRoute((1, 2, 3, 1)), -1)),
    (insert_missing, (CycleRoute((1, 2, 3, 1)), 5)), (route_cycle, ({0, 2},))],
    ids=lambda x: x.__name__ if callable(x) else repr(x))
def test_stages_reject_node_ids_off_the_graph(stage, args):
    # -1 would alias node 4 through negative indexing, 5 and 9 run off the
    # tables; each stage names the bad id instead
    g = parse_topology("n 4\n1 2\n2 3\n3 4\n1 4\n1 3\n")
    with pytest.raises(ValueError, match=r"out of range 1\.\.4"):
        stage(g, *args)


def test_route_cycle_deterministic(k4):
    a = route_cycle(k4, {1, 2, 4})
    b = route_cycle(k4, {1, 2, 4})
    assert a == b


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_route_cycle_near_optimal_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(4, 9)
    g = graph(n, random_connected_graph(rng, n, rng.randrange(1, n)))
    size = rng.randrange(1, min(n, 4) + 1)
    cset = frozenset(rng.sample(range(1, n + 1), size))
    adj = adjacency_dict(g)
    optimum = minimal_cycle_length(adj, cset)
    try:
        cycle = route_cycle(g, cset)
    except RoutingInfeasibleError:
        assert optimum is None
        return
    assert optimum is not None
    assert_valid_cycle(cycle, g, cset)
    assert cycle.length <= 1.2 * optimum, (seed, cycle.sequence, optimum)


@pytest.mark.parametrize("edges,cset,expected", [
    # closing the shortest 1-5 path 1-7-3-5 takes 5 more links, 8 in all
    ([(1, 7), (1, 8), (2, 7), (2, 8), (3, 5), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7)],
     {1, 5}, (1, 7, 4, 5, 3, 8, 1)),
    # the shortest 4-5 path 4-1-3-5 leaves no return path at all
    ([(1, 3), (1, 4), (1, 6), (1, 8), (2, 3), (2, 4), (3, 5), (5, 7), (6, 7), (7, 8)],
     {4, 5}, (4, 1, 6, 7, 5, 3, 2, 4)),
], ids=["longer", "unclosable"])
def test_route_cycle_pair_reroutes_its_shortest_path(edges, cset, expected):
    assert route_cycle(graph(8, edges), cset).sequence == expected


def test_route_cycle_pairs_are_shortest():
    rng = random.Random(20261019)
    outcomes = {"routed": 0, "infeasible": 0}
    for _ in range(400):
        n = rng.randrange(3, 11)
        g = graph(n, random_connected_graph(rng, n, rng.randrange(0, n + 1)))
        cset = frozenset(rng.sample(range(1, n + 1), 2))
        optimum = minimal_cycle_length(adjacency_dict(g), cset)
        pair = pair_cycle(g, *sorted(cset))
        try:
            cycle = route_cycle(g, cset, max(cset))
        except RoutingInfeasibleError:
            cycle = None
        for got in (cycle, pair and CycleRoute(pair)):
            if got is not None:
                assert_valid_cycle(got, g, cset)
            assert (got and got.length) == optimum, (g.edges, sorted(cset), got)
        assert cycle is None or cycle.hub == max(cset)
        outcomes["routed" if cycle else "infeasible"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_route_cycle_equals_unbounded_reference(monkeypatch):
    # route_cycle bounds every finish by the shortest cycle so far; it must
    # pick what finishing every seed in full picks, ties included
    pruned = 0
    for name in ("close_cycle", "insert_missing"):
        original = getattr(routing, name)

        def counting(*args, _original=original, **kwargs):
            nonlocal pruned
            out = _original(*args, **kwargs)
            pruned += out is None
            return out

        monkeypatch.setattr(routing, name, counting)
    rng = random.Random(20261019)
    outcomes = {"routed": 0, "infeasible": 0}
    for _ in range(300):
        n = rng.randrange(4, 17)
        g = graph(n, random_connected_graph(rng, n, rng.randrange(0, 2 * n)))
        cset = frozenset(rng.sample(range(1, n + 1), rng.randrange(1, min(n, 7) + 1)))
        hub = rng.choice(sorted(cset))
        expected = reference_route_cycle(g, cset, hub)
        try:
            got = route_cycle(g, cset, hub).sequence
        except RoutingInfeasibleError:
            got = None
        assert got == expected, (g.edges, sorted(cset), hub)
        outcomes["routed" if got else "infeasible"] += 1
    assert min(outcomes.values()) >= 20, outcomes
    assert pruned >= 100, pruned


@pytest.mark.parametrize("network,r_values,mappings", [
    ("nsfnet", (1, 2, 3), 2), ("arpanet", (1, 3), 2),
    ("american", (1, 3), 1), ("chinese", (1,), 1)])
def test_route_cycle_equals_reference_on_bundled_networks(network, r_values,
                                                          mappings):
    g = bundled_topology(network)
    for r in r_values:
        qs = generate_quorums(bundled_base(g.n, r))
        for m in generate_mappings(g.n, mappings, seed=5):
            for i, quorum in enumerate(qs.quorums, start=1):
                cset = {m.apply(v) for v in quorum}
                got = route_cycle(g, cset, hub=m.apply(i)).sequence
                assert got == reference_route_cycle(g, cset, m.apply(i)), (r, i)


def test_route_all_k4_triangles(k4):
    qs = generate_quorums(QuorumBase(n=4, r=1, members=(1, 2, 3)))
    cycles = route_all(k4, qs, NodeMapping.identity(4))
    assert len(cycles) == 4
    for i, cycle in enumerate(cycles, start=1):
        assert cycle.hub == i
        assert cycle.length == 3
        assert set(qs.quorums[i - 1]) <= cycle.nodes


def test_route_all_respects_mapping(k4):
    qs = generate_quorums(QuorumBase(n=4, r=1, members=(1, 2, 3)))
    m = NodeMapping(perm=(2, 3, 4, 1))
    cycles = route_all(k4, qs, m)
    for i, cycle in enumerate(cycles, start=1):
        assert cycle.hub == m.apply(i)
        assert {m.apply(v) for v in qs.quorums[i - 1]} <= cycle.nodes


def test_route_all_aggregates_failures():
    g = graph(6, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
    qs = generate_quorums(QuorumBase(n=6, r=1, members=(1, 2, 4)))
    with pytest.raises(RoutingInfeasibleError) as info:
        route_all(g, qs, NodeMapping.identity(6))
    assert info.value.failures  # per-quorum detail preserved


def test_route_all_nsfnet_r1():
    g = bundled_topology("nsfnet")
    qs = generate_quorums(QuorumBase(n=14, r=1, members=(1, 2, 3, 4, 8)))
    cycles = route_all(g, qs, NodeMapping.identity(14))
    assert len(cycles) == 14
    for i, cycle in enumerate(cycles, start=1):
        assert_valid_cycle(cycle, g, qs.quorums[i - 1])
        assert cycle.hub == i


# sha256 over every routed cycle sequence for the listed r values and the
# first `mappings` of generate_mappings(n, mappings, seed=11).  A change to
# any tie-break, finishing rule or search bound in routing shows up here.
ROUTING_DIGESTS = {
    ("nsfnet", 2): ((1, 2, 3), "044c511f50c021d2cc197d5c34289029055a864b33ecf3c70b9f456536cb3668"),
    ("arpanet", 2): ((1, 2, 3), "ef867951f5cd2e3c2bf436c2d0025b38daf385cdc79ed484f475911e5072f283"),
    ("american", 1): ((1, 2, 3), "6eddff63c3334d376bde085b8dcd4d77715a6a0b0592bd46596c1f5aee15b10e"),
    ("chinese", 1): ((1,), "6313022d4358fc75f5fb7afa2f44b6c1ba631d80e820f9b3a63a9e5c8fc0e6b9"),
}


@pytest.mark.parametrize("network,mappings", sorted(ROUTING_DIGESTS))
def test_route_all_digest_pinned(network, mappings):
    r_values, digest = ROUTING_DIGESTS[network, mappings]
    g = bundled_topology(network)
    h = hashlib.sha256()
    for r in r_values:
        qs = generate_quorums(bundled_base(g.n, r))
        for m in generate_mappings(g.n, mappings, seed=11):
            for cycle in route_all(g, qs, m):
                h.update(repr(cycle.sequence).encode() + b"\n")
    assert h.hexdigest() == digest


def test_insertion_detour_calls_capped(monkeypatch):
    # guards the work insert_missing's bound saves by a count, which
    # repeats exactly, where a time limit would swing with the machine
    calls = 0
    original = routing._detour

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(routing, "_detour", counting)
    g = bundled_topology("chinese")
    route_all(g, generate_quorums(bundled_base(g.n, 1)), NodeMapping.identity(g.n))
    # 5,165 calls with the off-cycle distance bound, 14,155 with plain hops
    assert calls <= 6000, calls


def test_bfs_calls_capped(monkeypatch):
    # one off-cycle BFS per insertion yields both detour legs, so a detour
    # searches again only when its legs share a link
    calls = 0
    original = routing._layered_paths

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(routing, "_layered_paths", counting)
    g = bundled_topology("chinese")
    route_all(g, generate_quorums(bundled_base(g.n, 1)), NodeMapping.identity(g.n))
    # 15,180 calls with tree-derived legs, 26,670 with four searches per detour
    assert calls <= 16000, calls


def test_off_cycle_trees_capped(monkeypatch):
    # route_cycle shares each (cycle links, member) tree and its detours
    # across its finishes, since different seeds often close the same cycle
    calls = 0
    original = routing._off_cycle_legs

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(routing, "_off_cycle_legs", counting)
    g = bundled_topology("chinese")
    route_all(g, generate_quorums(bundled_base(g.n, 1)), NodeMapping.identity(g.n))
    # 1,215 trees with the memo, 1,884 with one per insert_missing call
    assert calls <= 1300, calls


@pytest.fixture(scope="module")
def chinese_r1_settled():
    # nodes settled by every BFS of the 54-node r=1 identity routing, and
    # by those run for _densest; counts repeat exactly, unlike timings
    settled = {"all": 0, "densest": 0}
    in_densest = False
    bfs, densest = routing._layered_paths, routing._densest

    def counting_bfs(*args, **kwargs):
        tree = bfs(*args, **kwargs)
        settled["all"] += len(tree)
        settled["densest"] += len(tree) if in_densest else 0
        return tree

    def flagging_densest(*args, **kwargs):
        nonlocal in_densest
        in_densest = True
        try:
            return densest(*args, **kwargs)
        finally:
            in_densest = False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "_layered_paths", counting_bfs)
        mp.setattr(routing, "_densest", flagging_densest)
        g = bundled_topology("chinese")
        route_all(g, generate_quorums(bundled_base(g.n, 1)), NodeMapping.identity(g.n))
    return settled


def test_bfs_settled_nodes_capped(chinese_r1_settled):
    # finishes bounded by the best cycle so far: 377,994 settled nodes,
    # 580,529 when every finish runs to the end
    assert chinese_r1_settled["all"] <= 400_000, chinese_r1_settled


def test_densest_settled_nodes_capped(chinese_r1_settled):
    # _densest stops once every member is settled: 114,630 settled nodes,
    # 139,008 with a full BFS behind the same bounded finishes
    assert chinese_r1_settled["densest"] <= 120_000, chinese_r1_settled


def test_route_cycle_reaches_module_level_stages(monkeypatch):
    # perfbench's tracer counts these stages by wrapping the module
    # globals, so route_cycle must look them up there on every call
    reached = {}
    for name in ("ratio_bfs", "close_cycle", "insert_missing"):
        original = getattr(routing, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            reached[_name] = reached.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(routing, name, counting)
    g = bundled_topology("nsfnet")
    qs = generate_quorums(bundled_base(14, 3))
    route_cycle(g, qs.quorums[0], hub=1)
    assert set(reached) == {"ratio_bfs", "close_cycle", "insert_missing"}
