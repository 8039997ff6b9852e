import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quorumcycles.topology import (BUNDLED, NodeMapping, Topology,
                                   TopologyError, bundled_topology,
                                   find_bridges, generate_mappings,
                                   parse_topology, relabel,
                                   serialize_topology, topology_to_json)

from oracles import random_connected_graph

TRIANGLE_TEXT = "n 3\n1 2\n2 3\n1 3\n"


def test_parse_text_triangle():
    t = parse_topology(TRIANGLE_TEXT)
    assert t.n == 3
    assert t.edges == ((1, 2), (1, 3), (2, 3))


def test_parse_json_matches_text():
    as_json = json.dumps({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]})
    assert parse_topology(as_json) == parse_topology(TRIANGLE_TEXT)


def test_parse_accepts_comments_and_blank_lines():
    text = "# backbone\n\nn 3\n1 2  # east\n2 3\n1 3\n"
    assert parse_topology(text).n == 3


def test_duplicate_edge_rejected_with_line():
    with pytest.raises(TopologyError, match="line 4.*duplicate"):
        parse_topology("n 3\n1 2\n2 3\n2 1\n1 3\n")


def test_self_loop_rejected():
    with pytest.raises(TopologyError, match="self-loop at node 2"):
        parse_topology("n 3\n1 2\n2 2\n")


def test_out_of_range_endpoint_rejected():
    with pytest.raises(TopologyError, match="out of range"):
        parse_topology("n 3\n1 2\n2 3\n3 4\n")


def test_disconnected_graph_rejected():
    with pytest.raises(TopologyError, match="disconnected"):
        parse_topology("n 4\n1 2\n3 4\n")
    with pytest.raises(TopologyError, match=r"e\.g\. nodes \[4\] are isolated"):
        parse_topology("n 4\n1 2\n2 3\n1 3\n")


def test_nonpositive_node_count_rejected():
    with pytest.raises(TopologyError,
                       match="node count must be positive, got 0") as info:
        parse_topology("n 0\n")
    assert info.value.line is None


def test_missing_header_rejected():
    with pytest.raises(TopologyError, match="header"):
        parse_topology("1 2\n2 3\n")
    # the JSON form's counterpart: "edges" must be a list of pairs
    for edges in (5, None, "1 2", {"1": 2}):
        with pytest.raises(TopologyError, match='"edges" must be a list'):
            parse_topology(json.dumps({"n": 3, "edges": edges}))


def test_serialize_round_trip(square):
    assert parse_topology(serialize_topology(square)) == square


def test_json_round_trip(square):
    assert parse_topology(topology_to_json(square)) == square


@settings(max_examples=60)
@given(st.data())
def test_round_trip_on_random_graphs(data):
    import random as _random

    seed = data.draw(st.integers(0, 10**6))
    n = data.draw(st.integers(2, 16))
    rng = _random.Random(seed)
    edges = random_connected_graph(rng, n, extra_edges=rng.randrange(0, n))
    t = Topology(n=n, edges=tuple(edges))
    assert parse_topology(serialize_topology(t)) == t
    assert parse_topology(topology_to_json(t)) == t


def test_bundled_shapes():
    # published node/link scales for the four reference networks
    expected = {"nsfnet": (14, 22), "arpanet": (20, 31),
                "american": (24, 43), "chinese": (54, 103)}
    for name in BUNDLED:
        t = bundled_topology(name)
        assert (t.n, len(t.edges)) == expected[name]
        assert not find_bridges(t), f"{name} should be bridge-free"


def test_bundled_unknown_name():
    with pytest.raises(TopologyError, match="unknown bundled"):
        bundled_topology("atlantis")


def test_adjacency_and_degree(square):
    assert square.adjacency[1] == (2, 4)
    assert square.degree(3) == 2
    assert square.has_edge(4, 1) and not square.has_edge(1, 3)


def test_hops(square):
    assert square.hops[1][1:] == (0, 1, 2, 1)
    assert all(square.hops[u][v] == square.hops[v][u]
               for u in square.nodes for v in square.nodes)
    # built directly, a topology may be disconnected: n marks no path
    split = Topology(n=4, edges=((1, 2), (3, 4)))
    assert split.hops[1][1:] == (0, 1, 4, 4)


def test_find_bridges_cycle_free(triangle):
    assert find_bridges(triangle) == frozenset()


def test_find_bridges_path_graph():
    t = Topology(n=4, edges=((1, 2), (2, 3), (3, 4)))
    assert find_bridges(t) == frozenset({(1, 2), (2, 3), (3, 4)})


def test_find_bridges_barbell():
    # two triangles joined by one edge: only the joint is a bridge
    t = Topology(n=6, edges=((1, 2), (2, 3), (1, 3), (3, 4),
                             (4, 5), (5, 6), (4, 6)))
    assert find_bridges(t) == frozenset({(3, 4)})


def test_mapping_rejects_non_bijection():
    with pytest.raises(ValueError, match="permutation"):
        NodeMapping(perm=(1, 1, 3))


def test_mapping_apply_and_identity():
    m = NodeMapping(perm=(3, 1, 2))
    assert [m.apply(v) for v in (1, 2, 3)] == [3, 1, 2]
    assert NodeMapping.identity(4).perm == (1, 2, 3, 4)


def test_relabel_identity_and_swap():
    ident = NodeMapping.identity(5)
    assert relabel({1, 2}, ident) == {1, 2}
    swap = NodeMapping(perm=(3, 2, 1, 4, 5))
    assert relabel({1, 2}, swap) == {3, 2}
    assert relabel(set(range(1, 6)), swap) == set(range(1, 6))


def test_generate_mappings_first_is_identity():
    maps = generate_mappings(5, 1, seed=42)
    assert len(maps) == 1
    assert maps[0].perm == (1, 2, 3, 4, 5)


def test_generate_mappings_deterministic():
    a = generate_mappings(5, 3, seed=42)
    b = generate_mappings(5, 3, seed=42)
    assert [m.perm for m in a] == [m.perm for m in b]


def test_generate_mappings_prefix_stable():
    short = generate_mappings(9, 4, seed=3)
    long = generate_mappings(9, 10, seed=3)
    assert [m.perm for m in short] == [m.perm for m in long[:4]]


def test_generate_mappings_rejects_bad_count():
    for count in (0, True, 2.5):
        with pytest.raises(ValueError, match="int >= 1"):
            generate_mappings(14, count, 0)


def test_generate_mappings_thousand_bijections():
    maps = generate_mappings(14, 1000, seed=7)
    assert len(maps) == 1000
    for m in maps:
        assert sorted(m.perm) == list(range(1, 15))
    # the ensemble should actually vary
    assert len({m.perm for m in maps}) > 990


@given(st.integers(2, 12), st.integers(0, 999))
def test_relabel_preserves_cardinality(n, seed):
    m = generate_mappings(n, 2, seed)[1]
    for size in range(1, n + 1):
        s = frozenset(range(1, size + 1))
        assert len(relabel(s, m)) == size
