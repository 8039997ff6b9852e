import hashlib
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quorumcycles import quorums
from quorumcycles.quorums import (InfeasibleRedundancyError, QuorumBase,
                                  SearchBudget, SearchBudgetExhausted,
                                  bundled_base, difference_counts,
                                  generate_quorums, is_r_redundant, load_base,
                                  pair_coverage, save_base, search_floor,
                                  search_min_base, verify_quorum_set)

from oracles import (_reference_level, _ReferenceBudgetUp,
                     distance_counts_by_enumeration, min_base_exhaustive,
                     redundant_by_enumeration, reference_search,
                     rotated_quorums)


def base(n, members, r=1):
    return QuorumBase(n=n, r=r, members=tuple(members))


# strategy: a sorted member tuple containing 1, over a modest ring
def base_strategy(max_n=20):
    return st.integers(2, max_n).flatmap(
        lambda n: st.sets(st.integers(2, n), min_size=0, max_size=n - 1).map(
            lambda rest: (n, (1,) + tuple(sorted(rest)))))


def test_lower_bound_anchor_values():
    assert search_floor(7, 1) == 3
    assert search_floor(13, 1) == 4
    assert search_floor(14, 1) == 5
    for n in range(2, 401):
        # Maekawa: k quorum members cover at most k*(k-1) nonzero differences
        maekawa = 1
        while maekawa * (maekawa - 1) + 1 < n:
            maekawa += 1
        for r in range(1, min(n, 8) + 1):
            assert search_floor(n, r) >= max(r, maekawa), (n, r)


def test_difference_counts_small_bases():
    assert difference_counts(base(4, (1, 2))) == {1: 1, 2: 0}
    # the d=2 class in a 5-ring wraps: pair {1,4} sits at distance 2
    assert difference_counts(base(5, (1, 2, 3, 4))) == {1: 3, 2: 3}
    assert difference_counts(base(7, (1, 2, 4))) == {1: 1, 2: 1, 3: 1}


@settings(max_examples=300)
@given(base_strategy())
def test_difference_counts_match_enumeration(nm):
    n, members = nm
    got = difference_counts(base(n, members))
    assert got == distance_counts_by_enumeration(members, n)


def test_is_r_redundant_examples():
    assert not is_r_redundant(base(4, (1, 2), r=1))
    assert is_r_redundant(base(4, (1, 2, 3), r=1))
    assert is_r_redundant(base(5, (1, 2, 3, 4), r=2))


@settings(max_examples=400)
@given(base_strategy(), st.integers(1, 3))
def test_redundancy_agrees_with_enumeration(nm, r):
    n, members = nm
    got = is_r_redundant(base(n, members, r=r))
    assert got == redundant_by_enumeration(members, n, r)


def test_generate_quorums_shifts():
    qs = generate_quorums(base(4, (1, 2, 3)))
    assert [set(q) for q in qs.quorums] == [
        {1, 2, 3}, {2, 3, 4}, {3, 4, 1}, {4, 1, 2}]
    qs7 = generate_quorums(base(7, (1, 2, 4)))
    assert set(qs7.quorums[2]) == {3, 4, 6}


def test_generate_quorums_degenerate_singleton():
    # generator itself does not validate redundancy
    qs = generate_quorums(base(3, (1,)))
    assert [set(q) for q in qs.quorums] == [{1}, {2}, {3}]


@settings(max_examples=200)
@given(base_strategy(max_n=15))
def test_generate_quorums_structure(nm):
    n, members = nm
    qs = generate_quorums(base(n, members))
    assert len(qs.quorums) == n
    assert [set(q) for q in qs.quorums] == [
        set(q) for q in rotated_quorums(members, n)]
    k = len(members)
    assert all(len(q) == k for q in qs.quorums)
    for v in range(1, n + 1):
        assert sum(1 for q in qs.quorums if v in q) == k


def test_pair_coverage_counts():
    qs = generate_quorums(base(4, (1, 2, 3)))
    counts = pair_coverage(qs)
    assert min(counts.values()) == 2
    assert counts[(1, 2)] == 2
    assert len(counts) == 6


def test_verify_accepts_valid_sets():
    assert verify_quorum_set(generate_quorums(base(4, (1, 2, 3))), 1).ok
    assert verify_quorum_set(generate_quorums(base(5, (1, 2, 3, 4))), 2).ok


@pytest.mark.parametrize("r", [0, -1, True, 1.5])
def test_verify_rejects_non_positive_or_non_int_r(r):
    # r <= 0 is met by every set, so "ok" would say nothing
    with pytest.raises(ValueError, match="r must be a positive int"):
        verify_quorum_set(generate_quorums(base(4, (1, 2, 3))), r)


def test_verify_flags_empty_intersection():
    report = verify_quorum_set(generate_quorums(base(4, (1, 2))), 1)
    assert not report.ok
    assert any("intersect" in v for v in report.violations)
    assert report.min_pair_multiplicity == 0


def test_search_small_minimums():
    assert search_min_base(4, 1).base.members == (1, 2, 3)
    assert search_min_base(7, 1).base.members == (1, 2, 4)
    r52 = search_min_base(5, 2)
    assert r52.base.k_hat == 4
    assert r52.base.members == (1, 2, 3, 4)


def test_search_matches_exhaustive_sample():
    for n, r in [(6, 1), (9, 1), (8, 2), (10, 2), (9, 3), (11, 3)]:
        result = search_min_base(n, r)
        expect = min_base_exhaustive(n, r)
        assert expect is not None
        assert result.base.k_hat == expect[0], (n, r)
        assert result.proven_minimal


def test_search_result_is_lexicographically_first():
    got = search_min_base(9, 2).base
    k, members = min_base_exhaustive(9, 2)
    assert got.k_hat == k
    assert got.members == members


def test_search_rejects_unreachable_redundancy():
    with pytest.raises(InfeasibleRedundancyError):
        search_min_base(4, 5)


def test_search_single_node_ring():
    assert search_min_base(1, 1).base.members == (1,)


def test_search_budget_exhaustion_reports_frontier():
    # 5 nodes per level cannot even assemble one full candidate
    with pytest.raises(SearchBudgetExhausted) as info:
        search_min_base(54, 1, SearchBudget(max_nodes=5))
    err = info.value
    assert err.nodes_explored > 0
    assert err.frontier


def test_search_flags_skipped_levels():
    # enough budget for an easy level to finish, not to prove minimality
    result = search_min_base(54, 1, SearchBudget(max_nodes=100))
    assert not result.proven_minimal
    assert result.skipped_k
    assert is_r_redundant(result.base)


def search_outcome(n, r, max_nodes):
    """What search_min_base reports, in the shape of reference_search."""
    try:
        result = search_min_base(n, r, SearchBudget(max_nodes=max_nodes))
    except SearchBudgetExhausted as err:
        return {"frontier": err.frontier, "nodes_explored": err.nodes_explored}
    return {"members": result.base.members,
            "nodes_explored": result.nodes_explored,
            "exhausted_k": result.exhausted_k,
            "skipped_k": result.skipped_k}


# the 86 cases 2 <= n <= 30, 1 <= r <= min(3, n), in ascending order
SWEEP = [(n, r) for n in range(2, 31) for r in range(1, min(3, n) + 1)]


@pytest.mark.parametrize("max_nodes", [None, 5, 50, 777])
def test_search_matches_reference_dfs(max_nodes):
    # same DFS tree as the closure DFS: base, node count, levels, frontier;
    # 5 nodes a level skips every level for 60 of the 86 cases, so their
    # frontiers are compared too
    for n, r in SWEEP:
        expect = reference_search(n, r, max_nodes)
        assert search_outcome(n, r, max_nodes) == expect, (n, r, max_nodes)


def test_search_results_digest_pinned():
    # every base and exhausted level of the sweep, pinned from a kernel
    # without the tight bound and the pinned first slot, so a cut that
    # changed a result fails here even if the referee shared the mistake
    lines = []
    for n, r in SWEEP:
        result = search_min_base(n, r)
        lines.append(f"{n},{r},{list(result.base.members)},"
                     f"{list(result.exhausted_k)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "fbae87ab6bd1b4b8c92d748934f3bb5d7adef8d45e47b36ab7931e3d94b3fe24")


def level_outcome(search, stop, n, r, k_hat, max_nodes):
    """One size level on its own: its base or budget frontier, and its nodes."""
    counter = [0]
    try:
        return "done", search(n, r, k_hat, counter, max_nodes), counter[0]
    except stop as up:
        return "stopped", up.frontier, counter[0]


@pytest.mark.parametrize("n,r", [(10, 3), (12, 2), (13, 1), (16, 3)])
def test_search_budget_sweep_matches_reference(n, r):
    # every stop point from 1 to 300 nodes, for the whole search and for
    # each size level alone: a skipped level's frontier only shows when
    # every level is skipped, and the level sweep is where budgets run out
    # inside the last slot's closed-form span (37 stops past its first x)
    for max_nodes in range(1, 301):
        expect = reference_search(n, r, max_nodes)
        assert search_outcome(n, r, max_nodes) == expect, max_nodes
        for k_hat in range(search_floor(n, r), n + 1):
            got = level_outcome(quorums._search_level, quorums._LevelBudgetUp,
                                n, r, k_hat, max_nodes)
            expect = level_outcome(_reference_level, _ReferenceBudgetUp,
                                   n, r, k_hat, max_nodes)
            assert got == expect, (max_nodes, k_hat)


def test_search_node_count_pinned():
    # the benchmark's (29, 2) case; a drift in the counter fails here first
    result = search_min_base(29, 2)
    assert result.nodes_explored == 10_962
    assert result.exhausted_k == (8,)
    assert result.base.members == (1, 2, 3, 4, 5, 6, 10, 16, 23)


# the benchmark's other search cases, beyond the n <= 30 reference sweep
BENCHMARK_CASES = [
    (28, 2, 45_643, (8,), (1, 2, 3, 4, 5, 6, 9, 15, 22)),
    (41, 1, 13_123, (7,), (1, 2, 3, 4, 5, 10, 16, 26)),
    (43, 1, 6_026, (7,), (1, 2, 3, 4, 5, 11, 16, 27)),
    (40, 2, 176_239, (), (1, 2, 3, 4, 6, 10, 15, 16, 23, 26)),
]


@pytest.mark.parametrize("n,r,nodes,exhausted_k,members", BENCHMARK_CASES,
                         ids=[f"{n}-{r}" for n, r, *_ in BENCHMARK_CASES])
def test_search_benchmark_cases_pinned(n, r, nodes, exhausted_k, members):
    result = search_min_base(n, r)
    assert result.nodes_explored == nodes
    assert result.exhausted_k == exhausted_k
    assert result.base.members == members
    assert result.proven_minimal


@pytest.mark.parametrize("max_nodes", [0, -3, 2.5, True])
def test_search_budget_rejects_bad_cap(max_nodes):
    with pytest.raises(ValueError, match=f"got {max_nodes!r}$"):
        SearchBudget(max_nodes=max_nodes)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 13), st.integers(1, 3))
def test_search_output_verifies_by_enumeration(n, r):
    result = search_min_base(n, r)
    assert redundant_by_enumeration(result.base.members, n, r)
    report = verify_quorum_set(generate_quorums(result.base), r)
    assert report.ok, report.violations


def test_khat_never_below_plain_quorum_size():
    for n in range(4, 21):
        k1 = search_min_base(n, 1).base.k_hat
        for r in (2, 3):
            assert search_min_base(n, r).base.k_hat >= k1


def test_save_load_round_trip(tmp_path):
    result = search_min_base(14, 2)
    path = tmp_path / "base.json"
    save_base(result, str(path))
    loaded = load_base(str(path))
    assert loaded == result.base


def test_load_rejects_inconsistent_k_hat(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 5, "r": 1, "k_hat": 9, "members": [1, 2, 3]}')
    with pytest.raises(ValueError, match="k_hat"):
        load_base(str(path))


@pytest.mark.parametrize("payload", ['"nrmembers"', '["n", "r", "members"]'])
def test_load_rejects_non_object(tmp_path, payload):
    # both payloads contain every field name, so only the type check stops them
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(ValueError, match="must hold a JSON object"):
        load_base(str(path))


@pytest.mark.parametrize("r", [1.5, 2.0, "2", True])
def test_non_int_redundancy_rejected(r):
    with pytest.raises(ValueError, match="r must be a positive int"):
        QuorumBase(n=14, r=r, members=(1, 2, 3, 4, 8))
    for n in (1, 14):
        with pytest.raises(ValueError, match="r must be a positive int"):
            search_min_base(n, r)


@pytest.mark.parametrize("n", [14.0, "14", True])
def test_non_int_size_rejected(n):
    with pytest.raises(ValueError, match="n must be a positive int"):
        QuorumBase(n=n, r=1, members=(1,))
    with pytest.raises(ValueError, match="n must be a positive int"):
        search_min_base(n, 1)


@pytest.mark.parametrize("member", [2.5, 2.0, "2", True])
def test_non_int_member_rejected(member):
    with pytest.raises(ValueError, match="members must be ints"):
        QuorumBase(n=14, r=1, members=(1, member, 4))


def test_bundled_bases_verify():
    sizes = {14: 5, 20: 6, 24: 6, 54: 9}  # r=1 quorum sizes shipped
    for n, k1 in sizes.items():
        for r in (1, 2, 3):
            b = bundled_base(n, r)
            assert b is not None, (n, r)
            assert redundant_by_enumeration(b.members, n, r)
            if r == 1:
                assert b.k_hat == k1
    assert bundled_base(99, 1) is None


BASES = sorted((Path(quorums.__file__).parent / "data" / "bases").glob("*.json"))


@pytest.mark.parametrize("path", BASES, ids=lambda p: p.stem)
def test_bundled_base_labels_hold(path):
    label = json.loads(path.read_text(encoding="utf-8"))
    n, r = label["n"], label["r"]
    if label["proven_minimal"]:
        # the label's own count as budget: the same search as an
        # unbudgeted one when the label holds, and bounded when it lies
        result = search_min_base(n, r, SearchBudget(label["nodes_explored"]))
        assert (list(result.base.members), result.base.k_hat,
                result.proven_minimal, result.nodes_explored) == (
            label["members"], label["k_hat"], True, label["nodes_explored"])
    else:
        # a base at the floor would itself prove minimality
        assert label["k_hat"] > search_floor(n, r)


# a random r-redundant base: random members added in a random order until
# every distance class is covered r times
redundant_base_strategy = st.integers(2, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, min(3, n)), st.integers(0, 10),
    st.permutations(range(2, n + 1))))


@settings(max_examples=60, deadline=None)
@given(redundant_base_strategy)
def test_multiplier_maps_keep_redundancy(case):
    # the premise of the search's multiplier cut: y -> u*(y - a) mod n + 1
    # takes a valid base to a valid base, its counts permuted by d -> u*d
    n, r, size, order = case
    members = [1, *order[:size]]
    for x in order[size:]:
        if is_r_redundant(base(n, members, r=r)):
            break
        members.append(x)
    counts = difference_counts(base(n, members, r=r))
    assert min(counts.values()) >= r
    for u in (u for u in range(1, n) if math.gcd(u, n) == 1):
        moved = {min(u * d % n, n - u * d % n): c for d, c in counts.items()}
        for a in members:
            image = base(n, (u * (y - a) % n + 1 for y in members), r=r)
            assert is_r_redundant(image), (n, r, members, u, a)
            assert difference_counts(image) == moved, (n, members, u, a)


def test_random_bases_against_oracle_bulk():
    rng = random.Random(20250815)
    for _ in range(500):
        n = rng.randrange(2, 21)
        size = rng.randrange(0, n)
        members = (1,) + tuple(sorted(rng.sample(range(2, n + 1), size)))
        r = rng.randrange(1, 4)
        assert is_r_redundant(base(n, members, r=r)) == \
            redundant_by_enumeration(members, n, r)
