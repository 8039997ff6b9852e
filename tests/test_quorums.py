import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quorumcycles.quorums import (InfeasibleRedundancyError, QuorumBase,
                                  SearchBudget, SearchBudgetExhausted,
                                  bundled_base, difference_counts,
                                  estimate_khat, generate_quorums,
                                  is_r_redundant, load_base, lower_bound_k,
                                  pair_coverage, save_base, search_min_base,
                                  verify_quorum_set)

from oracles import (distance_counts_by_enumeration, min_base_exhaustive,
                     redundant_by_enumeration, rotated_quorums)


def base(n, members, r=1):
    return QuorumBase(n=n, r=r, members=tuple(members))


# strategy: a sorted member tuple containing 1, over a modest ring
def base_strategy(max_n=20):
    return st.integers(2, max_n).flatmap(
        lambda n: st.sets(st.integers(2, n), min_size=0, max_size=n - 1).map(
            lambda rest: (n, (1,) + tuple(sorted(rest)))))


def test_lower_bound_anchor_values():
    assert lower_bound_k(7) == 3
    assert lower_bound_k(13) == 4
    assert lower_bound_k(14) == 5


def test_estimate_khat_values():
    assert estimate_khat(5, 1) == 5
    assert estimate_khat(5, 2) == 8
    assert estimate_khat(5, 3) == 9


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
    cov = pair_coverage(qs)
    assert cov.min_multiplicity == 2
    assert cov.counts[(1, 2)] == 2
    assert len(cov.counts) == 6


def test_verify_accepts_valid_sets():
    assert verify_quorum_set(generate_quorums(base(4, (1, 2, 3))), 1).ok
    assert verify_quorum_set(generate_quorums(base(5, (1, 2, 3, 4))), 2).ok


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


def test_random_bases_against_oracle_bulk():
    rng = random.Random(20250815)
    for _ in range(500):
        n = rng.randrange(2, 21)
        size = rng.randrange(0, n)
        members = (1,) + tuple(sorted(rng.sample(range(2, n + 1), size)))
        r = rng.randrange(1, 4)
        assert is_r_redundant(base(n, members, r=r)) == \
            redundant_by_enumeration(members, n, r)
