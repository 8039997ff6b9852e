"""Cyclic quorum construction with tunable pair redundancy.

A base is a subset of {1..n} containing 1.  Rotating it through all n
cyclic shifts yields n quorums, one per node.  The base's circular
difference multiset decides how often node pairs co-occur across the
quorums: a pair at circular distance d appears together in exactly

    count(d) = |{s in members : ((s - 1 + d) mod n) + 1 in members}|

quorums.  A base is r-redundant when count(d) >= r for every distance
class d in 1..floor(n/2), i.e. every unordered node pair shares at least
r quorums.  `search_min_base` finds the smallest such base by exhaustive
lexicographic search with pruning, subject to an optional node budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import isqrt


class InfeasibleRedundancyError(ValueError):
    """No base of any size can reach the requested redundancy."""


class SearchBudgetExhausted(RuntimeError):
    """The search ran out of budget before finding any valid base."""

    def __init__(self, n: int, r: int, proven_infeasible_k: int | None,
                 frontier: tuple[int, ...], nodes_explored: int):
        self.n = n
        self.r = r
        self.proven_infeasible_k = proven_infeasible_k
        self.frontier = frontier
        self.nodes_explored = nodes_explored
        proven = ("no size proven infeasible" if proven_infeasible_k is None
                  else f"sizes up to {proven_infeasible_k} proven infeasible")
        super().__init__(
            f"budget exhausted after {nodes_explored} nodes searching n={n}, r={r}; "
            f"{proven}; frontier {list(frontier)}"
        )


@dataclass(frozen=True)
class QuorumBase:
    """Sorted base set for cyclic generation; always contains 1."""

    n: int
    r: int
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", members)
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.r < 1:
            raise ValueError(f"r must be positive, got {self.r}")
        if not members or members[0] != 1:
            raise ValueError("base must contain node 1")
        if members[-1] > self.n:
            raise ValueError(f"member {members[-1]} out of range 1..{self.n}")

    @property
    def k_hat(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class QuorumSet:
    """All n cyclic shifts of a base; quorums[i-1] is the quorum of node i."""

    n: int
    quorums: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class PairCoverage:
    """Co-occurrence multiplicity for every unordered node pair."""

    n: int
    counts: dict[tuple[int, int], int]

    @property
    def min_multiplicity(self) -> int:
        # n < 2 has no pairs; report 0 rather than blowing up on min()
        return min(self.counts.values()) if self.counts else 0


@dataclass(frozen=True)
class VerificationReport:
    n: int
    r: int
    k_hat: int
    min_pair_multiplicity: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class SearchBudget:
    """DFS node cap per size level of the search; None means unbounded."""

    max_nodes: int | None = None


@dataclass(frozen=True)
class SearchResult:
    base: QuorumBase
    proven_minimal: bool
    nodes_explored: int
    exhausted_k: tuple[int, ...] = ()
    skipped_k: tuple[int, ...] = ()


def lower_bound_k(n: int) -> int:
    """Smallest k with n <= k*(k-1) + 1 (pairs must cover all distances)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    k = 1
    while k * (k - 1) + 1 < n:
        k += 1
    return k


def estimate_khat(k: int, r: int) -> int:
    """Predicted r-redundant base size from the r=1 size: ceil(sqrt(r)*k)."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be positive")
    est = isqrt(r * k * k)
    if est * est < r * k * k:
        est += 1
    return est


def difference_counts(base: QuorumBase) -> dict[int, int]:
    """count(d) for each circular distance class d in 1..floor(n/2).

    count(d) equals the number of generated quorums containing any fixed
    node pair at circular distance d, so checking count(d) >= r over the
    classes is an O(k^2)-style stand-in for full pair enumeration.
    """
    members = set(base.members)
    n = base.n
    out = {}
    for d in range(1, n // 2 + 1):
        out[d] = sum(1 for s in members if ((s - 1 + d) % n) + 1 in members)
    return out


def is_r_redundant(base: QuorumBase) -> bool:
    """True when every node pair co-occurs in at least base.r quorums."""
    counts = difference_counts(base)
    return all(c >= base.r for c in counts.values())


def generate_quorums(base: QuorumBase) -> QuorumSet:
    n = base.n
    quorums = tuple(
        frozenset(((s - 1 + shift) % n) + 1 for s in base.members)
        for shift in range(n)
    )
    return QuorumSet(n=n, quorums=quorums)


def pair_coverage(qs: QuorumSet) -> PairCoverage:
    """Direct enumeration of pair co-occurrence across all quorums."""
    counts = {pair: 0 for pair in combinations(range(1, qs.n + 1), 2)}
    for quorum in qs.quorums:
        for pair in combinations(sorted(quorum), 2):
            counts[pair] += 1
    return PairCoverage(n=qs.n, counts=counts)


def verify_quorum_set(qs: QuorumSet, r: int) -> VerificationReport:
    """Check the structural quorum properties by direct enumeration.

    Deliberately avoids the difference-count shortcut so it can serve as
    an independent referee for the fast predicate.
    """
    violations = []
    sizes = {len(q) for q in qs.quorums}
    k_hat = len(qs.quorums[0]) if qs.quorums else 0
    if len(qs.quorums) != qs.n:
        violations.append(f"expected {qs.n} quorums, got {len(qs.quorums)}")
    if len(sizes) > 1:
        violations.append(f"quorums are not equal-sized: {sorted(sizes)}")
    membership = {v: 0 for v in range(1, qs.n + 1)}
    for quorum in qs.quorums:
        for v in quorum:
            if v not in membership:
                violations.append(f"quorum member {v} out of range 1..{qs.n}")
            else:
                membership[v] += 1
    uncovered = [v for v, c in membership.items() if c == 0]
    if uncovered:
        violations.append(f"nodes never covered by any quorum: {uncovered}")
    elif len(sizes) == 1:
        off = {v: c for v, c in membership.items() if c != k_hat}
        if off:
            violations.append(f"unequal membership load (expected {k_hat}): {off}")
    for (i, a), (j, b) in combinations(enumerate(qs.quorums, start=1), 2):
        if not a & b:
            violations.append(f"quorums {i} and {j} do not intersect")
    cov = pair_coverage(qs)
    worst = cov.min_multiplicity if qs.n > 1 else r
    if qs.n > 1 and worst < r:
        thin = sorted(p for p, c in cov.counts.items() if c < r)[:5]
        violations.append(
            f"pair multiplicity {worst} below required {r} (e.g. pairs {thin})"
        )
    return VerificationReport(n=qs.n, r=r, k_hat=k_hat,
                              min_pair_multiplicity=worst,
                              violations=tuple(violations))


def _capacity_floor(n: int, r: int) -> int:
    """Smallest k whose pair budget can satisfy every distance class."""
    classes = n // 2
    if classes == 0:
        return 1
    if n % 2 == 0:
        # the half-way class gains 2 per pair, all others gain 1
        need = r * (classes - 1) + (r + 1) // 2
    else:
        need = r * classes
    k = 1
    while k * (k - 1) // 2 < need:
        k += 1
    return k


def search_floor(n: int, r: int) -> int:
    """Lower bound on the r-redundant base size for ring length n."""
    return max(lower_bound_k(n), _capacity_floor(n, r), min(r, n))


class _LevelBudgetUp(Exception):
    def __init__(self, frontier: tuple[int, ...]):
        self.frontier = frontier


def _search_level(n: int, r: int, k_hat: int, counter: list[int],
                  max_nodes: int | None) -> tuple[int, ...] | None:
    """Exhaustive lexicographic DFS at one base size.

    Returns the lexicographically smallest valid base, or None when the
    level is exhausted.  Raises _LevelBudgetUp when the node budget dies
    mid-level.
    """
    half = n // 2
    even = n % 2 == 0
    counts = [0] * (half + 1)
    members = [1]

    def units_needed(d: int) -> int:
        lack = r - counts[d]
        if lack <= 0:
            return 0
        return (lack + 1) // 2 if (even and d == half) else lack

    deficit = sum(units_needed(d) for d in range(1, half + 1))

    def add(x: int) -> int:
        nonlocal deficit
        delta = 0
        for s in members:
            d = (x - s) % n
            d = min(d, n - d)
            before = units_needed(d)
            counts[d] += 2 if (even and d == half) else 1
            delta += units_needed(d) - before
        members.append(x)
        deficit += delta
        return delta

    def undo(x: int, delta: int):
        nonlocal deficit
        members.pop()
        for s in members:
            d = (x - s) % n
            d = min(d, n - d)
            counts[d] -= 2 if (even and d == half) else 1
        deficit -= delta

    found: tuple[int, ...] | None = None

    def extend(last: int, slots: int):
        nonlocal found
        if found is not None:
            return
        if slots == 0:
            if deficit == 0:
                found = tuple(members)
            return
        placed = len(members)
        future_pairs = placed * slots + slots * (slots - 1) // 2
        if even:
            # each future pair can clear at most 2 units (half-way class)
            if deficit > 2 * future_pairs:
                return
        elif deficit > future_pairs:
            return
        for x in range(last + 1, n - slots + 2):
            counter[0] += 1
            if max_nodes is not None and counter[0] > max_nodes:
                raise _LevelBudgetUp(tuple(members) + (x,))
            delta = add(x)
            extend(x, slots - 1)
            undo(x, delta)
            if found is not None:
                return

    extend(1, k_hat - 1)
    return found


def search_min_base(n: int, r: int, budget: SearchBudget | None = None) -> SearchResult:
    """Find the smallest r-redundant base, ascending through sizes.

    With an unbounded budget the result is the true minimum and the
    lexicographically smallest base of that size.  A budget caps the
    DFS nodes spent per size level; a level that blows its cap is
    skipped, and a base found at a later level is returned flagged with
    proven_minimal=False.  If every level is skipped without a find,
    SearchBudgetExhausted carries the deepest frontier.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if n == 1:
        return SearchResult(base=QuorumBase(n=1, r=r, members=(1,)),
                            proven_minimal=True, nodes_explored=0)
    if r > n:
        raise InfeasibleRedundancyError(
            f"r={r} exceeds n={n}: a pair can share at most n quorums"
        )
    max_nodes = budget.max_nodes if budget else None
    counter = [0]
    exhausted: list[int] = []
    skipped: list[int] = []
    frontier: tuple[int, ...] = ()
    for k_hat in range(search_floor(n, r), n + 1):
        level_limit = None if max_nodes is None else counter[0] + max_nodes
        try:
            members = _search_level(n, r, k_hat, counter, level_limit)
        except _LevelBudgetUp as up:
            skipped.append(k_hat)
            frontier = up.frontier
            continue
        if members is not None:
            return SearchResult(
                base=QuorumBase(n=n, r=r, members=members),
                proven_minimal=not skipped,
                nodes_explored=counter[0],
                exhausted_k=tuple(exhausted),
                skipped_k=tuple(skipped),
            )
        exhausted.append(k_hat)
    raise SearchBudgetExhausted(
        n=n, r=r,
        proven_infeasible_k=max(exhausted) if exhausted else None,
        frontier=frontier, nodes_explored=counter[0],
    )


def save_base(result: SearchResult | QuorumBase, path: str):
    base = result.base if isinstance(result, SearchResult) else result
    payload = {
        "n": base.n,
        "r": base.r,
        "k_hat": base.k_hat,
        "members": list(base.members),
    }
    if isinstance(result, SearchResult):
        payload["proven_minimal"] = result.proven_minimal
        payload["nodes_explored"] = result.nodes_explored
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_base(path: str) -> QuorumBase:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    for key in ("n", "r", "members"):
        if key not in payload:
            raise ValueError(f"base file {path} missing field {key!r}")
    base = QuorumBase(n=payload["n"], r=payload["r"],
                      members=tuple(payload["members"]))
    if "k_hat" in payload and payload["k_hat"] != base.k_hat:
        raise ValueError(
            f"base file {path} declares k_hat={payload['k_hat']} "
            f"but lists {base.k_hat} members"
        )
    return base


def bundled_base(n: int, r: int) -> QuorumBase | None:
    """Precomputed base shipped with the package, or None if absent."""
    from importlib import resources

    name = f"n{n}_r{r}.json"
    ref = resources.files(__package__) / "data" / "bases" / name
    if not ref.is_file():
        return None
    payload = json.loads(ref.read_text(encoding="utf-8"))
    return QuorumBase(n=payload["n"], r=payload["r"],
                      members=tuple(payload["members"]))
