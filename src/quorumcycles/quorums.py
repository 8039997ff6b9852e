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
Besides a counting bound, the search cuts symmetric prefixes: rotations
and the maps x -> u*x for a unit u mod n send r-redundant bases to
r-redundant bases, so a prefix that such a map sends below itself holds
no level's smallest base.  The node counts, and so the budgets, are
those of the cut tree.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import combinations


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
        # type() rather than isinstance(): True would otherwise pass as 1
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"n must be a positive int, got {self.n!r}")
        if type(self.r) is not int or self.r < 1:
            raise ValueError(f"r must be a positive int, got {self.r!r}")
        for m in self.members:
            if type(m) is not int:
                raise ValueError(f"members must be ints, got {m!r}")
        members = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", members)
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
    """DFS node cap per size level, at least 1; None means unbounded."""

    max_nodes: int | None = None

    def __post_init__(self):
        m = self.max_nodes
        if m is not None and (type(m) is not int or m < 1):
            raise ValueError(
                f"budget max_nodes must be None or an int >= 1, got {m!r}")


# node cap per size level used by the CLI and by reports that must search
DEFAULT_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class SearchResult:
    base: QuorumBase
    nodes_explored: int
    exhausted_k: tuple[int, ...] = ()
    skipped_k: tuple[int, ...] = ()

    @property
    def proven_minimal(self) -> bool:
        """True unless a size level below the base's was skipped."""
        return not self.skipped_k


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


def pair_coverage(qs: QuorumSet) -> dict[tuple[int, int], int]:
    """Co-occurrence count of every unordered node pair, by direct enumeration."""
    counts = {pair: 0 for pair in combinations(range(1, qs.n + 1), 2)}
    for quorum in qs.quorums:
        for pair in combinations(sorted(quorum), 2):
            counts[pair] += 1
    return counts


def verify_quorum_set(qs: QuorumSet, r: int) -> VerificationReport:
    """Check the structural quorum properties by direct enumeration.

    Deliberately avoids the difference-count shortcut so it can serve as
    an independent referee for the fast predicate.
    """
    # type() rather than isinstance(): True would otherwise pass as 1
    if type(r) is not int or r < 1:
        raise ValueError(f"r must be a positive int, got {r!r}")
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
    counts = pair_coverage(qs)
    # n < 2 has no pairs, so nothing can fall short of r
    worst = min(counts.values()) if counts else r
    if worst < r:
        thin = sorted(p for p, c in counts.items() if c < r)[:5]
        violations.append(
            f"pair multiplicity {worst} below required {r} (e.g. pairs {thin})"
        )
    return VerificationReport(n=qs.n, r=r, k_hat=k_hat,
                              min_pair_multiplicity=worst,
                              violations=tuple(violations))


def search_floor(n: int, r: int) -> int:
    """Lower bound on the r-redundant base size for ring length n.

    The smallest k whose pair budget can satisfy every distance class.
    It is never below Maekawa's bound (k*(k-1) + 1 >= n) or min(r, n).
    """
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


def _mapped_below(fwd: int, x: int, n: int, inverse: dict) -> bool:
    """True when a map taking a to 1 and b to 2, with a or b the newest
    member x, sends the prefix mask fwd to a set sorting below it.

    The map is y -> u*(y - a) mod n + 1 with u = inverse[(b - a) mod n];
    `_search_level` gives the argument for the cut.
    """
    placed, older = [x], fwd ^ 1 << x
    while older:
        bit = older & -older
        placed.append(bit.bit_length() - 1)
        older ^= bit
    for s in placed[1:]:
        for a, d in ((x, s - x), (s, x - s)):
            u = inverse.get(d % n)
            if u:
                image = 0
                for y in placed:
                    image |= 1 << (u * (y - a) % n + 1)
                diff = image ^ fwd
                if image & diff & -diff:
                    return True
    return False


class _LevelBudgetUp(Exception):
    def __init__(self, frontier: tuple[int, ...]):
        self.frontier = frontier


def _search_level(n: int, r: int, k_hat: int, counter: list[int],
                  max_nodes: int | None) -> tuple[int, ...] | None:
    """Exhaustive lexicographic DFS at one base size k_hat.

    k_hat >= search_floor(n, r), so the root needs no prune.  Returns the
    lexicographically smallest valid base, or None when the level is
    exhausted.  Raises _LevelBudgetUp when the node budget dies
    mid-level.  counter[0] gains one per candidate x tried, counted
    before the budget check.  The first slot tries only x = 2: a valid
    base covers class 1 by some pair {s, s+1} (maybe {n, 1}); rotated
    onto (1, 2) it stays valid, and tuples starting (1, 2) sort before
    those starting (1, >=3), so a level's smallest valid base holds 2.

    Bit-parallel: the members are a forward mask `fwd` (bit s) and a
    reversed mask `rev` (bit n - s).  Every member lies below a candidate
    x, so x's differences x - s fall in class x - s when that is at most
    half (bits of rev >> (n - x)) and in class n - (x - s) otherwise
    (bits of fwd << (n - x)).  A class hit from both sides gains two.
    need[j] is the set of classes still short by more than j units, so a
    candidate clears popcount(need[0] & hit) + popcount(need[1] & both)
    units.  Even n's half-way class gains 2 per pair, so it needs
    ceil(r/2) pairs, and x hits it only through lo: on any n a pair
    clears at most one unit, and a child is pruned when its deficit
    exceeds its future pairs.

    The last slot is solved in closed form: x completes the base iff it
    hits every class of need[0], hits every class of need[1] from both
    sides and need[2] is empty.  Class c is hit from below by x in
    fwd << c and from above by x in fwd << (n - c) (none for the half-way
    class), so the valid x form one int mask.  The counter still counts
    the slot's candidates up to the lowest valid x, or all if none is.

    Multiplier cut: for a unit u mod n, g(y) = u*(y - a) mod n + 1
    multiplies every difference by u, which permutes the distance classes
    (on even n a unit is odd and keeps the half-way class), so g maps an
    r-redundant base to an r-redundant base of the same size.  Taking a
    member a to 1 and a member b to 2 needs u = (b - a)^-1, so b - a must
    be a unit.  A child prefix P is pruned when such a g sends P to a set
    sorting below P.  g(P) is a subset of g(B) for every completion B of
    P, so the i-th smallest of g(B) is at most the i-th smallest of g(P);
    B's |P| smallest members are P, so g(B) sorts below B as well, and
    g(B) holds 1 and 2 and is valid.  So the level's smallest valid base
    is never pruned: every returned base and exhausted level is the same
    as without the cut, and only the node count falls.  In masks, the
    image sorts below fwd exactly when the lowest bit of image ^ fwd lies
    in the image.  The rule is fixed: only the maps with a or b the
    newest member x, and only on children of at most 5 members that keep
    2 or more slots, never in the closed-form last slot.  Deeper prefixes
    prune little on levels that find a base, and slow such levels.  A
    pruned candidate still counts as one node.
    """
    half = n // 2
    low = (1 << (half + 1)) - 2         # classes 1..half
    high = (1 << (n - half)) - 2        # classes 1..n-half-1
    need = [low] * r + [0, 0, 0]        # empty layers under the last
    for j in range((r + 1) // 2, r) if n % 2 == 0 else ():
        need[j] &= ~(1 << half)         # half-way class: ceil(r/2) pairs
    deficit = sum(m.bit_count() for m in need)
    limit = sys.maxsize if max_nodes is None else max_nodes
    nodes = counter[0]
    layers = range(r)
    inverse = {d: u for d in range(1, n) for u in range(1, n)
               if d * u % n == 1}          # unit d -> d^-1 mod n

    def members(fwd: int) -> tuple[int, ...]:
        return tuple(s for s in range(1, n + 1) if fwd >> s & 1)

    def finish(fwd, need0, need1, deficit, last):
        nonlocal nodes
        # need[2] is empty iff need0 and need1 hold the whole deficit
        top = n if last > 1 else 2      # the first slot is pinned to 2
        ok = 0
        if deficit == need0.bit_count() + need1.bit_count():
            ok = (2 << top) - 1 >> (last + 1) << (last + 1)
            while need0 and ok:
                c = (need0 & -need0).bit_length() - 1
                need0 &= need0 - 1
                far = fwd << (n - c) if c < n - half else 0
                ok &= fwd << c & far if need1 >> c & 1 else fwd << c | far
        x = (ok & -ok).bit_length() - 1 if ok else top
        if nodes + x - last > limit:
            x = last + limit - nodes + 1
            nodes = limit + 1
            raise _LevelBudgetUp(members(fwd) + (x,))
        nodes += x - last
        return members(fwd) + (x,) if ok else None

    def extend(fwd, rev, need, deficit, last, slots):
        nonlocal nodes
        # a child has k_hat - rest members and rest slots; prune it here,
        # before the call, when its deficit exceeds its future pairs
        rest = slots - 1
        bound = (k_hat - rest) * rest + rest * (rest - 1) // 2
        shallow = rest >= 2 and k_hat - rest <= 5
        need0, need1, need2 = need[0], need[1], need[2]
        for x in range(last + 1, n - slots + 2 if last > 1 else 3):
            nodes += 1
            if nodes > limit:
                raise _LevelBudgetUp(members(fwd) + (x,))
            shift = n - x
            lo = (rev >> shift) & low
            hi = (fwd << shift) & high
            hit = lo | hi
            both = lo & hi
            left = (deficit - (need0 & hit).bit_count()
                    - (need1 & both).bit_count())
            if left > bound or shallow and _mapped_below(
                    fwd | 1 << x, x, n, inverse):
                continue
            keep, once = ~hit, hit ^ both
            if rest == 1:
                found = finish(
                    fwd | 1 << x, need0 & keep | need1 & once | need2 & both,
                    need1 & keep | need2 & once | need[3] & both, left, x)
            else:
                found = extend(
                    fwd | 1 << x, rev | 1 << shift,
                    [need[j] & keep | need[j + 1] & once | need[j + 2] & both
                     for j in layers] + [0, 0, 0],
                    left, x, rest)
            if found:
                return found
        return None

    try:
        if k_hat == 2:
            return finish(1 << 1, need[0], need[1], deficit, 1)
        return extend(1 << 1, 1 << (n - 1), need, deficit, 1, k_hat - 1)
    finally:
        counter[0] = nodes


def search_min_base(n: int, r: int, budget: SearchBudget | None = None) -> SearchResult:
    """Find the smallest r-redundant base, ascending through sizes.

    With an unbounded budget the result is the true minimum and the
    lexicographically smallest base of that size.  A budget caps the
    DFS nodes spent per size level; a level that blows its cap is
    skipped, and a base found at a later level is returned flagged with
    proven_minimal=False.  If every level is skipped without a find,
    SearchBudgetExhausted carries the deepest frontier.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive int, got {n!r}")
    if type(r) is not int or r < 1:
        raise ValueError(f"r must be a positive int, got {r!r}")
    if n == 1:
        return SearchResult(base=QuorumBase(n=1, r=r, members=(1,)),
                            nodes_explored=0)
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


def _parse_base(text: str, path) -> QuorumBase:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"base file {path} must hold a JSON object")
    for key in ("n", "r", "members"):
        if key not in payload:
            raise ValueError(f"base file {path} missing field {key!r}")
    if not isinstance(payload["members"], list):
        raise ValueError(f"base file {path} members must be a list")
    base = QuorumBase(n=payload["n"], r=payload["r"],
                      members=tuple(payload["members"]))
    if "k_hat" in payload and payload["k_hat"] != base.k_hat:
        raise ValueError(
            f"base file {path} declares k_hat={payload['k_hat']} "
            f"but lists {base.k_hat} members"
        )
    return base


def load_base(path: str) -> QuorumBase:
    with open(path, encoding="utf-8") as fh:
        return _parse_base(fh.read(), path)


def bundled_base(n: int, r: int) -> QuorumBase | None:
    """Precomputed base shipped with the package, or None if absent."""
    from importlib import resources

    name = f"n{n}_r{r}.json"
    ref = resources.files(__package__) / "data" / "bases" / name
    if not ref.is_file():
        return None
    return _parse_base(ref.read_text(encoding="utf-8"), name)
