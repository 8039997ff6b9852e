"""Cycle routing for quorum communication sets.

Each quorum needs a closed walk in the network that visits all of its
members.  Edges may not repeat within a walk (node revisits are fine),
so every cycle can later carry a unidirectional optical trail.  The
heuristic pipeline:

  1. ratio_bfs   - from a seed member, pick the shortest path to another
                   member that packs in the most quorum nodes per hop
  2. close_cycle - shortest return path reusing no edge
  3. insert_missing - splice each leftover member into the cycle via the
                   cheapest single-edge detour

Ties everywhere break deterministically (fewer hops, then lexicographic
node sequence) so routing is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .quorums import QuorumSet
from .topology import NodeMapping, Topology, canonical_edge, find_bridges, relabel

Edge = tuple[int, int]


class RoutingError(Exception):
    pass


class NoReturnPathError(RoutingError):
    """The seed path cannot be closed without reusing one of its edges."""

    def __init__(self, path: tuple[int, ...]):
        self.path = path
        super().__init__(f"no edge-disjoint return path closing {list(path)}")


class InsertionInfeasibleError(RoutingError):
    """A missing member cannot be spliced in without reusing an edge."""

    def __init__(self, node: int, sequence: tuple[int, ...]):
        self.node = node
        self.sequence = sequence
        super().__init__(f"cannot insert node {node} into cycle {list(sequence)}")


class RoutingInfeasibleError(RoutingError):
    """No valid cycle exists for a communication set (or, for route_all,
    at least one quorum could not be routed)."""

    def __init__(self, message: str, failures: dict[int, RoutingError] | None = None):
        self.failures = failures or {}
        super().__init__(message)


def _walk_edges(seq: tuple[int, ...]):
    """The links a node sequence crosses, in order, as a lazy iterator."""
    return map(canonical_edge, seq, seq[1:])


@dataclass(frozen=True)
class CycleRoute:
    """Closed edge-distinct walk; starts and ends at its trail hub."""

    sequence: tuple[int, ...]
    hub: int
    quorum_index: int | None = None

    def __post_init__(self):
        seq = self.sequence
        if len(seq) < 4:
            raise ValueError(f"cycle needs at least 3 edges, got {list(seq)}")
        if seq[0] != seq[-1]:
            raise ValueError("cycle sequence must return to its start")
        if seq[0] != self.hub:
            raise ValueError(f"cycle must start at its hub {self.hub}, got {seq[0]}")
        edges = list(_walk_edges(seq))
        if len(set(edges)) != len(edges):
            raise ValueError(f"cycle reuses an edge: {list(seq)}")

    @property
    def length(self) -> int:
        return len(self.sequence) - 1

    @property
    def edge_list(self) -> tuple[Edge, ...]:
        return tuple(_walk_edges(self.sequence))

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.edge_list)

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(self.sequence)


def _layered_paths(g: Topology, source: int, cset: frozenset[int],
                   banned: frozenset[Edge] = frozenset(),
                   goal: int | None = None) -> dict[int, tuple[int, tuple[int, ...]]]:
    """BFS keeping, per node, the best shortest path from source.

    Best means most cset nodes on the path, then lexicographically
    smallest node sequence.  Returns {node: (cset_count, path)}.  Given a
    goal, the search stops after the layer that settles it: later layers
    never change an entry already made.
    """
    adj = g.adjacency
    best: dict[int, tuple[int, tuple[int, ...]]] = {
        source: (1 if source in cset else 0, (source,))
    }
    frontier = [source]
    while frontier and goal not in best:
        layer: dict[int, tuple[int, tuple[int, ...]]] = {}
        for u in frontier:
            cnt, path = best[u]
            for w in adj[u]:
                if w in best or canonical_edge(u, w) in banned:
                    continue
                c = cnt + (w in cset)
                held = layer.get(w)
                # paths into one layer are equally long, so the parents
                # order the extended paths
                if (held is None or c > held[0]
                        or (c == held[0] and path < held[1])):
                    layer[w] = (c, path + (w,))
        best.update(layer)
        frontier = sorted(layer)
    return best


def _rank(inside: int, path: tuple[int, ...]) -> tuple[Fraction, int, tuple[int, ...]]:
    """Seed order: most members per path node, then fewer hops, then lexicographic."""
    return (-Fraction(inside, len(path)), len(path) - 1, path)


def _densest(g: Topology, source: int, members: frozenset[int],
             banned: frozenset[Edge]) -> tuple[int, ...] | None:
    """Best-ranked shortest path from source to another member, or None."""
    best = _layered_paths(g, source, members, banned)
    ranked = [_rank(*best[t]) for t in members if t != source and t in best]
    return min(ranked)[-1] if ranked else None


def ratio_bfs(g: Topology, source: int, c: frozenset[int] | set[int]) -> tuple[int, ...]:
    """Best seed path from source to some other member of c.

    Among shortest paths to each member, prefers the one with the highest
    fraction of c-nodes per path node; ties go to fewer hops, then the
    lexicographically smallest sequence.
    """
    cset = frozenset(c)
    if source not in cset:
        raise ValueError(f"source {source} is not in the communication set")
    if len(cset) < 2:
        raise ValueError("communication set needs a second member to aim for")
    path = _densest(g, source, cset, frozenset())
    if path is None:
        raise RoutingInfeasibleError(
            f"no member of {sorted(cset)} reachable from {source}"
        )
    return path


def _shortest_avoiding(g: Topology, start: int, goal: int, banned: frozenset[Edge],
                       cset: frozenset[int] = frozenset()) -> tuple[int, ...] | None:
    entry = _layered_paths(g, start, cset, banned, goal).get(goal)
    return entry[1] if entry else None


def close_cycle(g: Topology, path: tuple[int, ...],
                c: frozenset[int] | set[int] = frozenset()) -> CycleRoute:
    """Close an open path into a cycle without reusing its edges.

    The return path is a shortest one; among equally short candidates the
    one touching the most c-nodes wins (then lexicographic), which keeps
    later member insertions cheap.  The cycle starts where the path did.
    """
    if len(path) < 2:
        raise ValueError("path needs at least one edge to close")
    used = frozenset(_walk_edges(path))
    ret = _shortest_avoiding(g, path[-1], path[0], used, frozenset(c))
    if ret is None:
        raise NoReturnPathError(tuple(path))
    return CycleRoute(sequence=tuple(path) + ret[1:], hub=path[0])


def _detour(g: Topology, a: int, v: int, b: int, banned: frozenset[Edge],
            cset: frozenset[int] = frozenset()) -> tuple[int, ...] | None:
    """Edge-distinct walk a -> v -> b avoiding banned edges, or None.

    Greedy in two orders (a->v first, or v->b first) since the first leg
    can block the second; keeps the better feasible combination.
    """
    candidates = []
    first = _shortest_avoiding(g, a, v, banned, cset)
    if first is not None:
        second = _shortest_avoiding(g, v, b, banned.union(_walk_edges(first)), cset)
        if second is not None:
            candidates.append(first + second[1:])
    back = _shortest_avoiding(g, v, b, banned, cset)
    if back is not None:
        fore = _shortest_avoiding(g, a, v, banned.union(_walk_edges(back)), cset)
        if fore is not None:
            candidates.append(fore + back[1:])
    if not candidates:
        return None
    return min(candidates, key=lambda w: (len(w), w))


def insert_missing(g: Topology, route: CycleRoute, v: int,
                   c: frozenset[int] | set[int] = frozenset()) -> CycleRoute:
    """Splice node v into the cycle by the cheapest single-edge detour.

    A cycle edge (a, b) is replaced by a walk a -> v -> b; the replacement
    minimizing the resulting cycle length wins (ties: earliest edge
    position, then lexicographic detour).  Positions are tried cheapest
    lower bound first, and the search stops once no remaining position
    can win, so the result equals a scan of every edge.
    """
    seq = route.sequence
    if v in seq:
        raise ValueError(f"node {v} is already on the cycle")
    cset = frozenset(c)
    all_edges = frozenset(_walk_edges(seq))
    # hop distances from v off the cycle; far exceeds any real leg length
    far = g.n + 1
    dv = {u: len(path) - 1 for u, (_, path)
          in _layered_paths(g, v, frozenset(), all_edges).items()}
    # with only (a, b) unbanned, a shortest a -> v leg either avoids (a, b)
    # or crosses it first, so it is exactly la = min(dv[a], 1 + dv[b]) long
    # (unreachable: _detour finds nothing), and the v -> b leg is at least
    # lb = min(dv[b], 1 + dv[a]).  A detour at pos thus gives a cycle of at
    # least len(seq) - 2 + la + lb links; once (bound, pos) passes the best
    # (length, pos) so far, neither it nor any later entry can win or tie
    # at an earlier position.
    order = []
    for pos, (a, b) in enumerate(zip(seq, seq[1:])):
        da, db = dv.get(a, far), dv.get(b, far)
        la = min(da, 1 + db)
        if la < far:
            order.append((len(seq) - 2 + la + min(db, 1 + da), pos))
    order.sort()
    best: tuple[int, int, tuple[int, ...]] | None = None
    for bound, pos in order:
        if best is not None and (bound, pos) > best[:2]:
            break
        a, b = seq[pos], seq[pos + 1]
        det = _detour(g, a, v, b, all_edges - {canonical_edge(a, b)}, cset)
        if det is None:
            continue
        new_len = len(seq) - 2 + len(det) - 1
        cand = (new_len, pos, det)
        if best is None or cand < best:
            best = cand
    if best is None:
        raise InsertionInfeasibleError(v, seq)
    _, pos, det = best
    new_seq = seq[: pos + 1] + det[1:] + seq[pos + 2:]
    return replace(route, sequence=new_seq)


def _rotate_to(seq: tuple[int, ...], hub: int) -> tuple[int, ...]:
    i = seq.index(hub)
    return seq[i:-1] + seq[: i + 1]


def _separating_bridges(g: Topology, cset: frozenset[int]) -> list[Edge]:
    """Bridges with communication members on both sides (the offending cuts)."""
    out = []
    for bridge in sorted(find_bridges(g)):
        side = _layered_paths(g, bridge[0], frozenset(), frozenset({bridge}))
        if 0 < len(cset.intersection(side)) < len(cset):
            out.append(bridge)
    return out


def _insert_all(g: Topology, route: CycleRoute, cset: frozenset[int]) -> CycleRoute:
    while True:
        on_cycle = set(route.sequence)
        missing = sorted(cset - on_cycle)
        if not missing:
            return route
        # nearest-to-cycle first, ties by node id
        dist, v = min((min(g.hops[v][u] for u in on_cycle), v) for v in missing)
        if dist == g.n:  # no missing member is reachable
            raise InsertionInfeasibleError(missing[0], route.sequence)
        route = insert_missing(g, route, v, cset)


def _collect(g: Topology, seed: tuple[int, ...],
             cset: frozenset[int]) -> tuple[int, ...]:
    """Grow the seed through the missing members, for closing afterwards.

    Each extension leg is a shortest edge-unused path to some missing
    member, densest in missing members first.  Closing early and
    splicing pays two hops per member; collecting on the way out often
    beats that on dense graphs.
    """
    path = tuple(seed)
    while missing := cset.difference(path):
        leg = _densest(g, path[-1], missing, frozenset(_walk_edges(path)))
        if leg is None:
            raise NoReturnPathError(path)
        path += leg[1:]
    return path


def route_cycle(g: Topology, c: frozenset[int] | set[int],
                hub: int | None = None) -> CycleRoute:
    """Route one communication set into a closed edge-distinct walk.

    Every member contributes a seed path, and each seed is finished two
    ways: close the cycle early and splice missing members in, or
    collect the members while extending and close last.  The shortest
    finished cycle wins (ties lexicographic), so one stubborn seed
    cannot drag the result far from optimal.  The walk is rotated so
    the hub sits at both ends.
    """
    cset = frozenset(c)
    if not cset:
        raise ValueError("communication set is empty")
    for v in cset:
        if not 1 <= v <= g.n:
            raise ValueError(f"member {v} out of range 1..{g.n}")
    if hub is None:
        hub = min(cset)
    if hub not in cset:
        raise ValueError(f"hub {hub} must be a member of the communication set")

    if len(cset) == 1:
        seeds = [(hub, w) for w in g.adjacency[hub]]
    else:
        seeds = []
        for src in sorted(cset):
            try:
                seeds.append(ratio_bfs(g, src, cset))
            except RoutingInfeasibleError:
                continue
        if not seeds:
            raise RoutingInfeasibleError(
                f"members of {sorted(cset)} are mutually unreachable"
            )
        seeds.sort(key=lambda path: _rank(len(cset.intersection(path)), path))

    last_error: RoutingError | None = None
    best: tuple[int, tuple[int, ...]] | None = None
    for seed in seeds:
        for grow in (False, True):
            try:
                path = _collect(g, seed, cset) if grow else seed
                route = _insert_all(g, close_cycle(g, path, cset), cset)
            except (NoReturnPathError, InsertionInfeasibleError) as exc:
                last_error = exc
                continue
            cand = (route.length, _rotate_to(route.sequence, hub))
            if best is None or cand < best:
                best = cand
    if best is not None:
        return CycleRoute(sequence=best[1], hub=hub)

    cut = _separating_bridges(g, cset)
    detail = f"; bridges separating the set: {cut}" if cut else ""
    raise RoutingInfeasibleError(
        f"every seed failed for communication set {sorted(cset)}"
        f" (last: {last_error}){detail}",
    )


def route_all(g: Topology, qs: QuorumSet, m: NodeMapping) -> tuple[CycleRoute, ...]:
    """Route every quorum under a node relabeling.

    The cycle for quorum i gets hub m(i).  All failures are collected and
    raised together so a caller can report or exclude the whole mapping.
    """
    if qs.n != g.n or m.n != g.n:
        raise ValueError(
            f"size mismatch: topology n={g.n}, quorums n={qs.n}, mapping n={m.n}"
        )
    routes = []
    failures: dict[int, RoutingError] = {}
    for i, quorum in enumerate(qs.quorums, start=1):
        cset = relabel(quorum, m)
        try:
            route = route_cycle(g, cset, hub=m.apply(i))
        except RoutingError as exc:
            failures[i] = exc
            continue
        routes.append(replace(route, quorum_index=i))
    if failures:
        summary = "; ".join(f"quorum {i}: {err}" for i, err in sorted(failures.items()))
        raise RoutingInfeasibleError(
            f"{len(failures)} of {qs.n} quorums could not be routed: {summary}",
            failures=failures,
        )
    return tuple(routes)
