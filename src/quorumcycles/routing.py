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

route_cycle runs this from every member's seed path and finishes each
seed two ways: close it first and splice the rest in (steps 2 and 3),
or first extend it through the missing members (_collect) and close it
last.  Every finish runs under one int bound on the cycle's links,
first the graph's link count, since no edge-distinct walk has more,
then the shortest cycle found so far.  For a two-member set the first
bound is the exact shortest cycle's length, from the disjoint module;
that walk is the result only when no finish fits.  Each stage returns
None once nothing fits under the bound; the shortest cycle wins.
Seeds often close the same cycle, so the finishes of one route_cycle
call share each off-cycle search and detour of insert_missing, keyed
by the cycle's links and the member spliced in.

Ties everywhere break deterministically (fewer hops, then lexicographic
node sequence) so routing is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quorums import QuorumSet
from .topology import NodeMapping, Topology, canonical_edge, find_bridges, relabel

Edge = tuple[int, int]


class RoutingInfeasibleError(Exception):
    """No valid cycle exists for a communication set (or, for route_all,
    at least one quorum could not be routed)."""

    def __init__(self, message: str,
                 failures: dict[int, RoutingInfeasibleError] | None = None):
        self.failures = failures or {}
        super().__init__(message)


def _walk_edges(seq: tuple[int, ...]):
    """The links a node sequence crosses, in order, as a lazy iterator."""
    return map(canonical_edge, seq, seq[1:])


@dataclass(frozen=True)
class CycleRoute:
    """Closed edge-distinct walk; starts and ends at its trail hub."""

    sequence: tuple[int, ...]

    def __post_init__(self):
        # a kept list would leave the frozen value unhashable
        object.__setattr__(self, "sequence", tuple(self.sequence))
        seq = self.sequence
        if len(seq) < 4:
            raise ValueError(f"cycle needs at least 3 edges, got {list(seq)}")
        if seq[0] != seq[-1]:
            raise ValueError("cycle sequence must return to its start")
        edges = list(_walk_edges(seq))
        if len(set(edges)) != len(edges):
            raise ValueError(f"cycle reuses an edge: {list(seq)}")

    @property
    def hub(self) -> int:
        return self.sequence[0]

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


def _check_nodes(g: Topology, nodes, what: str) -> None:
    """Raise ValueError for a node id outside 1..g.n."""
    for v in nodes:
        if not 1 <= v <= g.n:
            raise ValueError(f"{what} {v} out of range 1..{g.n}")


def _walk_bits(g: Topology, seq: tuple[int, ...]) -> int:
    """The links a node sequence crosses, as an int of link bits."""
    links = g.link_bits
    bits = 0
    try:
        for u, w in zip(seq, seq[1:]):
            bits |= links[u][w]
    except (KeyError, IndexError):
        raise ValueError(f"{list(seq)} steps between nodes that share no link") from None
    return bits


def _layered_paths(g: Topology, source: int, cset: frozenset[int],
                   banned: int = 0, goals: frozenset[int] | set[int] = frozenset(),
                   depth: int | None = None
                   ) -> dict[int, tuple[int, tuple[int, ...], int]]:
    """BFS keeping, per node, the best shortest path from source.

    Best means most cset nodes on the path, then lexicographically
    smallest node sequence.  banned is an int of `Topology.link_bits`
    the paths may not cross.  Returns {node: (cset_count, path, bits)},
    bits being the links the path crosses.  Given goals, the search
    stops after the layer that settles the last of them, and given a
    depth, after the layer at that many hops: later layers never change
    an entry already made.
    """
    links = g.link_bits
    best: dict[int, tuple[int, tuple[int, ...], int]] = {
        source: (1 if source in cset else 0, (source,), 0)
    }
    frontier = [source]
    layers = g.n if depth is None else depth
    while frontier and layers > 0 and not (goals and goals <= best.keys()):
        layers -= 1
        layer: dict[int, tuple[int, tuple[int, ...], int]] = {}
        for u in frontier:
            cnt, path, bits = best[u]
            for w, bit in links[u].items():
                if bit & banned or w in best:
                    continue
                c = cnt + (w in cset)
                held = layer.get(w)
                # paths into one layer are equally long, so the parents
                # order the extended paths, whatever order they come in
                if (held is None or c > held[0]
                        or (c == held[0] and path < held[1])):
                    layer[w] = (c, path + (w,), bits | bit)
        best.update(layer)
        frontier = layer
    return best


def _rank(inside: int, path: tuple[int, ...]) -> tuple[float, int, tuple[int, ...]]:
    """Seed order: most members per path node, then fewer hops, then lexicographic.

    The float ratio orders exactly as the fraction would: division is
    correctly rounded, and with denominators of at most n + 1 two
    different ratios lie much further apart than a rounding step.
    """
    return (-inside / len(path), len(path) - 1, path)


def _densest(g: Topology, source: int, members: frozenset[int], banned: int
             ) -> tuple[int, tuple[int, ...], int] | None:
    """Best-ranked shortest path entry from source to another member, or None.

    Only members can be chosen, so the search ends once all are settled.
    """
    best = _layered_paths(g, source, members, banned, members)
    reached = [best[t] for t in members if t != source and t in best]
    return min(reached, key=lambda e: _rank(e[0], e[1])) if reached else None


def ratio_bfs(g: Topology, source: int, c: frozenset[int] | set[int]
              ) -> tuple[int, ...] | None:
    """Best seed path from source to some other member of c, or None.

    Among shortest paths to each member, prefers the one with the highest
    fraction of c-nodes per path node; ties go to fewer hops, then the
    lexicographically smallest sequence.  None means no other member is
    reachable.
    """
    cset = frozenset(c)
    _check_nodes(g, cset, "member")
    if source not in cset:
        raise ValueError(f"source {source} is not in the communication set")
    if len(cset) < 2:
        raise ValueError("communication set needs a second member to aim for")
    entry = _densest(g, source, cset, 0)
    return None if entry is None else entry[1]


def close_cycle(g: Topology, path: tuple[int, ...],
                c: frozenset[int] | set[int] = frozenset(), *,
                limit: int | None = None) -> CycleRoute | None:
    """Close an open path into a cycle without reusing its edges.

    The return path is a shortest one; among equally short candidates the
    one touching the most c-nodes wins (then lexicographic), which keeps
    later member insertions cheap.  The cycle starts where the path did.
    Returns None when no cycle of at most limit links closes the path;
    the default limit, the graph's link count, drops no edge-distinct
    cycle.
    """
    if len(path) < 2:
        raise ValueError("path needs at least one edge to close")
    _check_nodes(g, path, "node")
    if limit is None:
        limit = len(g.edges)
    start, end = path[0], path[-1]
    ret = _layered_paths(g, end, frozenset(c), _walk_bits(g, path),
                         {start}, limit - (len(path) - 1)).get(start)
    return None if ret is None else CycleRoute(tuple(path) + ret[1][1:])


def _leg_key(entry: tuple[int, tuple[int, ...], int]) -> tuple:
    """Leg order of _layered_paths: fewer hops, more members, lexicographic."""
    return (len(entry[1]), -entry[0], entry[1])


def _off_cycle_legs(g: Topology, v: int, cycle_bits: int, cset: frozenset[int]):
    """One BFS from v off the cycle, and the detour legs that follow from it.

    Returns (dv, legs).  dv maps each node v reaches without crossing a
    link in cycle_bits to its hop distance.  legs(a, b), for a cycle
    link (a, b) with a or b in dv, returns the best a -> v and v -> b
    legs over the graph minus every other cycle link, each as a
    _layered_paths entry, exactly as a search from a or v would find
    them.  A shortest leg crosses (a, b) only as its first (a -> v) or
    last (v -> b) link, so each leg is the better of one that stays off
    the cycle and one through the other end of the link.  A candidate
    that meets that other end twice is longer than the one that stays
    off the cycle, so it never wins.
    """
    links = g.link_bits
    tree = _layered_paths(g, v, cset, cycle_bits)
    dv = {u: len(path) - 1 for u, (_, path, _) in tree.items()}
    into: dict[int, tuple[int, tuple[int, ...], int]] = {}

    def toward(x: int) -> tuple[int, tuple[int, ...], int]:
        # the best off-cycle x -> v path: a shortest path holds as many
        # members as its reverse, so each step down a layer goes to the
        # neighbour with the largest tree count, then the smallest id
        if x not in into:
            path, bits, u = [x], 0, x
            for depth in range(dv[x] - 1, -1, -1):
                step = None
                for w, bit in links[u].items():
                    if dv.get(w) == depth and not bit & cycle_bits:
                        key = (-tree[w][0], w)
                        if step is None or key < step[0]:
                            step = (key, w, bit)
                _, u, bit = step
                path.append(u)
                bits |= bit
            into[x] = (tree[x][0], tuple(path), bits)
        return into[x]

    def legs(a: int, b: int):
        bit = links[a][b]
        firsts, backs = [], []
        if a in tree:
            firsts.append(toward(a))
            cnt, path, bits = tree[a]
            backs.append((cnt + (b in cset), path + (b,), bits | bit))
        if b in tree:
            backs.append(tree[b])
            cnt, path, bits = toward(b)
            firsts.append((cnt + (a in cset), (a,) + path, bits | bit))
        return min(firsts, key=_leg_key), min(backs, key=_leg_key)

    return dv, legs


def _detour(g: Topology, first: tuple[int, tuple[int, ...], int],
            back: tuple[int, tuple[int, ...], int], banned: int,
            cset: frozenset[int], room: int) -> tuple[int, ...] | None:
    """Edge-distinct walk a -> v -> b avoiding banned links, or None.

    first and back are the best a -> v and v -> b legs avoiding banned.
    Greedy in two orders (a->v first, or v->b first) since the first leg
    can block the second; keeps the better feasible combination.  When
    the legs share no link, each order's re-search returns the other
    order's leg unchanged (a best path present in a subgraph is still
    best there), so both orders give first + back.  The re-searches
    drop walks of more than room links, so the result is the same
    whenever the walk fits and None (or a longer walk) when it does not.
    """
    _, av, av_bits = first
    _, vb, vb_bits = back
    if not av_bits & vb_bits:
        return av + vb[1:]
    a, v, b = av[0], av[-1], vb[-1]
    candidates = []
    second = _layered_paths(g, v, cset, banned | av_bits, {b},
                            room - (len(av) - 1)).get(b)
    if second is not None:
        candidates.append(av + second[1][1:])
    fore = _layered_paths(g, a, cset, banned | vb_bits, {v},
                          room - (len(vb) - 1)).get(v)
    if fore is not None:
        candidates.append(fore[1] + vb[1:])
    if not candidates:
        return None
    return min(candidates, key=lambda w: (len(w), w))


def insert_missing(g: Topology, route: CycleRoute, v: int,
                   c: frozenset[int] | set[int] = frozenset(), *,
                   limit: int | None = None,
                   memo: dict | None = None) -> CycleRoute | None:
    """Splice node v into the cycle by the cheapest single-edge detour.

    A cycle edge (a, b) is replaced by a walk a -> v -> b; the replacement
    minimizing the resulting cycle length wins (ties: earliest edge
    position, then lexicographic detour).  Positions are tried cheapest
    lower bound first, and the search stops once no remaining position
    can win, so the result equals a scan of every edge.  Returns None
    when no such cycle has at most limit links; the default limit, the
    graph's link count, drops no edge-distinct cycle.

    memo, shared by calls on one g and c, keeps per (cycle link bits, v)
    the off-cycle legs and each link's detour with the room it was
    found under.  A detour found under a room is the one every larger
    room finds, so it answers any room it fits; None under a room
    answers any smaller one.  Other lookups search again, so the result
    never depends on the memo.
    """
    seq = route.sequence
    _check_nodes(g, (v,) + seq, "node")
    if limit is None:
        limit = len(g.edges)
    if v in seq:
        raise ValueError(f"node {v} is already on the cycle")
    cset = frozenset(c)
    links = g.link_bits
    cycle_bits = _walk_bits(g, seq)
    if memo is None:
        memo = {}
    key = (cycle_bits, v)
    if key not in memo:
        memo[key] = (*_off_cycle_legs(g, v, cycle_bits, cset), {})
    dv, legs, detours = memo[key]
    far = g.n + 1
    # with only (a, b) unbanned, a shortest a -> v leg either avoids (a, b)
    # or crosses it first, so it is exactly la = min(dv[a], 1 + dv[b]) long
    # (unreachable: no detour), and the v -> b leg is at least
    # lb = min(dv[b], 1 + dv[a]).  A detour at pos thus gives a cycle of at
    # least len(seq) - 2 + la + lb links; once (bound, pos) passes the best
    # (length, pos) so far, neither it nor any later entry can win or tie
    # at an earlier position.  The limit acts as a best so far of
    # limit + 1 links ahead of every position.
    order = []
    for pos, (a, b) in enumerate(zip(seq, seq[1:])):
        da, db = dv.get(a, far), dv.get(b, far)
        la = min(da, 1 + db)
        if la < far:
            order.append((len(seq) - 2 + la + min(db, 1 + da), pos))
    order.sort()
    best: tuple[int, int, tuple[int, ...] | None] = (limit + 1, -1, None)
    for bound, pos in order:
        # the longest cycle that still wins here: ties win only ahead of
        # the best position
        cap = best[0] - (pos > best[1])
        if bound > cap:
            break
        room = cap - (len(seq) - 2)
        a, b = seq[pos], seq[pos + 1]
        # a walk found under some room is found under every larger one
        # (one too long for this room loses to best below), and None
        # under a room stays None under a smaller one
        found = detours.get((a, b))
        if found is None or (found[1] is None and room > found[0]):
            found = detours[a, b] = (room, _detour(
                g, *legs(a, b), cycle_bits ^ links[a][b], cset, room))
        det = found[1]
        if det is None:
            continue
        new_len = len(seq) - 2 + len(det) - 1
        cand = (new_len, pos, det)
        if cand < best:
            best = cand
    _, pos, det = best
    if det is None:
        return None
    new_seq = seq[: pos + 1] + det[1:] + seq[pos + 2:]
    return CycleRoute(new_seq)


def _rotate_to(seq: tuple[int, ...], hub: int) -> tuple[int, ...]:
    i = seq.index(hub)
    return seq[i:-1] + seq[: i + 1]


def _separating_bridges(g: Topology, cset: frozenset[int]) -> list[Edge]:
    """Bridges with communication members on both sides (the offending cuts)."""
    out = []
    for u, w in sorted(find_bridges(g)):
        side = _layered_paths(g, u, frozenset(), g.link_bits[u][w])
        if 0 < len(cset.intersection(side)) < len(cset):
            out.append((u, w))
    return out


def _insert_all(g: Topology, route: CycleRoute, cset: frozenset[int],
                limit: int, memo: dict) -> CycleRoute | None:
    """Splice every missing member in, nearest to the cycle first.

    Returns None once some member is unreachable or the cycle cannot
    stay within limit links: the detour that takes in a member d hops
    off the cycle replaces one link by a walk of at least 2d.  memo goes
    to every insert_missing call.
    """
    while True:
        on_cycle = set(route.sequence)
        missing = cset - on_cycle
        if not missing:
            return route
        dists = [(min(g.hops[v][u] for u in on_cycle), v) for v in missing]
        # nearest-to-cycle first, ties by node id
        dist, v = min(dists)
        if dist == g.n or route.length - 1 + 2 * max(dists)[0] > limit:
            return None
        route = insert_missing(g, route, v, cset, limit=limit, memo=memo)
        if route is None:
            return None


def _unclosable(g: Topology, path: tuple[int, ...], limit: int) -> bool:
    """True when closing path must give a cycle of more than limit links."""
    return len(path) - 1 + g.hops[path[-1]][path[0]] > limit


def _collect(g: Topology, seed: tuple[int, ...], cset: frozenset[int],
             limit: int) -> tuple[int, ...] | None:
    """Grow the seed through the missing members, for closing afterwards.

    Each extension leg is a shortest edge-unused path to some missing
    member, densest in missing members first.  Closing early and
    splicing pays two hops per member; collecting on the way out often
    beats that on dense graphs.  Returns None once some missing member
    is unreachable or the path cannot be closed within limit links.
    """
    path, bits = tuple(seed), _walk_bits(g, seed)
    while missing := cset.difference(path):
        if _unclosable(g, path, limit):
            return None
        leg = _densest(g, path[-1], missing, bits)
        if leg is None:
            return None
        path += leg[1][1:]
        bits |= leg[2]
    return path


def route_cycle(g: Topology, c: frozenset[int] | set[int],
                hub: int | None = None) -> CycleRoute:
    """Route one communication set into a closed edge-distinct walk.

    Every member contributes a seed path, and each seed is finished two
    ways: close the cycle early and splice missing members in, or
    collect the members while extending and close last.  The shortest
    finished cycle wins (ties lexicographic), so one stubborn seed
    cannot drag the result far from optimal.  The walk is rotated so
    the hub sits at both ends.  Each finish is bounded by the graph's
    link count, then by the shortest cycle so far: one that must come
    out longer stops early, while one that may tie runs to the end, so
    the result is that of finishing every seed in full.  Two members
    start from the bound of disjoint.pair_cycle's exact walk from the
    hub, which a finish as short beats; with no such walk none fits.
    """
    cset = frozenset(c)
    if not cset:
        raise ValueError("communication set is empty")
    _check_nodes(g, cset, "member")
    if hub is None:
        hub = min(cset)
    if hub not in cset:
        raise ValueError(f"hub {hub} must be a member of the communication set")

    if len(cset) == 1:
        seeds = [(hub, w) for w in g.adjacency[hub]]
    else:
        seeds = [path for src in sorted(cset)
                 if (path := ratio_bfs(g, src, cset)) is not None]
        if not seeds:
            raise RoutingInfeasibleError(
                f"members of {sorted(cset)} are mutually unreachable"
            )
        seeds.sort(key=lambda path: _rank(len(cset.intersection(path)), path))

    limit, pair = len(g.edges), None
    if len(cset) == 2:
        # loaded here, so routing larger sets never compiles it
        from .disjoint import pair_cycle
        pair = pair_cycle(g, hub, max(cset - {hub}))
        # its exact length is the first bound; without a pair none fits
        limit = -1 if pair is None else len(pair) - 1
    best: tuple[int, tuple[int, ...]] | None = None
    memo: dict = {}
    for seed in seeds:
        for grow in (False, True):
            path = _collect(g, seed, cset, limit) if grow else seed
            if path is None or _unclosable(g, path, limit):
                continue
            route = close_cycle(g, path, cset, limit=limit)
            if route is not None:
                route = _insert_all(g, route, cset, limit, memo)
            if route is None:
                continue
            cand = (route.length, _rotate_to(route.sequence, hub))
            if best is None or cand < best:
                best = cand
                limit = route.length
    walk = pair if best is None else best[1]
    if walk is not None:
        return CycleRoute(walk)

    cut = _separating_bridges(g, cset)
    detail = f"; bridges separating the set: {cut}" if cut else ""
    raise RoutingInfeasibleError(
        f"every seed failed for communication set {sorted(cset)}{detail}")


def route_all(g: Topology, qs: QuorumSet, m: NodeMapping) -> tuple[CycleRoute, ...]:
    """Route every quorum under a node relabeling.

    The cycle for quorum i gets hub m(i).  All failures are collected and
    raised together so a caller can report or exclude the whole mapping;
    a result thus holds every quorum's cycle, quorum i's at index i - 1.
    """
    if qs.n != g.n or m.n != g.n:
        raise ValueError(
            f"size mismatch: topology n={g.n}, quorums n={qs.n}, mapping n={m.n}"
        )
    routes = []
    failures: dict[int, RoutingInfeasibleError] = {}
    for i, quorum in enumerate(qs.quorums, start=1):
        cset = relabel(quorum, m)
        try:
            routes.append(route_cycle(g, cset, hub=m.apply(i)))
        except RoutingInfeasibleError as exc:
            failures[i] = exc
    if failures:
        summary = "; ".join(f"quorum {i}: {err}" for i, err in sorted(failures.items()))
        raise RoutingInfeasibleError(
            f"{len(failures)} of {qs.n} quorums could not be routed: {summary}",
            failures=failures,
        )
    return tuple(routes)
