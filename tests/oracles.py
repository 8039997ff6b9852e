"""Brute-force referees the tests trust instead of the library.

Everything here is re-derived from first principles on plain data
(member tuples, adjacency dicts, node sequences) so a library bug
cannot vouch for itself.  Slow is fine; these run on small inputs.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations


def rotated_quorums(members, n):
    """All n cyclic shifts of the member set, 1-based with wraparound."""
    out = []
    for i in range(n):
        out.append(frozenset((m - 1 + i) % n + 1 for m in members))
    return out


def pair_multiplicities(members, n):
    """Unordered pair -> number of generated quorums containing both."""
    quorums = rotated_quorums(members, n)
    counts = {}
    for a, b in combinations(range(1, n + 1), 2):
        counts[(a, b)] = sum(1 for q in quorums if a in q and b in q)
    return counts


def redundant_by_enumeration(members, n, r):
    """True iff every unordered pair co-occurs in at least r quorums."""
    if n == 1:
        return True
    counts = pair_multiplicities(members, n)
    return min(counts.values()) >= r


def distance_counts_by_enumeration(members, n):
    """Circular-distance d -> multiplicity of the representative pair (1, 1+d)."""
    counts = pair_multiplicities(members, n) if n > 1 else {}
    return {d: counts[(1, 1 + d)] for d in range(1, n // 2 + 1)}


def min_base_exhaustive(n, r):
    """Smallest redundant base by trying every subset size in order.

    Returns (k_hat, members) with members the lexicographically
    smallest winner at that size, or None when even the full set
    fails (r too large for n).
    """
    for k in range(1, n + 1):
        for rest in combinations(range(2, n + 1), k - 1):
            members = (1,) + rest
            if redundant_by_enumeration(members, n, r):
                return k, members
    return None


class _ReferenceBudgetUp(Exception):
    def __init__(self, frontier):
        self.frontier = frontier


def _reference_level(n, r, k_hat, counter, max_nodes):
    """One size level of the closure DFS the bitmask kernel replaced.

    Per-class counts and a running unit deficit, updated member by member
    on the way down and undone on the way back.  It makes the kernel's
    three cuts: a pair clears at most one unit (the half-way class needs
    only ceil(r/2) pairs), the first slot tries only x = 2, and a prefix
    of at most 5 members with 2 or more slots left is dropped when some
    map y -> u*(y - a) mod n + 1 taking one member a to 1 and another b
    to 2, with a or b the newest member, sends it to a tuple sorting
    below it (`mapped_below`).
    """
    half = n // 2
    even = n % 2 == 0
    counts = [0] * (half + 1)
    members = [1]

    def units_needed(d):
        lack = r - counts[d]
        if lack <= 0:
            return 0
        return (lack + 1) // 2 if (even and d == half) else lack

    deficit = sum(units_needed(d) for d in range(1, half + 1))

    def add(x):
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

    def undo(x, delta):
        nonlocal deficit
        members.pop()
        for s in members:
            d = (x - s) % n
            d = min(d, n - d)
            counts[d] -= 2 if (even and d == half) else 1
        deficit -= delta

    found = None

    def extend(last, slots):
        nonlocal found
        if found is not None:
            return
        if slots == 0:
            if deficit == 0:
                found = tuple(members)
            return
        placed = len(members)
        future_pairs = placed * slots + slots * (slots - 1) // 2
        if deficit > future_pairs:
            return
        if slots >= 2 and placed <= 5 and mapped_below(members, n):
            return
        for x in range(last + 1, n - slots + 2 if last > 1 else 3):
            counter[0] += 1
            if max_nodes is not None and counter[0] > max_nodes:
                raise _ReferenceBudgetUp(tuple(members) + (x,))
            delta = add(x)
            extend(x, slots - 1)
            undo(x, delta)
            if found is not None:
                return

    extend(1, k_hat - 1)
    return found


def mapped_below(members, n):
    """True when a map through the last member sends the tuple below itself.

    The maps are y -> u*(y - a) mod n + 1 with u = (b - a)^-1 mod n, so a
    goes to 1 and b to 2; one of a, b is the last member.
    """
    prefix = tuple(members)
    newest = prefix[-1]
    for other in prefix[:-1]:
        for a, b in ((newest, other), (other, newest)):
            units = [u for u in range(1, n) if (b - a) * u % n == 1]
            for u in units:
                image = tuple(sorted(u * (y - a) % n + 1 for y in prefix))
                if image < prefix:
                    return True
    return False


def reference_search(n, r, max_nodes=None):
    """The size-level loop of `search_min_base` over `_reference_level`.

    Returns a dict with the found base's `members`, `nodes_explored`,
    `exhausted_k` and `skipped_k`, or, when every level is skipped
    without a find, the exhaustion's `frontier` and `nodes_explored`.
    Takes 2 <= n and 1 <= r <= n, as the library guards the rest.
    """
    from quorumcycles.quorums import search_floor

    counter = [0]
    exhausted, skipped = [], []
    frontier = ()
    for k_hat in range(search_floor(n, r), n + 1):
        level_limit = None if max_nodes is None else counter[0] + max_nodes
        try:
            members = _reference_level(n, r, k_hat, counter, level_limit)
        except _ReferenceBudgetUp as up:
            skipped.append(k_hat)
            frontier = up.frontier
            continue
        if members is not None:
            return {"members": members, "nodes_explored": counter[0],
                    "exhausted_k": tuple(exhausted),
                    "skipped_k": tuple(skipped)}
        exhausted.append(k_hat)
    return {"frontier": frontier, "nodes_explored": counter[0]}


def bfs_distances(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def minimal_cycle_length(adj, cset):
    """Exact minimum length of an edge-distinct closed walk covering cset.

    Depth-first branch and bound from the smallest member.  The bound
    uses plain hop distances: any completion must still reach each
    missing member and return to the start.  Returns None when no such
    walk exists (members split by a bridge).
    """
    start = min(cset)
    dist_from = {v: bfs_distances(adj, v) for v in set(adj) | set(cset)}
    members = frozenset(cset)

    if any(start not in dist_from.get(m, {}) for m in members):
        return None

    best = [None]

    def lower_bound(u, length, missing):
        need = 0
        du = dist_from[u]
        for m in missing:
            if m not in du:
                return None
            via = du[m] + dist_from[m][start]
            if via > need:
                need = via
        if not missing:
            need = du.get(start, 0) if u != start else 0
        return length + need

    def walk(u, length, used, missing):
        if u == start and length >= 3 and not missing:
            if best[0] is None or length < best[0]:
                best[0] = length
            return
        bound = lower_bound(u, length, missing)
        if bound is None or (best[0] is not None and bound >= best[0]):
            return
        for v in sorted(adj[u]):
            e = (u, v) if u < v else (v, u)
            if e in used:
                continue
            used.add(e)
            walk(v, length + 1, used, missing - {v})
            used.remove(e)

    walk(start, 0, set(), members - {start})
    return best[0]


def all_c_paths(adj, source, cset, max_len=None):
    """Every simple path from source, with its C-node count; for small graphs."""
    results = []

    def extend(path, seen):
        results.append(path)
        if max_len is not None and len(path) > max_len:
            return
        for v in sorted(adj[path[-1]]):
            if v not in seen:
                extend(path + (v,), seen | {v})

    extend((source,), {source})
    return [(p, sum(1 for v in p if v in cset)) for p in results]


def _walk_links(seq):
    return [frozenset(e) for e in zip(seq, seq[1:])]


def best_shortest_path(adj, start, goal, banned, cset):
    """Shortest start -> goal path avoiding banned links, or None.

    Among all shortest paths: most cset nodes, then lexicographically
    smallest.  Enumerates every shortest path, so keep graphs small.
    """
    live = {u: [w for w in adj[u] if frozenset((u, w)) not in banned]
            for u in adj}
    to_goal = bfs_distances(live, goal)
    if start not in to_goal:
        return None
    best = None

    def extend(path):
        nonlocal best
        u = path[-1]
        if u == goal:
            key = (-sum(1 for x in path if x in cset), path)
            if best is None or key < best:
                best = key
            return
        for w in live[u]:
            if to_goal.get(w) == to_goal[u] - 1:
                extend(path + (w,))

    extend((start,))
    return best[1]


def detour_walk(adj, a, v, b, banned, cset):
    """Link-distinct walk a -> v -> b avoiding banned links, or None.

    Each leg is a best shortest path; either leg may be laid first, and
    the shorter (then lexicographically smaller) combined walk wins.
    """
    candidates = []
    one = best_shortest_path(adj, a, v, banned, cset)
    if one is not None:
        two = best_shortest_path(adj, v, b, banned | set(_walk_links(one)), cset)
        if two is not None:
            candidates.append(one + two[1:])
    two = best_shortest_path(adj, v, b, banned, cset)
    if two is not None:
        one = best_shortest_path(adj, a, v, banned | set(_walk_links(two)), cset)
        if one is not None:
            candidates.append(one + two[1:])
    return min(candidates, key=lambda w: (len(w), w)) if candidates else None


def best_insertion(adj, seq, v, cset):
    """Minimum (new_len, pos, detour) over every link position of a cycle.

    The detour replaces link pos of the closed walk seq; new_len is the
    grown cycle's link count.  None when no position admits a detour.
    """
    links = _walk_links(seq)
    best = None
    for pos in range(len(links)):
        banned = set(links) - {links[pos]}
        det = detour_walk(adj, seq[pos], v, seq[pos + 1], banned, cset)
        if det is not None:
            cand = (len(seq) - 2 + len(det) - 1, pos, det)
            if best is None or cand < best:
                best = cand
    return best


def _layered_best(adj, source, cset, banned):
    """node -> (cset count, path) of its best shortest path from source.

    Best as in best_shortest_path, built layer by layer over the whole
    reachable graph so it scales to the bundled networks: the best path
    into a node extends the best path into one of its parents.
    """
    best = {source: (int(source in cset), (source,))}
    frontier = [source]
    while frontier:
        layer = {}
        for u in frontier:
            count, path = best[u]
            for w in adj[u]:
                if w in best or frozenset((u, w)) in banned:
                    continue
                cand = (count + (w in cset), path + (w,))
                held = layer.get(w)
                if held is None or (-cand[0], cand[1]) < (-held[0], held[1]):
                    layer[w] = cand
        best.update(layer)
        frontier = list(layer)
    return best


def _seed_key(count, path):
    return (-Fraction(count, len(path)), len(path) - 1, path)


def _densest_leg(adj, source, members, banned):
    """Best (count, path) from source to another member by seed order, or None."""
    tree = _layered_best(adj, source, members, banned)
    reached = [tree[t] for t in members if t != source and t in tree]
    return min(reached, key=lambda e: _seed_key(*e)) if reached else None


def reference_route_cycle(g, cset, hub):
    """The cycle route_cycle picks, by finishing every seed in full.

    This is the finishing loop as it ran before finishes were bounded by
    the best cycle so far.  Seeds and collect legs come from a plain
    full BFS here; closing and splicing are the library's close_cycle
    and insert_missing under their default limit, the link count, each
    refereed on its own.
    Returns the shortest (then lexicographically smallest) sequence
    rotated to start at hub, or None when every finish fails.
    """
    from quorumcycles.routing import close_cycle, insert_missing

    adj = {v: g.adjacency[v] for v in g.nodes}
    members = frozenset(cset)
    if len(members) == 1:
        seeds = [(hub, w) for w in adj[hub]]
    else:
        legs = [_densest_leg(adj, s, members, set()) for s in sorted(members)]
        seeds = [path for _, path in
                 sorted((leg for leg in legs if leg), key=lambda e: _seed_key(*e))]

    def collect(path):
        while missing := members.difference(path):
            leg = _densest_leg(adj, path[-1], missing, set(_walk_links(path)))
            if leg is None:
                return None
            path += leg[1][1:]
        return path

    def finish(path):
        route = close_cycle(g, path, members)
        while route and (missing := members.difference(route.sequence)):
            # nearest to the cycle first, ties by node id
            dist, v = min((min(bfs_distances(adj, m).get(u, g.n)
                               for u in route.sequence), m) for m in missing)
            if dist == g.n:
                return None
            route = insert_missing(g, route, v, members)
        return route and route.sequence

    best = None
    for seed in seeds:
        for path in (seed, collect(seed)):
            if path is None:
                continue
            seq = finish(path)
            if seq is None:
                continue
            i = seq.index(hub)
            cand = (len(seq) - 1, seq[i:-1] + seq[:i + 1])
            if best is None or cand < best:
                best = cand
    return None if best is None else best[1]


def trail_served_pairs(seq, failed_edges):
    """Ordered pairs a trail serves: a strictly before b on a live fragment.

    With faults, only the fragment containing the trail head and the
    fragment containing the tail stay lit; anything between two failed
    links has no signal source.
    """
    failed = {frozenset(e) for e in failed_edges}
    cuts = [i for i in range(len(seq) - 1)
            if frozenset((seq[i], seq[i + 1])) in failed]
    if cuts:
        fragments = [seq[:cuts[0] + 1], seq[cuts[-1] + 1:]]
    else:
        fragments = [seq]
    pairs = set()
    for frag in fragments:
        for i, a in enumerate(frag):
            for b in frag[i + 1:]:
                if a != b:
                    pairs.add((a, b))
    return pairs


def plan_served_pairs(cycle_seqs, paired, failed_edges, whole_cycle=False):
    """Union of trail service over cycles, as a set of ordered pairs."""
    failed = {frozenset(e) for e in failed_edges}
    pairs = set()
    for seq in cycle_seqs:
        edges = {frozenset((seq[i], seq[i + 1])) for i in range(len(seq) - 1)}
        if whole_cycle and edges & failed:
            continue
        pairs |= trail_served_pairs(seq, failed)
        if paired:
            pairs |= trail_served_pairs(tuple(reversed(seq)), failed)
    return pairs


def mean_interval(samples):
    """Closed-form mean and 95% half-width with the n-1 variance."""
    n = len(samples)
    m = sum(samples) / n
    var = sum((x - m) ** 2 for x in samples) / (n - 1)
    half = 1.96 * var ** 0.5 / n ** 0.5
    return m, half


def connected(adj, nodes):
    nodes = list(nodes)
    seen = set(bfs_distances(adj, nodes[0]))
    return all(v in seen for v in nodes)


def random_connected_graph(rng, n, extra_edges):
    """Random spanning tree plus extra chords; returns an edge list."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add(tuple(sorted((order[i], order[j]))))
    candidates = [(a, b) for a, b in combinations(range(1, n + 1), 2)
                  if (a, b) not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return sorted(edges)
