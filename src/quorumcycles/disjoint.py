"""Shortest closed edge-distinct walk through two nodes (Suurballe 1974).

Such a walk is a pair of link-disjoint paths between the two nodes, so
two shortest-path searches find the shortest one: the second runs in
the residual graph of the first.  routing.route_cycle imports this
module only when it routes a two-member set.
"""

from __future__ import annotations

import heapq

from .topology import Topology


def _residual_path(g: Topology, a: int, b: int, arcs: set[tuple[int, int]]
                   ) -> dict[int, int] | None:
    """Parents of a shortest a-b path in the residual graph, or None.

    Links carrying one of arcs run only against it, at cost -1.  With
    hop distances from a as potentials every residual cost is 0, 1 or 2,
    so Dijkstra applies while the arcs form shortest paths.
    """
    h = g.hops[a]
    dist, prev, heap = {a: 0}, {}, [(0, a)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == b:
            return prev
        if d > dist[u]:
            continue
        for w in g.adjacency[u]:
            if (u, w) in arcs:
                continue
            dw = d + (0 if (w, u) in arcs else 1 + h[u] - h[w])
            if dw < dist.get(w, dw + 1):
                dist[w], prev[w] = dw, u
                heapq.heappush(heap, (dw, w))
    return None


def pair_cycle(g: Topology, a: int, b: int) -> tuple[int, ...] | None:
    """Shortest closed edge-distinct walk from a through b and back, or None.

    A link the second path crosses against the first drops out of both;
    the links left split into two a-b paths, walked out and back.  None
    means a bridge separates a and b.
    """
    arcs: set[tuple[int, int]] = set()
    for _ in range(2):
        prev = _residual_path(g, a, b, arcs)
        if prev is None:
            return None
        w = b
        while w != a:
            u = prev[w]
            if (w, u) in arcs:
                arcs.remove((w, u))
            else:
                arcs.add((u, w))
            w = u
    out: dict[int, list[int]] = {}
    for u, w in sorted(arcs, reverse=True):
        out.setdefault(u, []).append(w)
    legs = ([a], [a])
    for leg in legs:
        while leg[-1] != b:
            leg.append(out[leg[-1]].pop())
    return tuple(legs[0] + legs[1][-2::-1])


def shorter_pair(g: Topology, cset: frozenset[int], hub: int,
                 best: tuple[int, tuple[int, ...]] | None
                 ) -> tuple[int, tuple[int, ...]] | None:
    """route_cycle's best (links, walk from hub) for a two-member cset,
    replaced by the pair cycle from hub only where that is shorter."""
    (other,) = cset - {hub}
    pair = pair_cycle(g, hub, other)
    if pair is None or best is not None and len(pair) > best[0]:
        return best
    return len(pair) - 1, pair
