"""Network topology model: parsing, validation, and node relabelings.

Nodes are numbered 1..n.  Edges are undirected.  Two on-disk formats are
accepted: a plain text format

    # comment
    n 14
    1 2
    1 3

and a JSON object ``{"n": 14, "edges": [[1, 2], [1, 3]]}``.  Both parse to
the same Topology.  Only parsing canonicalises each edge to (u, v) with
u < v, sorts the edge list and checks connectivity; a Topology built
directly takes its edge list as given.

`Topology.link_bits` is the one neighbour table, and one BFS over it,
`_distances`, gives the hop table, the connectivity check and the
bridges.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

Edge = tuple[int, int]


class TopologyError(ValueError):
    """Malformed or invalid topology input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Topology:
    """Undirected simple graph on nodes 1..n."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        # a kept list would leave the frozen value unhashable
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))

    @cached_property
    def link_bits(self) -> tuple[dict[int, int], ...]:
        """link_bits[u][w] is 1 << i for the link edges[i] joining u and w.

        An int of such bits names a set of links, so a banned set is one
        int and a membership test one AND.
        """
        table: list[dict[int, int]] = [{} for _ in range(self.n + 1)]
        for i, (u, v) in enumerate(self.edges):
            table[u][v] = table[v][u] = 1 << i
        return tuple(table)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        # index 0 unused so adjacency[v] works with 1-based node ids
        return tuple(tuple(sorted(row)) for row in self.link_bits)

    @cached_property
    def hops(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs hop distances, hops[u][v]; n marks an unreachable pair."""
        return ((),) + tuple(_distances(self, source) for source in self.nodes)

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"node {v} out of range 1..{self.n}")
        return len(self.link_bits[v])


def _distances(t: Topology, source: int, banned: int = 0) -> tuple[int, ...]:
    """Hop counts from source avoiding the banned links; n marks no path."""
    n, links = t.n, t.link_bits
    dist = [n] * (n + 1)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w, bit in links[u].items():
                if dist[w] == n and not bit & banned:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return tuple(dist)


def _build(n: int, raw_edges: list[tuple[int, int]], lines: list[int] | None = None) -> Topology:
    """Canonicalize, validate, and construct; raises TopologyError."""
    canon = []
    seen: set[Edge] = set()
    for idx, (u, v) in enumerate(raw_edges):
        line = lines[idx] if lines else None
        if u == v:
            raise TopologyError(f"self-loop at node {u}", line)
        if not (1 <= u <= n and 1 <= v <= n):
            raise TopologyError(f"edge ({u}, {v}) out of range 1..{n}", line)
        e = canonical_edge(u, v)
        if e in seen:
            raise TopologyError(f"duplicate edge ({e[0]}, {e[1]})", line)
        seen.add(e)
        canon.append(e)
    if n < 1:
        raise TopologyError(f"node count must be positive, got {n}")
    t = Topology(n=n, edges=tuple(sorted(canon)))
    if n in _distances(t, 1)[1:]:
        comps, left = [], set(t.nodes)
        while left:
            reach = _distances(t, min(left))
            comps.append({v for v in left if reach[v] < n})
            left -= comps[-1]
        smallest = min(comps, key=lambda c: (len(c), min(c)))
        raise TopologyError(
            f"graph is disconnected ({len(comps)} components; "
            f"e.g. nodes {sorted(smallest)} are isolated from the rest)")
    return t


def parse_topology(text: str) -> Topology:
    """Parse either the text or the JSON on-disk format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def _parse_json(text: str) -> Topology:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TopologyError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise TopologyError('JSON topology must be an object with "n" and "edges"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise TopologyError(f'"n" must be an integer, got {n!r}')
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise TopologyError(f'"edges" must be a list, got {edges!r}')
    raw = []
    for i, pair in enumerate(edges):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
            raise TopologyError(f"edge #{i + 1} must be a pair of integers, got {pair!r}")
        raw.append((pair[0], pair[1]))
    return _build(n, raw)


def _parse_text(text: str) -> Topology:
    n: int | None = None
    raw: list[tuple[int, int]] = []
    lines: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        content = line.split("#", 1)[0].strip()
        if not content:
            continue
        fields = content.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise TopologyError("expected header 'n <count>'", lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise TopologyError(f"bad node count {fields[1]!r}", lineno) from None
            continue
        if len(fields) != 2:
            raise TopologyError(f"expected edge '<u> <v>', got {content!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise TopologyError(f"bad edge endpoints {content!r}", lineno) from None
        raw.append((u, v))
        lines.append(lineno)
    if n is None:
        raise TopologyError("missing header 'n <count>'")
    return _build(n, raw, lines)


def serialize_topology(t: Topology) -> str:
    out = [f"n {t.n}"]
    out.extend(f"{u} {v}" for u, v in t.edges)
    return "\n".join(out) + "\n"


def load_topology(path: str) -> Topology:
    with open(path, encoding="utf-8") as fh:
        return parse_topology(fh.read())


BUNDLED = ("nsfnet", "arpanet", "american", "chinese")


def bundled_topology(name: str) -> Topology:
    """Load one of the packaged reference networks by short name."""
    if name not in BUNDLED:
        raise TopologyError(f"unknown bundled topology {name!r}; choose from {BUNDLED}")
    text = (resources.files(__package__) / "data" / f"{name}.txt").read_text("utf-8")
    return parse_topology(text)


def find_bridges(t: Topology) -> frozenset[Edge]:
    """Edges whose removal disconnects the graph (cycle routing blockers)."""
    return frozenset(canonical_edge(u, v) for u, v in t.edges
                     if _distances(t, u, t.link_bits[u][v])[v] == t.n)


@dataclass(frozen=True)
class NodeMapping:
    """Bijective renumbering of 1..n; perm[i-1] is the image of node i."""

    perm: tuple[int, ...]

    def __post_init__(self):
        # a kept list would leave the frozen value unhashable
        object.__setattr__(self, "perm", tuple(self.perm))
        if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
            raise ValueError("perm must be a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.perm)

    def apply(self, node: int) -> int:
        if not 1 <= node <= len(self.perm):
            raise ValueError(f"node {node} out of range 1..{len(self.perm)}")
        return self.perm[node - 1]

    @classmethod
    def identity(cls, n: int) -> "NodeMapping":
        return cls(perm=tuple(range(1, n + 1)))


def relabel(nodes: frozenset[int] | set[int], m: NodeMapping) -> frozenset[int]:
    return frozenset(m.apply(v) for v in nodes)


def generate_mappings(n: int, count: int, seed: int) -> list[NodeMapping]:
    """Deterministic mapping ensemble; the first mapping is the identity.

    The remaining count-1 mappings are uniform random permutations drawn
    from a single generator seeded with `seed`, so a longer ensemble with
    the same seed extends a shorter one.
    """
    # type() rather than isinstance(): True would otherwise pass as 1
    if type(count) is not int or count < 1:
        raise ValueError(f"mapping count must be an int >= 1, got {count!r}")
    mappings = [NodeMapping.identity(n)]
    rng = random.Random(seed)
    for _ in range(count - 1):
        perm = list(range(1, n + 1))
        # Fisher-Yates, explicit so the stream is pinned to randrange only
        for i in range(n - 1, 0, -1):
            j = rng.randrange(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        mappings.append(NodeMapping(perm=tuple(perm)))
    return mappings
