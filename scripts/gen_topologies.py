#!/usr/bin/env python3
"""Regenerate the bundled network data files and check their shape.

The four reference networks are reconstructions of commonly used
backbone graphs at the published node/link scales (14/22, 20/31,
24/43, 54/103).  The 54-node graph is a ring with seeded chords so the
generator, not a hand-typed list, is the source of truth for it.
Every network must come out connected and bridge-free, since bridges
make cycle routing infeasible for quorums spanning the cut.  Each
network's text is read back with parse_topology, which refuses
out-of-range nodes, self-loops, duplicate links and disconnected
graphs, before anything is checked further; nothing is written unless
all of them pass.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quorumcycles.topology import (Topology, TopologyError, find_bridges,
                                   parse_topology, serialize_topology)

NSFNET = [
    (1, 2), (1, 3), (1, 8), (2, 3), (2, 4), (3, 6), (4, 5), (4, 11),
    (5, 6), (5, 7), (6, 10), (6, 13), (7, 8), (8, 9), (9, 10), (9, 12),
    (9, 14), (10, 14), (11, 12), (11, 14), (12, 13), (13, 14),
]

ARPANET = [
    (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 7), (6, 8),
    (7, 8), (7, 11), (8, 9), (9, 10), (9, 12), (10, 13), (11, 12),
    (11, 14), (12, 15), (13, 16), (13, 17), (14, 15), (15, 18),
    (16, 17), (16, 19), (17, 20), (18, 19), (18, 20), (19, 20),
    (2, 5), (6, 10), (14, 18), (5, 11),
]

AMERICAN = [
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (4, 7),
    (5, 6), (5, 8), (6, 9), (7, 8), (7, 10), (8, 9), (8, 11), (9, 12),
    (10, 11), (10, 13), (11, 12), (11, 14), (12, 15), (13, 14),
    (13, 16), (14, 15), (14, 17), (15, 18), (16, 17), (16, 19),
    (17, 18), (17, 20), (18, 21), (19, 20), (19, 22), (20, 21),
    (20, 23), (21, 24), (22, 23), (23, 24), (2, 7), (9, 15), (13, 19),
    (21, 23), (22, 24),
]


def chinese_backbone() -> list[tuple[int, int]]:
    """54-node ring plus 49 seeded chords of ring distance 2..9."""
    n = 54
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    present = {tuple(sorted(e)) for e in edges}
    rng = random.Random(54)
    while len(edges) < 103:
        a = rng.randrange(1, n + 1)
        d = rng.randrange(2, 10)
        b = (a - 1 + d) % n + 1
        key = tuple(sorted((a, b)))
        if key in present:
            continue
        present.add(key)
        edges.append(key)
    return edges


NETWORKS = {
    "nsfnet": (14, NSFNET),
    "arpanet": (20, ARPANET),
    "american": (24, AMERICAN),
    "chinese": (54, chinese_backbone()),
}

EXPECTED_LINKS = {"nsfnet": 22, "arpanet": 31, "american": 43, "chinese": 103}


def main():
    out_dir = Path(__file__).resolve().parents[1] / "src" / "quorumcycles" / "data"
    topologies = {}
    for name, (n, edges) in NETWORKS.items():
        # written in generation order, as always; parsed as it will be read
        text = serialize_topology(Topology(n=n, edges=tuple(edges)))
        try:
            t = parse_topology(text)
        except TopologyError as exc:
            sys.exit(f"{name}: {exc}; nothing written")
        if len(t.edges) != EXPECTED_LINKS[name]:
            sys.exit(f"{name} has {len(t.edges)} links, expected "
                     f"{EXPECTED_LINKS[name]}; nothing written")
        bridges = find_bridges(t)
        if bridges:
            sys.exit(f"{name} has bridges: {sorted(bridges)}; nothing written")
        topologies[name] = (t, text)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (t, text) in topologies.items():
        path = out_dir / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        degs = [t.degree(v) for v in t.nodes]
        print(f"{name}: n={t.n} links={len(t.edges)} "
              f"deg[{min(degs)}..{max(degs)}] bridge-free -> {path.name}")


if __name__ == "__main__":
    main()
