"""Exhaustive link-fault enumeration and evaluation.

Every fault scenario of the requested order (all single links, or all
unordered link pairs) is applied to a deployment plan and the number of
ordered node pairs still served is counted.  Callers average the counts
over a node-mapping ensemble, the only source of randomness, so runs are
reproducible from (topology, base, mode, mapping count, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .lighttrail import (DeploymentPlan, FaultModel, served_pairs_cycle,
                         truncation_tables)
from .topology import Topology, canonical_edge

Edge = tuple[int, int]


@dataclass(frozen=True)
class FaultScenario:
    """A simultaneous failure of one or more links."""

    failed_edges: tuple[Edge, ...]

    def __post_init__(self):
        canon = tuple(sorted(canonical_edge(u, v) for u, v in self.failed_edges))
        object.__setattr__(self, "failed_edges", canon)
        if len(set(canon)) != len(canon):
            raise ValueError(f"duplicate edges in scenario: {canon}")

    @property
    def order(self) -> int:
        return len(self.failed_edges)


def enumerate_faults(g: Topology, order: int) -> tuple[FaultScenario, ...]:
    """All fault scenarios of the given order, deterministically sorted."""
    if order < 1:
        raise ValueError(f"fault order must be >= 1, got {order}")
    if order > len(g.edges):
        raise ValueError(
            f"fault order {order} exceeds the {len(g.edges)} links available"
        )
    return tuple(FaultScenario(failed_edges=combo)
                 for combo in combinations(g.edges, order))


def evaluate(plan: DeploymentPlan, scenarios: Iterable[FaultScenario],
             fault_model: FaultModel = FaultModel.TRUNCATED) -> list[int]:
    """Served ordered-pair count of the plan under each scenario, in order.

    A scenario only disturbs the cycles it crosses.  Fault-free cycle
    bitsets, the truncation tables of each cycle and the positions at
    which each link sits on each cycle are built once per plan, so a
    crossed cycle costs two table lookups (nothing under whole-cycle).
    """
    clean = [served_pairs_cycle(c, plan.mode, plan.n).bits for c in plan.cycles]
    truncated = fault_model is FaultModel.TRUNCATED
    tables = [truncation_tables(c, plan.mode, plan.n) if truncated else None
              for c in plan.cycles]
    crossings: dict[Edge, list[tuple[int, int]]] = {}
    for i, cycle in enumerate(plan.cycles):
        for pos, edge in enumerate(cycle.edge_list):
            crossings.setdefault(edge, []).append((i, pos))
    counts = []
    for scenario in scenarios:
        spans: dict[int, tuple[int, int]] = {}
        for edge in scenario.failed_edges:
            for i, pos in crossings.get(edge, ()):
                first, last = spans.get(i, (pos, pos))
                spans[i] = (min(first, pos), max(last, pos))
        bits = 0
        for i, clean_bits in enumerate(clean):
            span = spans.get(i)
            if span is None:
                bits |= clean_bits
            elif truncated:
                heads, tails = tables[i]
                bits |= heads[span[0]] | tails[span[1]]
        counts.append(bits.bit_count())
    return counts
