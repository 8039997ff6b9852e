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

from .lighttrail import DeploymentPlan, FaultModel, served_bits
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

    The counts come from lighttrail.served_bits, which builds the plan's
    tables once, so a scenario costs two lookups per cycle it crosses.
    """
    failed_sets = (s.failed_edges for s in scenarios)
    return [bits.bit_count()
            for bits in served_bits(plan, failed_sets, fault_model)]
