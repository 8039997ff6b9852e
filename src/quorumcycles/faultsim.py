"""Exhaustive link-fault enumeration and evaluation.

Every fault scenario of the requested order (all single links, or all
unordered link pairs) is applied to a deployment plan and the number of
ordered node pairs still served is counted.  Callers average the counts
over a node-mapping ensemble, the only source of randomness, so runs are
reproducible from (topology, base, mode, mapping count, seed).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .lighttrail import DeploymentPlan, FaultModel, served_bits
from .topology import Topology

Edge = tuple[int, int]


def enumerate_faults(g: Topology, order: int) -> tuple[tuple[Edge, ...], ...]:
    """Every set of `order` failed links, as sorted tuples of canonical links."""
    # type() rather than isinstance(): True would otherwise pass as 1
    if type(order) is not int or order < 1:
        raise ValueError(f"fault order must be an int >= 1, got {order!r}")
    if order > len(g.edges):
        raise ValueError(
            f"fault order {order} exceeds the {len(g.edges)} links available"
        )
    return tuple(combinations(g.edges, order))


def evaluate(plan: DeploymentPlan, scenarios: Iterable[Iterable[Edge]],
             fault_model: FaultModel = FaultModel.TRUNCATED) -> list[int]:
    """Served ordered-pair count of the plan under each scenario, in order.

    A scenario is any collection of failed links, each written either way
    round.  The counts come from lighttrail.served_bits, which builds the
    plan's tables once, so a scenario costs one lookup per six cycles it
    leaves untouched plus the fragments of the cycles it crosses.
    """
    return [bits.bit_count()
            for bits in served_bits(plan, scenarios, fault_model)]
