"""Optical trail service semantics over routed cycles.

A cycle hosts unidirectional bus trails anchored at its hub: one trail
following the walk order (single mode) or one per orientation (paired
mode).  A trail serves the ordered pair (a, b) when some occurrence of a
comes before an occurrence of b in the trail's node order; the hub, being
first and last, exchanges traffic with everyone fault-free.

A failed link severs every trail crossing it.  Under the default
truncated model the two hub-adjacent fragments of a trail keep working
(the run from the hub to the first break, and the run from the last
break back to the hub); anything between two breaks goes dark.  The
pessimistic whole-cycle model instead silences a cycle entirely when any
of its links fails.

Hub retransmission (receive at the hub, convert, and re-send on the
outgoing side) is modeled but off by default: pairs served only via such
opto-electronic relaying are not counted unless hub_relay=True.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .routing import CycleRoute
from .topology import canonical_edge

Edge = tuple[int, int]


class TrailMode(str, Enum):
    SINGLE = "single"
    PAIRED = "paired"


class FaultModel(str, Enum):
    TRUNCATED = "truncated"
    WHOLE_CYCLE = "whole-cycle"


@dataclass(frozen=True)
class DeploymentPlan:
    """A set of routed cycles instantiated as trails in one mode."""

    n: int
    mode: TrailMode
    cycles: tuple[CycleRoute, ...]

    def __post_init__(self):
        for cycle in self.cycles:
            for v in cycle.sequence:
                if not 1 <= v <= self.n:
                    raise ValueError(f"cycle node {v} out of range 1..{self.n}")


@dataclass(frozen=True)
class ServedPairs:
    """Ordered node pairs reachable through a plan, packed as a bitset."""

    n: int
    bits: int

    @classmethod
    def empty(cls, n: int) -> "ServedPairs":
        return cls(n=n, bits=0)

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    @property
    def total(self) -> int:
        return self.n * (self.n - 1)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        return bool(self.bits >> ((a - 1) * self.n + (b - 1)) & 1)

    def __or__(self, other: "ServedPairs") -> "ServedPairs":
        if self.n != other.n:
            raise ValueError("cannot union served sets of different sizes")
        return ServedPairs(n=self.n, bits=self.bits | other.bits)

    def pairs(self) -> frozenset[tuple[int, int]]:
        n, bits = self.n, self.bits
        out = set()
        while bits:
            low = bits & -bits
            idx = low.bit_length() - 1
            out.add((idx // n + 1, idx % n + 1))
            bits ^= low
        return frozenset(out)


def _segment_bits(segment: tuple[int, ...], n: int) -> int:
    bits = 0
    for i, a in enumerate(segment):
        row = (a - 1) * n - 1
        for b in segment[i + 1:]:
            if b != a:
                bits |= 1 << (row + b)
    return bits


def _orientation_bits(seq: tuple[int, ...], n: int,
                      failed_positions: list[int]) -> int:
    """Served bits of one oriented trail given failed edge positions."""
    if not failed_positions:
        return _segment_bits(seq, n)
    first, last = min(failed_positions), max(failed_positions)
    # hub-side fragments stay usable; anything between two breaks is dark
    return _segment_bits(seq[: first + 1], n) | _segment_bits(seq[last + 1:], n)


def _relay_bits(bits: int, hub: int, n: int) -> int:
    """Pairs (a, b) where the hub can receive from a and re-send to b."""
    hub_row = (hub - 1) * n
    senders = [a for a in range(1, n + 1)
               if a != hub and bits >> ((a - 1) * n + hub - 1) & 1]
    receivers = [b for b in range(1, n + 1)
                 if b != hub and bits >> (hub_row + b - 1) & 1]
    extra = 0
    for a in senders:
        row = (a - 1) * n - 1
        for b in receivers:
            if b != a:
                extra |= 1 << (row + b)
    return extra


def _cycle_bits(cycle: CycleRoute, mode: TrailMode, n: int,
                failed: frozenset[Edge], fault_model: FaultModel,
                hub_relay: bool) -> int:
    on_cycle = failed & cycle.edges
    if fault_model is FaultModel.WHOLE_CYCLE and on_cycle:
        return 0
    orientations = [cycle.sequence]
    if mode is TrailMode.PAIRED:
        orientations.append(cycle.sequence[::-1])
    bits = 0
    for seq in orientations:
        if on_cycle:
            positions = [i for i, (a, b) in enumerate(zip(seq, seq[1:]))
                         if canonical_edge(a, b) in on_cycle]
            bits |= _orientation_bits(seq, n, positions)
        else:
            bits |= _segment_bits(seq, n)
    if hub_relay:
        bits |= _relay_bits(bits, cycle.hub, n)
    return bits


def served_pairs_cycle(cycle: CycleRoute, mode: TrailMode, n: int,
                       failed_edges=(), fault_model: FaultModel = FaultModel.TRUNCATED,
                       hub_relay: bool = False) -> ServedPairs:
    """Ordered pairs served by one cycle's trails under the given faults."""
    failed = frozenset(canonical_edge(u, v) for u, v in failed_edges)
    return ServedPairs(n=n, bits=_cycle_bits(cycle, mode, n, failed,
                                             fault_model, hub_relay))


def served_pairs_plan(plan: DeploymentPlan, failed_edges=(),
                      fault_model: FaultModel = FaultModel.TRUNCATED,
                      hub_relay: bool = False) -> ServedPairs:
    """Union of served pairs over all cycles in the plan."""
    failed = frozenset(canonical_edge(u, v) for u, v in failed_edges)
    bits = 0
    for cycle in plan.cycles:
        bits |= _cycle_bits(cycle, plan.mode, plan.n, failed,
                            fault_model, hub_relay)
    return ServedPairs(n=plan.n, bits=bits)


def links_used(plan: DeploymentPlan) -> int:
    """Total fiber links consumed; paired mode lights each cycle twice."""
    per_orientation = sum(cycle.length for cycle in plan.cycles)
    return per_orientation * (2 if plan.mode is TrailMode.PAIRED else 1)


@dataclass(frozen=True)
class MissingPairs:
    """Fault-free service gaps of a plan."""

    count: int
    percent: float
    total: int
    pairs: tuple[tuple[int, int], ...]


def missing_pairs(plan: DeploymentPlan, hub_relay: bool = False) -> MissingPairs:
    """Ordered pairs no trail serves even with every link healthy."""
    served = served_pairs_plan(plan, hub_relay=hub_relay)
    total = served.total
    have = served.pairs()
    gaps = tuple(sorted(
        (a, b)
        for a in range(1, plan.n + 1)
        for b in range(1, plan.n + 1)
        if a != b and (a, b) not in have
    ))
    percent = 100.0 * len(gaps) / total if total else 0.0
    return MissingPairs(count=len(gaps), percent=percent, total=total, pairs=gaps)
