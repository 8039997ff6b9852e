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

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    @property
    def total(self) -> int:
        return self.n * (self.n - 1)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        return bool(self.bits >> ((a - 1) * self.n + (b - 1)) & 1)

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


def _run_bits(nodes: tuple[int, ...], n: int, to_new: bool,
              from_new: bool) -> list[int]:
    """Bits of a run after each of its nodes joins, one shift per pair kind.

    A joining node x pairs with every node y seen before it: (y, x) if
    to_new, (x, y) if from_new.
    """
    out, bits, rows, cols = [], 0, 0, 0
    for x in nodes:
        row, col = 1 << (x - 1) * n, 1 << (x - 1)
        if to_new:
            bits |= (rows & ~row) << (x - 1)
        if from_new:
            bits |= (cols & ~col) << (x - 1) * n
        rows |= row
        cols |= col
        out.append(bits)
    return out


def truncation_tables(cycle: CycleRoute, mode: TrailMode,
                      n: int) -> tuple[list[int], list[int]]:
    """The truncated model's served bits, split at every edge position.

    A cycle whose failed links sit at edge positions first..last serves
    heads[first] | tails[last]: the run from the hub to the first break
    and the run from the last break back to it, of both trails in paired
    mode.  Breaks in between do not matter.
    """
    seq = cycle.sequence
    paired = mode is TrailMode.PAIRED
    # the counter-directional trail runs each segment back to front, so
    # it adds the reversed pairs of the same two segments
    heads = _run_bits(seq[:-1], n, True, paired)
    tails = _run_bits(seq[:0:-1], n, paired, True)[::-1]
    return heads, tails


def _cycle_bits(cycle: CycleRoute, mode: TrailMode, n: int,
                failed: frozenset[Edge], fault_model: FaultModel) -> int:
    positions = [i for i, edge in enumerate(cycle.edge_list) if edge in failed]
    if fault_model is FaultModel.WHOLE_CYCLE and positions:
        return 0
    bits = _orientation_bits(cycle.sequence, n, positions)
    if mode is TrailMode.PAIRED:
        # the counter-directional trail crosses the same links back to front
        last = cycle.length - 1
        bits |= _orientation_bits(cycle.sequence[::-1], n,
                                  [last - i for i in reversed(positions)])
    return bits


def served_pairs_cycle(cycle: CycleRoute, mode: TrailMode, n: int,
                       failed_edges=(),
                       fault_model: FaultModel = FaultModel.TRUNCATED) -> ServedPairs:
    """Ordered pairs served by one cycle's trails under the given faults."""
    failed = frozenset(canonical_edge(u, v) for u, v in failed_edges)
    return ServedPairs(n=n, bits=_cycle_bits(cycle, mode, n, failed, fault_model))


def served_pairs_plan(plan: DeploymentPlan, failed_edges=(),
                      fault_model: FaultModel = FaultModel.TRUNCATED) -> ServedPairs:
    """Union of served pairs over all cycles in the plan."""
    failed = frozenset(canonical_edge(u, v) for u, v in failed_edges)
    bits = 0
    for cycle in plan.cycles:
        bits |= _cycle_bits(cycle, plan.mode, plan.n, failed, fault_model)
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


def missing_pairs(plan: DeploymentPlan) -> MissingPairs:
    """Ordered pairs no trail serves even with every link healthy."""
    served = served_pairs_plan(plan)
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
