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
from typing import Iterable, Iterator

from .routing import CycleRoute

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
        # a plain string would otherwise fail every `is TrailMode...` test
        object.__setattr__(self, "mode", TrailMode(self.mode))
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


def served_bits(plan: DeploymentPlan, failed_sets: Iterable[Iterable[Edge]],
                fault_model: FaultModel = FaultModel.TRUNCATED) -> Iterator[int]:
    """Served-pair bitset of the plan under each set of failed links.

    Per cycle, heads[k] holds the run from the hub up to edge position k
    and tails[k] the run after it, of both trails in paired mode (the
    counter-directional trail runs each segment back to front, so it adds
    the reversed pairs of the same segments).  A cycle whose failed links
    sit at positions first..last serves heads[first] | tails[last] under
    the truncated model, since breaks in between do not matter, and
    nothing under whole-cycle.  The tables and the (cycle, position)
    crossings of each link are built once per plan; crossings are filed
    under both orientations, so a failed link matches however it is
    written, and a repeated one only repeats the same min/max.
    """
    n, paired = plan.n, plan.mode is TrailMode.PAIRED
    truncated = FaultModel(fault_model) is FaultModel.TRUNCATED
    tables = []
    crossings: dict[Edge, list[tuple[int, int]]] = {}
    for i, cycle in enumerate(plan.cycles):
        seq = cycle.sequence
        heads = _run_bits(seq, n, True, paired)
        tails = _run_bits(seq[:0:-1], n, paired, True)[::-1]
        # the run over the whole walk, closing hub included, orders every
        # pair exactly as the intact trail (and its reverse) does
        tables.append((heads[-1], heads, tails))
        for pos, edge in enumerate(cycle.edge_list):
            crossings.setdefault(edge, []).append((i, pos))
            crossings.setdefault(edge[::-1], []).append((i, pos))
    for failed in failed_sets:
        spans: dict[int, tuple[int, int]] = {}
        for edge in failed:
            for i, pos in crossings.get(edge, ()):
                first, last = spans.get(i, (pos, pos))
                spans[i] = (min(first, pos), max(last, pos))
        bits = 0
        for i, (clean, heads, tails) in enumerate(tables):
            span = spans.get(i)
            if span is None:
                bits |= clean
            elif truncated:
                bits |= heads[span[0]] | tails[span[1]]
        yield bits


def served_pairs_plan(plan: DeploymentPlan, failed_edges=(),
                      fault_model: FaultModel = FaultModel.TRUNCATED) -> ServedPairs:
    """Union of served pairs over all cycles in the plan."""
    return ServedPairs(n=plan.n,
                       bits=next(served_bits(plan, [failed_edges], fault_model)))


def served_pairs_cycle(cycle: CycleRoute, mode: TrailMode, n: int,
                       failed_edges=(),
                       fault_model: FaultModel = FaultModel.TRUNCATED) -> ServedPairs:
    """Ordered pairs served by one cycle's trails under the given faults."""
    plan = DeploymentPlan(n=n, mode=mode, cycles=(cycle,))
    return served_pairs_plan(plan, failed_edges, fault_model)


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
    n = plan.n
    diagonal = sum(1 << a * (n + 1) for a in range(n))
    all_pairs = ((1 << n * n) - 1) ^ diagonal
    gaps = ServedPairs(n=n, bits=all_pairs & ~served_pairs_plan(plan).bits)
    total = gaps.total
    percent = 100.0 * gaps.count / total if total else 0.0
    return MissingPairs(count=gaps.count, percent=percent, total=total,
                        pairs=tuple(sorted(gaps.pairs())))
