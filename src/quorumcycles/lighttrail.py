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
        # a kept list would leave the frozen value unhashable
        object.__setattr__(self, "cycles", tuple(self.cycles))
        for cycle in self.cycles:
            for v in cycle.sequence:
                if not 1 <= v <= self.n:
                    raise ValueError(f"cycle node {v} out of range 1..{self.n}")


def _pairs(bits: int, n: int) -> frozenset[tuple[int, int]]:
    """The ordered pairs a bitset holds; (a, b) is bit (a - 1) * n + (b - 1)."""
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
    nothing under whole-cycle.

    Built once per plan: each link's record (filed under both
    orientations, so a failed link matches however it is written) holds
    the mask of cycles it crosses, its crossings as (cycle, position,
    heads[pos] | tails[pos]) and the OR of those fragments; and, per
    block of six cycles, the clean bits of every subset of the block.
    Per scenario, the untouched cycles cost one lookup per block.  A
    failed link that shares no cycle with another adds its precomputed
    OR; otherwise its unshared fragments count alone and each shared
    cycle adds heads[first] | tails[last], which for a link repeated
    is its own fragment again.  Under whole-cycle only the untouched
    cycles serve.
    """
    n, paired = plan.n, plan.mode is TrailMode.PAIRED
    truncated = FaultModel(fault_model) is FaultModel.TRUNCATED
    runs = []
    blocks = []
    crossings: dict[Edge, list[tuple[int, int, int]]] = {}
    for i, cycle in enumerate(plan.cycles):
        seq = cycle.sequence
        heads = _run_bits(seq, n, True, paired)
        tails = _run_bits(seq[:0:-1], n, paired, True)[::-1]
        runs.append((heads, tails))
        # the run over the whole walk, closing hub included, orders every
        # pair exactly as the intact trail (and its reverse) does
        if i % 6 == 0:
            blocks.append([0])
        table = blocks[-1]
        table.extend([bits | heads[-1] for bits in table])
        for pos, edge in enumerate(cycle.edge_list):
            frag = heads[pos] | tails[pos] if truncated else 0
            crossings.setdefault(edge, []).append((i, pos, frag))
    records: dict[Edge, tuple[int, list[tuple[int, int, int]], int]] = {}
    for edge, frags in crossings.items():
        mask = frag_or = 0
        for i, _, frag in frags:
            mask |= 1 << i
            frag_or |= frag
        records[edge] = records[edge[::-1]] = (mask, frags, frag_or)
    every = (1 << len(plan.cycles)) - 1
    for failed in failed_sets:
        touched = shared = 0
        hit = []
        for edge in failed:
            record = records.get(edge)
            if record is not None:
                hit.append(record)
                shared |= touched & record[0]
                touched |= record[0]
        bits = 0
        untouched = every & ~touched
        for table in blocks:
            bits |= table[untouched & 63]
            untouched >>= 6
        if truncated:
            spans: dict[int, tuple[int, int]] = {}
            for mask, frags, frag_or in hit:
                if not mask & shared:
                    bits |= frag_or
                    continue
                for i, pos, frag in frags:
                    if shared >> i & 1:
                        first, last = spans.get(i, (pos, pos))
                        spans[i] = (min(first, pos), max(last, pos))
                    else:
                        bits |= frag
            for i, (first, last) in spans.items():
                heads, tails = runs[i]
                bits |= heads[first] | tails[last]
        yield bits


def served_pairs_plan(plan: DeploymentPlan, failed_edges=(),
                      fault_model: FaultModel = FaultModel.TRUNCATED
                      ) -> frozenset[tuple[int, int]]:
    """Ordered pairs some trail of the plan serves under the failed links."""
    return _pairs(next(served_bits(plan, [failed_edges], fault_model)), plan.n)


def links_used(plan: DeploymentPlan) -> int:
    """Total fiber links consumed; paired mode lights each cycle twice."""
    per_orientation = sum(cycle.length for cycle in plan.cycles)
    return per_orientation * (2 if plan.mode is TrailMode.PAIRED else 1)


def missing_pairs(plan: DeploymentPlan) -> frozenset[tuple[int, int]]:
    """Ordered pairs no trail serves even with every link healthy."""
    n = plan.n
    diagonal = sum(1 << a * (n + 1) for a in range(n))
    all_pairs = ((1 << n * n) - 1) ^ diagonal
    return _pairs(all_pairs & ~next(served_bits(plan, [()])), n)
