from __future__ import annotations

import csv
import io
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from quorumcycles import ResultRow, cli, report
from quorumcycles.routing import RoutingInfeasibleError
from quorumcycles.topology import Topology


@pytest.fixture
def triangle():
    return Topology(n=3, edges=((1, 2), (1, 3), (2, 3)))


@pytest.fixture
def square():
    return Topology(n=4, edges=((1, 2), (1, 4), (2, 3), (3, 4)))


@pytest.fixture
def k4():
    return Topology(n=4, edges=((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))


@pytest.fixture
def ring5():
    return Topology(n=5, edges=((1, 2), (1, 5), (2, 3), (3, 4), (4, 5)))


@pytest.fixture
def second_mapping_unroutable(monkeypatch):
    """report.route_all, except that the second mapping of the run's
    ensemble is refused, by value, in whichever worker routes it."""
    real_route, real_generate = report.route_all, report.generate_mappings
    refused, calls = [], []

    def generate_mappings(n, count, seed):
        mappings = real_generate(n, count, seed)
        refused[:] = mappings[1:2]
        return mappings

    def route_all(g, qs, m):
        calls.append(m)
        if m in refused:
            raise RoutingInfeasibleError("forced")
        return real_route(g, qs, m)

    for module in (report, cli):
        monkeypatch.setattr(module, "generate_mappings", generate_mappings)
    monkeypatch.setattr(report, "route_all", route_all)
    return calls


@pytest.fixture
def cpus(monkeypatch):
    """Call with a count to give report._fork_map that many CPUs, and
    so that many workers at most, on any platform and machine."""
    def set_cpus(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    return set_cpus


def read_rows(text: str) -> list[ResultRow]:
    """The rows of a report csv below its header: float() reads each
    float cell back exactly, since the csv writes repr values."""
    cells = (str, int, str, str, int, float, float, float, int, int)
    return [ResultRow(*(cast(cell) for cast, cell in zip(cells, record)))
            for record in list(csv.reader(io.StringIO(text)))[1:]]


def adjacency_dict(t: Topology) -> dict[int, tuple[int, ...]]:
    """Plain adjacency for the oracle side, detached from the library type."""
    return {v: t.adjacency[v] for v in t.nodes}
