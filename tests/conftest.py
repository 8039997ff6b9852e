from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from quorumcycles import report
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
    """report.route_all, except that the second call of a run is refused."""
    real, calls = report.route_all, []

    def route_all(g, qs, m):
        calls.append(m)
        if len(calls) == 2:
            raise RoutingInfeasibleError("forced")
        return real(g, qs, m)

    monkeypatch.setattr(report, "route_all", route_all)
    return calls


def adjacency_dict(t: Topology) -> dict[int, tuple[int, ...]]:
    """Plain adjacency for the oracle side, detached from the library type."""
    return {v: t.adjacency[v] for v in t.nodes}
