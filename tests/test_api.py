"""The package's public surface: module boundaries, exports, import cost."""

import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import quorumcycles
from quorumcycles import (CycleRoute, DeploymentPlan, NodeMapping, Topology,
                          TrailMode)

PACKAGE = Path(quorumcycles.__file__).parent


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from .{node.module} import {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_all_names_resolve_once():
    names = quorumcycles.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(quorumcycles, n)] == []


def test_import_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, quorumcycles; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.stdout == "False\n"


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] != (3, 11),
                    reason="compile peaks are pinned for CPython 3.11")
def test_compile_peaks_stay_small():
    # where no bytecode is cached, every import compiles the package, so
    # the largest module's compile peak is part of any run's peak memory:
    # 1,399 KB for routing.py, where one more copy of its BFS loop costs
    # about 300 KB
    peaks = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks[path.name] = tracemalloc.get_traced_memory()[1] // 1024
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 1_450, peaks


def test_frozen_values_hold_tuples_given_lists():
    # a kept list would leave the value unhashable
    route = CycleRoute(sequence=[1, 2, 3, 1])
    mapping = NodeMapping(perm=[2, 3, 4, 1])
    plan = DeploymentPlan(n=4, mode=TrailMode.SINGLE, cycles=[route])
    topology = Topology(n=3, edges=[[1, 2], [1, 3], [2, 3]])
    for value in (route, mapping, plan, topology):
        hash(value)
    assert route.sequence == (1, 2, 3, 1)
    assert mapping.perm == (2, 3, 4, 1) and plan.cycles == (route,)
    assert topology.edges == ((1, 2), (1, 3), (2, 3))
