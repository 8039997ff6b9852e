#!/usr/bin/env python3
"""Precompute quorum bases for the bundled network sizes.

Searches r in {1,2,3} for every bundled node count and stores the
results under src/quorumcycles/data/bases/ so experiments never pay
the search cost.  The 54-node searches get a much larger per-level
node budget; levels that still blow it are recorded as possibly
non-minimal.  Every base is verified by enumeration first, and nothing
is written unless all of them pass.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quorumcycles.quorums import (SearchBudget, generate_quorums, save_base,
                                  search_min_base, verify_quorum_set)

SIZES = (14, 20, 24, 54)
R_VALUES = (1, 2, 3)
BUDGETS = {54: 12_000_000}
DEFAULT_BUDGET = 5_000_000


def main():
    out_dir = (Path(__file__).resolve().parents[1]
               / "src" / "quorumcycles" / "data" / "bases")
    results = {}
    for n in SIZES:
        for r in R_VALUES:
            budget = SearchBudget(max_nodes=BUDGETS.get(n, DEFAULT_BUDGET))
            t0 = time.perf_counter()
            result = search_min_base(n, r, budget)
            dt = time.perf_counter() - t0
            report = verify_quorum_set(generate_quorums(result.base), r)
            if not report.ok:
                sys.exit(f"n={n} r={r}: base fails verification, nothing "
                         f"written: {report.violations}")
            results[(n, r)] = result
            flag = "minimal" if result.proven_minimal else \
                f"possibly non-minimal (skipped k={result.skipped_k})"
            print(f"n={n} r={r}: k_hat={result.base.k_hat} "
                  f"members={list(result.base.members)} {flag} "
                  f"nodes={result.nodes_explored} {dt:.1f}s", flush=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    for (n, r), result in results.items():
        save_base(result, str(out_dir / f"n{n}_r{r}.json"))


if __name__ == "__main__":
    main()
