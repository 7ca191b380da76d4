"""Regenerate ``counts.json``, the pinned answers of fig8-warm and plan-cold::

    python3 perfbench/pin_counts.py

The counts come from the vectorised frontier engine (the interpreter where
a plan does not suit it), which shares no execution code with the compiled
kernels the workloads run by default.  They are computed on two
differently seeded inputs, and must agree: the seed only permutes vertex
ids.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import MatchSession  # noqa: E402
from workloads import COUNTS_FILE, Fig8Warm, PlanCold, directed_query  # noqa: E402


def counts_for(workload, seed: int) -> dict[str, int]:
    graphs = workload.inputs(seed)
    items = workload.queries() + [
        ("directed", f"batch.{name}", directed_query(name))
        for name in getattr(workload, "BATCH", ())
    ]
    sessions: dict[int, MatchSession] = {}
    out = {}
    for mode, qid, query in items:
        graph = graphs[mode]
        session = sessions.setdefault(id(graph), MatchSession(graph, backend="vectorised"))
        result = session.count(query)
        print(f"{workload.name}/{qid}: {result.count} ({result.backend})", file=sys.stderr)
        out[f"{workload.name}/{qid}"] = result.count
    return out


def main() -> int:
    pinned: dict[str, int] = {}
    for workload in (Fig8Warm, PlanCold):
        first, second = counts_for(workload, 1), counts_for(workload, 2)
        if first != second:
            print(f"error: {workload.name} counts depend on the seed", file=sys.stderr)
            return 1
        pinned.update(first)
    COUNTS_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
