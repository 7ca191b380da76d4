"""Shared plumbing for the benchmark harness.

Every benchmark prints the paper's rows/series as an aligned table and
writes a TSV copy under ``benchmarks/results/``.  Workloads are scaled
down (pure Python vs the paper's generated C++ on Tianhe-2A); each
bench states the scale it used.  docs/benchmarks.md says what each
BENCH record means and enforces.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

from repro.core.query import MatchQuery
from repro.core.session import get_session
from repro.graph.datasets import load_dataset
from repro.utils.tables import Table

RESULTS_DIR = Path(__file__).parent / "results"

#: CI smoke mode: REPRO_BENCH_QUICK=1 shrinks every bench to a small
#: graph and a reduced workload (1 repetition) so the whole benchmark
#: smoke job finishes in seconds while still asserting cross-backend
#: count agreement.  Individual benches also trim their pattern sets.
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: proxy-scale multiplier applied in quick mode.
QUICK_SCALE = 0.5

#: machine-readable benchmark records (BENCH_*.json) land in the repo
#: root so drivers/dashboards find them without knowing the layout.
REPO_ROOT = Path(__file__).parent.parent

#: per-dataset proxy scales for the single-node benches, tuned so the
#: full benchmark suite completes in minutes of pure Python.
BENCH_SCALES = {
    "wiki-vote": 0.22,
    "mico": 0.1,
    "patents": 0.06,
    "livejournal": 0.07,
    "orkut": 0.07,
    "twitter": 0.1,
}

BENCH_SEED = 2020


def bench_graph(name: str, scale: float | None = None):
    """The scaled proxy used throughout the benchmark suite.

    ``scale`` overrides the per-dataset default; quick mode
    (:data:`QUICK`) shrinks whichever scale applies.
    """
    effective = BENCH_SCALES[name] if scale is None else scale
    if QUICK:
        effective *= QUICK_SCALE
    return load_dataset(name, scale=effective, seed=BENCH_SEED)


def plan_report(graph, pattern, *, use_iep: bool, max_restriction_sets: int | None = 64):
    """The plain plan report the graph's session picks, with its kernel."""
    query = MatchQuery(pattern, use_iep=use_iep, max_restriction_sets=max_restriction_sets)
    return get_session(graph).plan_for(query, kernel=True).report


def time_call(fn, *args, **kwargs) -> tuple[float, object]:
    """(seconds, result) of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def geomean(values: list[float]) -> float:
    """Geometric mean (0.0 for an empty list) — the speedup aggregate."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def emit(table: Table, capsys, filename: str) -> None:
    """Print the table to the real terminal and persist a TSV copy."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / filename).write_text(table.to_tsv())
    rendered = "\n" + table.render() + "\n"
    if capsys is not None:
        with capsys.disabled():
            print(rendered)
    else:  # pragma: no cover - direct invocation
        print(rendered)


def emit_json(filename: str, payload: dict) -> Path:
    """Persist a machine-readable benchmark record (``BENCH_*.json``)."""
    path = REPO_ROOT / filename
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def once(benchmark, fn, *args, **kwargs):
    """Register ``fn`` with pytest-benchmark as a single-shot measurement.

    The sweeps in these benches measure many variants manually; the
    benchmark fixture records one representative run so the suite
    integrates with ``--benchmark-only`` machinery.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
