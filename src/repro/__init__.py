"""repro — a pure-Python reproduction of GraphPi (SC 2020).

GraphPi: High Performance Graph Pattern Matching through Effective
Redundancy Elimination (Shi, Zhai, Xu, Zhai — Tsinghua University).

Top-level convenience re-exports cover the quickstart path: load a
graph, pick a pattern, count/match.  They resolve lazily (PEP 562), so
``import repro`` loads no subsystem until one of its names is used.
See docs/architecture.md for the full system inventory and
docs/benchmarks.md for the paper-vs-measured record.
"""

from repro._lazy import lazy_exports

#: defining module -> the public names this package re-exports from it.
_EXPORTS = {
    "repro.core.api": ("count_pattern", "match_pattern", "match_query"),
    "repro.core.query": ("MatchQuery", "MatchResult"),
    "repro.core.session": ("MatchSession", "get_session"),
    "repro.core.backend": (
        "BackendCapabilities",
        "ExecutionBackend",
        "MatchContext",
        "available_backends",
        "backend_names",
        "capabilities_of",
        "get_backend",
        "register_backend",
    ),
    "repro.core.autotune": (
        "AutoBackend",
        "AutotuneReport",
        "CalibrationProfile",
        "CalibrationWorkload",
        "ProfileChoice",
        "ProfileWarning",
        "load_profile",
        "run_calibration",
        "set_active_profile",
    ),
    "repro.core.directed": ("DirectedMatcher", "count_directed", "match_directed"),
    "repro.core.reduction": ("ReductionReport", "reduce_directed_batch", "skeleton_key"),
    "repro.core.induced": ("induced_count",),
    "repro.graph.csr": ("Graph",),
    "repro.graph.builder": ("graph_from_edges",),
    "repro.graph.datasets": ("load_dataset",),
    "repro.graph.digraph": ("DiGraph", "digraph_from_edges"),
    "repro.graph.stats": ("GraphStats",),
    "repro.pattern.catalog": ("get_pattern", "paper_patterns"),
    "repro.pattern.directed": ("DiPattern",),
    "repro.pattern.pattern": ("Pattern",),
    "repro.runtime.distributed": (
        "DistributedBackend",
        "DistributedReport",
        "distributed_count_ctx",
    ),
    "repro.graph.dynamic": ("DynamicGraph",),
    "repro.serving": (
        "JobHandle",
        "MatchRequest",
        "MatchService",
        "ReplicaRegistry",
        "ServiceOverloaded",
    ),
    "repro.streaming": ("StreamReport", "StreamSession", "WatchHandle"),
    "repro.obs": ("obs",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "count_pattern",
    "match_pattern",
    "match_query",
    "MatchQuery",
    "MatchResult",
    "MatchSession",
    "get_session",
    "BackendCapabilities",
    "ExecutionBackend",
    "MatchContext",
    "available_backends",
    "backend_names",
    "capabilities_of",
    "get_backend",
    "register_backend",
    "AutoBackend",
    "AutotuneReport",
    "CalibrationProfile",
    "CalibrationWorkload",
    "ProfileChoice",
    "ProfileWarning",
    "load_profile",
    "run_calibration",
    "set_active_profile",
    "DirectedMatcher",
    "ReductionReport",
    "count_directed",
    "match_directed",
    "reduce_directed_batch",
    "skeleton_key",
    "induced_count",
    "Graph",
    "graph_from_edges",
    "load_dataset",
    "DiGraph",
    "digraph_from_edges",
    "GraphStats",
    "get_pattern",
    "paper_patterns",
    "Pattern",
    "DiPattern",
    "DistributedBackend",
    "DistributedReport",
    "distributed_count_ctx",
    "DynamicGraph",
    "JobHandle",
    "MatchRequest",
    "MatchService",
    "ReplicaRegistry",
    "ServiceOverloaded",
    "StreamReport",
    "StreamSession",
    "WatchHandle",
    "obs",
    "__version__",
]
