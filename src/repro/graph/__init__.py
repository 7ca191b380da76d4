"""Graph substrate: CSR storage, set algebra, generators, datasets, stats.

This package is the data-graph half of the system: everything the
matching engine needs from the input graph lives here, with no knowledge
of patterns or schedules.
"""

from repro._lazy import lazy_exports

#: defining module -> the public names this package re-exports from it.
_EXPORTS = {
    "repro.graph.csr": ("Graph",),
    "repro.graph.builder": (
        "GraphBuilder",
        "build_graph_arrays",
        "graph_from_adjacency_matrix",
        "graph_from_edges",
    ),
    "repro.graph.generators": (
        "barabasi_albert",
        "chung_lu",
        "complete_graph",
        "empty_graph",
        "erdos_renyi",
        "random_power_law",
        "watts_strogatz",
    ),
    "repro.graph.io": (
        "load_binary",
        "load_edge_list",
        "load_or_build",
        "save_binary",
        "save_edge_list",
    ),
    "repro.graph.stats": (
        "GraphStats",
        "degree_histogram",
        "global_clustering",
        "triangle_count",
        "wedge_count",
    ),
    "repro.graph.labeled": ("LabeledGraph", "assign_random_labels"),
    "repro.graph.datasets": (
        "DATASETS",
        "SINGLE_NODE_DATASETS",
        "dataset_names",
        "load_dataset",
    ),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "LabeledGraph",
    "assign_random_labels",
    "Graph",
    "GraphBuilder",
    "build_graph_arrays",
    "graph_from_adjacency_matrix",
    "graph_from_edges",
    "barabasi_albert",
    "chung_lu",
    "complete_graph",
    "empty_graph",
    "erdos_renyi",
    "random_power_law",
    "watts_strogatz",
    "load_binary",
    "load_edge_list",
    "load_or_build",
    "save_binary",
    "save_edge_list",
    "GraphStats",
    "degree_histogram",
    "global_clustering",
    "triangle_count",
    "wedge_count",
    "DATASETS",
    "SINGLE_NODE_DATASETS",
    "dataset_names",
    "load_dataset",
]
