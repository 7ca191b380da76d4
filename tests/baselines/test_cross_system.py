"""The paper's §V-A correctness methodology: all systems agree.

*"To guarantee the correctness of GraphPi, we compare GraphPi's results
with those of Fractal and (the reproduced version of) GraphZero.  The
results show that the numbers of embeddings obtained by three systems
are the same."*
"""

import pytest

from repro.baselines.bruteforce import bruteforce_count
from repro.baselines.fractal import fractal_count
from repro.baselines.graphzero import graphzero_count
from repro.baselines.peregrine import peregrine_count
from repro.core.api import count_pattern
from repro.graph.generators import erdos_renyi, random_power_law, watts_strogatz
from repro.pattern.catalog import paper_patterns

GRAPHS = [
    ("er", erdos_renyi(35, 0.25, seed=1)),
    ("powerlaw", random_power_law(60, 6.0, seed=2)),
    ("smallworld", watts_strogatz(50, 3, 0.3, seed=3)),
]


@pytest.mark.parametrize("gname,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_four_systems_agree_small_patterns(gname, graph, all_small_patterns):
    for pattern in all_small_patterns:
        reference = bruteforce_count(graph, pattern)
        assert count_pattern(graph, pattern, use_iep=False) == reference
        assert count_pattern(graph, pattern, use_iep=True) == reference
        assert graphzero_count(graph, pattern) == reference
        assert fractal_count(graph, pattern) == reference
        assert peregrine_count(graph, pattern) == reference


@pytest.mark.parametrize("pname", ["P1", "P2", "P3", "P4"])
def test_paper_patterns_three_systems(pname):
    """P5/P6 are too heavy for the brute-force oracle on CI-sized inputs;
    P1–P4 cover 5- and 6-vertex shapes."""
    graph = erdos_renyi(28, 0.3, seed=44)
    pattern = paper_patterns()[pname]
    pi = count_pattern(graph, pattern, use_iep=True)
    assert pi == count_pattern(graph, pattern, use_iep=False)
    assert pi == graphzero_count(graph, pattern)
    assert pi == peregrine_count(graph, pattern)
    assert pi == bruteforce_count(graph, pattern)


def test_p5_p6_graphpi_vs_graphzero():
    graph = erdos_renyi(20, 0.4, seed=45)
    for pname in ("P5", "P6"):
        pattern = paper_patterns()[pname]
        pi = count_pattern(graph, pattern, use_iep=False, max_restriction_sets=8)
        gz = graphzero_count(graph, pattern)
        assert pi == gz, pname
