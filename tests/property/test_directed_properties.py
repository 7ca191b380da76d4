"""Hypothesis property tests for the directed fast paths.

Two invariants pin the new directed machinery:

1. **Reduction correctness** — for any batch of random orientations of
   one shared skeleton, the XMiner-style shared-core evaluation
   (:func:`repro.core.reduction.reduce_directed_batch`) returns exactly
   the per-pattern :meth:`DirectedMatcher.count` values;
2. **Cross-backend equivalence** — interpreter, vectorised frontier and
   compiled kernels agree on random digraphs for every catalog
   orientation pattern.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.directed import DirectedMatcher
from repro.core.query import MatchQuery
from repro.core.reduction import reduce_directed_batch
from repro.core.session import MatchSession
from repro.graph.digraph import digraph_from_edges
from repro.pattern.directed import (
    DiPattern,
    bi_fan,
    directed_cycle,
    directed_path,
    out_star,
    transitive_triangle,
)

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_digraphs(draw, min_vertices=4, max_vertices=14):
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=len(possible), unique=True)
    )
    return digraph_from_edges(arcs, n_vertices=n)


@st.composite
def orientation_batches(draw):
    """A connected skeleton plus 2-4 random orientations of it.

    Each skeleton edge becomes ``u->v``, ``v->u`` or both (antiparallel)
    independently per pattern, so every batch member shares the exact
    :func:`skeleton_key` while diverging in arc constraints.
    """
    n = draw(st.integers(min_value=3, max_value=5))
    # random spanning tree keeps every orientation weakly connected
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    extra = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if extra:
        edges |= set(
            draw(st.lists(st.sampled_from(extra), max_size=len(extra), unique=True))
        )
    edges = sorted(edges)
    n_patterns = draw(st.integers(min_value=2, max_value=4))
    patterns = []
    for i in range(n_patterns):
        arcs = []
        for u, v in edges:
            kind = draw(st.sampled_from(["fwd", "rev", "both"]))
            if kind in ("fwd", "both"):
                arcs.append((u, v))
            if kind in ("rev", "both"):
                arcs.append((v, u))
        patterns.append(DiPattern(n, arcs, name=f"orient-{i}"))
    return patterns


CATALOG = [
    directed_cycle(3),
    transitive_triangle(),
    directed_path(3),
    out_star(3),
    bi_fan(),
]


@given(graph=random_digraphs(), patterns=orientation_batches())
@SETTINGS
def test_reduction_equals_per_pattern_counts(graph, patterns):
    counts, report = reduce_directed_batch(graph, patterns)
    assert report.n_patterns == len(patterns)
    for p, c in zip(patterns, counts):
        assert c == DirectedMatcher(p).count(graph), p.name


@given(graph=random_digraphs(), patterns=orientation_batches())
@SETTINGS
def test_count_many_equals_per_pattern_counts(graph, patterns):
    session = MatchSession(graph)
    results = session.count_many([MatchQuery(p) for p in patterns])
    for p, r in zip(patterns, results):
        assert r.count == DirectedMatcher(p).count(graph, backend="interpreter"), p.name


@given(graph=random_digraphs())
@SETTINGS
def test_directed_backends_agree(graph):
    for pattern in CATALOG:
        m = DirectedMatcher(pattern)
        reference = m.count(graph, backend="interpreter")
        for backend in ("vectorised", "compiled"):
            assert m.count(graph, backend=backend) == reference, (
                pattern.name,
                backend,
            )
