"""Hypothesis property tests for streaming delta maintenance.

The acceptance invariant of the streaming subsystem: after *any*
sequence of edge insertions and deletions, applied in *any* batching,
every watched count equals a fresh full recount on the corresponding
snapshot.  Random churn (interleaved inserts/deletes over generated
er/powerlaw graphs, catalog patterns, both executor strategies) drives
it here; the rejection paths (duplicate insert, self-loop, missing
delete) are property-checked for atomicity — a rejected batch never
perturbs the graph or any maintained count.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import erdos_renyi, random_power_law
from repro.pattern.catalog import clique, house, path, rectangle, star, triangle
from repro.streaming import StreamSession, random_churn

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: catalog patterns under maintenance in every churn run.
WATCHED = {
    "triangle": triangle,
    "rectangle": rectangle,
    "house": house,
    "clique-4": lambda: clique(4),
    "path-4": lambda: path(4),
    "star-3": lambda: star(3),
}

GENERATORS = {
    "er": lambda n, seed: erdos_renyi(n, 0.22, seed=seed),
    "powerlaw": lambda n, seed: random_power_law(
        n, avg_degree=4.0, exponent=2.3, seed=seed
    ),
}


def churn_batches(dyn: DynamicGraph, seed: int, n_updates: int, batching: int):
    """The shared churn generator, sliced into apply()-sized batches."""
    updates = random_churn(dyn, n_updates, seed=seed)
    for i in range(0, len(updates), batching):
        yield updates[i : i + batching]


@given(
    gname=st.sampled_from(sorted(GENERATORS)),
    seed=st.integers(0, 10_000),
    n=st.integers(16, 32),
    n_updates=st.integers(1, 40),
    batching=st.integers(1, 12),
)
@SETTINGS
def test_counts_equal_recount_after_every_batch(gname, seed, n, n_updates, batching):
    base = GENERATORS[gname](n, seed)
    stream = StreamSession(DynamicGraph.from_graph(base))
    for builder in WATCHED.values():
        stream.watch(builder())
    for batch in churn_batches(stream.graph, seed ^ 0x5EED, n_updates, batching):
        stream.apply(batch)
        assert stream.counts() == stream.expected_counts()


@given(
    seed=st.integers(0, 10_000),
    batching=st.integers(2, 20),
)
@SETTINGS
def test_batching_does_not_change_counts(seed, batching):
    """The same churn gives the same counts one update at a time or in
    batches."""
    base = erdos_renyi(24, 0.2, seed=seed)
    final = {}
    for size in (1, batching):
        stream = StreamSession(DynamicGraph.from_graph(base))
        stream.watch(house())
        stream.watch(clique(4))
        for batch in churn_batches(stream.graph, seed + 1, 20, size):
            stream.apply(batch)
        final[size] = stream.counts()
    assert final[1] == final[batching]


@given(
    seed=st.integers(0, 10_000),
    n_updates=st.integers(2, 30),
)
@SETTINGS
def test_churn_then_inverse_churn_restores_counts(seed, n_updates):
    """Applying a churn sequence and then its reverse is the identity."""
    base = erdos_renyi(20, 0.25, seed=seed)
    stream = StreamSession(DynamicGraph.from_graph(base))
    handles = [stream.watch(b()) for b in (triangle, house)]
    before = stream.counts()
    forward = [
        up
        for batch in churn_batches(stream.graph, seed, n_updates, n_updates)
        for up in batch
    ]
    stream.apply(forward)
    inverse = [
        ("-" if up.is_insert else "+", up.u, up.v) for up in reversed(forward)
    ]
    stream.apply(inverse)
    assert stream.counts() == before
    assert stream.counts() == stream.expected_counts()


@given(
    seed=st.integers(0, 10_000),
    bad=st.sampled_from(["self-loop", "duplicate", "missing", "negative"]),
    prefix=st.integers(0, 5),
)
@SETTINGS
def test_rejected_batches_are_atomic(seed, bad, prefix):
    """A batch with one bad update (even after a valid prefix) changes nothing."""
    base = erdos_renyi(18, 0.25, seed=seed)
    stream = StreamSession(DynamicGraph.from_graph(base))
    stream.watch(triangle())
    batch = [
        up
        for chunk in churn_batches(stream.graph, seed + 7, prefix, max(prefix, 1))
        for up in chunk
    ]
    present = {tuple(sorted(e)) for e in stream.graph.edges()}
    for up in batch:
        (present.add if up.is_insert else present.discard)(
            tuple(sorted((up.u, up.v)))
        )
    if bad == "self-loop":
        batch.append(("+", 3, 3))
        exc = ValueError
    elif bad == "duplicate":
        edge = sorted(present)[0] if present else (0, 1)
        if not present:
            batch.append(("+", 0, 1))
        batch.append(("+", *edge))
        exc = KeyError
    elif bad == "missing":
        absent = next(
            (a, b)
            for a in range(18)
            for b in range(a + 1, 18)
            if (a, b) not in present
        )
        batch.append(("-", *absent))
        exc = KeyError
    else:
        batch.append(("+", -2, 4))
        exc = ValueError
    version = stream.graph.version
    counts = stream.counts()
    edges = sorted(stream.graph.edges())
    with pytest.raises(exc):
        stream.apply(batch)
    assert stream.graph.version == version
    assert sorted(stream.graph.edges()) == edges
    assert stream.counts() == counts
