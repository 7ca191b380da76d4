"""Public API: one-shot helpers over the session layer.

The paper's user contract (§III): *"Users only need to input a pattern
and a data graph in the form of adjacency lists to run GraphPi."*  The
surface is the query/session pair::

>>> from repro import MatchQuery, MatchSession, load_dataset, get_pattern
>>> session = MatchSession(load_dataset("wiki-vote", scale=0.2))
>>> session.count(MatchQuery(get_pattern("house")))   # plans + counts
>>> session.count(MatchQuery(get_pattern("house")))   # plan-cache hit

This module keeps the one-shot entry points — :func:`count_pattern`,
:func:`match_pattern`, :func:`match_query` — which build a
:class:`~repro.core.query.MatchQuery` and dispatch through
:func:`~repro.core.session.get_session`, so repeated calls against the
same graph object reuse cached plans instead of re-running the
preprocessing pipeline (Algorithm 1 restrictions, 2-phase schedules,
model ranking, code generation — what Table III shows is expensive).

To inspect a plan, use ``get_session(graph).plan_for(query).report``
(or :func:`~repro.core.session.plan_plain` on precomputed stats); to run
one given plan, build a :class:`~repro.core.backend.MatchContext` and
call ``select_backend(ctx).count(ctx)``.
"""

from __future__ import annotations

from repro.core.backend import ExecutionBackend
from repro.core.query import MatchQuery, MatchResult
from repro.core.session import get_session
from repro.graph.csr import Graph
from repro.pattern.pattern import Pattern


def count_pattern(
    graph: Graph,
    pattern: Pattern,
    *,
    use_iep: bool | None = None,
    backend: str | ExecutionBackend | None = None,
    max_restriction_sets: int | None = 64,
    dedup_schedules: bool = True,
    use_codegen: bool = True,
) -> int:
    """One-shot: plan + count (through the selected execution backend).

    Runs on the graph's shared session — repeated one-shot calls with
    the same pattern and graph hit the plan cache.  ``use_iep=None``
    resolves per backend capability (IEP on unless the preferred
    backend cannot execute IEP-suffix plans); ``use_codegen=False``
    with no ``backend`` runs the interpreter.
    """
    query = MatchQuery(
        pattern,
        mode="plain",
        use_iep=use_iep,
        backend=backend,
        max_restriction_sets=max_restriction_sets,
        dedup_schedules=dedup_schedules,
        use_codegen=use_codegen,
    )
    return get_session(graph).count(query).count


def match_pattern(
    graph: Graph,
    pattern: Pattern,
    *,
    limit: int | None = None,
    backend: str | ExecutionBackend | None = None,
    max_restriction_sets: int | None = 64,
    dedup_schedules: bool = True,
    use_codegen: bool = True,
):
    """One-shot: plan + enumerate embeddings as tuples indexed by
    pattern vertex.  Enumeration runs an IEP-free plan; counting-only
    backends (e.g. ``compiled``) fall back to the interpreter."""
    query = MatchQuery(
        pattern,
        mode="plain",
        use_iep=False,
        backend=backend,
        max_restriction_sets=max_restriction_sets,
        dedup_schedules=dedup_schedules,
        use_codegen=use_codegen,
    )
    return get_session(graph).enumerate(query, limit=limit)


def match_query(
    graph,
    query: MatchQuery | Pattern,
    *,
    backend: str | ExecutionBackend | None = None,
) -> MatchResult:
    """One-shot declarative entry point: run ``query`` against ``graph``.

    Accepts any graph kind the session layer supports (plain, labeled,
    directed) and any :class:`~repro.core.query.MatchQuery` (or a bare
    pattern, which is wrapped).  Equivalent to
    ``get_session(graph).count(query, backend=backend)``; a call-level
    ``backend`` wins over the query's own preference.
    """
    return get_session(graph).count(query, backend=backend)
