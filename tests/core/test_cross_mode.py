"""Cross-mode identities: one undirected pattern counted in every mode.

Three reductions of the other modes to plain matching must hold exactly:

* the fully reciprocal :class:`~repro.pattern.directed.DiPattern` (both
  arcs per edge) on the fully reciprocal
  :class:`~repro.graph.digraph.DiGraph` counts like the plain pattern —
  every edge probe then needs both the out- and the in-CSR row, so an
  engine that mixes the two up, or drops one ref's probe, miscounts;
* a uniformly labeled pattern on a uniformly labeled graph counts like
  the plain pattern;
* vertex-induced clique counts equal the plain clique counts (a clique
  has no anti-edge).

Each identity is checked on the default path, which must be the
vectorised frontier engine, and on the interpreter, with IEP on and off,
and on the generated kernels of the compiled backend for every IEP-free
plan (its IEP expansion is plain-mode only).  All three read the one
plan's per-depth refs, labels and anti columns, so a lowering slip in
any mode shows up on each.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core.backend import get_backend
from repro.core.query import MatchQuery
from repro.core.session import MatchSession
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi, random_power_law
from repro.graph.labeled import LabeledGraph
from repro.pattern.catalog import get_pattern
from repro.pattern.directed import DiPattern
from repro.pattern.labeled import LabeledPattern

GRAPHS = {
    "er-40-3": lambda: erdos_renyi(40, 0.2, seed=3),
    "er-30-7": lambda: erdos_renyi(30, 0.3, seed=7),
    "powerlaw-60": lambda: random_power_law(60, avg_degree=6.0, exponent=2.2, seed=11),
}
PATTERNS = ("triangle", "rectangle", "house", "P1", "P3", "pentagon", "clique-4")
CLIQUES = ("triangle", "clique-4")
BACKENDS = (None, "interpreter")


@lru_cache(maxsize=None)
def _graph(gname: str):
    return GRAPHS[gname]()


@lru_cache(maxsize=None)
def _plain_count(gname: str, pname: str) -> int:
    query = MatchQuery(get_pattern(pname), use_iep=False)
    return MatchSession(_graph(gname)).count(query, backend="interpreter").count


def _as_mode(mode: str, gname: str, pname: str):
    """The graph and query expressing the plain question in ``mode``."""
    graph, pattern = _graph(gname), get_pattern(pname)
    if mode == "directed":
        arcs = [arc for u, v in pattern.edges for arc in ((u, v), (v, u))]
        return DiGraph.from_undirected(graph), DiPattern(pattern.n_vertices, arcs)
    if mode == "labeled":
        labels = np.zeros(graph.n_vertices, dtype=np.int64)
        lpattern = LabeledPattern(pattern, (0,) * pattern.n_vertices)
        return LabeledGraph(graph, labels), lpattern
    return graph, pattern


#: (mode, pattern, use_iep); induced plans cannot carry an IEP suffix
CASES = [
    (mode, pname, use_iep)
    for mode in ("directed", "labeled", "induced")
    for pname in (CLIQUES if mode == "induced" else PATTERNS)
    for use_iep in ((False,) if mode == "induced" else (True, False))
]


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b or "default")
@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize(
    "mode,pname,use_iep",
    CASES,
    ids=[f"{m}-{p}-{'iep' if i else 'no-iep'}" for m, p, i in CASES],
)
def test_mode_reduces_to_plain_count(mode, pname, use_iep, gname, backend):
    _check_reduces_to_plain(mode, pname, use_iep, gname, backend)


#: the IEP-free cases, which every mode's generated kernel executes
IEP_FREE = [case for case in CASES if not case[2]]


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize(
    "mode,pname,use_iep", IEP_FREE, ids=[f"{m}-{p}" for m, p, _ in IEP_FREE]
)
def test_mode_reduces_to_plain_count_on_compiled(mode, pname, use_iep, gname):
    _check_reduces_to_plain(mode, pname, use_iep, gname, "compiled")


def _check_reduces_to_plain(mode, pname, use_iep, gname, backend):
    graph, pattern = _as_mode(mode, gname, pname)
    semantics = "induced" if mode == "induced" else "edge"
    query = MatchQuery(pattern, semantics=semantics, use_iep=use_iep)
    session = MatchSession(graph)
    result = session.count(query, backend=backend)
    assert result.count == _plain_count(gname, pname)
    # The default path is the frontier engine wherever it covers the
    # plan: every IEP-free plan, and IEP suffixes in plain and directed
    # mode.  A labeled IEP plan runs on the interpreter.
    frontier = get_backend("vectorised").capabilities
    covered = session.plan_for(query).plan.iep_k == 0 or frontier.supports_iep(mode)
    assert result.backend == (backend or ("vectorised" if covered else "interpreter"))
