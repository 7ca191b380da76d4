"""The planner's output is pinned: same sets, schedules, rankings and plans.

Planning speed-ups (sharing one automorphism group per planning call,
numpy schedule dedup, per-call model memos) must not change a single
planner decision.  ``planner_golden.json`` holds a snapshot of

* Algorithm 1's restriction sets, in order, for the catalogue patterns up
  to 6 vertices (capped as the planner caps them, and uncapped up to 5
  vertices);
* the deduplicated 2-phase schedules, in order;
* the top of the model ranking — schedule, restrictions, ``iep_k``,
  ``iep_overcount`` and predicted cost — with and without IEP;
* labeled restriction sets and chosen labeled plans;
* directed restriction sets, schedules and chosen directed plans;
* the plans a fresh :class:`~repro.core.session.MatchSession` picks for
  plain, induced, labeled and directed first-seen queries.

Floats are compared exactly (JSON keeps their ``repr``).  Regenerate the
golden only when a change is *meant* to alter planner output::

    PYTHONPATH=src python tests/core/test_planner_identity.py --write

The module also checks the rewritten kernels against oracles kept here:
the bitmask ``no_conflict`` against the original Kahn's-algorithm
version, the numpy ``dedup_schedules`` against per-orbit Python sets,
and ``iep_overcount_multiplicity`` against explicit coset enumeration.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import enumerate_configurations
from repro.core.directed import (
    DirectedMatcher,
    generate_directed_restriction_sets,
    generate_directed_schedules,
)
from repro.core.labeled import LabeledMatcher, labeled_restriction_sets
from repro.core.perf_model import PerformanceModel
from repro.core.query import MatchQuery
from repro.core.restrictions import (
    NonUniformOvercountError,
    generate_restriction_sets,
    iep_overcount_multiplicity,
    no_conflict,
)
from repro.core.schedule import (
    all_schedules,
    dedup_schedules,
    generate_schedules,
    independent_suffix_size,
)
from repro.core.session import MatchSession
from repro.graph.datasets import load_dataset
from repro.graph.digraph import random_digraph
from repro.graph.labeled import assign_random_labels
from repro.graph.stats import GraphStats
from repro.pattern.automorphism import automorphisms
from repro.pattern.catalog import NAMED_PATTERNS, clique, cycle, get_pattern, path, star
from repro.pattern.directed import directed_automorphisms, get_directed_pattern
from repro.pattern.labeled import LabeledPattern
from repro.pattern.pattern import Pattern

GOLDEN = Path(__file__).with_name("planner_golden.json")

TOP_K = 30
#: uncapped Algorithm 1 runs only where the full enumeration is small.
UNCAPPED_MAX_VERTICES = 5


def _plain_patterns() -> dict[str, Pattern]:
    pats = {name: make() for name, make in NAMED_PATTERNS.items()}
    pats = {name: p for name, p in pats.items() if p.n_vertices <= 6}
    for name in ("P1", "P2", "P3", "P4"):
        pats[name] = get_pattern(name)
    for n in range(3, 7):
        pats[f"clique-{n}"] = clique(n)
        pats[f"star-{n}"] = star(n - 1)
        pats[f"cycle-{n}"] = cycle(n)
        pats[f"path-{n}"] = path(n)
    return pats


LABELED = {
    "house/01012": ("house", (0, 1, 0, 1, 2)),
    "house/00011": ("house", (0, 0, 0, 1, 1)),
    "clique-5/00011": ("clique-5", (0, 0, 0, 1, 1)),
    "clique-4/0000": ("clique-4", (0, 0, 0, 0)),
    "cycle-6/010101": ("cycle-6", (0, 1, 0, 1, 0, 1)),
    "P3/001122": ("P3", (0, 0, 1, 1, 2, 2)),
}

DIRECTED = (
    "ffl", "bifan", "transitive-triangle", "dcycle-3", "dcycle-4",
    "dcycle-5", "dpath-4", "outstar-4", "outstar-5", "dclique-4",
)

COLD_PLAIN = ("clique-6", "clique-5", "star-5", "pentagon", "P4", "house")
COLD_INDUCED = ("pentagon", "rectangle", "house")


def _rs(res_set) -> list:
    return [list(r) for r in sorted(res_set)]


def _plan_row(plan, predicted_cost: float) -> dict:
    """The decision a compiled plan encodes, for any planning mode."""
    config = getattr(plan, "config", None)
    schedule = config.schedule if config is not None else plan.schedule
    restrictions = config.restrictions if config is not None else plan.restrictions
    return {
        "schedule": list(schedule),
        "restrictions": _rs(restrictions),
        "iep_k": plan.iep_k,
        "iep_overcount": plan.iep_overcount,
        "cost": predicted_cost,
    }


def _plain_case(pattern: Pattern, stats: GraphStats) -> dict:
    case: dict = {}
    sets = generate_restriction_sets(pattern, max_sets=64)
    case["restrictions"] = [_rs(s) for s in sets]
    if pattern.n_vertices <= UNCAPPED_MAX_VERTICES:
        # Pinned by digest: the 5-clique alone has thousands of sets.
        uncapped = [_rs(s) for s in generate_restriction_sets(pattern)]
        case["restrictions_uncapped"] = {
            "n": len(uncapped),
            "sha256": hashlib.sha256(json.dumps(uncapped).encode()).hexdigest(),
        }
    schedules = generate_schedules(pattern, dedup_automorphic=True)
    case["schedules"] = [list(s) for s in schedules]
    configs = enumerate_configurations(pattern, schedules, sets)
    model = PerformanceModel(stats)
    for iep_k in sorted({0, independent_suffix_size(pattern)}):
        ranking = model.rank(configs, iep_k=iep_k)
        case[f"rank_iep{iep_k}"] = {
            "n": len(ranking),
            "top": [_plan_row(r.plan, r.predicted_cost) for r in ranking[:TOP_K]],
        }
    return case


def collect() -> dict:
    """Snapshot every pinned planner output (see the module docstring)."""
    base = load_dataset("patents", scale=0.01, seed=7)
    stats = GraphStats.of(base)
    out: dict = {"plain": {}, "labeled": {}, "directed": {}, "session": {}}
    for name, pattern in _plain_patterns().items():
        out["plain"][name] = _plain_case(pattern, stats)

    lgraph = assign_random_labels(base, 3, seed=11)
    for key, (name, labels) in LABELED.items():
        lp = LabeledPattern(get_pattern(name), labels)
        matcher = LabeledMatcher(lp)
        case = {"restrictions": [_rs(s) for s in labeled_restriction_sets(lp)]}
        for use_iep in (False, True):
            report = matcher.plan(lgraph, use_iep=use_iep)
            case[f"plan_iep{int(use_iep)}"] = _plan_row(report.plan, report.predicted_cost)
        out["labeled"][key] = case

    digraph = random_digraph(120, 0.05, seed=5)
    for name in DIRECTED:
        dp = get_directed_pattern(name)
        case = {
            "restrictions": [
                _rs(s) for s in generate_directed_restriction_sets(dp, max_sets=64)
            ],
            "schedules": [list(s) for s in generate_directed_schedules(dp)],
        }
        for use_iep in (False, True):
            report = DirectedMatcher(dp).plan(digraph, use_iep=use_iep)
            case[f"plan_iep{int(use_iep)}"] = _plan_row(report.plan, report.predicted_cost)
        out["directed"][name] = case

    queries = (
        [(f"plain.{n}", base, MatchQuery(get_pattern(n))) for n in COLD_PLAIN]
        + [
            (f"induced.{n}", base, MatchQuery(get_pattern(n), semantics="induced"))
            for n in COLD_INDUCED
        ]
        + [
            (f"labeled.{key}", lgraph, MatchQuery(LabeledPattern(get_pattern(n), lab)))
            for key, (n, lab) in LABELED.items()
        ]
        + [(f"directed.{n}", digraph, MatchQuery(get_directed_pattern(n))) for n in DIRECTED]
    )
    for qid, graph, query in queries:
        entry = MatchSession(graph).plan_for(query)
        out["session"][qid] = _plan_row(entry.plan, entry.predicted_cost)
    return out


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return json.loads(json.dumps(collect()))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("section", ["plain", "labeled", "directed", "session"])
def test_planner_output_matches_golden(snapshot, golden, section):
    assert snapshot[section].keys() == golden[section].keys()
    for key in golden[section]:
        assert snapshot[section][key] == golden[section][key], f"{section}/{key}"


# ---------------------------------------------------------------------------
# no_conflict: bitmask peel vs the original Kahn's-algorithm oracle
# ---------------------------------------------------------------------------
def kahn_no_conflict(perm, res_set) -> bool:
    """The original dict-based implementation, kept as the oracle."""
    edges: set[tuple[int, int]] = set()
    vertices: set[int] = set()
    for g, s in res_set:
        edges.add((g, s))
        edges.add((perm[g], perm[s]))
        vertices.update((g, s, perm[g], perm[s]))
    indeg = {v: 0 for v in vertices}
    out: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        out[a].append(b)
        indeg[b] += 1
    queue = [v for v in vertices if indeg[v] == 0]
    visited = 0
    while queue:
        v = queue.pop()
        visited += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return visited == len(vertices)


@st.composite
def _perm_and_restrictions(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    perm = tuple(draw(st.permutations(range(n))))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    res = draw(st.frozensets(pairs, max_size=2 * n))
    return perm, res


@settings(max_examples=600, deadline=None)
@given(_perm_and_restrictions())
def test_no_conflict_matches_kahn_oracle(case):
    perm, res = case
    assert no_conflict(perm, res) == kahn_no_conflict(perm, res)


def test_no_conflict_exhaustive_small():
    """Every permutation of 4 vertices against every 1–2 restriction set."""
    pairs = [(a, b) for a in range(4) for b in range(4)]
    sets = [frozenset({p}) for p in pairs] + [
        frozenset({p, q}) for i, p in enumerate(pairs) for q in pairs[i + 1 :]
    ]
    for perm in permutations(range(4)):
        for res in sets:
            assert no_conflict(perm, res) == kahn_no_conflict(perm, res), (perm, res)


# ---------------------------------------------------------------------------
# dedup_schedules: numpy canonical codes vs the original per-orbit sets
# ---------------------------------------------------------------------------
def set_dedup(schedules, auts) -> list:
    """The original implementation: one Python orbit set per schedule."""
    seen, out = set(), []
    for s in schedules:
        canon = min({tuple(sigma[v] for v in s) for sigma in auts})
        if canon not in seen:
            seen.add(canon)
            out.append(s)
    return out


@pytest.mark.parametrize(
    "name", ["triangle", "rectangle", "house", "pentagon", "hourglass", "P4", "clique-6"]
)
def test_dedup_matches_orbit_set_oracle(name):
    """Raw n! orders, so the 6-clique's 720 x 720 codes span several chunks."""
    pattern = get_pattern(name)
    auts = automorphisms(pattern)
    raw = list(all_schedules(pattern))
    assert dedup_schedules(pattern, raw) == set_dedup(raw, auts)
    shuffled = raw[::-1]
    assert dedup_schedules(pattern, shuffled) == set_dedup(shuffled, auts)


def test_dedup_with_directed_subgroup():
    dp = get_directed_pattern("dcycle-4")
    skeleton = dp.skeleton()
    auts = directed_automorphisms(dp)
    raw = generate_schedules(skeleton)
    assert dedup_schedules(skeleton, raw, auts=auts) == set_dedup(raw, auts)
    assert dedup_schedules(skeleton, []) == []


# ---------------------------------------------------------------------------
# iep_overcount_multiplicity vs explicit coset enumeration
# ---------------------------------------------------------------------------
def brute_force_multiplicity(pattern: Pattern, kept, auts) -> int:
    """Satisfying members per coset {ranks∘σ}, enumerated coset by coset."""
    n = pattern.n_vertices
    per_coset: dict[tuple, int] = {}
    for ranks in permutations(range(n)):
        coset = min(tuple(ranks[sigma[v]] for v in range(n)) for sigma in auts)
        ok = all(ranks[g] > ranks[s] for g, s in kept)
        per_coset[coset] = per_coset.get(coset, 0) + ok
    values = set(per_coset.values())
    if len(values) != 1:
        raise NonUniformOvercountError(str(sorted(values)))
    return values.pop()


def _kept_subsets(pattern: Pattern):
    """Every subset of every capped Algorithm 1 set (deduplicated)."""
    seen = set()
    for res in generate_restriction_sets(pattern, max_sets=8):
        items = sorted(res)
        for mask in range(1 << len(items)):
            kept = frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
            if kept not in seen:
                seen.add(kept)
                yield kept


@pytest.mark.parametrize(
    "name",
    ["triangle", "rectangle", "house", "pentagon", "hourglass", "clique-4", "star-4", "P3"],
)
def test_iep_multiplicity_matches_coset_enumeration(name):
    pattern = get_pattern(name)
    auts = automorphisms(pattern)
    uniform = nonuniform = 0
    for kept in _kept_subsets(pattern):
        try:
            expected = brute_force_multiplicity(pattern, kept, auts)
        except NonUniformOvercountError:
            nonuniform += 1
            with pytest.raises(NonUniformOvercountError):
                iep_overcount_multiplicity(pattern, kept, auts=auts)
            continue
        uniform += 1
        assert iep_overcount_multiplicity(pattern, kept, auts=auts) == expected
        assert iep_overcount_multiplicity(pattern, kept) == expected
    assert uniform > 0


def test_iep_multiplicity_nonuniform_case():
    """Two restrictions sharing a vertex of the 4-cycle split orbits unevenly."""
    pattern = get_pattern("rectangle")
    kept = frozenset({(0, 1), (0, 2)})
    with pytest.raises(NonUniformOvercountError):
        brute_force_multiplicity(pattern, kept, automorphisms(pattern))
    with pytest.raises(NonUniformOvercountError):
        iep_overcount_multiplicity(pattern, kept)


def test_iep_multiplicity_subgroup():
    """A subgroup (a directed pattern's group) uses its own cosets."""
    dp = get_directed_pattern("dcycle-4")
    skeleton = dp.skeleton()
    auts = directed_automorphisms(dp)
    for kept in [frozenset(), frozenset({(1, 0)}), frozenset({(1, 0), (2, 0)})]:
        try:
            expected = brute_force_multiplicity(skeleton, kept, auts)
        except NonUniformOvercountError:
            with pytest.raises(NonUniformOvercountError):
                iep_overcount_multiplicity(skeleton, kept, auts=auts)
            continue
        assert iep_overcount_multiplicity(skeleton, kept, auts=auts) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_planner_identity.py --write")
    # One line per case keeps diffs of a deliberate re-pin readable.
    snap = collect()
    sections = []
    for section in sorted(snap):
        rows = [
            f"  {json.dumps(key)}: {json.dumps(snap[section][key], separators=(',', ':'))}"
            for key in sorted(snap[section])
        ]
        sections.append(f" {json.dumps(section)}: {{\n" + ",\n".join(rows) + "\n }")
    GOLDEN.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {GOLDEN}")
