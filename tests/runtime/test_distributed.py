"""The distributed backend: exactness, scheduling properties, fallbacks.

Three pillars:

* **count invariance** — the exact count must not depend on any
  simulation/partition parameter (`n_nodes`, seed, `StealPolicy`,
  distribution mode, task granularity, inner executor); only the
  *simulated timing* may change;
* **scheduling properties** — every viable root belongs to exactly one
  task, and on uniform cost distributions the simulated makespan is
  monotone non-increasing as nodes grow;
* **capability honesty** — enumeration requests raise
  :class:`~repro.core.backend.BackendUnsupportedError` naming the
  backend, and the session layer falls back per declared capability
  flags instead of crashing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce_count
from repro.core.api import count_pattern, match_query
from repro.core.backend import (
    BackendUnsupportedError,
    MatchContext,
    get_backend,
    make_engine,
)
from repro.core.config import Configuration
from repro.core.query import MatchQuery
from repro.core.session import MatchSession, get_session
from repro.pattern.automorphism import automorphisms
from repro.pattern.catalog import get_pattern, house, rectangle, triangle
from repro.pattern.pattern import Pattern
from repro.runtime.cluster import scaling_curve
from repro.runtime.distributed import (
    DEFAULT_NODE_COUNTS,
    DistributedBackend,
    distributed_count_ctx,
    make_task_counter,
)
from repro.runtime.worksteal import StealPolicy


def plan_ctx(graph, pattern, *, use_iep=False):
    """A plain context for (graph, pattern) via the session planner."""
    entry = get_session(graph).plan_for(MatchQuery(pattern, use_iep=use_iep))
    return entry.context(graph)


# ---------------------------------------------------------------------------
# count invariance
# ---------------------------------------------------------------------------
class TestCountInvariance:
    def test_matches_bruteforce(self, er_small):
        for pattern in (triangle(), house()):
            expected = bruteforce_count(er_small, pattern)
            got = count_pattern(er_small, pattern, backend="distributed")
            assert got == expected, pattern.name

    def test_invariant_under_simulation_parameters(self, er_small):
        """n_nodes / seed / StealPolicy shape the simulation, never the count."""
        ctx = plan_ctx(er_small, house())
        expected = bruteforce_count(er_small, house())
        variants = [
            dict(node_counts=(1,)),
            dict(node_counts=(3, 7, 31)),
            dict(node_counts=(1, 2), seed=0),
            dict(node_counts=(1, 2), seed=12345),
            dict(node_counts=(2,), policy=StealPolicy(steal_threshold=1,
                                                      steal_batch_fraction=0.01)),
            dict(node_counts=(2,), policy=StealPolicy(steal_threshold=8,
                                                      steal_batch_fraction=1.0,
                                                      max_victim_probes=1)),
            dict(node_counts=(4,), threads_per_node=1, steal_latency=0.0),
        ]
        for options in variants:
            report = distributed_count_ctx(ctx, **options)
            assert report.count == expected, options

    @settings(max_examples=12, deadline=None)
    @given(
        n_tasks=st.integers(min_value=1, max_value=60),
        distribution=st.sampled_from(["block", "cyclic"]),
        inner=st.sampled_from(["vectorised", "compiled", "interpreter"]),
    )
    def test_invariant_under_partitioning(self, n_tasks, distribution, inner):
        """Any task granularity x distribution x inner executor counts alike."""
        from repro.graph.generators import erdos_renyi

        graph = erdos_renyi(40, 0.25, seed=101)  # == er_small (fn-scope for hypothesis)
        ctx = plan_ctx(graph, triangle())
        report = distributed_count_ctx(
            ctx,
            n_tasks=n_tasks,
            distribution=distribution,
            inner=inner,
            node_counts=(1,),
        )
        assert report.count == 153  # pinned in the conformance goldens

    def test_iep_plan_counts_exactly(self, er_small):
        """Every inner executor: raw partial sums + one final division."""
        ctx = plan_ctx(er_small, house(), use_iep=True)
        assert ctx.plan.iep_k > 0
        expected = bruteforce_count(er_small, house())
        for inner in ("vectorised", "compiled", "interpreter"):
            report = distributed_count_ctx(ctx, node_counts=(1,), inner=inner)
            assert report.count == expected, inner
            assert report.inner_backend == inner


# ---------------------------------------------------------------------------
# scheduling properties
# ---------------------------------------------------------------------------
class TestScheduling:
    @pytest.mark.parametrize("distribution", ["block", "cyclic"])
    @pytest.mark.parametrize("n_tasks", [1, 7, 40, 1000])
    def test_every_root_executes_exactly_once(self, er_small, distribution, n_tasks):
        ctx = plan_ctx(er_small, house())
        report = distributed_count_ctx(
            ctx,
            n_tasks=n_tasks,
            distribution=distribution,
            node_counts=(1,),
            record_tasks=True,
        )
        executed = [v for task in report.task_roots for v in task]
        assert sorted(executed) == list(range(er_small.n_vertices))
        assert len(executed) == len(set(executed))  # no root runs twice
        assert report.n_tasks == len(report.task_roots) <= min(
            n_tasks, er_small.n_vertices
        )
        assert all(task for task in report.task_roots)  # no empty tasks

    def test_zero_latency_steals_deliver_immediately(self):
        """Regression: the zero-latency park must not defer a batch that
        has already arrived behind an unrelated running task."""
        from repro.runtime.cluster import ClusterSimulator, ClusterSpec

        costs = np.concatenate([np.full(16, 5e-3), np.full(48, 1e-5)])
        spec = ClusterSpec(4, threads_per_node=1, steal_latency=0.0)
        result = ClusterSimulator(spec).run(costs, distribution="block")
        assert result.steals > 0
        # Free stealing on this skew keeps the nodes nearly balanced;
        # deferred deliveries pushed efficiency well below this floor.
        assert result.efficiency > 0.6

    def test_makespan_monotone_on_uniform_costs(self):
        """More nodes never slow a uniform workload down (Fig. 12's
        near-linear regime degrades gracefully, it does not invert)."""
        for n_tasks in (7, 96, 960):
            costs = np.full(n_tasks, 1e-3)
            results = scaling_curve(
                costs, [1, 2, 4, 8, 16], threads_per_node=2, steal_latency=1e-4
            )
            makespans = [r.makespan for r in results]
            for previous, current in zip(makespans, makespans[1:]):
                assert current <= previous + 1e-12, (n_tasks, makespans)

    def test_count_only_path_skips_simulation(self, er_small):
        ctx = plan_ctx(er_small, house())
        report = distributed_count_ctx(ctx, simulate=False)
        assert report.results == ()
        assert report.speedups == ()
        assert report.count == bruteforce_count(er_small, house())
        # the backend's count() entry point takes the same shortcut
        assert get_backend("distributed").count(ctx) == report.count
        # ... and a simulate=False instance skips it on every channel
        quiet = DistributedBackend(simulate=False)
        count, rep = quiet.count_with_report(ctx)
        assert count == report.count and rep.results == ()

    def test_report_simulation_profile(self, er_small):
        ctx = plan_ctx(er_small, house())
        report = distributed_count_ctx(ctx, node_counts=(1, 2, 4))
        assert report.node_counts == (1, 2, 4)
        assert len(report.results) == len(report.makespans) == 3
        assert report.speedups[0] == pytest.approx(1.0)
        assert all(m > 0 for m in report.makespans)
        assert len(report.task_seconds) == report.n_tasks
        assert report.seconds_execute >= sum(report.task_seconds) * 0.5
        assert report.task_roots is None  # not recorded unless asked
        assert "tasks" in report.describe()

    def test_single_node_single_thread_is_serial_replay(self, er_small):
        ctx = plan_ctx(er_small, triangle())
        report = distributed_count_ctx(
            ctx, node_counts=(1,), threads_per_node=1, steal_latency=0.0,
            dispatch_overhead=0.0,
        )
        sim = report.results[0]
        assert sim.steals == 0
        assert sim.makespan == pytest.approx(sum(report.task_seconds), rel=1e-6)


# ---------------------------------------------------------------------------
# the inner-executor factory
# ---------------------------------------------------------------------------
class TestTaskCounter:
    def test_vectorised_bulk_path(self, er_small):
        ctx = plan_ctx(er_small, house())
        counter, effective = make_task_counter(ctx, "vectorised")
        assert effective == "vectorised"
        total = counter(list(range(er_small.n_vertices)))
        assert total == bruteforce_count(er_small, house())

    def test_iep_plan_stays_on_the_bulk_path(self, er_small):
        ctx = plan_ctx(er_small, house(), use_iep=True)
        assert ctx.plan.iep_k > 0
        counter, effective = make_task_counter(ctx, "vectorised")
        assert effective == "vectorised"
        raw = counter(list(range(er_small.n_vertices)))
        assert make_engine(ctx).finalize_count(raw) == bruteforce_count(
            er_small, house()
        )

    def test_iep_plan_falls_back_to_prefix_kernel(self, er_small):
        # Only a plan the frontier engine cannot pivot (a disconnected
        # prefix) drops to the generated prefix kernel.
        plan = Configuration(rectangle(), (0, 2, 1, 3), frozenset()).compile(iep_k=2)
        ctx = MatchContext(graph=er_small, plan=plan)
        counter, effective = make_task_counter(ctx, "vectorised")
        assert effective == "compiled"
        raw = counter(list(range(er_small.n_vertices)))
        assert make_engine(ctx).finalize_count(raw) == bruteforce_count(
            er_small, rectangle()
        ) * len(automorphisms(rectangle()))

    def test_induced_mode_stays_vectorised_with_induced_counts(self, er_small):
        # The frontier engine serves induced contexts directly now; the
        # task counter must thread the mode through (a plain-semantics
        # engine here would return silently wrong partial sums).
        from repro.baselines.bruteforce import bruteforce_induced_count
        from repro.core.backend import MatchContext

        plain = plan_ctx(er_small, house())
        ctx = MatchContext(graph=er_small, plan=plain.plan, mode="induced")
        counter, effective = make_task_counter(ctx, "vectorised")
        assert effective == "vectorised"
        total = counter(list(range(er_small.n_vertices)))
        assert total == bruteforce_induced_count(er_small, house())

    def test_directed_mode_served_by_vectorised(self, er_small):
        from repro.core.directed import DirectedMatcher
        from repro.graph.digraph import random_digraph
        from repro.pattern.directed import transitive_triangle
        from repro.core.backend import MatchContext

        dg = random_digraph(20, 0.2, seed=1)
        matcher = DirectedMatcher(transitive_triangle())
        plan = matcher.plan(dg).plan
        ctx = MatchContext(graph=dg, plan=plan, mode="directed")
        counter, effective = make_task_counter(ctx, "vectorised")
        assert effective == "vectorised"
        assert counter(list(range(dg.n_vertices))) == matcher.count(dg)

    def test_partial_sums_compose(self, er_small):
        """Splitting the root set anywhere preserves the total."""
        ctx = plan_ctx(er_small, triangle())
        counter, _ = make_task_counter(ctx, "vectorised")
        whole = counter(list(range(er_small.n_vertices)))
        for cut in (1, 13, 39):
            parts = counter(list(range(cut))) + counter(
                list(range(cut, er_small.n_vertices))
            )
            assert parts == whole, cut


# ---------------------------------------------------------------------------
# other matching modes through the distributed backend
# ---------------------------------------------------------------------------
class TestOtherModes:
    def test_induced(self, er_small):
        from repro.baselines.bruteforce import bruteforce_induced_count
        from repro.core.induced import induced_count

        expected = bruteforce_induced_count(er_small, house())
        assert induced_count(er_small, house(), backend="distributed") == expected

    def test_directed(self):
        from repro.baselines.bruteforce import bruteforce_directed_count
        from repro.core.directed import DirectedMatcher
        from repro.graph.digraph import random_digraph
        from repro.pattern.directed import transitive_triangle

        dig = random_digraph(45, 0.12, seed=11)
        pattern = transitive_triangle()
        expected = bruteforce_directed_count(dig, pattern)
        assert DirectedMatcher(pattern).count(dig, backend="distributed") == expected

    def test_labeled(self):
        from repro.core.labeled import LabeledMatcher, labeled_bruteforce_count
        from repro.graph.generators import erdos_renyi
        from repro.graph.labeled import assign_random_labels
        from repro.pattern.labeled import LabeledPattern

        g = erdos_renyi(35, 0.25, seed=5)
        lg = assign_random_labels(g, 2, seed=7)
        lp = LabeledPattern(triangle(), (0, 0, 1))
        expected = labeled_bruteforce_count(lg, lp)
        assert LabeledMatcher(lp).count(lg, backend="distributed") == expected


# ---------------------------------------------------------------------------
# capability honesty and session fallbacks (regression)
# ---------------------------------------------------------------------------
class TestCapabilityFallbacks:
    def test_enumeration_raises_naming_the_backend(self, er_small):
        """An unsupported request must say *which* backend refused."""
        ctx = plan_ctx(er_small, house())
        for name in ("distributed", "compiled"):
            with pytest.raises(BackendUnsupportedError, match=name):
                get_backend(name).enumerate_embeddings(ctx)

    def test_unsupported_mode_raises_naming_the_backend(self, er_small):
        # The compiled backend serves directed DirectedPlans now; a
        # directed context carrying an undirected ExecutionPlan is the
        # remaining mismatch it must refuse by name.
        from repro.core.backend import MatchContext

        plain = plan_ctx(er_small, triangle())
        directed = MatchContext(graph=er_small, plan=plain.plan, mode="directed")
        with pytest.raises(BackendUnsupportedError, match="compiled"):
            get_backend("compiled").count(directed)

    def test_session_enumerate_falls_back_per_capabilities(self, er_small):
        """`enumerate` on counting-only backends degrades, never crashes."""
        session = MatchSession(er_small)
        reference = {
            tuple(e)
            for e in session.enumerate(MatchQuery(house()), backend="interpreter")
        }
        for name in ("distributed", "compiled", "parallel"):
            got = {
                tuple(e)
                for e in session.enumerate(MatchQuery(house()), backend=name)
            }
            assert got == reference, name

    def test_session_count_falls_back_when_plan_unsupported(self, er_small):
        """A 1-loop IEP plan has nothing to distribute: capability-driven
        fallback to the interpreter, not a crash."""
        session = MatchSession(er_small)
        query = MatchQuery(get_pattern("star-3"), use_iep=True)
        assert session.plan_for(query).plan.n_loops == 1
        result = session.count(query, backend="distributed")
        assert result.backend == "interpreter"
        assert result.distributed_report is None
        assert result.count == session.count(query, backend="interpreter").count

    def test_capability_aware_iep_resolution(self):
        """Every inner executor runs IEP plans, so every channel keeps
        the IEP suffix."""
        assert DistributedBackend.capabilities.iep is True
        assert MatchQuery(house(), backend="distributed").resolved_use_iep is True
        for inner in ("vectorised", "compiled", "interpreter"):
            backend = DistributedBackend(inner=inner)
            assert backend.capabilities.iep is True
            assert MatchQuery(house(), backend=backend).resolved_use_iep is True

    def test_session_iep_plan_divides_once(self, er_small):
        """backend="distributed" on an IEP plan whose overcount is not 1:
        the vectorised tasks return raw sums, the master divides once."""
        diamond = Pattern(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], name="diamond")
        session = MatchSession(er_small)
        query = MatchQuery(diamond)
        plan = session.plan_for(query).plan
        assert plan.iep_k > 0 and plan.n_loops >= 2 and plan.iep_overcount > 1
        result = session.count(query, backend="distributed")
        assert result.backend == "distributed"
        assert result.distributed_report.inner_backend == "vectorised"
        expected = session.count(query, backend="interpreter").count
        assert expected > 0
        assert result.count == expected == bruteforce_count(er_small, diamond)

    def test_preference_channels_attach_report(self, er_small):
        expected = bruteforce_count(er_small, triangle())
        # call-level channel
        result = get_session(er_small).count(
            MatchQuery(triangle()), backend="distributed"
        )
        assert result.backend == "distributed"
        assert result.count == expected
        assert result.distributed_report is not None
        assert result.distributed_report.node_counts == DEFAULT_NODE_COUNTS
        # query channel (one-shot seam)
        result = match_query(er_small, MatchQuery(triangle(), backend="distributed"))
        assert result.distributed_report is not None
        # session-default channel
        session = MatchSession(er_small, backend="distributed")
        result = session.count(MatchQuery(triangle()))
        assert result.backend == "distributed"
        assert result.distributed_report is not None
        # other backends stay report-free
        plain = get_session(er_small).count(MatchQuery(triangle()), backend="compiled")
        assert plain.distributed_report is None

    def test_constructor_validation(self, er_small):
        ctx = plan_ctx(er_small, triangle())
        with pytest.raises(ValueError, match="node_counts"):
            distributed_count_ctx(ctx, node_counts=())
        with pytest.raises(ValueError, match="n_tasks"):
            distributed_count_ctx(ctx, n_tasks=0)
        with pytest.raises(ValueError, match="vectorized"):
            DistributedBackend(inner="vectorized")  # typo must not demote silently
        with pytest.raises(ValueError, match="parallel"):
            # registered, but has no per-task entry point: demoting it
            # silently would skew the measured cost profile
            DistributedBackend(inner="parallel")
        with pytest.raises(ValueError, match="n_tasks"):
            DistributedBackend(n_tasks=0)  # fails at construction, not mid-count
        with pytest.raises(ValueError, match="node_counts"):
            DistributedBackend(node_counts=())
        with pytest.raises(ValueError, match="node_counts"):
            DistributedBackend(node_counts=(4, 0))
