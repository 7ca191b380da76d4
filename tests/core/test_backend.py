"""The pluggable execution-backend layer.

Two halves: registry mechanics (registration, lookup, the default
selection order and the counted fallbacks) and the cross-backend equivalence
catalog — every registered backend must return counts identical to the
brute-force oracle for every pattern in the catalog, on plain,
induced, labeled and directed workloads where the backend supports
them.
"""

import pytest

from repro.baselines.bruteforce import (
    bruteforce_count,
    bruteforce_directed_count,
    bruteforce_induced_count,
)
from repro.core.api import count_pattern, match_pattern
from repro.core.backend import (
    DEFAULT_ORDER,
    BackendUnsupportedError,
    ExecutionBackend,
    MatchContext,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    select_backend,
)
from repro.core.config import Configuration, compile_plan
from repro.core.directed import DirectedMatcher
from repro.core.induced import induced_count
from repro.core.labeled import LabeledMatcher, labeled_bruteforce_count
from repro.core.restrictions import generate_restriction_sets
from repro.core.schedule import generate_schedules
from repro.graph.digraph import random_digraph
from repro.graph.generators import erdos_renyi
from repro.graph.labeled import assign_random_labels
from repro.obs import metrics as obs_metrics
from repro.pattern.catalog import clique, house, pentagon, rectangle, triangle
from repro.pattern.directed import directed_cycle, directed_path, transitive_triangle
from repro.pattern.labeled import LabeledPattern

BUILTIN = ("interpreter", "compiled", "parallel", "vectorised")

#: the equivalence catalog: every backend must agree with brute force
#: on each of these.
CATALOG = [triangle(), rectangle(), house(), pentagon(), clique(5)]


def make_plan(pattern, iep_k=0, **facts):
    s = generate_schedules(pattern)[0]
    rs = generate_restriction_sets(pattern)[0]
    return compile_plan(Configuration(pattern, s, rs), iep_k=iep_k, **facts)


class TestRegistry:
    def test_builtins_registered(self):
        names = backend_names()
        for name in BUILTIN:
            assert name in names

    def test_available_backends_is_a_copy(self):
        snapshot = available_backends()
        snapshot["bogus"] = object
        assert "bogus" not in backend_names()

    def test_available_backends_report_capabilities(self):
        infos = available_backends()
        for name, info in infos.items():
            assert info.name == name
            assert info.capabilities.modes  # every backend covers something
        assert infos["interpreter"].capabilities.supports_mode("labeled")
        assert infos["compiled"].capabilities.supports_mode("directed")
        assert infos["vectorised"].capabilities.supports_mode("directed")
        assert infos["compiled"].capabilities.generated_kernels
        assert infos["vectorised"].capabilities.supports_iep("plain")  # bulk IEP
        assert not infos["compiled"].capabilities.supports_iep("directed")

    @pytest.mark.parametrize("name", ["no-such-backend", "auto"])
    def test_get_backend_unknown_name(self, name):
        # "auto" included: the planner's default is the only selector.
        with pytest.raises(ValueError, match="unknown backend .*'vectorised'"):
            get_backend(name)

    def test_get_backend_forwards_options(self):
        assert get_backend("parallel", n_workers=3).n_workers == 3

    @pytest.mark.parametrize("n_workers", [0, -1])
    def test_parallel_rejects_non_positive_workers(self, n_workers):
        # Checked at construction, so no pool is ever started.
        with pytest.raises(ValueError, match="n_workers must be >= 1"):
            get_backend("parallel", n_workers=n_workers)

    def test_register_custom_backend(self, er_small):
        @register_backend
        class FortyTwoBackend(ExecutionBackend):
            name = "forty-two"

            def supports(self, ctx):
                return ctx.mode == "plain"

            def count(self, ctx):
                return 42

        from repro.core import backend as backend_mod

        try:
            assert "forty-two" in backend_names()
            assert count_pattern(er_small, triangle(), backend="forty-two") == 42
        finally:
            # deregister so other tests see only the real backends
            backend_mod._REGISTRY.pop("forty-two", None)

    def test_register_requires_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_backend(type("Anon", (ExecutionBackend,), {}))

    def test_context_validates_mode(self, er_small):
        with pytest.raises(ValueError, match="unknown mode"):
            MatchContext(graph=er_small, plan=make_plan(triangle()), mode="quantum")

    def test_labeled_context_needs_labeled_plan(self, er_small):
        lg = assign_random_labels(er_small, 2, seed=7)
        with pytest.raises(ValueError, match="plan lowered for labeled"):
            MatchContext(graph=lg, plan=make_plan(triangle()), mode="labeled")

    @pytest.mark.parametrize("name", backend_names())
    @pytest.mark.parametrize(
        "case", ["digraph-plain", "graph-directed", "graph-labeled"]
    )
    def test_graph_kind_must_match_mode(self, er_small, name, case):
        # Executed, a mismatched context miscounts or fails differently
        # per backend (a plain triangle plan reads only a digraph's
        # out-rows: 68 triangles where the undirected view has 372), so
        # the context refuses it up front, naming the graph kind and
        # the mode.
        dg = random_digraph(40, 0.2, seed=1)
        graph, plan, mode, kind = {
            "digraph-plain": (dg, make_plan(triangle()), "plain", "DiGraph"),
            "graph-directed": (
                er_small,
                DirectedMatcher(transitive_triangle()).plan(dg).plan,
                "directed",
                "Graph",
            ),
            "graph-labeled": (
                er_small, make_plan(triangle(), labels=(0, 0, 1)), "labeled", "Graph"
            ),
        }[case]
        backend = get_backend(name)
        with pytest.raises(TypeError) as err:
            backend.count(MatchContext(graph=graph, plan=plan, mode=mode))
        message = str(err.value)
        assert f"a {mode} context cannot run on a {kind}:" in message

    def test_context_rejects_garbage_plan(self, er_small):
        with pytest.raises(ValueError, match="plan lowered for plain"):
            MatchContext(graph=er_small, plan=42)


class TestSelection:
    def test_default_is_vectorised_for_plain_counts(self, er_small):
        # With and without an IEP suffix: the frontier engine counts
        # both, so no preference lands on it first.
        for iep_k in (0, 1):
            ctx = MatchContext(graph=er_small, plan=make_plan(house(), iep_k=iep_k))
            assert select_backend(ctx, None).name == "vectorised"
            assert get_backend("vectorised").count(ctx) == get_backend(
                "interpreter"
            ).count(ctx)

    def test_default_order_falls_through_to_compiled(self, er_small):
        # A disconnected-prefix schedule has no pivot for the frontier
        # engine; the generated kernel is next in the default order.
        plan = Configuration(rectangle(), (0, 2, 1, 3), frozenset()).compile()
        ctx = MatchContext(graph=er_small, plan=plan)
        assert not get_backend("vectorised").supports(ctx)
        assert select_backend(ctx, None).name == "compiled"
        assert DEFAULT_ORDER == ("vectorised", "compiled", "interpreter")

    def test_default_enumeration_is_vectorised(self, er_small):
        ctx = MatchContext(graph=er_small, plan=make_plan(house()))
        assert select_backend(ctx, None, for_enumeration=True).name == "vectorised"

    def test_fallbacks_are_counted(self, er_small):
        registry = obs_metrics.REGISTRY
        sample = (
            'repro_backend_fallbacks_total{requested="compiled",ran="interpreter"}'
        )
        ctx = MatchContext(graph=er_small, plan=make_plan(house()))
        before = registry.snapshot()
        assert select_backend(ctx, "compiled", for_enumeration=True).name == "interpreter"
        assert registry.delta(before) == {sample: 1.0}
        # honoured preferences and the no-preference walk count nothing
        before = registry.snapshot()
        select_backend(ctx, "compiled")
        select_backend(ctx, None)
        select_backend(ctx, None, for_enumeration=True)
        assert not any(
            name.startswith("repro_backend_fallbacks_total")
            for name in registry.delta(before)
        )

    def test_enumeration_falls_back_to_interpreter(self, er_small):
        ctx = MatchContext(graph=er_small, plan=make_plan(house()))
        chosen = select_backend(ctx, "compiled", for_enumeration=True)
        assert chosen.name == "interpreter"

    def test_directed_stays_on_compiled(self, er_small):
        # Directed kernels are first-class now: an IEP-free directed plan
        # runs on the compiled backend, no interpreter fallback.
        dg = random_digraph(20, 0.2, seed=1)
        plan = DirectedMatcher(transitive_triangle()).plan(dg).plan
        ctx = MatchContext(graph=dg, plan=plan, mode="directed")
        assert select_backend(ctx, "compiled").name == "compiled"

    def test_directed_iep_plan_falls_back(self, er_small):
        # The directed kernels are innermost-count variants; an
        # IEP-suffix directed plan must drop to the interpreter.
        dg = random_digraph(20, 0.2, seed=1)
        plan = DirectedMatcher(directed_path(4)).plan(dg, use_iep=True).plan
        if plan.iep_k == 0:
            pytest.skip("planner chose an IEP-free plan for this workload")
        ctx = MatchContext(graph=dg, plan=plan, mode="directed")
        assert select_backend(ctx, "compiled").name == "interpreter"

    def test_induced_and_labeled_stay_on_compiled(self, er_small):
        # The anti-edge and label-filter kernels serve these modes now:
        # no interpreter fallback for IEP-free plans.
        ctx = MatchContext(
            graph=er_small, plan=make_plan(house(), induced=True), mode="induced"
        )
        assert select_backend(ctx, "compiled").name == "compiled"
        lg = assign_random_labels(er_small, 2, seed=7)
        lctx = MatchContext(
            graph=lg, plan=make_plan(triangle(), labels=(0, 0, 1)), mode="labeled"
        )
        assert select_backend(lctx, "compiled").name == "compiled"

    def test_explicit_instance_is_honoured(self, er_small):
        ctx = MatchContext(graph=er_small, plan=make_plan(house()))
        inst = get_backend("interpreter")
        assert select_backend(ctx, inst) is inst

    def test_counting_only_backend_refuses_enumeration(self, er_small):
        ctx = MatchContext(graph=er_small, plan=make_plan(triangle()))
        with pytest.raises(BackendUnsupportedError):
            get_backend("compiled").enumerate_embeddings(ctx)

    def test_require_raises_for_wrong_mode(self, er_small):
        # A directed context must carry a plan lowered with the pattern's
        # arcs; an undirected plan mislabeled as directed is refused, not
        # executed.
        with pytest.raises(ValueError, match="plan lowered for directed"):
            MatchContext(graph=er_small, plan=make_plan(triangle()), mode="directed")

    def test_require_raises_for_induced_iep_plan(self, er_small):
        # IEP arithmetic assumes edge semantics: an induced plan with an
        # IEP suffix is refused when it is lowered, not silently
        # miscounted by any backend.
        with pytest.raises(ValueError, match="iep_k=0"):
            make_plan(house(), iep_k=2, induced=True)


class TestCrossBackendEquivalence:
    """Acceptance criterion: identical counts across every backend."""

    @pytest.mark.parametrize("backend", BUILTIN)
    def test_plain_catalog_matches_bruteforce(self, er_small, backend):
        spec = (
            get_backend("parallel", n_workers=2) if backend == "parallel" else backend
        )
        for pattern in CATALOG:
            expected = bruteforce_count(er_small, pattern)
            got = count_pattern(er_small, pattern, backend=spec)
            assert got == expected, (backend, pattern.name)

    @pytest.mark.parametrize("backend", BUILTIN)
    def test_plain_catalog_without_iep(self, er_small, backend):
        for pattern in [triangle(), house()]:
            expected = bruteforce_count(er_small, pattern)
            assert (
                count_pattern(er_small, pattern, use_iep=False, backend=backend)
                == expected
            ), (backend, pattern.name)

    @pytest.mark.parametrize("backend", ["interpreter", "parallel"])
    def test_induced(self, er_small, backend):
        for pattern in [house(), rectangle()]:
            expected = bruteforce_induced_count(er_small, pattern)
            assert induced_count(er_small, pattern, backend=backend) == expected

    @pytest.mark.parametrize("backend", ["interpreter", "parallel"])
    def test_directed(self, backend):
        dig = random_digraph(45, 0.12, seed=11)
        for dp in [directed_cycle(3), transitive_triangle()]:
            expected = bruteforce_directed_count(dig, dp)
            got = DirectedMatcher(dp).count(dig, backend=backend)
            assert got == expected, dp

    def test_match_directed_oneshot_accepts_backend(self):
        from repro.core.directed import match_directed

        dig = random_digraph(25, 0.15, seed=3)
        dp = transitive_triangle()
        embs = list(match_directed(dig, dp, limit=5, backend="interpreter"))
        assert all(len(e) == 3 for e in embs)

    @pytest.mark.parametrize("backend", ["interpreter", "parallel"])
    def test_labeled(self, backend):
        g = erdos_renyi(35, 0.25, seed=5)
        lg = assign_random_labels(g, 2, seed=7)
        lp = LabeledPattern(triangle(), (0, 0, 1))
        expected = labeled_bruteforce_count(lg, lp)
        got = LabeledMatcher(lp).count(lg, backend=backend)
        assert got == expected

    def test_match_results_identical_across_enumerating_backends(self, er_small):
        pattern = house()
        def embeddings(backend):
            return {frozenset(e) for e in match_pattern(er_small, pattern, backend=backend)}

        # compiled cannot enumerate -> automatic interpreter fallback
        assert (
            embeddings("interpreter")
            == embeddings("vectorised")
            == embeddings("compiled")
        )

    def test_use_codegen_false_defaults_to_interpreter(self, er_small):
        got = count_pattern(er_small, triangle(), use_codegen=False)
        assert got == bruteforce_count(er_small, triangle())


class TestRootTaskExecutors:
    """``parallel`` and ``distributed`` share one root partition and one
    task counter, whose executor the plan chooses."""

    @staticmethod
    def contexts():
        g = erdos_renyi(30, 0.3, seed=4)
        lg = assign_random_labels(g, 2, seed=7)
        dg = random_digraph(25, 0.2, seed=1)
        labeled_iep = LabeledMatcher(LabeledPattern(house(), (0, 0, 1, 1, 0)))
        labeled_iep = labeled_iep.plan(lg, use_iep=True).plan
        assert labeled_iep.iep_k > 0
        return [
            (MatchContext(graph=g, plan=make_plan(house())), "vectorised"),
            (MatchContext(graph=g, plan=make_plan(house(), iep_k=2)), "vectorised"),
            (
                MatchContext(
                    graph=g, plan=make_plan(house(), induced=True), mode="induced"
                ),
                "vectorised",
            ),
            (
                MatchContext(
                    graph=lg,
                    plan=make_plan(triangle(), labels=(0, 0, 1)),
                    mode="labeled",
                ),
                "vectorised",
            ),
            (
                MatchContext(
                    graph=dg,
                    plan=DirectedMatcher(transitive_triangle()).plan(dg).plan,
                    mode="directed",
                ),
                "vectorised",
            ),
            # the frontier engine serves neither of these: the
            # interpreter counts the tasks
            (MatchContext(graph=lg, plan=labeled_iep, mode="labeled"), "interpreter"),
            (
                MatchContext(
                    graph=g,
                    plan=Configuration(rectangle(), (0, 2, 1, 3), frozenset()).compile(),
                ),
                "interpreter",
            ),
        ]

    def test_parallel_and_distributed_equal_the_interpreter(self):
        from repro.runtime.distributed import distributed_count_ctx
        from repro.runtime.parallel import parallel_count_ctx

        for ctx, executor in self.contexts():
            expected = get_backend("interpreter").count(ctx)
            assert expected > 0, ctx.plan.config.describe()
            for n_workers in (1, 2):
                res = parallel_count_ctx(ctx, n_workers=n_workers)
                assert (res.count, res.executor) == (expected, executor), (
                    ctx.mode, n_workers
                )
                assert res.n_workers == n_workers
                assert 1 < res.n_tasks <= 8 * n_workers
            report = distributed_count_ctx(ctx, simulate=False)
            assert (report.count, report.inner_backend) == (expected, executor)
