"""Code generation: the emitted source and its semantic equivalence."""

import pytest

from repro.core.codegen import compile_plan_function, generate_source
from repro.core.config import Configuration, compile_plan
from repro.core.engine import Engine
from repro.core.restrictions import generate_restriction_sets
from repro.core.schedule import generate_schedules
from repro.graph.generators import complete_graph, erdos_renyi
from repro.pattern.catalog import cycle_6_tri, house, pentagon, rectangle, triangle


def plans_for(pattern, max_schedules=3, max_sets=2, iep_k=0):
    out = []
    for s in generate_schedules(pattern, dedup_automorphic=True)[:max_schedules]:
        for rs in generate_restriction_sets(pattern)[:max_sets]:
            cfg = Configuration(pattern, s, rs)
            if iep_k:
                from repro.core.schedule import intersection_free_suffix_length

                k = min(iep_k, intersection_free_suffix_length(pattern, s))
                if k == 0:
                    continue
                try:
                    out.append(cfg.compile(iep_k=k))
                except ValueError:
                    continue
            else:
                out.append(cfg.compile())
    return out


class TestSource:
    def test_house_source_shape(self):
        """The generated code mirrors Fig. 5(b): nested loops, an
        intersection for the D loop, a bound check for the restriction."""
        cfg = Configuration(house(), (0, 1, 2, 3, 4), frozenset({(0, 1)}))
        src = generate_source(cfg.compile())
        assert "def generated_count(graph):" in src
        assert "for v0 in all_vertices.tolist():" in src
        assert "bounded_slice(nb0, None, v0)" in src  # id(A)>id(B) break
        assert "intersect_many([nb1, nb2])" in src  # N(vB) ∩ N(vC) for D
        assert src.count("for v") == 4  # last loop is counted, not iterated

    def test_iep_source_shape(self):
        rs = generate_restriction_sets(cycle_6_tri())[0]
        cfg = Configuration(cycle_6_tri(), (0, 1, 2, 3, 4, 5), rs)
        src = generate_source(cfg.compile(iep_k=3))
        assert "# IEP over 3 inner vertices" in src
        assert "B0" in src and "B1" in src

    def test_source_compiles_and_is_idempotent(self):
        cfg = Configuration(triangle(), (0, 1, 2), frozenset({(0, 1), (1, 2)}))
        a = generate_source(cfg.compile())
        b = generate_source(cfg.compile())
        assert a == b
        compile(a, "<test>", "exec")

    def test_docstring_carries_configuration(self):
        cfg = Configuration(triangle(), (0, 1, 2), frozenset({(0, 1)}))
        src = generate_source(cfg.compile())
        assert "id(0)>id(1)" in src


class TestEquivalence:
    @pytest.mark.parametrize(
        "pattern",
        [triangle(), rectangle(), house(), pentagon()],
        ids=lambda p: p.name,
    )
    def test_matches_engine_no_iep(self, pattern, er_small):
        for plan in plans_for(pattern):
            gen = compile_plan_function(plan)
            assert gen(er_small) == Engine(er_small, plan).count(), plan.config.describe()

    @pytest.mark.parametrize(
        "pattern",
        [house(), cycle_6_tri()],
        ids=lambda p: p.name,
    )
    def test_matches_engine_iep(self, pattern):
        g = erdos_renyi(35, 0.3, seed=31)
        for plan in plans_for(pattern, iep_k=3):
            gen = compile_plan_function(plan)
            assert gen(g) == Engine(g, plan).count(), plan.config.describe()

    def test_small_graph_guard(self):
        plan = plans_for(pentagon(), max_schedules=1, max_sets=1)[0]
        gen = compile_plan_function(plan)
        assert gen(complete_graph(3)) == 0

    def test_counter_is_callable_wrapper(self, er_small):
        plan = plans_for(triangle(), 1, 1)[0]
        gen = compile_plan_function(plan)
        assert gen(er_small) == gen.function(er_small)
        assert gen.plan is plan
        assert "def generated_count" in gen.source


class TestGeneratedPerformanceShape:
    def test_codegen_not_slower_than_engine(self, er_medium):
        """The whole point of generation: strip interpretation overhead.
        We assert 'not meaningfully slower' rather than a speedup factor
        to stay robust on loaded CI machines."""
        import time

        plan = plans_for(house(), 1, 1)[0]
        gen = compile_plan_function(plan)
        engine = Engine(er_medium, plan)

        t0 = time.perf_counter()
        a = engine.count()
        t_engine = time.perf_counter() - t0
        t0 = time.perf_counter()
        b = gen(er_medium)
        t_gen = time.perf_counter() - t0
        assert a == b
        assert t_gen <= t_engine * 1.5


class TestModeKernels:
    """The labeled and induced kernels: the one generator reading the
    plan's label and anti columns."""

    def test_induced_source_uses_difference(self):
        from repro.core.codegen import compile_induced_function

        plan = compile_plan(plans_for(rectangle(), 1, 1)[0].config, induced=True)
        gen = compile_induced_function(plan)
        assert gen.mode == "induced"
        assert "difference(" in gen.source
        assert "Vertex-induced kernel" in gen.source

    def test_labeled_source_filters_by_label(self):
        from repro.core.codegen import compile_labeled_function

        plan = compile_plan(plans_for(triangle(), 1, 1)[0].config, labels=(0, 0, 1))
        gen = compile_labeled_function(plan)
        assert gen.mode == "labeled"
        assert "labels = graph.labels" in gen.source
        assert "labels[" in gen.source

    def test_plain_counter_mode_defaults_plain(self):
        plan = plans_for(triangle(), 1, 1)[0]
        assert compile_plan_function(plan).mode == "plain"

    @pytest.mark.parametrize(
        "pattern", [rectangle(), house()], ids=lambda p: p.name
    )
    def test_induced_kernel_matches_interpreter(self, pattern):
        from repro.baselines.bruteforce import bruteforce_induced_count
        from repro.core.codegen import compile_induced_function

        g = erdos_renyi(35, 0.25, seed=23)
        expected = bruteforce_induced_count(g, pattern)
        for plan in plans_for(pattern, max_schedules=2, max_sets=2):
            gen = compile_induced_function(compile_plan(plan.config, induced=True))
            assert gen(g) == expected, plan.config.describe()

    @pytest.mark.parametrize(
        "pattern", [triangle(), house()], ids=lambda p: p.name
    )
    def test_labeled_kernel_matches_bruteforce(self, pattern):
        from repro.core.codegen import compile_labeled_function
        from repro.core.labeled import labeled_bruteforce_count
        from repro.graph.labeled import assign_random_labels
        from repro.pattern.labeled import LabeledPattern

        g = erdos_renyi(35, 0.25, seed=29)
        lg = assign_random_labels(g, 2, seed=7)
        lp = LabeledPattern(pattern, tuple(i % 2 for i in range(pattern.n_vertices)))
        expected = labeled_bruteforce_count(lg, lp)
        # restrictions must break only the label-preserving automorphisms,
        # so the plan comes from the labeled planner (as in the session)
        from repro.core.labeled import LabeledMatcher

        plan = LabeledMatcher(lp).plan(lg, use_iep=False).plan
        gen = compile_labeled_function(plan)
        assert gen(lg) == expected, plan.config.describe()

    def test_variants_reject_iep_plans(self):
        from repro.core.codegen import compile_labeled_function

        config = plans_for(house(), 1, 1, iep_k=2)[0].config
        # an induced plan cannot carry an IEP suffix at all
        with pytest.raises(ValueError, match="iep_k=0"):
            compile_plan(config, iep_k=1, induced=True)
        labeled = compile_plan(config, iep_k=1, labels=(0, 1, 0, 1, 0))
        with pytest.raises(ValueError, match="IEP-free"):
            compile_labeled_function(labeled)

    def test_labeled_induced_combination_rejected(self):
        config = plans_for(triangle(), 1, 1)[0].config
        with pytest.raises(ValueError, match="not supported"):
            compile_plan(config, labels=(0, 0, 1), induced=True)
