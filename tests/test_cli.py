"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_count_defaults(self):
        args = build_parser().parse_args(["count"])
        assert args.pattern == "house"
        assert args.dataset == "wiki-vote"
        assert not args.no_iep


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "wiki-vote" in out and "twitter" in out

    def test_patterns(self, capsys):
        assert main(["patterns"]) == 0
        out = capsys.readouterr().out
        assert "house" in out and "P6" in out

    def test_count_small(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "count:" in out and "config:" in out

    def test_count_matches_api(self, capsys):
        main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
              "--scale", "0.05", "--seed", "3"])
        out = capsys.readouterr().out
        shown = int(out.split("count:")[1].split()[0])

        from repro import count_pattern, get_pattern, load_dataset

        graph = load_dataset("wiki-vote", scale=0.05, seed=3)
        assert shown == count_pattern(graph, get_pattern("triangle"))

    def test_plan(self, capsys):
        rc = main(["plan", "--pattern", "rectangle", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--show-code"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "restriction sets" in out
        assert "generated_count" in out

    @pytest.mark.parametrize("no_iep", [False, True], ids=["iep", "no-iep"])
    @pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4"])
    def test_plan_prints_plan_plain_choice(self, capsys, name, no_iep):
        """`repro plan` shows the configuration and kernel plan_plain
        picks on the same graph statistics."""
        from repro import get_pattern, load_dataset
        from repro.core.session import plan_plain
        from repro.graph.stats import GraphStats

        flags = ["--no-iep"] if no_iep else []
        rc = main(["plan", "--pattern", name, "--dataset", "wiki-vote",
                   "--scale", "0.05", "--seed", "3", "--show-code", *flags])
        assert rc == 0
        out = capsys.readouterr().out
        graph = load_dataset("wiki-vote", scale=0.05, seed=3)
        ref = plan_plain(get_pattern(name), GraphStats.of(graph), use_iep=not no_iep)
        chosen = ref.chosen
        assert (f"chose {chosen.config.describe()} "
                f"(predicted cost {chosen.predicted_cost:.3g})") in out
        assert "\ngenerated code:\n\n" + ref.generated.source in out
        # --no-iep drops IEP; otherwise P1, P3 and P4 count a suffix of
        # two or more vertices by IEP, and P2's one-vertex suffix is its
        # innermost loop
        if no_iep or name == "P2":
            assert ref.plan.iep_k == 0
        else:
            assert ref.plan.iep_k >= 2
        assert ("IEP over" in out) == (ref.plan.iep_k > 0)

    def test_motifs(self, capsys):
        rc = main(["motifs", "--k", "3", "--dataset", "wiki-vote",
                   "--scale", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "motif3.0" in out and "motif3.1" in out

    def test_edge_list_input(self, tmp_path, capsys):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n0 2\n2 3\n")
        rc = main(["count", "--pattern", "triangle", "--edge-list", str(f)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "count:   1" in out


class TestNewFlags:
    def test_count_induced(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--seed", "3", "--induced"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vertex-induced" in out and "count:" in out

    def test_count_induced_matches_api(self, capsys):
        from repro.core.induced import induced_count
        from repro.graph.datasets import load_dataset
        from repro.pattern.catalog import triangle

        main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
              "--scale", "0.05", "--seed", "3", "--induced"])
        out = capsys.readouterr().out
        shown = int(out.split("count:")[1].split()[0])
        g = load_dataset("wiki-vote", scale=0.05, seed=3)
        assert shown == induced_count(g, triangle(), method="engine")

    def test_count_approx(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--seed", "3", "--approx", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "estimate:" in out and "hits" in out

    def test_motifs_induced(self, capsys):
        rc = main(["motifs", "--k", "3", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--seed", "3", "--induced"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vertex-induced" in out


class TestModeFlags:
    ARGS = ["--dataset", "wiki-vote", "--scale", "0.05", "--seed", "3"]

    def test_semantics_induced_spelling(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--semantics", "induced",
                   *self.ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "vertex-induced" in out and "count:" in out

    def test_mode_labeled_matches_api(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--mode", "labeled",
                   "--labels", "2", *self.ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        shown = int(out.split("count:")[1].split()[0])

        from repro.core.labeled import labeled_count
        from repro.graph.datasets import load_dataset
        from repro.graph.labeled import assign_random_labels
        from repro.pattern.catalog import triangle
        from repro.pattern.labeled import LabeledPattern

        g = load_dataset("wiki-vote", scale=0.05, seed=3)
        lg = assign_random_labels(g, 2, seed=3)
        lp = LabeledPattern(triangle(), (0, 1, 0))
        assert shown == labeled_count(lg, lp)

    def test_mode_directed_matches_api(self, capsys):
        rc = main(["count", "--pattern", "ffl", "--mode", "directed", *self.ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        shown = int(out.split("count:")[1].split()[0])

        from repro.core.directed import count_directed
        from repro.graph.datasets import load_dataset
        from repro.graph.digraph import digraph_from_edges
        from repro.pattern.directed import feedforward_loop

        g = load_dataset("wiki-vote", scale=0.05, seed=3)
        dig = digraph_from_edges(list(g.edges()), n_vertices=g.n_vertices)
        assert shown == count_directed(dig, feedforward_loop())

    def test_mode_directed_parametric_pattern(self, capsys):
        rc = main(["count", "--pattern", "dcycle-3", "--mode", "directed",
                   *self.ARGS])
        assert rc == 0
        assert "count:" in capsys.readouterr().out

    def test_directed_rejects_undirected_pattern_name(self, capsys):
        rc = main(["count", "--pattern", "house", "--mode", "directed",
                   *self.ARGS])
        assert rc == 2
        assert "unknown directed pattern" in capsys.readouterr().err

    def test_directed_batch_matches_api(self, capsys):
        rc = main(["count", "--pattern", "ffl,transitive-triangle,dcycle-3",
                   "--mode", "directed", *self.ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "batch:" in out and "backend=reduction" in out

        from repro.core.directed import count_directed
        from repro.graph.datasets import load_dataset
        from repro.graph.digraph import digraph_from_edges
        from repro.pattern.directed import get_directed_pattern

        g = load_dataset("wiki-vote", scale=0.05, seed=3)
        dig = digraph_from_edges(list(g.edges()), n_vertices=g.n_vertices)
        for name in ("ffl", "transitive-triangle", "dcycle-3"):
            line = next(ln for ln in out.splitlines() if name + " " in ln)
            shown = int(line.split("count=")[1].split()[0])
            assert shown == count_directed(dig, get_directed_pattern(name))

    def test_directed_batch_rejects_bad_member(self, capsys):
        rc = main(["count", "--pattern", "ffl,house", "--mode", "directed",
                   *self.ARGS])
        assert rc == 2
        assert "unknown directed pattern" in capsys.readouterr().err

    def test_labeled_rejects_nonpositive_labels(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--mode", "labeled",
                   "--labels", "0", *self.ARGS])
        assert rc == 2
        assert "--labels" in capsys.readouterr().err

    def test_induced_semantics_rejected_for_directed(self, capsys):
        rc = main(["count", "--pattern", "ffl", "--mode", "directed",
                   "--semantics", "induced", *self.ARGS])
        assert rc == 2

    def test_approx_rejects_induced_semantics(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--semantics", "induced",
                   "--approx", "50", *self.ARGS])
        assert rc == 2

    def test_motifs_reports_plan_cache(self, capsys):
        rc = main(["motifs", "--k", "3", *self.ARGS])
        assert rc == 0
        assert "plan cache:" in capsys.readouterr().out


class TestBackendFlags:
    def test_backends_command(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("interpreter", "compiled", "parallel", "vectorised",
                     "distributed"):
            assert name in out
        # the full capability rows, including kernel consumption
        for column in ("modes", "iep", "enumerates", "kernels"):
            assert column in out

    def test_count_distributed_prints_scaling_table(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--seed", "3", "--backend", "distributed",
                   "--nodes", "1,2,4", "--tasks", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend: distributed" in out
        assert "simulated scaling" in out
        assert "speedup" in out
        assert "16 tasks" in out

    def test_count_distributed_rejects_bad_nodes(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--backend", "distributed",
                   "--nodes", "zero"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_count_distributed_rejects_bad_tasks(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--backend", "distributed",
                   "--tasks", "0"])
        assert rc == 2
        assert "n_tasks" in capsys.readouterr().err

    def test_distributed_flags_require_distributed_backend(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--backend", "vectorised",
                   "--nodes", "1,4"])
        assert rc == 2
        assert "--backend distributed" in capsys.readouterr().err

    def test_motifs_distributed_counts_without_scaling_report(self, capsys):
        rc = main(["motifs", "--k", "3", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--backend", "distributed"])
        assert rc == 0
        assert "motif" in capsys.readouterr().out
        # --nodes configures a report the census never prints: reject it
        rc = main(["motifs", "--k", "3", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--backend", "distributed",
                   "--nodes", "1,4"])
        assert rc == 2
        assert "count --backend distributed" in capsys.readouterr().err

    def test_auto_is_not_a_backend(self, capsys):
        """The planner's default is the only selector: ``--backend auto``
        is refused like any unknown name, with the valid ones listed."""
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                  "--scale", "0.05", "--backend", "auto"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'auto'" in err and "vectorised" in err

    def test_workers_require_parallel_backend(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--backend", "compiled",
                   "--workers", "4"])
        assert rc == 2
        assert "--backend parallel" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_parallel_rejects_non_positive_workers(self, capsys, workers):
        # refused when the backend is built, before any pool starts
        rc = main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--backend", "parallel",
                   "--workers", workers])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: --workers must be >= 1")

    def test_approx_refuses_explicit_backend(self, capsys):
        for backend_args in (["--backend", "distributed", "--nodes", "1,4"],
                             ["--backend", "vectorised"]):
            rc = main(["count", "--pattern", "triangle", "--dataset",
                       "wiki-vote", "--scale", "0.05", "--approx", "50",
                       *backend_args])
            assert rc == 2
            assert "sampling estimator" in capsys.readouterr().err

    def test_count_backend_flag_matches_default(self, capsys):
        args = ["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                "--scale", "0.05", "--seed", "3"]
        main(args)
        base = int(capsys.readouterr().out.split("count:")[1].split()[0])
        for backend in ("interpreter", "compiled"):
            main(args + ["--backend", backend])
            out = capsys.readouterr().out
            assert f"backend: {backend}" in out
            assert int(out.split("count:")[1].split()[0]) == base

    def test_count_parallel_backend_with_workers(self, capsys):
        args = ["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                "--scale", "0.05", "--seed", "3"]
        main(args)
        base = int(capsys.readouterr().out.split("count:")[1].split()[0])
        main(args + ["--backend", "parallel", "--workers", "2"])
        out = capsys.readouterr().out
        assert int(out.split("count:")[1].split()[0]) == base

    def test_backend_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["count", "--backend", "warp-drive"])


class TestStreamCommand:
    @staticmethod
    def _churn_file(tmp_path, lines):
        f = tmp_path / "churn.txt"
        f.write_text("\n".join(lines) + "\n")
        return str(f)

    @staticmethod
    def _free_edges(scale=0.05, seed=3, k=6):
        from repro import load_dataset

        g = load_dataset("wiki-vote", scale=scale, seed=seed)
        free = []
        for u in range(g.n_vertices):
            for v in range(u + 1, g.n_vertices):
                if not g.has_edge(u, v):
                    free.append((u, v))
                    if len(free) == k:
                        return free
        return free

    def test_stream_replay_verifies(self, tmp_path, capsys):
        free = self._free_edges()
        lines = [f"+ {u} {v}" for u, v in free[:4]]
        lines += [f"- {u} {v}" for u, v in free[:2]]
        churn = self._churn_file(tmp_path, ["# churn"] + lines)
        rc = main(["stream", "--file", churn, "--pattern", "triangle,house",
                   "--dataset", "wiki-vote", "--scale", "0.05", "--seed", "3",
                   "--batch", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "incremental maintenance replay" in out
        assert "triangle" in out and "house" in out
        assert "verify:  all 2 maintained counts" in out

    def test_stream_counts_match_count_command(self, tmp_path, capsys):
        (u, v), *_ = self._free_edges(k=1)
        churn = self._churn_file(tmp_path, [f"+ {u} {v}", f"- {u} {v}"])
        rc = main(["stream", "--file", churn, "--pattern", "triangle",
                   "--dataset", "wiki-vote", "--scale", "0.05", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        # the built-in verification already asserts maintained == recount;
        # here we pin the initial count against the count command (the
        # insert-then-delete churn is net zero).
        initial = int(out.split("initial count")[1].split()[0])
        assert "verify:" in out

        main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
              "--scale", "0.05", "--seed", "3"])
        shown = int(capsys.readouterr().out.split("count:")[1].split()[0])
        assert initial == shown

    def test_stream_rejects_invalid_update(self, tmp_path, capsys):
        churn = self._churn_file(tmp_path, ["- 0 0"])
        rc = main(["stream", "--file", churn, "--dataset", "wiki-vote",
                   "--scale", "0.05"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_stream_rejects_malformed_file(self, tmp_path, capsys):
        churn = self._churn_file(tmp_path, ["+ 1"])
        rc = main(["stream", "--file", churn, "--dataset", "wiki-vote",
                   "--scale", "0.05"])
        assert rc == 2
        assert "expected 'OP U V'" in capsys.readouterr().err

    def test_stream_rejects_unknown_pattern(self, tmp_path, capsys):
        churn = self._churn_file(tmp_path, ["+ 0 1"])
        rc = main(["stream", "--file", churn, "--pattern", "warp-drive",
                   "--dataset", "wiki-vote", "--scale", "0.05"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_stream_rejects_bad_batch(self, tmp_path, capsys):
        churn = self._churn_file(tmp_path, ["+ 0 1"])
        rc = main(["stream", "--file", churn, "--dataset", "wiki-vote",
                   "--scale", "0.05", "--batch", "0"])
        assert rc == 2
        assert "--batch" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_synthetic_verifies(self, capsys):
        rc = main(["serve", "--synthetic", "20", "--pattern", "triangle,house",
                   "--dataset", "wiki-vote", "--scale", "0.05", "--seed", "3",
                   "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving replay summary" in out
        assert "memo:" in out and "hit ratio" in out
        assert "verify:  all" in out

    def test_serve_trace_file_with_churn_and_watch(self, tmp_path, capsys):
        free = TestStreamCommand._free_edges(k=2)
        lines = ["# mixed workload", "count triangle", "count triangle"]
        lines += [f"churn + {u} {v}" for u, v in free]
        lines += ["count triangle", "enumerate triangle 5 prio=2"]
        trace = tmp_path / "ops.trace"
        trace.write_text("\n".join(lines) + "\n")
        rc = main(["serve", "--trace", str(trace), "--watch", "triangle",
                   "--dataset", "wiki-vote", "--scale", "0.05", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "maintained count" in out
        # all three triangle counts are answered by the watch (two at the
        # initial version, one after the churn)
        assert "watch:   3 reads answered from maintained counts" in out
        assert "2 churn" in out
        assert "verify:  all" in out

    def test_serve_memo_hits_on_repeat_queries(self, capsys):
        # a quiescent trace repeating one query: everything after the
        # first execution is a memo hit or a single-flight collapse
        rc = main(["serve", "--synthetic", "12", "--pattern", "triangle",
                   "--dataset", "wiki-vote", "--scale", "0.05", "--seed", "3",
                   "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        memo_line = out.split("memo:")[1].splitlines()[0]
        hits = int(memo_line.split(" hits")[0].strip())
        collapsed = int(memo_line.split("collapsed")[0].split("/")[-1].strip())
        misses = int(memo_line.split("misses")[0].split("/")[-1].strip())
        counts = sum(1 for ln in out.splitlines() if "count" in ln)
        assert counts  # the trace exercised count jobs at all
        assert misses >= 1 and hits + collapsed >= 1

    def test_serve_requires_exactly_one_source(self, tmp_path, capsys):
        rc = main(["serve", "--dataset", "wiki-vote", "--scale", "0.05"])
        assert rc == 2
        assert "exactly one of" in capsys.readouterr().err
        trace = tmp_path / "t.trace"
        trace.write_text("count triangle\n")
        rc = main(["serve", "--trace", str(trace), "--synthetic", "5",
                   "--dataset", "wiki-vote", "--scale", "0.05"])
        assert rc == 2

    def test_serve_rejects_malformed_trace(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_text("count triangle\nfrobnicate x\n")
        rc = main(["serve", "--trace", str(trace),
                   "--dataset", "wiki-vote", "--scale", "0.05"])
        assert rc == 2
        assert "bad.trace:2" in capsys.readouterr().err

    def test_serve_rejects_unknown_pattern(self, capsys):
        rc = main(["serve", "--synthetic", "5", "--pattern", "warp-drive",
                   "--dataset", "wiki-vote", "--scale", "0.05"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_rejects_bad_worker_count(self, capsys):
        rc = main(["serve", "--synthetic", "5", "--workers", "0",
                   "--dataset", "wiki-vote", "--scale", "0.05"])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err


class TestBadInput:
    """Unloadable graphs and patterns: one ``repro: error:`` line, exit 2."""

    @staticmethod
    def _error(capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: error: "), err
        return lines[0]

    def test_missing_edge_list(self, tmp_path, capsys):
        path = tmp_path / "absent.edges"
        assert main(["count", "--pattern", "P1", "--edge-list", str(path)]) == 2
        line = self._error(capsys)
        assert str(path) in line and "No such file" in line

    def test_malformed_edge_line_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n1 x\n")
        assert main(["count", "--pattern", "P1", "--edge-list", str(path)]) == 2
        line = self._error(capsys)
        assert str(path) in line and "line 2: non-integer vertex id" in line

    def test_unknown_pattern(self, capsys):
        rc = main(["count", "--pattern", "warp-drive", "--dataset", "wiki-vote",
                   "--scale", "0.05"])
        assert rc == 2
        assert "unknown pattern 'warp-drive'" in self._error(capsys)

    def test_unknown_dataset(self, capsys):
        assert main(["count", "--pattern", "P1", "--dataset", "atlantis"]) == 2
        assert "unknown dataset 'atlantis'" in self._error(capsys)

    def test_unknown_directed_pattern(self, capsys):
        rc = main(["count", "--mode", "directed", "--pattern", "warp-drive",
                   "--dataset", "wiki-vote", "--scale", "0.05"])
        assert rc == 2
        assert "unknown directed pattern 'warp-drive'" in self._error(capsys)

    @pytest.mark.parametrize("command", [["plan"], ["motifs"], ["serve", "--synthetic", "5"]])
    def test_other_commands_report_unknown_dataset(self, command, capsys):
        assert main(command + ["--dataset", "atlantis"]) == 2
        assert "unknown dataset 'atlantis'" in self._error(capsys)

    def test_plan_unknown_pattern(self, capsys):
        rc = main(["plan", "--pattern", "warp-drive", "--dataset", "wiki-vote",
                   "--scale", "0.05"])
        assert rc == 2
        assert "unknown pattern 'warp-drive'" in self._error(capsys)

    def test_execution_errors_are_not_swallowed(self, monkeypatch):
        # Only loading is guarded: a failure inside matching propagates.
        from repro.core.session import MatchSession

        def explode(self, query):
            raise ValueError("engine bug")

        monkeypatch.setattr(MatchSession, "count", explode)
        with pytest.raises(ValueError, match="engine bug"):
            main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                  "--scale", "0.05"])


class TestObservabilityFlags:
    COUNT = ["count", "--pattern", "house", "--dataset", "wiki-vote",
             "--scale", "0.05", "--seed", "3", "--backend", "vectorised"]

    def test_explain_prints_the_span_tree(self, capsys):
        from repro.obs import trace as obs_trace

        assert main(self.COUNT + ["--explain"]) == 0
        out = capsys.readouterr().out
        assert "where the time went:" in out
        assert "match [" in out and "execute [" in out and "depth [" in out
        assert "total" in out and "self" in out
        # the flag is scoped to the command: tracing is off again
        assert not obs_trace.enabled()

    def test_explain_count_matches_untraced_count(self, capsys):
        assert main(list(self.COUNT)) == 0
        plain = capsys.readouterr().out
        assert main(self.COUNT + ["--explain"]) == 0
        traced = capsys.readouterr().out
        shown = lambda out: int(out.split("count:")[1].split()[0])  # noqa: E731
        assert shown(plain) == shown(traced)

    def test_trace_out_writes_valid_chrome_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "count.trace.json"
        assert main(self.COUNT + ["--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wrote Chrome trace_event JSON" in out
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        names = {e["name"] for e in events}
        assert {"match", "plan", "execute", "depth"} <= names
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)

    def test_explain_rejected_with_approx(self, capsys):
        rc = main(["count", "--pattern", "triangle", "--dataset", "wiki-vote",
                   "--scale", "0.05", "--approx", "100", "--explain"])
        assert rc == 2
        assert "not traced" in capsys.readouterr().err

    def test_trace_out_rejected_with_directed_batch(self, capsys, tmp_path):
        rc = main(["count", "--mode", "directed", "--pattern", "ffl,dcycle-3",
                   "--dataset", "wiki-vote", "--scale", "0.05",
                   "--trace-out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "one count at a time" in capsys.readouterr().err

    def test_metrics_command_dumps_the_registry(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# HELP repro_plan_cache_hits_total" in out
        assert "# TYPE repro_service_job_seconds histogram" in out

    def test_metrics_exercise_shows_live_values(self, capsys):
        assert main(["metrics", "--exercise", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        line = next(
            ln for ln in out.splitlines()
            if ln.startswith('repro_backend_counts_total{backend="vectorised"}')
        )
        assert float(line.split()[-1]) >= 2

    def test_backends_table_shows_traced_column(self, capsys):
        from repro.core.backend import available_backends

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        header = next(ln for ln in out.splitlines() if "traced" in ln)
        assert "kernels" in header
        for name, info in available_backends().items():
            row = next(ln for ln in out.splitlines() if ln.startswith(name))
            assert ("yes" if info.capabilities.traced else "no") in row
