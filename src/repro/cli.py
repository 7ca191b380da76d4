"""Command-line interface: ``python -m repro <command> ...``.

Mirrors the GraphPi binary's ergonomics — feed it a pattern and a data
graph, get counts — plus introspection commands for the preprocessing
pipeline.

Commands
--------
count    count embeddings of a pattern in a dataset/edge-list file
         (--mode plain|labeled|directed, --semantics edge|induced,
         --backend to pick the execution backend, --approx N for the
         sampling estimator; every mode routes through the unified
         MatchQuery/MatchSession facade with its plan cache.
         --backend distributed additionally prints the simulated
         multi-node scaling table: --nodes 1,4,16 picks the simulated
         node counts and --tasks the root-range task granularity)
plan     show the preprocessing decisions (restrictions, schedule, model)
motifs   run a k-motif census (--induced converts the census; the whole
         census shares one MatchSession, so plans are reused)
stream   replay an edge-churn file (`+ u v` / `- u v` lines) against a
         dataset, maintaining exact pattern counts incrementally via
         the streaming subsystem — per-batch live table, final summary,
         and a full-recount verification (--no-verify to skip)
serve    drive the matching-as-a-service runtime: replay a mixed
         count/enumerate/churn trace file (or a --synthetic workload)
         through a MatchService worker pool — per-kind summary,
         latency p50/p99, memo/backpressure stats, and a verification
         of every count against a direct MatchSession call
backends list the registered execution backends
metrics  dump the process-global metrics registry in Prometheus text
         format (--exercise runs a small count first so values are live)
datasets list the built-in dataset proxies
patterns list the built-in patterns

``count --explain`` traces the query and prints the span tree (plan,
compile and execute phases, with per-depth detail on backends whose
``traced`` capability is set); ``count --trace-out FILE`` writes the
same trace as Chrome ``trace_event`` JSON for Perfetto.
"""

from __future__ import annotations

import argparse
import sys
import time

# Module level holds only what building the parser needs; each command
# imports the subsystems it runs, so a cold ``repro count`` loads no
# serving, streaming, mining or approx code.
from repro.core.backend import available_backends, backend_names, get_backend
from repro.utils.tables import Table, format_seconds


class UsageError(Exception):
    """Bad command-line input: a flag, or a graph, pattern or file that
    cannot be loaded.

    :func:`main` prints it as one ``repro: error: <cause>`` line and
    exits with status 2.  Raised only while validating flags and loading
    inputs, never around execution, so a failure inside matching still
    shows its traceback.
    """


def _cause(exc: Exception) -> str:
    """The one-line message a loading error shows the user."""
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])  # str(KeyError) would add quotes
    if isinstance(exc, OSError) and exc.strerror:
        return f"{exc.filename}: {exc.strerror}" if exc.filename else exc.strerror
    return str(exc)


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="wiki-vote",
                        help="proxy dataset name (see `datasets`)")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="proxy scale factor (default 0.2)")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--edge-list", default=None, metavar="PATH",
                        help="load a real edge-list file instead of a proxy")


def _load_graph(args):
    from repro.graph.datasets import load_dataset

    try:
        if args.edge_list:
            return load_dataset(args.dataset, path=args.edge_list)
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    except (OSError, ValueError, KeyError) as exc:
        cause = _cause(exc)
        if args.edge_list and not isinstance(exc, OSError):
            cause = f"{args.edge_list}: {cause}"
        raise UsageError(cause) from exc


def _get_pattern(name: str, *, directed: bool = False):
    """The named built-in pattern; an unknown name is a :class:`UsageError`."""
    if directed:
        from repro.pattern.directed import get_directed_pattern as lookup
    else:
        from repro.pattern.catalog import get_pattern as lookup
    try:
        return lookup(name)
    except (KeyError, ValueError) as exc:
        raise UsageError(_cause(exc)) from exc


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default=None, choices=backend_names(),
                        help="execution backend (default: the first of "
                             "vectorised, compiled, interpreter that supports "
                             "the plan)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for --backend parallel")
    parser.add_argument("--nodes", default=None, metavar="N[,N...]",
                        help="simulated node counts for --backend distributed "
                             "(comma-separated, e.g. 1,4,16,64)")
    parser.add_argument("--tasks", type=int, default=None, metavar="N",
                        help="root-range task count for --backend distributed")


def _parse_nodes(spec: str) -> list[int]:
    try:
        nodes = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--nodes expects comma-separated integers, got {spec!r}")
    if not nodes or any(n < 1 for n in nodes):
        raise UsageError(f"--nodes expects positive node counts, got {spec!r}")
    return nodes


def _resolve_backend(args, *, count_report: bool = True):
    """The backend instance the CLI flags ask for (None = default policy).

    ``count_report=False`` marks callers that only print counts (the
    motif census): a distributed backend is then built with
    ``simulate=False`` so no cost replay runs for a report nobody sees.
    """
    if args.backend != "distributed":
        for flag, value in (("--nodes", args.nodes), ("--tasks", args.tasks)):
            if value is not None:
                # Silently dropping a scaling-study flag would hand the
                # user a plain count they believe is a multi-node run.
                raise UsageError(f"{flag} requires --backend distributed")
    if args.backend != "parallel" and args.workers is not None:
        raise UsageError("--workers requires --backend parallel")
    if args.backend is None:
        return None
    if args.backend == "parallel":
        try:
            return get_backend("parallel", n_workers=args.workers)
        except ValueError as exc:  # --workers 0
            raise UsageError(f"--workers must be >= 1, got {args.workers}") from exc
    if args.backend == "distributed":
        options = {}
        if args.nodes is not None:
            options["node_counts"] = _parse_nodes(args.nodes)
        if args.tasks is not None:
            options["n_tasks"] = args.tasks
        if not count_report:
            if args.nodes is not None:
                raise UsageError(
                    "--nodes configures the scaling report, which this "
                    "command does not print; it applies to "
                    "`count --backend distributed`"
                )
            options["simulate"] = False
        try:
            return get_backend("distributed", **options)
        except ValueError as exc:  # e.g. --tasks 0
            raise UsageError(str(exc)) from exc
    return get_backend(args.backend)


def _print_distributed_report(report) -> None:
    """Render a DistributedReport's scaling curve under a count."""
    print(f"distributed: {report.describe()}")
    table = Table(["nodes", "threads", "makespan", "speedup", "efficiency", "steals"],
                  title=f"simulated scaling ({report.threads_per_node} threads/node, "
                        f"measured task costs replayed)")
    for n, res, speedup in zip(report.node_counts, report.results, report.speedups):
        table.add_row([
            n,
            n * report.threads_per_node,
            format_seconds(res.makespan),
            f"{speedup:.1f}x",
            f"{res.efficiency * 100:.0f}%",
            res.steals,
        ])
    print(table.render())


def _mode_inputs(args, graph):
    """(data graph, pattern) for the requested matching mode."""
    if args.mode == "labeled":
        from repro.graph.labeled import assign_random_labels
        from repro.pattern.labeled import LabeledPattern

        if args.labels < 1:
            raise UsageError("--labels must be >= 1")
        base = _get_pattern(args.pattern)
        data = assign_random_labels(graph, args.labels, seed=args.seed)
        pattern = LabeledPattern(
            base, tuple(i % args.labels for i in range(base.n_vertices))
        )
        return data, pattern
    if args.mode == "directed":
        from repro.graph.digraph import digraph_from_edges

        pattern = _get_pattern(args.pattern, directed=True)
        data = digraph_from_edges(
            list(graph.edges()), n_vertices=graph.n_vertices, name=graph.name
        )
        return data, pattern
    return graph, _get_pattern(args.pattern)


def _describe_pattern(pattern) -> str:
    from repro.pattern.directed import DiPattern
    from repro.pattern.labeled import LabeledPattern

    if isinstance(pattern, LabeledPattern):
        return (f"{pattern.name or pattern!r} ({pattern.n_vertices} vertices, "
                f"{pattern.pattern.n_edges} edges, labels={list(pattern.labels)})")
    if isinstance(pattern, DiPattern):
        return (f"{pattern.name or pattern!r} ({pattern.n_vertices} vertices, "
                f"{pattern.n_arcs} arcs)")
    return (f"{pattern.name or pattern!r} ({pattern.n_vertices} vertices, "
            f"{pattern.n_edges} edges)")


def cmd_count(args) -> int:
    graph = _load_graph(args)
    semantics = "induced" if (args.induced or args.semantics == "induced") else "edge"
    if semantics == "induced" and args.mode != "plain":
        raise UsageError(f"--semantics induced is only defined for --mode plain, "
                         f"not {args.mode!r}")
    # Resolved (and flag-validated) before the --approx early return, so
    # a scaling-study flag without --backend distributed errors instead
    # of being silently dropped on the sampling path.
    resolved_backend = _resolve_backend(args)

    if args.approx:
        if args.mode != "plain" or semantics != "edge":
            raise UsageError("--approx only supports --mode plain with edge semantics")
        if args.explain or args.trace_out:
            raise UsageError("--explain/--trace-out profile the exact matching "
                             "pipeline; the --approx estimator is not traced")
        if args.backend is not None:
            raise UsageError("--approx is a sampling estimator and does not "
                             "execute through a backend; drop --approx or "
                             f"--backend {args.backend}")
        from repro.approx.sampling import approximate_count

        pattern = _get_pattern(args.pattern)
        print(f"graph:   {graph}")
        print(f"pattern: {_describe_pattern(pattern)}")
        t0 = time.perf_counter()
        res = approximate_count(graph, pattern, n_samples=args.approx, seed=args.seed)
        elapsed = time.perf_counter() - t0
        print(f"estimate: {res.estimate:.6g}  "
              f"[{res.ci_low:.6g}, {res.ci_high:.6g}] at 95% "
              f"({res.hits}/{res.n_samples} hits)")
        print(f"time:     {format_seconds(elapsed)}")
        return 0

    if args.mode == "directed" and "," in args.pattern:
        if args.explain or args.trace_out:
            raise UsageError("--explain/--trace-out trace one count at a time; "
                             "drop them or count a single directed pattern")
        return _cmd_count_directed_batch(args, graph, resolved_backend)

    from repro.core.query import MatchQuery
    from repro.core.session import get_session
    from repro.obs import trace as obs_trace

    data, pattern = _mode_inputs(args, graph)
    if args.mode == "labeled":
        print(f"graph:   {graph} with {args.labels} random labels")
    else:
        print(f"graph:   {data}")
    print(f"pattern: {_describe_pattern(pattern)}")
    if args.mode == "directed":
        print("orientation: undirected edges oriented low id -> high id")
    if semantics == "induced":
        print("semantics: vertex-induced (AutoMine/GraphZero definition)")

    # The backend preference rides on the query (not the call) so the
    # session plans for its capabilities — e.g. a pre-generated kernel
    # only when --backend compiled is asked for.
    query = MatchQuery(
        pattern=pattern,
        mode=args.mode,
        semantics=semantics,
        use_iep=False if args.no_iep else None,
        backend=resolved_backend,
    )
    session = get_session(data)
    want_trace = args.explain or args.trace_out
    was_enabled = obs_trace.enabled()
    if want_trace:
        obs_trace.enable()
    try:
        t0 = time.perf_counter()
        result = session.count(query)
        elapsed = time.perf_counter() - t0
    finally:
        if want_trace and not was_enabled:
            obs_trace.disable()
    print(f"config:  {result.provenance}")
    print(f"backend: {result.backend}")
    plan = session.plan_for(query).plan
    if plan.iep_k:
        print(f"IEP:     innermost {plan.iep_k} loops")
    print(f"count:   {result.count}")
    print(f"time:    {format_seconds(elapsed)} "
          f"(preprocessing {format_seconds(result.seconds_plan)}"
          f"{', plan-cache hit' if result.cache_hit else ''})")
    if result.distributed_report is not None:
        _print_distributed_report(result.distributed_report)
    if want_trace and result.trace is None:
        print("trace:   empty (no spans collected)", file=sys.stderr)
    if args.explain and result.trace is not None:
        print("\nwhere the time went:")
        print(result.trace.render())
    if args.trace_out and result.trace is not None:
        with open(args.trace_out, "w") as fh:
            fh.write(result.trace.to_chrome_json())
        print(f"\ntrace:   wrote Chrome trace_event JSON to {args.trace_out} "
              "(load in Perfetto or chrome://tracing)")
    return 0


def _cmd_count_directed_batch(args, graph, resolved_backend) -> int:
    """Batched directed counting: comma-separated pattern names routed
    through ``MatchSession.count_many``, so orientations sharing an
    undirected skeleton are served by one reduction pass."""
    from repro.core.query import MatchQuery
    from repro.core.session import get_session
    from repro.graph.digraph import digraph_from_edges

    names = [s.strip() for s in args.pattern.split(",") if s.strip()]
    patterns = [_get_pattern(n, directed=True) for n in names]
    data = digraph_from_edges(
        list(graph.edges()), n_vertices=graph.n_vertices, name=graph.name
    )
    print(f"graph:   {data}")
    print("orientation: undirected edges oriented low id -> high id")
    print(f"batch:   {len(patterns)} directed patterns "
          "(skeleton-sharing reduction where applicable)")
    queries = [
        MatchQuery(pattern=p, mode="directed", backend=resolved_backend)
        for p in patterns
    ]
    session = get_session(data)
    t0 = time.perf_counter()
    results = session.count_many(queries)
    elapsed = time.perf_counter() - t0
    width = max(len(n) for n in names)
    for name, res in zip(names, results):
        print(f"  {name:<{width}}  count={res.count:<12d} backend={res.backend}")
    reduced = [r for r in results if r.backend == "reduction"]
    if reduced:
        print(f"reduction: {reduced[0].provenance}")
    print(f"time:    {format_seconds(elapsed)}")
    return 0


def cmd_plan(args) -> int:
    from repro.core.query import MatchQuery
    from repro.core.session import get_session

    graph = _load_graph(args)
    query = MatchQuery(_get_pattern(args.pattern), use_iep=not args.no_iep)
    report = get_session(graph).plan_for(query, kernel=True).report
    print(report.describe())
    print(f"\ngraph stats: {report.stats.describe()}")
    print(f"\nrestriction sets ({len(report.restriction_sets)}):")
    for rs in report.restriction_sets[:10]:
        print("  ", ", ".join(f"id({g})>id({s})" for g, s in sorted(rs)) or "(none)")
    if len(report.restriction_sets) > 10:
        print(f"   ... and {len(report.restriction_sets) - 10} more")
    print("\ntop 5 configurations by predicted cost:")
    for r in report.ranking[:5]:
        print(f"   {r.predicted_cost:12.4g}  {r.config.describe()}")
    if args.show_code and report.generated is not None:
        print("\ngenerated code:\n")
        print(report.generated.source)
    return 0


def cmd_motifs(args) -> int:
    from repro.core.session import get_session
    from repro.mining.motifs import induced_motif_census, motif_census

    graph = _load_graph(args)
    backend = _resolve_backend(args, count_report=False)
    session = get_session(graph)  # one session: plans reused across the census
    t0 = time.perf_counter()
    if args.induced:
        census = induced_motif_census(graph, args.k, backend=backend, session=session)
    else:
        census = motif_census(graph, args.k,
                              use_iep=False if args.no_iep else None,
                              backend=backend, session=session)
    elapsed = time.perf_counter() - t0
    semantics = "vertex-induced" if args.induced else "edge-induced"
    table = Table(["motif", "edges", "count"],
                  title=f"{args.k}-motif census ({semantics}) of "
                        f"{graph.name or 'graph'} ({format_seconds(elapsed)})")
    for m in census:
        table.add_row([m.pattern.name, m.pattern.n_edges, m.count])
    print(table.render())
    info = session.cache_info()
    print(f"plan cache: {info.size} plans, {info.hits} hits, {info.misses} misses")
    return 0


def cmd_stream(args) -> int:
    from repro.graph.dynamic import DynamicGraph
    from repro.streaming import StreamSession, read_churn_file

    if args.batch < 1:
        raise UsageError("--batch must be >= 1")
    graph = _load_graph(args)
    try:
        updates = read_churn_file(args.file)
    except (OSError, ValueError) as exc:
        raise UsageError(_cause(exc)) from exc
    stream = StreamSession(DynamicGraph.from_graph(graph))
    names = [p.strip() for p in args.pattern.split(",") if p.strip()]
    handles = []
    for name in names:
        pattern = _get_pattern(name)
        try:
            handles.append(stream.watch(pattern))
        except (KeyError, ValueError) as exc:  # a pattern streaming cannot maintain
            raise UsageError(_cause(exc)) from exc
    print(f"graph:   {graph}")
    print(f"churn:   {len(updates)} updates from {args.file} "
          f"(batches of {args.batch})")
    for h in handles:
        print(f"watch:   {h.name}: initial count {h.count} "
              f"({len(h.plan.anchored)} anchored sub-plans)")

    table = Table(
        ["batch", "+/-", "|E|"]
        + [c for h in handles for c in (h.name, "delta")]
        + ["ms"],
        title="incremental maintenance replay",
    )
    t0 = time.perf_counter()
    for start in range(0, len(updates), args.batch):
        batch = updates[start : start + args.batch]
        try:
            report = stream.apply(batch)
        except (KeyError, ValueError, IndexError) as exc:
            raise UsageError(
                f"update {start + 1}..{start + len(batch)}: {_cause(exc)}"
            ) from exc
        cells = [
            start // args.batch,
            f"+{report.n_inserts}/-{report.n_deletes}",
            stream.graph.n_edges,
        ]
        for w in report.watches:
            cells += [w.count, f"{w.delta:+d}"]
        table.add_row(cells + [f"{report.seconds * 1e3:.1f}"])
    elapsed = time.perf_counter() - t0
    print(table.render())
    print(f"time:    {format_seconds(elapsed)} for {len(updates)} updates "
          f"({len(handles)} watched patterns, "
          f"{format_seconds(elapsed / max(1, len(updates)))}/update)")
    if not args.no_verify:
        expected = stream.expected_counts()
        for h in handles:
            if h.count != expected[h.name]:
                print(f"error: maintained count for {h.name} is {h.count}, "
                      f"full recount gives {expected[h.name]}", file=sys.stderr)
                return 1
        print(f"verify:  all {len(handles)} maintained counts equal a full "
              "recount on the final snapshot")
    return 0


def cmd_serve(args) -> int:
    from repro.core.session import get_session
    from repro.graph.dynamic import DynamicGraph
    from repro.serving import (
        MatchService,
        latency_percentiles,
        read_trace_file,
        replay_trace,
        synthetic_trace,
    )

    if (args.trace is None) == (args.synthetic is None):
        raise UsageError("exactly one of --trace or --synthetic is required")
    if args.workers < 1 or args.queue_limit < 1:
        raise UsageError("--workers and --queue-limit must be >= 1")
    graph = _load_graph(args)
    dyn = DynamicGraph.from_graph(graph)
    if args.trace is not None:
        try:
            ops = read_trace_file(args.trace)
        except (OSError, ValueError) as exc:
            raise UsageError(_cause(exc)) from exc
    else:
        names = [p.strip() for p in args.pattern.split(",") if p.strip()]
        for name in names:
            _get_pattern(name)  # fail fast on unknown names
        ops = synthetic_trace(
            names,
            args.synthetic,
            churn_every=args.churn_every,
            n_vertices=dyn.n_vertices,
            avoid_edges=set(dyn.edges()),
            seed=args.seed,
        )
    watched = [_get_pattern(p.strip()) for p in args.watch.split(",") if p.strip()]
    service = MatchService(
        n_workers=args.workers, queue_limit=args.queue_limit
    )
    service.add_graph("default", dyn)
    try:
        watches = [service.watch(pattern) for pattern in watched]
    except (KeyError, ValueError) as exc:  # a pattern streaming cannot maintain
        service.close()
        raise UsageError(_cause(exc)) from exc

    print(f"graph:   {graph}")
    print(f"service: {args.workers} workers, queue limit {args.queue_limit}")
    print(f"trace:   {len(ops)} operations "
          f"({'file ' + args.trace if args.trace else 'synthetic'})")
    for w in watches:
        print(f"watch:   {w.name}: initial count {w.count}")

    t0 = time.perf_counter()
    try:
        outcome = replay_trace(service, ops)
    except (KeyError, ValueError) as exc:
        service.close()
        raise UsageError(_cause(exc)) from exc
    outcome.wait()
    elapsed = time.perf_counter() - t0
    stats = service.stats()

    by_kind: dict[str, list] = {}
    for h in outcome.handles:
        by_kind.setdefault(h.request.kind, []).append(h)
    table = Table(["kind", "jobs", "done", "failed", "p50 ms", "p99 ms"],
                  title="serving replay summary")
    for kind in sorted(by_kind):
        handles = by_kind[kind]
        done = [h for h in handles if h.state == "done"]
        p50, p99 = latency_percentiles([h.latency for h in done])
        table.add_row([kind, len(handles), len(done),
                       len(handles) - len(done),
                       f"{p50 * 1e3:.2f}", f"{p99 * 1e3:.2f}"])
    print(table.render())
    served = len(outcome.handles)
    qps = served / elapsed if elapsed > 0 else 0.0
    print(f"load:    {served} jobs + {outcome.churn_applied} churn in "
          f"{format_seconds(elapsed)} ({qps:.0f} jobs/s); "
          f"{outcome.rejected} rejected by backpressure")
    print(f"memo:    {stats.memo.hits} hits / {stats.memo.misses} misses / "
          f"{stats.memo.collapsed} collapsed "
          f"(hit ratio {stats.memo_hit_ratio:.2f})")
    for name, info in stats.plan_caches.items():
        print(f"plans:   {name}: {info.size} plans, {info.hits} hits, "
              f"{info.misses} misses")
    for w in watches:
        print(f"watch:   {w.name}: maintained count {w.count}")
    if watches:
        print(f"watch:   {stats.memo.published_hits} reads answered from "
              "maintained counts")
    service.close()

    if not args.no_verify:
        failures = 0
        checked = 0
        for h in outcome.handles:
            if h.request.kind != "count" or h.state != "done":
                continue
            checked += 1
            expected = int(get_session(h.graph).count(h.request.query))
            if h.result() != expected:
                failures += 1
                print(f"error: job {h.id} returned {h.result()}, direct "
                      f"session count gives {expected} (version {h.version})",
                      file=sys.stderr)
        if failures:
            return 1
        print(f"verify:  all {checked} served counts equal direct "
              "MatchSession calls on the same graph version")
    return 0


def cmd_backends(args) -> int:
    table = Table(["name", "modes", "iep modes", "enumerates", "kernels", "traced",
                   "description"],
                  title="registered execution backends")
    for name, info in available_backends().items():
        caps = info.capabilities
        table.add_row([
            name,
            ",".join(sorted(caps.modes)) or "-",
            ",".join(sorted(caps.iep_modes)) or "-",
            "yes" if caps.enumeration else "no",
            "yes" if caps.generated_kernels else "no",
            "yes" if caps.traced else "no",
            info.summary(),
        ])
    print(table.render())
    return 0


def cmd_metrics(args) -> int:
    """Dump the process-global metrics registry (Prometheus text format)."""
    from repro.obs import REGISTRY

    if args.exercise:
        # A small end-to-end count so the exposition shows live values —
        # without it a fresh process prints an all-zero registry.
        from repro.core.session import get_session
        from repro.graph.generators import erdos_renyi
        from repro.pattern.catalog import get_pattern

        session = get_session(erdos_renyi(120, 0.1, seed=args.seed))
        for name in ("triangle", "house"):
            session.count(get_pattern(name), backend="vectorised")
            session.count(get_pattern(name))
    print(REGISTRY.render_prometheus(), end="")
    return 0


def cmd_datasets(_args) -> int:
    from repro.graph.datasets import DATASETS

    table = Table(["name", "paper |V|", "paper |E|", "description"],
                  title="built-in dataset proxies (Table I)")
    for name, spec in DATASETS.items():
        table.add_row([name, spec.paper_vertices, spec.paper_edges, spec.description])
    print(table.render())
    return 0


def cmd_patterns(_args) -> int:
    from repro.pattern.catalog import NAMED_PATTERNS, paper_patterns

    table = Table(["name", "vertices", "edges"], title="built-in patterns")
    for name in sorted(NAMED_PATTERNS):
        p = NAMED_PATTERNS[name]()
        table.add_row([name, p.n_vertices, p.n_edges])
    for name, p in paper_patterns().items():
        table.add_row([name, p.n_vertices, p.n_edges])
    table.add_row(["clique-K / cycle-K / path-K / star-K", "parametric", ""])
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphPi reproduction: graph pattern matching with "
                    "effective redundancy elimination (SC 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count embeddings")
    p_count.add_argument("--pattern", default="house",
                         help="pattern name; with --mode directed use a "
                              "directed name (ffl, bifan, dcycle-N, ...) or "
                              "a comma-separated batch (counted via "
                              "skeleton-sharing reduction)")
    p_count.add_argument("--mode", default="plain",
                         choices=["plain", "labeled", "directed"],
                         help="matching mode (default plain); labeled "
                              "assigns random vertex labels, directed "
                              "orients the dataset's edges low->high")
    p_count.add_argument("--semantics", default="edge",
                         choices=["edge", "induced"],
                         help="edge-induced (GraphPi) or vertex-induced "
                              "(AutoMine/GraphZero) semantics")
    p_count.add_argument("--labels", type=int, default=3, metavar="N",
                         help="label alphabet size for --mode labeled")
    p_count.add_argument("--no-iep", action="store_true")
    p_count.add_argument("--induced", action="store_true",
                         help="alias for --semantics induced")
    p_count.add_argument("--approx", type=int, default=0, metavar="N",
                         help="ASAP-style sampling estimate with N trials")
    p_count.add_argument("--explain", action="store_true",
                         help="trace the count and print the span tree "
                              "(plan/compile/execute phases with per-depth "
                              "detail on traced backends)")
    p_count.add_argument("--trace-out", default=None, metavar="FILE",
                         help="write the trace as Chrome trace_event JSON "
                              "(open in Perfetto or chrome://tracing)")
    _add_backend_arg(p_count)
    _add_graph_args(p_count)
    p_count.set_defaults(func=cmd_count)

    p_plan = sub.add_parser("plan", help="show preprocessing decisions")
    p_plan.add_argument("--pattern", default="house")
    p_plan.add_argument("--no-iep", action="store_true")
    p_plan.add_argument("--show-code", action="store_true")
    _add_graph_args(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_motifs = sub.add_parser("motifs", help="k-motif census")
    p_motifs.add_argument("--k", type=int, default=3)
    p_motifs.add_argument("--no-iep", action="store_true")
    p_motifs.add_argument("--induced", action="store_true",
                          help="vertex-induced census (Möbius-converted)")
    _add_backend_arg(p_motifs)
    _add_graph_args(p_motifs)
    p_motifs.set_defaults(func=cmd_motifs)

    p_stream = sub.add_parser(
        "stream", help="replay an edge-churn file with live pattern counts"
    )
    p_stream.add_argument("--file", required=True, metavar="PATH",
                          help="churn file: one `+ u v` or `- u v` per line "
                               "(# comments and blank lines skipped)")
    p_stream.add_argument("--pattern", default="triangle,house",
                          help="comma-separated pattern names to maintain "
                               "(default triangle,house)")
    p_stream.add_argument("--batch", type=int, default=64, metavar="N",
                          help="updates applied per batch (default 64)")
    p_stream.add_argument("--no-verify", action="store_true",
                          help="skip the final full-recount verification")
    _add_graph_args(p_stream)
    p_stream.set_defaults(func=cmd_stream)

    p_serve = sub.add_parser(
        "serve",
        help="replay a mixed count/enumerate/churn trace through the "
             "serving runtime",
    )
    p_serve.add_argument("--trace", default=None, metavar="PATH",
                         help="trace file: `count P [prio=N] [timeout=S]`, "
                              "`enumerate P LIMIT`, `churn +|- U V` lines")
    p_serve.add_argument("--synthetic", type=int, default=None, metavar="N",
                         help="generate a Zipf-weighted N-operation workload "
                              "over --pattern instead of reading --trace")
    p_serve.add_argument("--pattern", default="triangle,house,rectangle",
                         help="pattern pool for --synthetic "
                              "(comma-separated names)")
    p_serve.add_argument("--churn-every", type=int, default=0, metavar="N",
                         help="synthetic workloads: one edge toggle every N "
                              "operations (default 0 = no churn)")
    p_serve.add_argument("--watch", default="",
                         help="comma-separated patterns to stream-maintain "
                              "across churn (default none)")
    p_serve.add_argument("--workers", type=int, default=4, metavar="N",
                         help="service worker threads (default 4)")
    p_serve.add_argument("--queue-limit", type=int, default=64, metavar="N",
                         help="queue high-water mark before jobs are "
                              "rejected (default 64)")
    p_serve.add_argument("--no-verify", action="store_true",
                         help="skip the count-vs-direct-session verification")
    _add_graph_args(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_backends = sub.add_parser("backends", help="list execution backends")
    p_backends.set_defaults(func=cmd_backends)

    p_metrics = sub.add_parser(
        "metrics",
        help="dump the metrics registry (Prometheus text exposition)",
    )
    p_metrics.add_argument("--exercise", action="store_true",
                           help="run a small count first so the registry "
                                "shows live values")
    p_metrics.add_argument("--seed", type=int, default=2020)
    p_metrics.set_defaults(func=cmd_metrics)

    sub.add_parser("datasets", help="list dataset proxies").set_defaults(
        func=cmd_datasets
    )
    sub.add_parser("patterns", help="list built-in patterns").set_defaults(
        func=cmd_patterns
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
