"""Code generation: specialise a plan into straight-line Python source.

GraphPi generates C++ for the chosen configuration and compiles it with
gcc (§III, "Code Generation and Compilation").  The Python analogue:
``generate_source`` emits a dedicated counting function for one
:class:`~repro.core.config.ExecutionPlan` — loop nest unrolled, depth
constants folded, restriction bounds inlined, intersections *hoisted* to
the loop where their last operand is bound (exactly Fig. 5(b), where
``tmpAB`` is computed in the B loop and reused across the D loop), and
IEP blocks expanded into explicit arithmetic.  ``compile_plan_function``
``exec``s the source.

The generated function is semantically identical to the interpreter
(:mod:`repro.core.engine`); tests assert equality on random inputs.  It
is faster because per-depth bookkeeping (dependency lookups, bound
scans, recursion) disappears at generation time — the same reason the
paper generates code instead of interpreting schedules.

The emitted source is kept readable on purpose: it is part of the
system's observable behaviour (the paper prints its pseudocode in
Fig. 5(b)) and plan-level tests diff against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.config import ExecutionPlan
from repro.core.iep import partition_coefficient, set_partitions
from repro.graph.csr import Graph
from repro.graph.intersection import bounded_slice, contains, difference, intersect_many


@dataclass(frozen=True)
class GeneratedCounter:
    """A compiled counting function plus its source (for inspection).

    ``mode`` records the matching semantics the kernel was generated
    for (``"plain"``/``"induced"``/``"labeled"``/``"directed"``) — the
    backend uses it
    to detect that a cached kernel does not fit the current context
    (same plan object, different semantics) and must be regenerated.
    Labeled kernels take a :class:`~repro.graph.labeled.LabeledGraph`.
    """

    plan: ExecutionPlan
    source: str
    function: Callable[[Graph], int]
    mode: str = "plain"

    def __call__(self, graph) -> int:
        return self.function(graph)


@dataclass(frozen=True)
class GeneratedPrefixCounter:
    """A compiled worker-side kernel: inner loops under an outer prefix.

    The contract matches :meth:`repro.core.engine.Engine.count_prefix`:
    the prefix binds the outermost ``split_depth`` loop values (already
    restriction-checked by the master), and the returned count is *raw*
    (no IEP overcount division) so task partials can be summed before a
    single final division.
    """

    plan: ExecutionPlan
    split_depth: int
    source: str
    function: Callable[[Graph, tuple], int]

    def __call__(self, graph: Graph, prefix: tuple) -> int:
        return self.function(graph, prefix)


def _bounds_expr(plan: ExecutionPlan, depth: int, base: str) -> tuple[str | None, str]:
    """Return (slice_stmt, var) applying depth's restriction bounds."""
    lo_terms = [f"v{j}" for j in plan.lower[depth]]
    hi_terms = [f"v{j}" for j in plan.upper[depth]]
    if not lo_terms and not hi_terms:
        return None, base
    lo = (f"max({', '.join(lo_terms)})" if len(lo_terms) > 1 else lo_terms[0]) if lo_terms else "None"
    hi = (f"min({', '.join(hi_terms)})" if len(hi_terms) > 1 else hi_terms[0]) if hi_terms else "None"
    return f"s{depth} = bounded_slice({base}, {lo}, {hi})", f"s{depth}"


def _candidate_stmts(
    plan: ExecutionPlan,
    depth: int,
    base: str,
    depth_labels: tuple | None,
    antideps: tuple | None,
) -> tuple[list[str], str]:
    """Return (stmts, var): restriction bounds, then the mode-specific
    filters — label equality (labeled) and anti-edge differences
    (induced).  Every stage preserves sortedness, so the innermost
    ``contains`` corrections keep working on the final variable."""
    stmts: list[str] = []
    stmt, var = _bounds_expr(plan, depth, base)
    if stmt:
        stmts.append(stmt)
    if depth_labels is not None:
        stmts.append(f"l{depth} = {var}[labels[{var}] == {depth_labels[depth]}]")
        var = f"l{depth}"
    if antideps is not None:
        for j in antideps[depth]:
            stmts.append(f"x{depth} = difference({var}, nb{j})")
            var = f"x{depth}"
    return stmts, var


def generate_source(
    plan: ExecutionPlan,
    func_name: str = "generated_count",
    *,
    split_depth: int = 0,
    depth_labels: tuple | None = None,
    antideps: tuple | None = None,
) -> str:
    """Emit the specialised counting function's Python source.

    With ``split_depth == 0`` (default) the function takes ``(graph)``
    and counts the whole loop nest.  With ``split_depth = s > 0`` the
    function takes ``(graph, prefix)``: the outermost ``s`` loop values
    come pre-bound from the prefix (the master already applied their
    restrictions, exactly :meth:`Engine.iter_prefixes`'s contract) and
    only the remaining inner loops are executed.  Prefix functions
    return the *raw* count — the IEP overcount divisor is applied once
    by the aggregator, mirroring ``Engine.count_prefix``.

    ``depth_labels`` (one data-label per schedule position) switches the
    kernel to labeled semantics — the function then takes a
    :class:`~repro.graph.labeled.LabeledGraph` and filters every depth's
    candidates by label.  ``antideps`` (per depth, the earlier columns
    the pattern does *not* connect to) switches to vertex-induced
    semantics — candidates adjacent to an anti-dependency are removed
    with sorted ``difference``.  Both are innermost-count variants:
    they require ``iep_k == 0`` and a whole-nest kernel.
    """
    n = plan.n
    n_loops = plan.n_loops
    if not 0 <= split_depth < n_loops:
        raise ValueError(
            f"split_depth must be in [0, {n_loops - 1}], got {split_depth}"
        )
    if depth_labels is not None and antideps is not None:
        raise ValueError("labeled induced kernels are not supported")
    if (depth_labels is not None or antideps is not None) and (
        plan.iep_k > 0 or split_depth
    ):
        raise ValueError(
            "labeled/induced kernels require iep_k == 0 and split_depth == 0"
        )
    indent = "    "
    lines: list[str] = []
    emit = lines.append

    args = "graph" if split_depth == 0 else "graph, prefix"
    emit(f"def {func_name}({args}):")
    emit(f'    """Generated for {plan.config.describe()}')
    if split_depth:
        emit(f"    Worker kernel: outermost {split_depth} loops bound by prefix.")
    if depth_labels is not None:
        emit(f"    Labeled kernel: per-depth labels {depth_labels}.")
    if antideps is not None:
        emit("    Vertex-induced kernel: anti-edges excluded per depth.")
    if plan.iep_k:
        emit(f"    IEP over the innermost {plan.iep_k} loops; overcount divisor "
             f"{plan.iep_overcount}.")
    emit('    """')
    if depth_labels is not None:
        emit("    indptr = graph.graph.indptr")
        emit("    indices = graph.graph.indices")
        emit("    labels = graph.labels")
    else:
        emit("    indptr = graph.indptr")
        emit("    indices = graph.indices")
    emit("    nv = graph.n_vertices")
    emit(f"    if nv < {n}:")
    emit("        return 0")
    emit("    total = 0")
    if any(not plan.deps[d] for d in range(split_depth, n)):
        emit("    all_vertices = np.arange(nv, dtype=indices.dtype)")

    # ------------------------------------------------------------------
    # hoisting plan
    # ------------------------------------------------------------------
    # nb{d} needed if depth d's value feeds an intersection/raw set at an
    # *executed* depth (>= split_depth; prefix depths have no candidates)
    # — or an anti-edge difference, for induced kernels.
    nb_needed = [
        any(d in plan.deps[later] for later in range(max(d + 1, split_depth), n))
        or (
            antideps is not None
            and any(d in antideps[later] for later in range(d + 1, n))
        )
        for d in range(n)
    ]
    # Raw candidate var per executed/inner depth: all_vertices / nb{j} /
    # hoisted c{d}.  A multi-dep intersection whose operands are all
    # prefix-bound hoists into the preamble.
    raw_var: dict[int, str] = {}
    hoist_at: dict[int, list[int]] = {}
    for d in range(split_depth, n):
        deps = plan.deps[d]
        if not deps:
            raw_var[d] = "all_vertices"
        elif len(deps) == 1:
            raw_var[d] = f"nb{deps[0]}"
        else:
            raw_var[d] = f"c{d}"
            hoist_at.setdefault(max(deps), []).append(d)

    def emit_loop_body_setup(depth: int, pad: str) -> None:
        """nb binding + hoisted intersections, after v{depth} is bound."""
        if nb_needed[depth]:
            emit(f"{pad}nb{depth} = indices[indptr[v{depth}]:indptr[v{depth}+1]]")
        for d in hoist_at.get(depth, ()):
            args = ", ".join(f"nb{j}" for j in plan.deps[d])
            emit(f"{pad}c{d} = intersect_many([{args}])")

    # ------------------------------------------------------------------
    # prefix preamble (worker kernels only)
    # ------------------------------------------------------------------
    for j in range(split_depth):
        emit(f"    v{j} = prefix[{j}]")
        emit_loop_body_setup(j, indent)

    # ------------------------------------------------------------------
    # outer loops
    # ------------------------------------------------------------------
    for depth in range(split_depth, n_loops - 1):
        pad = indent * (depth - split_depth + 1)
        stmts, cand = _candidate_stmts(
            plan, depth, raw_var[depth], depth_labels, antideps
        )
        for stmt in stmts:
            emit(f"{pad}{stmt}")
        # .tolist() iterates plain Python ints: cheaper per-iteration
        # than boxing numpy scalars, and downstream indexing/compares
        # stay in the fast int path.
        emit(f"{pad}for v{depth} in {cand}.tolist():")
        body = indent * (depth - split_depth + 2)
        distinct = [f"v{depth} != v{j}" for j in range(depth)]
        if distinct:
            emit(f"{body}if not ({' and '.join(distinct)}):")
            emit(f"{body}{indent}continue")
        emit_loop_body_setup(depth, body)

    # ------------------------------------------------------------------
    # innermost executed loop
    # ------------------------------------------------------------------
    last = n_loops - 1
    pad = indent * (last - split_depth + 1)
    stmts, cand = _candidate_stmts(plan, last, raw_var[last], depth_labels, antideps)
    for stmt in stmts:
        emit(f"{pad}{stmt}")
    if plan.iep_k == 0:
        emit(f"{pad}cnt = len({cand})")
        for j in range(last):
            emit(f"{pad}if contains({cand}, v{j}):")
            emit(f"{pad}{indent}cnt -= 1")
        emit(f"{pad}total += cnt")
    else:
        emit(f"{pad}for v{last} in {cand}.tolist():")
        body = pad + indent
        distinct = [f"v{last} != v{j}" for j in range(last)]
        if distinct:
            emit(f"{body}if not ({' and '.join(distinct)}):")
            emit(f"{body}{indent}continue")
        emit_loop_body_setup(last, body)
        _emit_iep(plan, emit, body, raw_var)

    if split_depth or plan.iep_overcount == 1:
        emit("    return total")
    else:
        emit(f"    return total // {plan.iep_overcount}")
    return "\n".join(lines) + "\n"


def _emit_iep(plan: ExecutionPlan, emit, pad: str, raw_var: dict[int, str]) -> None:
    """Expand the IEP evaluation into explicit block arithmetic."""
    n, k = plan.n, plan.iep_k
    n_loops = plan.n_loops
    indent = "    "

    # Per inner position: bounded candidate set S{sid}, deduplicated by
    # (raw source, bounds) signature.
    spec_of_inner: list[int] = []
    specs: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    for pos in range(n_loops, n):
        spec = (raw_var[pos], plan.lower[pos], plan.upper[pos])
        if spec in specs:
            spec_of_inner.append(specs.index(spec))
        else:
            spec_of_inner.append(len(specs))
            specs.append(spec)

    emit(f"{pad}# IEP over {k} inner vertices; {len(specs)} distinct candidate sets")
    for sid, (base, lo_deps, hi_deps) in enumerate(specs):
        if lo_deps or hi_deps:
            lo_terms = [f"v{j}" for j in lo_deps]
            hi_terms = [f"v{j}" for j in hi_deps]
            lo = (f"max({', '.join(lo_terms)})" if len(lo_terms) > 1 else lo_terms[0]) if lo_terms else "None"
            hi = (f"min({', '.join(hi_terms)})" if len(hi_terms) > 1 else hi_terms[0]) if hi_terms else "None"
            emit(f"{pad}S{sid} = bounded_slice({base}, {lo}, {hi})")
        else:
            emit(f"{pad}S{sid} = {base}")

    # Every block that occurs in any partition, as a frozenset of spec ids.
    blocks_needed: dict[frozenset[int], str] = {}
    partitions = set_partitions(k)
    for partition in partitions:
        for block in partition:
            key = frozenset(spec_of_inner[i] for i in block)
            if key not in blocks_needed:
                blocks_needed[key] = f"B{len(blocks_needed)}"

    bound = [f"v{j}" for j in range(n_loops)]
    for key, bname in blocks_needed.items():
        sids = sorted(key)
        if len(sids) == 1:
            arr = f"S{sids[0]}"
        else:
            args = ", ".join(f"S{s}" for s in sids)
            emit(f"{pad}I{bname} = intersect_many([{args}])")
            arr = f"I{bname}"
        emit(f"{pad}{bname} = len({arr})")
        for v in bound:
            emit(f"{pad}if contains({arr}, {v}):")
            emit(f"{pad}{indent}{bname} -= 1")

    terms: list[str] = []
    for partition in partitions:
        coeff = partition_coefficient(partition)
        names = [
            blocks_needed[frozenset(spec_of_inner[i] for i in block)] for block in partition
        ]
        prod = "*".join(sorted(names))
        if coeff == 1:
            terms.append(f"+ {prod}")
        elif coeff == -1:
            terms.append(f"- {prod}")
        elif coeff > 0:
            terms.append(f"+ {coeff}*{prod}")
        else:
            terms.append(f"- {-coeff}*{prod}")
    expr = " ".join(terms)
    if expr.startswith("+ "):
        expr = expr[2:]
    elif expr.startswith("- "):
        expr = "-" + expr[2:]
    emit(f"{pad}total += {expr}")


def _exec_generated(source: str, plan, func_name: str):
    namespace = {
        "np": np,
        "intersect_many": intersect_many,
        "bounded_slice": bounded_slice,
        "contains": contains,
        "difference": difference,
    }
    # Undirected plans carry the pattern on plan.config; directed plans
    # expose it directly.
    pattern = getattr(getattr(plan, "config", plan), "pattern", None)
    label = getattr(pattern, "name", "") or "pattern"
    exec(compile(source, f"<generated:{label}>", "exec"), namespace)
    return namespace[func_name]


def compile_plan_function(plan: ExecutionPlan) -> GeneratedCounter:
    """Generate, ``exec`` and wrap the specialised counter."""
    source = generate_source(plan)
    function = _exec_generated(source, plan, "generated_count")
    return GeneratedCounter(plan=plan, source=source, function=function)


def compile_induced_function(plan: ExecutionPlan) -> GeneratedCounter:
    """The vertex-induced specialisation of :func:`compile_plan_function`.

    Anti-dependencies (earlier schedule positions the pattern does not
    connect to the current vertex) become sorted ``difference`` filters
    in the generated nest.  IEP plans are rejected: the inclusion–
    exclusion formula assumes edge semantics (the session never plans
    IEP for induced queries).
    """
    if plan.iep_k > 0:
        raise ValueError("induced kernels require an IEP-free plan (iep_k == 0)")
    pattern = plan.config.pattern
    schedule = plan.config.schedule
    antideps = tuple(
        tuple(j for j in range(d) if not pattern.has_edge(v, schedule[j]))
        for d, v in enumerate(schedule)
    )
    source = generate_source(
        plan, func_name="generated_count_induced", antideps=antideps
    )
    function = _exec_generated(source, plan, "generated_count_induced")
    return GeneratedCounter(
        plan=plan, source=source, function=function, mode="induced"
    )


def compile_labeled_function(plan: ExecutionPlan, lpattern) -> GeneratedCounter:
    """The labeled specialisation: per-depth label filters, folded in as
    constants from ``lpattern``.  The returned kernel takes a
    :class:`~repro.graph.labeled.LabeledGraph`.  IEP plans are rejected
    (labeled planning is IEP-free by construction)."""
    if plan.iep_k > 0:
        raise ValueError("labeled kernels require an IEP-free plan (iep_k == 0)")
    depth_labels = tuple(lpattern.labels[v] for v in plan.config.schedule)
    source = generate_source(
        plan, func_name="generated_count_labeled", depth_labels=depth_labels
    )
    function = _exec_generated(source, plan, "generated_count_labeled")
    return GeneratedCounter(
        plan=plan, source=source, function=function, mode="labeled"
    )


def generate_directed_source(
    plan, func_name: str = "generated_count_directed"
) -> str:
    """Emit the specialised counter for one directed plan.

    The directed analogue of :func:`generate_source`: the loop nest is
    unrolled over the plan's schedule, but each depth's raw candidate
    set intersects *out*-CSR rows for its ``out_deps`` and *in*-CSR
    rows for its ``in_deps`` (an antiparallel dependency contributes
    both rows to the intersection).  Row bindings are hoisted to the
    loop that binds their vertex — ``ob{j}``/``ib{j}`` are the out/in
    rows of ``v{j}`` — and restriction bounds inline exactly as in the
    undirected generator (they compare ids, never directions).

    IEP plans are rejected: the session plans IEP-free for a compiled
    preference (its ``iep_modes`` is plain only), and the overcount
    expansion has no directed generator.
    """
    if plan.iep_k > 0:
        raise ValueError("directed kernels require an IEP-free plan (iep_k == 0)")
    n = plan.n
    indent = "    "
    lines: list[str] = []
    emit = lines.append

    emit(f"def {func_name}(graph):")
    emit(f'    """Generated directed counter: schedule={tuple(plan.schedule)},')
    emit(f"    arcs={tuple(plan.pattern.arcs)},")
    emit(f"    restrictions={sorted(plan.restrictions)}.")
    emit('    """')
    emit("    out_indptr = graph.out_indptr")
    emit("    out_indices = graph.out_indices")
    emit("    in_indptr = graph.in_indptr")
    emit("    in_indices = graph.in_indices")
    emit("    nv = graph.n_vertices")
    emit(f"    if nv < {n}:")
    emit("        return 0")
    emit("    total = 0")
    if any(not (plan.out_deps[d] or plan.in_deps[d]) for d in range(n)):
        emit("    all_vertices = np.arange(nv, dtype=out_indices.dtype)")

    # ------------------------------------------------------------------
    # hoisting plan: which row bindings each bound vertex must expose,
    # and where multi-dependency intersections are computed.
    # ------------------------------------------------------------------
    ob_needed = [
        any(d in plan.out_deps[later] for later in range(d + 1, n)) for d in range(n)
    ]
    ib_needed = [
        any(d in plan.in_deps[later] for later in range(d + 1, n)) for d in range(n)
    ]
    ref_vars = [
        tuple(f"ob{j}" for j in plan.out_deps[d])
        + tuple(f"ib{j}" for j in plan.in_deps[d])
        for d in range(n)
    ]
    raw_var: dict[int, str] = {}
    hoist_at: dict[int, list[int]] = {}
    for d in range(n):
        refs = ref_vars[d]
        if not refs:
            raw_var[d] = "all_vertices"
        elif len(refs) == 1:
            raw_var[d] = refs[0]
        else:
            raw_var[d] = f"c{d}"
            hoist_at.setdefault(
                max(plan.out_deps[d] + plan.in_deps[d]), []
            ).append(d)

    def emit_loop_body_setup(depth: int, pad: str) -> None:
        if ob_needed[depth]:
            emit(
                f"{pad}ob{depth} = "
                f"out_indices[out_indptr[v{depth}]:out_indptr[v{depth}+1]]"
            )
        if ib_needed[depth]:
            emit(
                f"{pad}ib{depth} = "
                f"in_indices[in_indptr[v{depth}]:in_indptr[v{depth}+1]]"
            )
        for d in hoist_at.get(depth, ()):
            args = ", ".join(ref_vars[d])
            emit(f"{pad}c{d} = intersect_many([{args}])")

    # ------------------------------------------------------------------
    # outer loops
    # ------------------------------------------------------------------
    for depth in range(n - 1):
        pad = indent * (depth + 1)
        stmt, cand = _bounds_expr(plan, depth, raw_var[depth])
        if stmt:
            emit(f"{pad}{stmt}")
        emit(f"{pad}for v{depth} in {cand}.tolist():")
        body = indent * (depth + 2)
        distinct = [f"v{depth} != v{j}" for j in range(depth)]
        if distinct:
            emit(f"{body}if not ({' and '.join(distinct)}):")
            emit(f"{body}{indent}continue")
        emit_loop_body_setup(depth, body)

    # ------------------------------------------------------------------
    # innermost loop: count without materialising
    # ------------------------------------------------------------------
    last = n - 1
    pad = indent * (last + 1)
    stmt, cand = _bounds_expr(plan, last, raw_var[last])
    if stmt:
        emit(f"{pad}{stmt}")
    emit(f"{pad}cnt = len({cand})")
    for j in range(last):
        emit(f"{pad}if contains({cand}, v{j}):")
        emit(f"{pad}{indent}cnt -= 1")
    emit(f"{pad}total += cnt")
    emit("    return total")
    return "\n".join(lines) + "\n"


def compile_directed_function(plan) -> GeneratedCounter:
    """Generate, ``exec`` and wrap the directed counter.

    The returned kernel takes a :class:`~repro.graph.digraph.DiGraph`
    and is semantically identical to
    :class:`repro.core.directed.DirectedEngine` on the same plan.
    """
    source = generate_directed_source(plan)
    function = _exec_generated(source, plan, "generated_count_directed")
    return GeneratedCounter(
        plan=plan, source=source, function=function, mode="directed"
    )


def compile_prefix_function(plan: ExecutionPlan, split_depth: int) -> GeneratedPrefixCounter:
    """Generate, ``exec`` and wrap the worker-side prefix kernel.

    Pairs with :meth:`repro.core.engine.Engine.iter_prefixes`: the master
    enumerates prefixes (interpreted — outer loops are a vanishing
    fraction of the work), workers run this specialised kernel per task.
    """
    source = generate_source(
        plan, func_name="generated_count_prefix", split_depth=split_depth
    )
    function = _exec_generated(source, plan, "generated_count_prefix")
    return GeneratedPrefixCounter(
        plan=plan, split_depth=split_depth, source=source, function=function
    )
