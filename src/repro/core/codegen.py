"""Code generation: specialise a plan into straight-line Python source.

GraphPi generates C++ for the chosen configuration and compiles it with
gcc (§III, "Code Generation and Compilation").  The Python analogue:
``generate_source`` emits a dedicated counting function for one
:class:`~repro.core.config.ExecutionPlan` — loop nest unrolled, depth
constants folded, restriction bounds inlined, intersections *hoisted* to
the loop where their last operand is bound (exactly Fig. 5(b), where
``tmpAB`` is computed in the B loop and reused across the D loop), and
IEP blocks expanded into explicit arithmetic.  ``compile_plan_function``
``exec``s the source.  One generator serves every mode: it reads the
plan's per-depth refs, labels and anti columns
(:mod:`repro.core.config`), so a directed, labeled or induced kernel is
the same loop nest with other row bindings and filters.

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

from repro.core.config import IN, OUT, ExecutionPlan
from repro.core.iep import partition_coefficient, set_partitions
from repro.graph.csr import Graph
from repro.graph.intersection import bounded_slice, contains, difference, intersect_many


@dataclass(frozen=True)
class GeneratedCounter:
    """A compiled counting function plus its source (for inspection).

    The kernel takes the graph kind its plan's mode runs on (a
    :class:`~repro.graph.labeled.LabeledGraph` for a labeled plan, a
    :class:`~repro.graph.digraph.DiGraph` for a directed one).
    """

    plan: ExecutionPlan
    source: str
    function: Callable[[Graph], int]

    @property
    def mode(self) -> str:
        """The matching semantics the kernel was generated for."""
        return self.plan.mode

    def __call__(self, graph) -> int:
        return self.function(graph)


def _bounds_expr(plan: ExecutionPlan, depth: int, base: str) -> tuple[str | None, str]:
    """Return (slice_stmt, var) applying depth's restriction bounds."""
    lo_terms = [f"v{j}" for j in plan.lower[depth]]
    hi_terms = [f"v{j}" for j in plan.upper[depth]]
    if not lo_terms and not hi_terms:
        return None, base
    lo = (f"max({', '.join(lo_terms)})" if len(lo_terms) > 1 else lo_terms[0]) if lo_terms else "None"
    hi = (f"min({', '.join(hi_terms)})" if len(hi_terms) > 1 else hi_terms[0]) if hi_terms else "None"
    return f"s{depth} = bounded_slice({base}, {lo}, {hi})", f"s{depth}"


def _candidate_stmts(plan: ExecutionPlan, depth: int, base: str) -> tuple[list[str], str]:
    """Return (stmts, var): restriction bounds, then the depth's label
    equality and anti-edge differences.  Every stage preserves
    sortedness, so the innermost ``contains`` corrections keep working
    on the final variable."""
    stmts: list[str] = []
    stmt, var = _bounds_expr(plan, depth, base)
    if stmt:
        stmts.append(stmt)
    if plan.labels[depth] is not None:
        stmts.append(f"l{depth} = {var}[labels[{var}] == {plan.labels[depth]}]")
        var = f"l{depth}"
    for j in plan.anti[depth]:
        stmts.append(f"x{depth} = difference({var}, {_row_var(plan, j, OUT)})")
        var = f"x{depth}"
    return stmts, var


def _row_var(plan: ExecutionPlan, j: int, way: int) -> str:
    """The variable holding ``v{j}``'s row in direction ``way``."""
    if way == IN:
        return f"ib{j}"
    return f"ob{j}" if plan.mode == "directed" else f"nb{j}"


def generate_source(plan: ExecutionPlan, func_name: str = "generated_count") -> str:
    """Emit the specialised counting function's Python source.

    The function takes ``(graph)`` and counts the whole loop nest.
    Every mode is read off the plan's operations: each depth's raw
    candidates intersect the rows its refs name (``nb{j}`` on an
    undirected graph, ``ob{j}``/``ib{j}`` for the out-/in-CSR rows of a
    digraph), a wanted label becomes a label-equality filter on a
    :class:`~repro.graph.labeled.LabeledGraph`'s ``labels``, and anti
    columns become sorted ``difference`` filters.  An IEP suffix expands
    under plain edge semantics only (see
    :func:`~repro.core.backend.has_kernel`).
    """
    n = plan.n
    n_loops = plan.n_loops
    if plan.iep_k > 0 and plan.mode != "plain":
        raise ValueError(
            f"{plan.mode} kernels require an IEP-free plan (iep_k == 0)"
        )
    directed = plan.mode == "directed"
    indent = "    "
    lines: list[str] = []
    emit = lines.append

    emit(f"def {func_name}(graph):")
    emit(f'    """Generated for {plan.config.describe()}')
    if plan.mode == "labeled":
        emit(f"    Labeled kernel: per-depth labels {plan.labels}.")
    if plan.mode == "induced":
        emit("    Vertex-induced kernel: anti-edges excluded per depth.")
    if directed:
        emit(f"    Directed kernel: (column, 0 out / 1 in) refs per depth {plan.refs}.")
    if plan.iep_k:
        emit(f"    IEP over the innermost {plan.iep_k} loops; overcount divisor "
             f"{plan.iep_overcount}.")
    emit('    """')
    if directed:
        csr = {OUT: ("out_indptr", "out_indices"), IN: ("in_indptr", "in_indices")}
        for indptr, indices in csr.values():
            emit(f"    {indptr} = graph.{indptr}")
            emit(f"    {indices} = graph.{indices}")
    else:
        csr = {OUT: ("indptr", "indices")}
        base = "graph.graph" if plan.mode == "labeled" else "graph"
        emit(f"    indptr = {base}.indptr")
        emit(f"    indices = {base}.indices")
        if plan.mode == "labeled":
            emit("    labels = graph.labels")
    emit("    nv = graph.n_vertices")
    emit(f"    if nv < {n}:")
    emit("        return 0")
    emit("    total = 0")
    if any(not plan.refs[d] for d in range(n)):
        emit(f"    all_vertices = np.arange(nv, dtype={csr[OUT][1]}.dtype)")

    # ------------------------------------------------------------------
    # hoisting plan
    # ------------------------------------------------------------------
    # The row of v{j} in direction `way` is bound once v{j} is, if a ref
    # or an anti column of any depth reads it.
    rows_needed = {ref for d in range(n) for ref in plan.refs[d]} | {
        (j, OUT) for d in range(n) for j in plan.anti[d]
    }
    # Raw candidate var per executed/inner depth: all_vertices / one row /
    # hoisted c{d}.
    raw_var: dict[int, str] = {}
    hoist_at: dict[int, list[int]] = {}
    for d in range(n):
        refs = plan.refs[d]
        if not refs:
            raw_var[d] = "all_vertices"
        elif len(refs) == 1:
            raw_var[d] = _row_var(plan, *refs[0])
        else:
            raw_var[d] = f"c{d}"
            hoist_at.setdefault(max(j for j, _ in refs), []).append(d)

    def emit_loop_body_setup(depth: int, pad: str) -> None:
        """Row bindings + hoisted intersections, after v{depth} is bound."""
        for way in (OUT, IN):
            if (depth, way) in rows_needed:
                indptr, indices = csr[way]
                emit(
                    f"{pad}{_row_var(plan, depth, way)} = "
                    f"{indices}[{indptr}[v{depth}]:{indptr}[v{depth}+1]]"
                )
        for d in hoist_at.get(depth, ()):
            args = ", ".join(_row_var(plan, j, way) for j, way in plan.refs[d])
            emit(f"{pad}c{d} = intersect_many([{args}])")

    # ------------------------------------------------------------------
    # outer loops
    # ------------------------------------------------------------------
    for depth in range(n_loops - 1):
        pad = indent * (depth + 1)
        stmts, cand = _candidate_stmts(plan, depth, raw_var[depth])
        for stmt in stmts:
            emit(f"{pad}{stmt}")
        # .tolist() iterates plain Python ints: cheaper per-iteration
        # than boxing numpy scalars, and downstream indexing/compares
        # stay in the fast int path.
        emit(f"{pad}for v{depth} in {cand}.tolist():")
        body = indent * (depth + 2)
        distinct = [f"v{depth} != v{j}" for j in range(depth)]
        if distinct:
            emit(f"{body}if not ({' and '.join(distinct)}):")
            emit(f"{body}{indent}continue")
        emit_loop_body_setup(depth, body)

    # ------------------------------------------------------------------
    # innermost executed loop
    # ------------------------------------------------------------------
    last = n_loops - 1
    pad = indent * (last + 1)
    stmts, cand = _candidate_stmts(plan, last, raw_var[last])
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

    if plan.iep_overcount == 1:
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


def _exec_generated(source: str, plan: ExecutionPlan, func_name: str):
    namespace = {
        "np": np,
        "intersect_many": intersect_many,
        "bounded_slice": bounded_slice,
        "contains": contains,
        "difference": difference,
    }
    label = plan.config.pattern.name or "pattern"
    exec(compile(source, f"<generated:{label}>", "exec"), namespace)
    return namespace[func_name]


def compile_plan_function(plan: ExecutionPlan) -> GeneratedCounter:
    """Generate, ``exec`` and wrap the specialised counter of any plan."""
    return _generate(plan)


def _generate(plan: ExecutionPlan) -> GeneratedCounter:
    source = generate_source(plan)
    function = _exec_generated(source, plan, "generated_count")
    return GeneratedCounter(plan=plan, source=source, function=function)


# Mode-checked entry points: each refuses a plan lowered for another mode
# and generates through the one generator.
def _compile_mode(plan: ExecutionPlan, mode: str) -> GeneratedCounter:
    if plan.mode != mode:
        raise ValueError(f"expected a {mode} plan, got a {plan.mode} plan")
    return _generate(plan)


def compile_induced_function(plan: ExecutionPlan) -> GeneratedCounter:
    """:func:`compile_plan_function` of an induced plan."""
    return _compile_mode(plan, "induced")


def compile_labeled_function(plan: ExecutionPlan) -> GeneratedCounter:
    """:func:`compile_plan_function` of a labeled plan; the kernel takes
    a :class:`~repro.graph.labeled.LabeledGraph`."""
    return _compile_mode(plan, "labeled")


def compile_directed_function(plan: ExecutionPlan) -> GeneratedCounter:
    """:func:`compile_plan_function` of a directed plan; the kernel takes
    a :class:`~repro.graph.digraph.DiGraph`."""
    return _compile_mode(plan, "directed")
