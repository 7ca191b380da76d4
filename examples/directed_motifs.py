#!/usr/bin/env python
"""Directed network motifs on a citation graph.

The paper scopes its presentation to undirected graphs but claims the
methods *"can be easily extended to directed and labeled graphs"*
(§II-A).  This example exercises that extension
(:mod:`repro.core.directed`): the classic directed-motif census of
systems biology / network science — feed-forward loops, feedback loops,
bi-fans — on a Price preferential-attachment citation DAG and on a
directed Erdős–Rényi control.

Two things to notice in the output:

* the citation DAG has *zero* feedback (cyclic) triangles — arcs always
  point back in time — while the ER control has plenty; the feed-forward
  loop dominates, which is the signature structure of citation networks;
* the directed pipeline is the same GraphPi pipeline: Algorithm 1 runs
  on the direction-preserving automorphism subgroup (the directed
  3-cycle keeps only its 3 rotations; breaking a pure rotation group is
  exactly the case where the orbit-anchor fallback extends the paper's
  2-cycle scan).

Run:  python examples/directed_motifs.py
"""

from repro import DirectedMatcher
from repro.graph.digraph import price_citation_graph, random_digraph
from repro.pattern.directed import (
    bi_fan,
    directed_cycle,
    feedforward_loop,
    out_star,
)

MOTIFS = [
    feedforward_loop(),  # X -> Y, X -> Z, Y -> Z  (acyclic triangle)
    directed_cycle(3),  # X -> Y -> Z -> X        (feedback triangle)
    bi_fan(),  # two sources x two sinks
    out_star(2),  # one vertex citing two others
    directed_cycle(4),  # 4-vertex feedback ring
]


def census(graph, label: str) -> None:
    print(f"\n--- {label}: {graph.n_vertices} vertices, {graph.n_arcs} arcs ---")
    print(f"{'motif':<20} {'count':>10}  {'|Aut|':>5}  restrictions of chosen set")
    for motif in MOTIFS:
        matcher = DirectedMatcher(motif)
        report = matcher.plan(graph)
        count = matcher.count(graph, report=report)
        res = (
            ", ".join(f"id({g})>id({s})" for g, s in sorted(report.plan.config.restrictions))
            or "(none needed)"
        )
        from repro.pattern.directed import directed_automorphism_count

        print(
            f"{motif.name:<20} {count:>10}  "
            f"{directed_automorphism_count(motif):>5}  {res}"
        )


def main() -> None:
    citation = price_citation_graph(400, out_degree=4, seed=11, name="price-citations")
    census(citation, "citation DAG (Price model)")

    control = random_digraph(400, 4 / 399, seed=13, name="directed-ER-control")
    census(control, "directed ER control (same density)")

    print(
        "\nNote the zero feedback-loop rows on the DAG: arcs only point\n"
        "backwards in time, so every triangle is feed-forward — the\n"
        "motif signature that distinguishes citation networks from the\n"
        "ER control above."
    )


if __name__ == "__main__":
    main()
