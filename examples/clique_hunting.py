#!/usr/bin/env python
"""Clique counting on a social-network proxy (the paper's 7-clique story).

A k-clique has k! automorphisms (5 040 for k = 7, §II-B), so symmetry
breaking is the difference between tractable and hopeless.  This script
counts cliques of growing size on the Orkut proxy and shows the
restriction chain GraphPi generates, plus the redundancy a naive
matcher would pay.

Run:  python examples/clique_hunting.py
"""

import time
from math import factorial

from repro import MatchQuery, count_pattern, get_session, load_dataset
from repro.mining.cliques import clique_count_ordered, max_clique_lower_bound
from repro.pattern.catalog import clique
from repro.utils.tables import Table


def main() -> None:
    graph = load_dataset("orkut", scale=0.08, seed=5)
    print(f"data graph: {graph}\n")

    kmax = max_clique_lower_bound(graph, limit=8)
    print(f"largest clique found (k <= 8 scan): {kmax}\n")

    table = Table(
        ["k", "cliques", "naive redundancy (|Aut| = k!)", "GraphPi time",
         "specialised-ordered time"],
        title="clique counting with automatic symmetry breaking",
    )
    for k in range(3, min(kmax, 6) + 1):
        t0 = time.perf_counter()
        count = count_pattern(graph, clique(k), max_restriction_sets=8)
        t_pi = time.perf_counter() - t0

        t0 = time.perf_counter()
        ordered = clique_count_ordered(graph, k)
        t_ord = time.perf_counter() - t0
        assert ordered == count

        table.add_row(
            [k, count, f"{factorial(k)}x", f"{t_pi:.3f} s", f"{t_ord:.3f} s"]
        )
    print(table.render())

    # Show the restriction chain for the 4-clique: a total order.
    query = MatchQuery(clique(4), use_iep=False, max_restriction_sets=8)
    report = get_session(graph).plan_for(query).report
    print("\nchosen 4-clique configuration:", report.chosen.config.describe())
    print("every clique is enumerated exactly once — the general machinery "
          "rediscovers the classic ordered-enumeration trick.")


if __name__ == "__main__":
    main()
