"""Named patterns, including the paper's evaluation set P1–P6.

Patterns pinned directly by the paper's text/pseudocode:

* **House** (Fig. 5a): rectangle A-B-D-E plus roof C adjacent to A and B —
  edges AB, AC, BC? No: from the pseudocode of Fig. 5(b): B∈N(A);
  C∈N(A); D∈N(B)∩N(C) via tmpBC; E∈N(A)∩N(B).  We use the standard
  house: 4-cycle (A,B,D,E) with roof C on top of edge A-B, i.e. edges
  AB, AC, BC, BD, AE, DE — 5 vertices, 6 edges, |Aut| = 2.
* **Cycle-6-Tri** (Fig. 6a): derived from the paper's pseudocode — edges
  AB, AC (chords), and D adj {A,B}, E adj {A,C}, F adj {B,C}; i.e. the
  6-cycle A-D-B-F-C-E-A plus chords AB and AC.  6 vertices, 8 edges.
* **Rectangle** (Fig. 4a): the 4-cycle, |Aut| = 8.

The evaluation patterns P1–P6 of Figure 7 are published only as drawings,
so we reconstruct them from the textual evidence:
P1 = House and P2 = Pentagon are "also used in GraphZero" and "relatively
simple"; P3 appears in Figure 9 with a ~400-schedule landscape (6
vertices); §V-C says the top 4 vertices of P4 form a rectangle; P5 and P6
are "large and complex" (the preprocessing overhead of Table III grows to
seconds, implying 6–7 vertices with rich symmetry).
"""

from __future__ import annotations

from itertools import combinations

from repro.pattern.pattern import Pattern


# ---------------------------------------------------------------------------
# basic named shapes
# ---------------------------------------------------------------------------
def triangle() -> Pattern:
    return Pattern(3, [(0, 1), (0, 2), (1, 2)], name="triangle")


def rectangle() -> Pattern:
    """The 4-cycle of Figure 4(a): A=0, B=1, C=2, D=3."""
    return Pattern(4, [(0, 1), (1, 2), (2, 3), (3, 0)], name="rectangle")


def path(n: int) -> Pattern:
    if n < 2:
        raise ValueError("a path needs at least 2 vertices")
    return Pattern(n, [(i, i + 1) for i in range(n - 1)], name=f"path-{n}")


def cycle(n: int) -> Pattern:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Pattern(n, [(i, (i + 1) % n) for i in range(n)], name=f"cycle-{n}")


def star(n_leaves: int) -> Pattern:
    if n_leaves < 1:
        raise ValueError("a star needs at least one leaf")
    return Pattern(
        n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)], name=f"star-{n_leaves}"
    )


def clique(n: int) -> Pattern:
    if n < 2:
        raise ValueError("a clique needs at least 2 vertices")
    return Pattern(n, list(combinations(range(n), 2)), name=f"clique-{n}")


def pentagon() -> Pattern:
    p = cycle(5)
    return Pattern(5, p.edges, name="pentagon")


def house() -> Pattern:
    """Figure 5(a): rectangle (A,E,D,B) with roof C over edge A-B.

    Vertices: A=0, B=1, C=2, D=3, E=4.  Edges: A-B, A-C, B-C (roof
    triangle), B-D, A-E, D-E (body).  The candidate sets of the paper's
    pseudocode fall out of this labelling: D ∈ N(B)∩N(C)?  — the paper's
    Fig. 5(b) uses schedule A,B,C,D,E with D ∈ tmpBC = N(vB)∩N(vC)…

    We match Fig. 5(b) exactly: E ∈ N(A)∩N(B), D ∈ N(B)∩N(C); so edges
    are A-B, A-C, B-C? no — D adj B and C, E adj A and B, plus A-C and
    A-B.  Final edge set: {AB, AC, BD, CD, AE, BE}; the rectangle is
    A-C-D-B with roof on edge A-B.  |Aut| = 2 (swap C/E? no —
    reflection swapping (A,B)(C,E) keeps D fixed).
    """
    # A=0 B=1 C=2 D=3 E=4
    return Pattern(
        5,
        [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (1, 4)],
        name="house",
    )


def hourglass() -> Pattern:
    """Two triangles sharing a single vertex (the GraphPi enum's Hourglass)."""
    return Pattern(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], name="hourglass")


def cycle_6_tri() -> Pattern:
    """Figure 6(a): the Cycle-6-Tri pattern, reconstructed from Fig. 6(b).

    From the pseudocode: B ∈ N(A); C ∈ N(A); S1(D) = N(A)∩N(B);
    S2(E) = N(A)∩N(C); S3(F) = N(B)∩N(C).  Hence edges:
    A-B, A-C, D-A, D-B, E-A, E-C, F-B, F-C (8 edges, 6 vertices).
    D, E, F are pairwise non-adjacent → k = 3 (IEP removes 3 loops).
    """
    # A=0 B=1 C=2 D=3 E=4 F=5
    return Pattern(
        6,
        [(0, 1), (0, 2), (3, 0), (3, 1), (4, 0), (4, 2), (5, 1), (5, 2)],
        name="cycle-6-tri",
    )


def rectangle_house() -> Pattern:
    """P4 reconstruction: top 4 vertices form a rectangle (§V-C), with two
    extra vertices hanging below — a 6-vertex 'double-roof house'.

    Rectangle A-B-C-D; E adjacent to A and B; F adjacent to C and D.
    E and F are non-adjacent (and each non-adjacent to half the
    rectangle), giving k = 2 ... 3 and a rectangle subpattern whose count
    the performance model must predict (the P4 discussion in §V-C).
    """
    return Pattern(
        6,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (5, 2), (5, 3)],
        name="rectangle-house",
    )


def double_triangle_prism() -> Pattern:
    """P5 reconstruction: the 3-prism (two triangles joined by a matching)
    plus a chord — 6 vertices, 10 edges, rich symmetry. """
    return Pattern(
        6,
        [
            (0, 1), (1, 2), (0, 2),          # top triangle
            (3, 4), (4, 5), (3, 5),          # bottom triangle
            (0, 3), (1, 4), (2, 5),          # matching
            (0, 4),                          # chord breaking full symmetry
        ],
        name="prism-chord",
    )


def near_clique_7() -> Pattern:
    """P6 reconstruction: K7 minus a perfect-ish matching (3 edges) —
    7 vertices, 18 edges; large automorphism group, heavy preprocessing,
    exactly the regime where Table III reports seconds of overhead."""
    missing = {(0, 1), (2, 3), (4, 5)}
    edges = [e for e in combinations(range(7), 2) if e not in missing]
    return Pattern(7, edges, name="near-clique-7")


# ---------------------------------------------------------------------------
# the paper's evaluation set
# ---------------------------------------------------------------------------
def paper_patterns() -> dict[str, Pattern]:
    """P1–P6 used throughout Section V (see module docstring)."""
    return {
        "P1": _renamed(house(), "P1"),
        "P2": _renamed(pentagon(), "P2"),
        "P3": _renamed(cycle_6_tri(), "P3"),
        "P4": _renamed(rectangle_house(), "P4"),
        "P5": _renamed(double_triangle_prism(), "P5"),
        "P6": _renamed(near_clique_7(), "P6"),
    }


def _renamed(p: Pattern, name: str) -> Pattern:
    return Pattern(p.n_vertices, p.edges, name=name)


NAMED_PATTERNS = {
    "triangle": triangle,
    "rectangle": rectangle,
    "pentagon": pentagon,
    "house": house,
    "hourglass": hourglass,
    "cycle-6-tri": cycle_6_tri,
    "rectangle-house": rectangle_house,
    "prism-chord": double_triangle_prism,
    "near-clique-7": near_clique_7,
}


def get_pattern(name: str) -> Pattern:
    """Look up a pattern by name ('house', 'P3', 'clique-5', 'cycle-6'...)."""
    key = name.lower()
    if key in NAMED_PATTERNS:
        return NAMED_PATTERNS[key]()
    if key.upper().startswith("P") and key[1:].isdigit():
        papers = paper_patterns()
        up = key.upper()
        if up in papers:
            return papers[up]
    if key.startswith("clique-"):
        return clique(int(key.split("-", 1)[1]))
    if key.startswith("cycle-") and key[6:].isdigit():
        return cycle(int(key.split("-", 1)[1]))
    if key.startswith("path-"):
        return path(int(key.split("-", 1)[1]))
    if key.startswith("star-"):
        return star(int(key.split("-", 1)[1]))
    raise KeyError(f"unknown pattern {name!r}")
