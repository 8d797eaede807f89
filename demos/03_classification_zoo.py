"""
Classification zoo
==================

Chordality (equivalently, supersolvability of the arrangement) and
decomposability for a small zoo of graphs, with witnesses.
"""

from glcs import (
    NotDecomposableError,
    clique_vector,
    complete_graph,
    decomposable_series,
    graph_from_edges,
    is_chordal,
)


def is_decomposable(g) -> bool:
    """No K4: the package's own test, the one decomposable_series applies."""
    try:
        decomposable_series(g, 1)
    except NotDecomposableError:
        return False
    return True


ZOO = [
    ("triangle", complete_graph(3)),
    ("4-cycle", graph_from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])),
    ("path on 5", graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])),
    ("K4", complete_graph(4)),
    (
        "pyramid (4-cycle + apex)",
        graph_from_edges(
            [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
        ),
    ),
    (
        "octahedron",
        graph_from_edges(
            [
                (i, j)
                for i in range(6)
                for j in range(i + 1, 6)
                if j - i != 3
            ]
        ),
    ),
    (
        "bowtie",
        graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
    ),
    (
        "pyramid + wing vertex",
        graph_from_edges(
            [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4),
             (4, 5), (0, 5), (1, 5)]
        ),
    ),
]

for name, g in ZOO:
    kappa = clique_vector(g)
    chordal, witness = is_chordal(g)
    decomposable = is_decomposable(g)
    print(f"{name}: kappa = {kappa}")
    if chordal:
        # witness is a perfect elimination ordering
        order = [g.label(v) for v in witness]
        print("  chordal, elimination order:", " ".join(map(str, order)))
    else:
        cyc = [g.label(v) for v in witness]
        print("  not chordal, chordless cycle:", " ".join(map(str, cyc)))
    print("  decomposable:", "yes" if decomposable else "no")

# the bowtie is both, K4 is chordal only, the pyramid and octahedron are
# decomposable only, and the winged pyramid (one K4 plus a chordless
# 4-cycle) is neither
print()
print("summary: chordality needs no long induced cycles,")
print("decomposability needs no K4; the four combinations all occur")
