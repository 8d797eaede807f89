"""The graph layer, the LCS product and the oracle agree with their references.

The references in reference.py are the direct versions of the same
routines; maximum cardinality search, the degeneracy order, the
chordless-cycle witness, triangle completeness, the split pieces, the
decomposition tree and the expanded LCS product must come out identical,
not merely equivalent.  The adjacency a split piece inherits from its
parent must be the one its own edges give.  Deletion-contraction must give
the chromatic polynomial of Whitney's expansion over edge subsets.
The shortest-hole search checks the chordality answer and that no witness
is shorter than a shortest hole.
The rank-2 flats and the holonomy presentation read off them must be the
reference's, flat for flat and relator for relator, in the same order.
The holonomy oracle, which works in the enveloping algebra, must give the
same graded dimensions and kernel-generation reports as the Lyndon-basis
oracle.
"""

import random

import pytest

import reference
from glcs import (
    Graph,
    Node,
    chromatic_polynomial,
    clique_vector,
    complete_graph,
    decompose,
    graded_dims,
    graph_from_edges,
    graphic_exponents,
    is_chordal,
    is_triangle_complete,
    phi_from_exponents,
    presentation,
    rank2_flats,
    split_at_vertex,
    verify_kernel_generation,
)
from glcs.graphs import _peel
from glcs.series import expand_lcs_product
from iso import representatives


def _relabelled(rng, n, edges):
    ids = list(range(n))
    rng.shuffle(ids)
    return graph_from_edges(
        [(ids[a], ids[b]) for a, b in edges], vertices=range(n)
    )


def _gnm(rng, n, m):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return _relabelled(rng, n, rng.sample(pairs, min(m, len(pairs))))


def _cycle_with_chords(rng, n, chords):
    edges = {(i, (i + 1) % n) for i in range(n)}
    while len(edges) < n + chords:
        a, b = rng.sample(range(n), 2)
        if (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
    return _relabelled(rng, n, sorted(edges))


def _seeded_graphs():
    rng = random.Random(20260)
    graphs = []
    for _ in range(240):
        n = rng.randint(5, 40)
        m = rng.randint(n - 1, 3 * n)
        graphs.append(_gnm(rng, n, m))
    for _ in range(40):
        n = rng.randint(8, 60)
        graphs.append(_cycle_with_chords(rng, n, rng.randint(0, 3)))
    return graphs


def _sparse_graph():
    return _gnm(random.Random(150), 150, 450)


CLASSES6 = representatives(6)
CLASSES5 = representatives(5)
SEEDED = _seeded_graphs()
SMALL = list(CLASSES6) + [g for g in SEEDED if g.n_vertices <= 25]
CAPS_LIFTED = {"max_dim": 10**9, "max_entries": 10**15}


def _check_orders_and_witness(g):
    """Check both orders and the witness; (witness, shortest hole) or None."""
    mcs = list(_peel(g, lambda v: 0))
    assert mcs == reference.max_cardinality_search(g)
    degeneracy = list(_peel(g, g.degree))
    assert degeneracy == reference.degeneracy_order(g)
    shortest = reference.chordless_cycle(g)
    chordal, witness = is_chordal(g)
    if chordal:
        assert shortest is None
        assert reference.elimination_witness(g) is None
        return None
    assert witness == reference.elimination_witness(g)
    assert len(witness) >= len(shortest)
    return witness, shortest


def test_orders_and_witness_on_every_6_vertex_class():
    for g in CLASSES6:
        found = _check_orders_and_witness(g)
        if found:
            # on at most 6 vertices the first fault closes a shortest hole
            witness, shortest = found
            assert len(witness) == len(shortest)


def test_orders_and_witness_on_seeded_graphs():
    lengths = []
    longer = 0
    for g in SEEDED:
        found = _check_orders_and_witness(g)
        if found:
            witness, shortest = found
            lengths.append(len(witness))
            longer += len(witness) > len(shortest)
    # both answers are exercised, cycles of several lengths, and witnesses
    # both of the shortest length and longer
    assert 0 < len(lengths) < len(SEEDED)
    assert len(set(lengths)) >= 3
    assert 0 < longer < len(lengths)


def test_components_match_breadth_first_search():
    rng = random.Random(7)
    # sparse graphs leave isolated vertices, each its own component
    sparse = [_gnm(rng, n, rng.randint(0, n)) for n in range(1, 31)]
    assert any(len(c) == 1 for g in sparse for c in reference.components(g))
    # ids that are not 0..n-1
    odd_ids = _gnm(random.Random(10), 10, 12).induced([1, 3, 4, 6, 8, 9])
    assert odd_ids.vertices == (1, 3, 4, 6, 8, 9)
    for n in range(7):
        for g in representatives(n):
            assert g.components() == reference.components(g)
    for g in sparse + [odd_ids]:
        assert g.components() == reference.components(g)


def _subgraph_pairs(g, rng):
    for v in g.vertices:
        g1, g2, seam = split_at_vertex(g, v)
        yield g, g1
        yield g, g2
        yield g1, seam
    for _ in range(4):
        keep = [e for e in g.edges if rng.random() < 0.6]
        yield g, graph_from_edges(keep, vertices=g.vertices)
        yield g, Graph(g.vertices, tuple(keep))


def test_triangle_complete_matches_reference():
    rng = random.Random(7)
    answers = []
    for g in SMALL:
        for big, small in _subgraph_pairs(g, rng):
            got = is_triangle_complete(big, small)
            assert got == reference.is_triangle_complete(big, small)
            answers.append(got)
    assert True in answers and False in answers


def _assert_adjacency_from_edges(g):
    # a stale neighbour set would pass the equality checks, which compare
    # vertices and edges only
    assert g._adjacency == reference.adjacency(g)


def test_split_matches_reference():
    sparse = _sparse_graph()
    labels = tuple(f"x{v}" for v in sparse.vertices)
    labelled = Graph(sparse.vertices, sparse.edges, labels)
    for g in SMALL + [labelled]:
        for v in g.vertices:
            got = split_at_vertex(g, v)
            want = reference.split_at_vertex(g, v)
            for piece, expected in zip(got, want, strict=True):
                assert piece == expected
                assert piece.labels == expected.labels
                _assert_adjacency_from_edges(piece)


def _tree_graphs(tree):
    stack = [tree]
    while stack:
        tree = stack.pop()
        yield tree.graph
        if isinstance(tree, Node):
            yield tree.seam
            stack += [tree.left, tree.right]


def test_decompose_matches_reference():
    for g in SMALL:
        assert decompose(g) == reference.decompose(g)


def test_decompose_adjacency_matches_edges():
    for g in SMALL + [_sparse_graph()]:
        for h in _tree_graphs(decompose(g)):
            _assert_adjacency_from_edges(h)


def _chromatic_graphs():
    rng = random.Random(1410)
    graphs = [g for n in range(7) for g in representatives(n)]
    for _ in range(24):
        n = rng.randint(1, 10)
        graphs.append(_gnm(rng, n, rng.randint(0, min(14, n * (n - 1) // 2))))
    # a triangle among isolated vertices, and a subgraph keeping its
    # parent's ids, which are not 0..k-1
    graphs.append(graph_from_edges([(2, 5), (5, 9), (2, 9)], vertices=range(11)))
    sub = _gnm(rng, 10, 20).induced({1, 3, 4, 6, 8, 9})
    assert sub.n_edges and sub.vertices == (1, 3, 4, 6, 8, 9)
    graphs.append(sub)
    return graphs


def test_chromatic_matches_whitney_expansion():
    graphs = _chromatic_graphs()
    assert graphs[0].n_vertices == 0
    assert max(g.n_vertices for g in graphs) == 11
    assert max(g.n_edges for g in graphs) == 15
    for g in graphs:
        assert chromatic_polynomial(g).coeffs == reference.chromatic_polynomial(g)


def _sparse_phi(order):
    g = _sparse_graph()
    return phi_from_exponents(graphic_exponents(clique_vector(g)), order)


@pytest.mark.parametrize(
    "phi, order",
    [
        ((), 0),
        ((5,), 0),
        ((0, 0, 0), 3),
        ((3, 0, 2), 3),
        ((-1, 0, 0), 3),
        ((-4, -2, 7, 0, -1), 5),
        ((3, 1, 2, 3, 6, 9, 18), 4),  # factors with k > order
        ((2, -3, 1, 0, 5, -8), 6),
        ((10**30, -(10**25), 10**20), 3),
    ],
)
def test_expand_lcs_product_matches_reference(phi, order):
    assert expand_lcs_product(phi, order) == reference.expand_lcs_product(phi, order)


def test_expand_lcs_product_degree_60_of_a_150_vertex_graph():
    phi = _sparse_phi(60)
    assert max(phi) > 10**15
    assert expand_lcs_product(phi, 60) == reference.expand_lcs_product(phi, 60)


def test_flats_and_presentation_match_reference():
    graphs = [g for n in range(7) for g in representatives(n)]
    assert len(graphs) == 209
    for g in graphs + [complete_graph(7)]:
        flats = rank2_flats(g)
        want = reference.rank2_flats(g)
        assert len(flats) == len(want)
        for got, flat in zip(flats, want):
            assert got == flat
        relators = presentation(g).relators
        p = reference.presentation(g)
        assert len(relators) == len(p.relators)
        for got, rel in zip(relators, p.relators):
            assert got == rel
        assert presentation(g) == p


def test_graded_dims_matches_reference_on_every_6_vertex_class():
    for g in CLASSES6:
        p = presentation(g)
        assert graded_dims(p, 4, **CAPS_LIFTED) == reference.graded_dims(p, 4)


def test_graded_dims_matches_reference_at_degree_5():
    classes = [g for g in CLASSES5 if g.n_edges <= 8]
    assert len(classes) == 32
    for g in classes:
        p = presentation(g)
        assert graded_dims(p, 5, **CAPS_LIFTED) == reference.graded_dims(p, 5)


@pytest.mark.parametrize(
    "classes, degree",
    [
        pytest.param(CLASSES5, 4, id="5-vertex-degree-4"),
        pytest.param(CLASSES6, 3, id="6-vertex-degree-3"),
    ],
)
def test_kernel_generation_matches_reference(classes, degree):
    rng = random.Random(degree)
    pairs = [
        (g, sub)
        for h in classes
        for g, sub in _subgraph_pairs(h, rng)
        if is_triangle_complete(g, sub)
    ]
    spans = set()
    for g, sub in pairs:
        got = verify_kernel_generation(g, sub, degree, **CAPS_LIFTED)
        assert got == reference.verify_kernel_generation(g, sub, degree)
        spans.add(got.rows[-1].spanned)
    assert len(spans) > 5
