"""Graph layer: parsing, cliques, chordality, splits, decomposition."""

import itertools

import pytest

import glcs.graphs
from glcs import (
    Graph,
    Leaf,
    MismatchError,
    Node,
    ParseError,
    clique_vector,
    complete_graph,
    decompose,
    graph_from_edges,
    is_chordal,
    is_triangle_complete,
    parse_graph,
    split_at_vertex,
    to_edge_list,
    tree_leaves,
)
from iso import representatives

EXAMPLE = (
    "v1 v2\nv2 v3\nv3 v4\nv4 v1\n"
    "a v1\na v2\na v3\na v4\n"
    "w a\nw v1\nw v2\n"
)


def cycle_graph(n):
    return graph_from_edges([(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return graph_from_edges([(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# parsing and serialization

def test_parse_basic():
    g = parse_graph("a b\nb c\n")
    assert g.vertices == (0, 1, 2)
    assert g.edges == ((0, 1), (1, 2))
    assert g.labels == ("a", "b", "c")


def test_parse_first_appearance_order():
    g = parse_graph("z y\nx z\n")
    assert g.labels == ("z", "y", "x")
    assert g.edges == ((0, 1), (0, 2))


def test_parse_comments_and_blanks():
    g = parse_graph("# heading\n\na b  # trailing\n\n# done\n")
    assert g.n_edges == 1
    assert g.labels == ("a", "b")


def test_parse_isolated_vertex():
    g = parse_graph("v lonely\na b\n")
    assert g.n_vertices == 3
    assert g.labels == ("lonely", "a", "b")
    assert g.edges == ((1, 2),)


def test_parse_vertex_named_v():
    # "v v" declares a vertex whose token is "v"
    g = parse_graph("v v\nv w\n")
    assert g.labels == ("v", "w")
    assert g.n_edges == 0


def test_parse_self_loop_rejected():
    with pytest.raises(ParseError) as exc:
        parse_graph("a b\nc c\n")
    assert exc.value.line == 2


def test_parse_duplicate_strict():
    with pytest.raises(ParseError) as exc:
        parse_graph("1 2\n1 2\n", strict=True)
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


def test_parse_duplicate_lenient():
    g = parse_graph("1 2\n2 1\n1 2\n")
    assert g.n_edges == 1


def test_parse_bad_token_count():
    with pytest.raises(ParseError) as exc:
        parse_graph("a b c\n")
    assert exc.value.line == 1


def test_parse_empty():
    g = parse_graph("")
    assert g.n_vertices == 0
    assert g.n_edges == 0


def test_round_trip():
    g = parse_graph(EXAMPLE)
    again = parse_graph(to_edge_list(g))
    assert again == g
    assert again.labels == g.labels
    assert again.edges == g.edges  # identical edge indices


def test_round_trip_isolated():
    g = parse_graph("v a\nv b\nb c\n")
    assert parse_graph(to_edge_list(g)) == g


def test_round_trip_vertex_labelled_v():
    # an edge "v c" would read back as a declaration of the vertex c
    g = parse_graph("b v\nc v\n")
    assert g.n_edges == 2
    assert parse_graph(to_edge_list(g)) == g
    for g in representatives(6):
        for i in g.vertices:
            labels = tuple("v" if j == i else f"x{j}" for j in g.vertices)
            h = Graph(g.vertices, g.edges, labels)
            again = parse_graph(to_edge_list(h))
            assert again == h
            assert again.labels == labels


@pytest.mark.parametrize(
    "labels, match",
    [
        (("a#x", "b", "c d"), "vertex 0: label 'a#x'"),
        (("a", "c d"), "vertex 1: label 'c d'"),
        (("", "b"), "vertex 0: label ''"),
        (("x", "x"), "vertex 1: label 'x'"),
    ],
)
def test_to_edge_list_rejects_labels_that_do_not_read_back(labels, match):
    g = Graph(tuple(range(len(labels))), ((0, 1),), labels)
    with pytest.raises(ValueError, match=match):
        to_edge_list(g)


def test_graph_validation():
    for vertices, edges, match in [
        ((0, 0), (), "vertices must be strictly increasing"),
        ((1, 0), (), "vertices must be strictly increasing"),
        ((0, 1), ((1, 0),), r"edge \(1, 0\) not in canonical order"),
        ((0, 1), ((0, 2),), r"edge \(0, 2\) uses an unknown vertex"),
        ((0, 1, 2), ((0, 1), (0, 1), (1, 2)), r"duplicate edge \(0, 1\)"),
        ((0, 1, 2), ((0, 2), (0, 1)), "edges must be sorted"),
        ([0, 1], ((0, 1),), "vertices and edges must be tuples"),
        ((0, 1), [(0, 1)], "vertices and edges must be tuples"),
    ]:
        with pytest.raises(ValueError, match=match):
            Graph(vertices, edges)
    with pytest.raises(ValueError, match="self-loop at 1"):
        graph_from_edges([(1, 1)])


def test_edge_index_is_one_based():
    # indices follow the sorted edge tuple, not parse order
    g = parse_graph("a b\nb c\na c\n")
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.edge_index(0, 1) == 1
    assert g.edge_index(2, 0) == 2
    assert g.edge_index(2, 1) == 3


def test_labels_ignored_by_equality():
    g1 = parse_graph("a b\n")
    g2 = parse_graph("x y\n")
    assert g1 == g2
    assert hash(g1) == hash(g2)


# ---------------------------------------------------------------------------
# clique vectors

def test_clique_vector_complete():
    assert clique_vector(complete_graph(3)) == (3, 3, 1)
    assert clique_vector(complete_graph(4)) == (4, 6, 4, 1)
    assert clique_vector(complete_graph(5)) == (5, 10, 10, 5, 1)


def test_clique_vector_example():
    assert clique_vector(parse_graph(EXAMPLE)) == (6, 11, 7, 1)


def test_clique_vector_octahedron():
    # K_{2,2,2}: complement of a perfect matching on six vertices
    g = graph_from_edges(
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if j - i != 3
    )
    assert clique_vector(g) == (6, 12, 8)


def test_clique_vector_trims_trailing_zeros():
    assert clique_vector(cycle_graph(4)) == (4, 4)
    assert clique_vector(graph_from_edges([], vertices=range(3))) == (3,)
    assert clique_vector(parse_graph("")) == (0,)


def test_clique_vector_disconnected():
    two_triangles = graph_from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    assert clique_vector(two_triangles) == (6, 6, 2)


def _clique_vector_bruteforce(g):
    n = g.n_vertices
    counts = [0] * max(1, n)
    for size in range(1, n + 1):
        for sub in itertools.combinations(g.vertices, size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                counts[size - 1] += 1
    counts[0] = n if n else 0
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def test_clique_vector_against_subset_enumeration():
    for n in range(1, 6):
        for g in representatives(n):
            assert clique_vector(g) == _clique_vector_bruteforce(g)


# ---------------------------------------------------------------------------
# chordality

def _induced_cycle_oracle(g):
    """True iff some vertex subset of size >= 4 induces a cycle."""
    for size in range(4, g.n_vertices + 1):
        for sub in itertools.combinations(g.vertices, size):
            h = g.induced(sub)
            if h.n_edges != size:
                continue
            if any(h.degree(v) != 2 for v in h.vertices):
                continue
            if len(h.components()) == 1:
                return True
    return False


def _is_valid_peo(g, order):
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in g.neighbors(v) if pos[w] > pos[v]]
        return_all = all(
            g.has_edge(a, b) for a, b in itertools.combinations(later, 2)
        )
        if not return_all:
            return False
    return True


def test_chordal_complete_and_trees():
    for n in range(1, 6):
        ok, witness = is_chordal(complete_graph(n))
        assert ok and _is_valid_peo(complete_graph(n), witness)
    for n in range(2, 7):
        ok, witness = is_chordal(path_graph(n))
        assert ok and _is_valid_peo(path_graph(n), witness)


def test_chordal_cycles():
    for n in range(4, 8):
        ok, witness = is_chordal(cycle_graph(n))
        assert not ok
        assert len(witness) == n  # the cycle itself is the only induced cycle


def _fan(n):
    """The n-cycle with one more vertex joined to both ends of each cycle edge.

    Each extra vertex closes a triangle, so the cycle is the only hole.
    """
    cycle = [(i, (i + 1) % n) for i in range(n)]
    return graph_from_edges(
        cycle + [(x, n + i) for i, e in enumerate(cycle) for x in e]
    )


@pytest.mark.parametrize("build, n", [(cycle_graph, 20000), (_fan, 10000)])
def test_chordal_long_hole_is_found_whole(build, n):
    ok, witness = is_chordal(build(n))
    assert not ok
    assert sorted(witness) == list(range(n))


def test_chordal_witness_is_induced_cycle():
    g = parse_graph(EXAMPLE)
    ok, cyc = is_chordal(g)
    assert not ok
    k = len(cyc)
    assert k >= 4
    for i in range(k):
        assert g.has_edge(cyc[i], cyc[(i + 1) % k])
    for i, j in itertools.combinations(range(k), 2):
        if (j - i) % k not in (1, k - 1):
            assert not g.has_edge(cyc[i], cyc[j])


def test_chordal_against_induced_cycle_oracle():
    for n in range(1, 7):
        for g in representatives(n):
            ok, witness = is_chordal(g)
            assert ok == (not _induced_cycle_oracle(g))
            if ok:
                assert _is_valid_peo(g, witness)


@pytest.mark.parametrize(
    "bad",
    [
        [0, 1, 2],  # a triangle's worth, too short
        [0, 2, 1, 3],  # not in cyclic order
        [0, 1, 2, 3, 0],  # repeats a vertex
        [0, 1, 2, 7],  # 7 is not a vertex
        [0, 1, 3, 4],  # 1 and 3 are not adjacent
        [0, 1, 2, 3, 4],  # the chord 0-2 makes it not induced
    ],
)
def test_chordless_cycle_witness_is_checked(monkeypatch, bad):
    g = graph_from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (4, 5), (5, 1)]
    )
    assert not is_chordal(g)[0]
    monkeypatch.setattr(
        glcs.graphs, "_chordless_cycle", lambda g, elim, fault: list(bad)
    )
    with pytest.raises(MismatchError, match="not an induced cycle"):
        is_chordal(g)


def test_chordless_cycle_missing_is_mismatch(monkeypatch):
    # a chordal graph whose elimination order is wrongly rejected: the
    # leaves 1 and 2 of the path 1-0-2 are joined only through 0
    monkeypatch.setattr(
        glcs.graphs, "_verify_elimination_order", lambda g, e: (0, 1, 2)
    )
    with pytest.raises(MismatchError, match="no chordless cycle"):
        is_chordal(graph_from_edges([(0, 1), (0, 2)]))


# ---------------------------------------------------------------------------
# triangle completeness and splitting

def test_triangle_complete_basic():
    tri2 = parse_graph("a b\nb c\na c\nb d\nc d\n")
    one_triangle = Graph((0, 1, 2), ((0, 1), (0, 2), (1, 2)))
    shared_edge = Graph((1, 2), ((1, 2),))
    two_of_three = Graph((0, 1, 2), ((0, 1), (0, 2)))
    assert is_triangle_complete(tri2, one_triangle)
    assert is_triangle_complete(tri2, shared_edge)
    assert not is_triangle_complete(tri2, two_of_three)


def test_triangle_complete_requires_subgraph():
    g = complete_graph(3)
    with pytest.raises(ValueError, match="k has vertices outside g"):
        is_triangle_complete(g, Graph((0, 5), ((0, 5),)))
    with pytest.raises(ValueError, match="k has edges outside g"):
        is_triangle_complete(cycle_graph(4), Graph((0, 2), ((0, 2),)))


def test_split_counts_and_containment():
    g = parse_graph(EXAMPLE)
    for v in g.vertices:
        g1, g2, seam = split_at_vertex(g, v)
        assert g.n_vertices + seam.n_vertices == g1.n_vertices + g2.n_vertices
        assert set(seam.edges) <= set(g1.edges)
        assert set(seam.edges) <= set(g2.edges)
        assert set(g1.edges) | set(g2.edges) == set(g.edges)


def test_split_at_example_w():
    g = parse_graph(EXAMPLE)
    w = g.labels.index("w")
    g1, g2, seam = split_at_vertex(g, w)
    # residue: the pyramid; neighborhood piece: K_4 on {w, a, v1, v2}
    assert clique_vector(g1) == (5, 8, 4)
    assert clique_vector(g2) == (4, 6, 4, 1)
    assert clique_vector(seam) == (3, 3, 1)


def test_split_unknown_vertex():
    with pytest.raises(ValueError):
        split_at_vertex(complete_graph(3), 7)


def test_decompose_complete_is_leaf():
    tree = decompose(complete_graph(4))
    assert isinstance(tree, Leaf)
    assert tree.reason == "complete-graph"
    tree = decompose(complete_graph(1))
    assert tree.reason == "single-component-base"


def test_decompose_example_natural_order():
    tree = decompose(parse_graph(EXAMPLE))
    assert isinstance(tree, Node)
    sizes = sorted(leaf.graph.n_vertices for leaf in tree_leaves(tree))
    assert sizes == [3, 3, 3, 4]
    assert all(leaf.graph.is_complete() for leaf in tree_leaves(tree))


def test_decompose_example_w_first_order():
    # listing w's edges first makes w the first minimum-degree vertex,
    # and the tree bottoms out in four triangles and one K_4
    text = "w a\nw v1\nw v2\n" + "\n".join(
        line for line in EXAMPLE.splitlines() if not line.startswith("w")
    )
    tree = decompose(parse_graph(text))
    sizes = sorted(leaf.graph.n_vertices for leaf in tree_leaves(tree))
    assert sizes == [3, 3, 3, 3, 4]


def test_decompose_pyramid():
    pyramid = parse_graph(
        "v1 v2\nv2 v3\nv3 v4\nv4 v1\na v1\na v2\na v3\na v4\n"
    )
    tree = decompose(pyramid)
    sizes = [leaf.graph.n_vertices for leaf in tree_leaves(tree)]
    assert sizes == [3, 3, 3, 3]


def test_decompose_disconnected():
    g = graph_from_edges([(0, 1), (2, 3)])
    tree = decompose(g)
    assert all(leaf.graph.is_complete() for leaf in tree_leaves(tree))


def test_decompose_pivot_rule():
    # pivot is the smallest-id vertex of minimum degree
    g = parse_graph(EXAMPLE)
    tree = decompose(g)
    degrees = {v: g.degree(v) for v in g.vertices}
    min_deg = min(degrees.values())
    expected = min(v for v in g.vertices if degrees[v] == min_deg)
    assert tree.pivot == expected
