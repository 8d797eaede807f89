"""Closed-form exponents, flats, chromatic routes, and gluing."""

import itertools
import random

import pytest

import reference
from glcs import (
    IntPolynomial,
    MismatchError,
    NotDecomposableError,
    braid_series,
    chordal_chromatic,
    chromatic_polynomial,
    clique_vector,
    complete_graph,
    decompose,
    decomposable_series,
    expand_product,
    glue_series,
    graph_from_edges,
    graphic_exponents,
    is_chordal,
    parse_graph,
    poincare_polynomial,
    rank2_flats,
    series_via_decomposition,
)
from glcs.series import TruncatedSeries, one
from iso import representatives

EXAMPLE = (
    "v1 v2\nv2 v3\nv3 v4\nv4 v1\n"
    "a v1\na v2\na v3\na v4\n"
    "w a\nw v1\nw v2\n"
)


def octahedron():
    return graph_from_edges(
        (i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3
    )


def cycle_graph(n):
    return graph_from_edges([(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# polynomials

def test_intpolynomial_normalizes():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).coeffs == ()
    assert IntPolynomial(()).degree == -1


def test_intpolynomial_arithmetic():
    p = IntPolynomial((1, 1))  # 1 + t
    q = IntPolynomial((-1, 1))  # -1 + t
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p + q).coeffs == (0, 2)
    assert (p - p).coeffs == ()
    assert (p ** 3).coeffs == (1, 3, 3, 1)
    assert p(4) == 5
    assert (p * q)(3) == 8
    with pytest.raises(ValueError, match="negative power"):
        p ** -1


def test_intpolynomial_str():
    assert str(IntPolynomial((0, 2, -3, 1))) == "t^3 - 3*t^2 + 2*t"
    assert str(IntPolynomial(())) == "0"


# ---------------------------------------------------------------------------
# exponents

def test_exponents_complete():
    for n in range(2, 7):
        kappa = clique_vector(complete_graph(n))
        assert graphic_exponents(kappa) == (1,) * (n - 1)


def test_exponents_example():
    assert graphic_exponents((6, 11, 7, 1)) == (0, 4, 1)


def test_exponents_octahedron_negative():
    assert graphic_exponents((6, 12, 8)) == (-4, 8)


def test_exponents_triangle_free():
    assert graphic_exponents((4, 4)) == (4,)
    assert graphic_exponents((5, 4)) == (4,)


def test_exponents_trailing_zeros_trimmed():
    assert graphic_exponents((3,)) == ()
    assert graphic_exponents((1,)) == ()
    assert graphic_exponents((0,)) == ()


def test_exponents_pyramid():
    pyramid = parse_graph("1 2\n2 3\n3 4\n4 1\na 1\na 2\na 3\na 4\n")
    assert graphic_exponents(clique_vector(pyramid)) == (0, 4)


def test_exponents_inverse_binomial_transform():
    # kappa_s = sum_{j >= s} C(j, s) e_j recovers every clique count
    from math import comb

    for n in range(1, 7):
        for g in representatives(n):
            kappa = clique_vector(g)
            e = graphic_exponents(kappa)
            for s in range(1, len(kappa)):
                recovered = sum(
                    comb(j, s) * e_j
                    for j, e_j in enumerate(e, start=1)
                    if j >= s
                )
                assert recovered == kappa[s]


# ---------------------------------------------------------------------------
# braid series and flats

def test_braid_series_small():
    assert braid_series(2, 3).coeffs == (1, -1, 0, 0)
    assert braid_series(4, 4).coeffs == (1, -6, 11, -6, 0)
    assert braid_series(0, 2) == one(2)
    assert braid_series(1, 2) == one(2)


def test_braid_series_matches_reference():
    for n in range(9):
        for order in range(13):
            want = reference.braid_series(n, order)
            assert braid_series(n, order) == want, (n, order)


def test_rank2_flats_k4():
    flats = rank2_flats(complete_graph(4))
    triangles = [f for f in flats if f.mu == 2]
    pairs = [f for f in flats if f.mu == 1]
    assert len(triangles) == 4
    assert len(pairs) == 3
    for f in triangles:
        assert len(f.edges) == 3
    for f in pairs:
        assert len(f.edges) == 2


def test_rank2_flats_count_formula():
    for n in range(2, 6):
        for g in representatives(n):
            kappa = clique_vector(g)
            k1 = kappa[1] if len(kappa) > 1 else 0
            k2 = kappa[2] if len(kappa) > 2 else 0
            expected = k2 + k1 * (k1 - 1) // 2 - 3 * k2
            assert len(rank2_flats(g)) == expected


def test_rank2_flat_triangles_are_triangles():
    g = parse_graph(EXAMPLE)
    by_index = {i + 1: e for i, e in enumerate(g.edges)}
    for f in rank2_flats(g):
        if f.mu == 2:
            vs = {v for i in f.edges for v in by_index[i]}
            assert len(vs) == 3


# ---------------------------------------------------------------------------
# decomposable specialization

def test_decomposable_triangle():
    assert decomposable_series(complete_graph(3), 6) == braid_series(3, 6)


def test_decomposable_octahedron():
    g = octahedron()
    assert decomposable_series(g, 8) == expand_product((-4, 8), 8)


def test_decomposable_triangle_free():
    g = cycle_graph(4)
    assert decomposable_series(g, 6) == expand_product((4,), 6)


def test_decomposable_rejects_k4():
    with pytest.raises(NotDecomposableError):
        decomposable_series(complete_graph(4), 5)


# ---------------------------------------------------------------------------
# chromatic polynomials

def test_chromatic_frozen_values():
    assert chromatic_polynomial(complete_graph(3)).coeffs == (0, 2, -3, 1)
    assert chromatic_polynomial(cycle_graph(4)).coeffs == (0, -3, 6, -4, 1)
    path4 = graph_from_edges([(0, 1), (1, 2), (2, 3)])
    # t(t-1)^3
    assert chromatic_polynomial(path4).coeffs == (0, -1, 3, -3, 1)


def test_chromatic_disconnected_is_product():
    g = graph_from_edges([(0, 1), (2, 3)])
    single = IntPolynomial((0, -1, 1))  # t(t-1)
    assert chromatic_polynomial(g) == single * single


def _count_colorings(g, colors):
    total = 0
    for assignment in itertools.product(range(colors), repeat=g.n_vertices):
        coloring = dict(zip(g.vertices, assignment))
        if all(coloring[u] != coloring[v] for u, v in g.edges):
            total += 1
    return total


def test_chromatic_counts_colorings():
    for n in range(1, 6):
        for g in representatives(n):
            chi = chromatic_polynomial(g)
            for colors in (2, 3):
                assert chi(colors) == _count_colorings(g, colors)


def test_chromatic_ten_vertex_memoization():
    # complete graph on 10 vertices: chi = t(t-1)...(t-9); exercises the
    # memo on renumbered edge lists, which keeps the recursion tractable
    chi = chromatic_polynomial(complete_graph(10))
    expected = IntPolynomial((0, 1))
    for j in range(1, 10):
        expected = expected * IntPolynomial((-j, 1))
    assert chi == expected


def test_chromatic_long_cycles_and_path():
    # chi(C_n) = (t-1)^n + (-1)^n (t-1) and chi(P_n) = t(t-1)^(n-1); the
    # recursion stays polynomial only if the memo shares relabelled paths
    t_minus_1 = IntPolynomial((-1, 1))
    for n in (30, 200):
        expected = t_minus_1 ** n + IntPolynomial(((-1) ** n,)) * t_minus_1
        assert chromatic_polynomial(cycle_graph(n)) == expected
    path = graph_from_edges([(i, i + 1) for i in range(39)])
    assert chromatic_polynomial(path) == IntPolynomial((0, 1)) * t_minus_1 ** 39


def test_chordal_chromatic_matches():
    for g in (complete_graph(4), graph_from_edges([(0, 1), (1, 2), (2, 3)])):
        kappa = clique_vector(g)
        assert chordal_chromatic(kappa) == chromatic_polynomial(g)


def test_chordal_chromatic_rejects_negative_exponents():
    with pytest.raises(ValueError):
        chordal_chromatic((6, 12, 8))


# ---------------------------------------------------------------------------
# gluing

def test_glue_series_requirements():
    u = expand_product((1, 1), 5)
    with pytest.raises(ValueError, match="orders differ"):
        glue_series(u, u, expand_product((1,), 4))
    with pytest.raises(ValueError, match="orders differ"):
        glue_series(expand_product((1,), 4), u, u)
    bad_seam = u - one(5)  # constant term 0
    with pytest.raises(ValueError, match="constant term 1"):
        glue_series(u, u, bad_seam)


def test_glue_series_checks_come_before_the_shortcuts():
    # the three errors above, each with u2 or the seam equal to the series 1
    u = expand_product((1, 1), 5)
    with pytest.raises(ValueError, match="orders differ"):
        glue_series(u, u, one(4))
    with pytest.raises(ValueError, match="orders differ"):
        glue_series(u, one(4), u)
    with pytest.raises(ValueError, match="orders differ"):
        glue_series(u, one(5), one(4))
    with pytest.raises(ValueError, match="orders differ"):
        glue_series(expand_product((1,), 4), one(5), one(5))
    with pytest.raises(ValueError, match="constant term 1"):
        glue_series(u, one(5), u - one(5))
    for c in (-1, 0, 2):
        # constant seams other than 1
        seam = TruncatedSeries(5, (c, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="constant term 1"):
            glue_series(u, u, seam)
        with pytest.raises(ValueError, match="constant term 1"):
            glue_series(u, one(5), seam)


def _unit_series(rng, order):
    """A seeded series with constant term 1 and small integer coefficients."""
    return TruncatedSeries(
        order, (1,) + tuple(rng.randint(-9, 9) for _ in range(order))
    )


def test_glue_series_matches_reference():
    rng = random.Random(1901)
    for order in range(13):
        for _ in range(8):
            u1, u2, seam = (_unit_series(rng, order) for _ in range(3))
            cases = [
                (u1, u2, seam),
                (u1, u2, one(order)),
                (u1, one(order), seam),
                (u1, one(order), one(order)),
                (one(order), u2, seam),
                (one(order), one(order), one(order)),
                (u1 - one(order), u2, seam),  # u1 need not be a unit
            ]
            for args in cases:
                want = reference.glue_series(*args)
                assert glue_series(*args) == want, args


def test_glue_example_quotient():
    # U(pyramid) * U(K_4) / U(K_3) reproduces the example's series
    u1 = expand_product((0, 4), 10)
    u2 = braid_series(4, 10)
    seam = braid_series(3, 10)
    assert glue_series(u1, u2, seam) == expand_product((0, 4, 1), 10)


def test_series_via_decomposition_small():
    for n in range(1, 6):
        for g in representatives(n):
            direct = expand_product(
                graphic_exponents(clique_vector(g)), 8
            )
            glued = series_via_decomposition(decompose(g), 8)
            assert glued == direct


# ---------------------------------------------------------------------------
# topological polynomial

def test_poincare_triangle():
    assert poincare_polynomial(complete_graph(3)).coeffs == (1, 3, 2)


def test_poincare_example():
    p = poincare_polynomial(parse_graph(EXAMPLE))
    assert p.coeffs == (1, 11, 48, 103, 107, 42)
    # coefficient sum counts acyclic orientations: chi(-1) up to sign
    chi = chromatic_polynomial(parse_graph(EXAMPLE))
    assert sum(p.coeffs) == abs(chi(-1))


def test_poincare_betti_one_is_edge_count():
    for n in range(1, 6):
        for g in representatives(n):
            p = poincare_polynomial(g)
            assert p.coefficient(1) == g.n_edges


def test_poincare_matches_series_on_chordal():
    for n in range(1, 6):
        for g in representatives(n):
            ok, _ = is_chordal(g)
            if not ok:
                continue
            kappa = clique_vector(g)
            e = graphic_exponents(kappa)
            order = max(g.n_vertices, kappa[1] if len(kappa) > 1 else 0, 1)
            u = expand_product(e, order)
            p = poincare_polynomial(g)
            assert p.substitute_negated().as_series(order) == u
