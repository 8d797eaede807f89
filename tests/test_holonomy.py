"""Brute-force holonomy ranks: echelons, cokernels, cross-checks.

The Lyndon-basis tests exercise the reference oracle in reference.py.
"""

import copy
import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import glcs
from glcs import (
    FeasibilityError,
    TruncatedSeries,
    complete_graph,
    clique_vector,
    expand_product,
    graded_dims,
    graph_from_edges,
    graphic_exponents,
    one,
    parse_graph,
    phi_bruteforce,
    phi_from_exponents,
    presentation,
    verify_kernel_generation,
    verify_mayer_vietoris,
    witt_dimension,
)
from glcs import holonomy
from glcs.holonomy import _Echelon
from iso import canonical_edges, representatives
from reference import (
    bracket_expansion,
    is_lyndon,
    lyndon_basis,
    lyndon_coordinates,
    standard_bracketing,
)

EXAMPLE = (
    "v1 v2\nv2 v3\nv3 v4\nv4 v1\n"
    "a v1\na v2\na v3\na v4\n"
    "w a\nw v1\nw v2\n"
)


# ---------------------------------------------------------------------------
# free Lie algebra infrastructure (the reference oracle's)

def test_witt_dimensions():
    assert witt_dimension(1, 1) == 1
    assert witt_dimension(1, 2) == 0
    assert witt_dimension(2, 2) == 1
    assert witt_dimension(2, 5) == 6
    assert witt_dimension(3, 2) == 3
    assert witt_dimension(3, 3) == 8
    assert witt_dimension(10, 4) == 2475
    assert witt_dimension(15, 4) == 12600


def test_lyndon_basis_small():
    assert lyndon_basis(3, 1) == ((1,), (2,), (3,))
    assert lyndon_basis(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert lyndon_basis(2, 3) == ((1, 1, 2), (1, 2, 2))
    assert lyndon_basis(1, 2) == ()
    assert lyndon_basis(0, 1) == ()


def test_lyndon_basis_counts_and_order():
    for m in range(1, 6):
        for k in range(1, 6):
            words = lyndon_basis(m, k)
            assert len(words) == witt_dimension(m, k)
            assert list(words) == sorted(words)
            for w in words:
                assert is_lyndon(w)
                rotations = [w[i:] + w[:i] for i in range(1, len(w))]
                assert all(w < r for r in rotations)


def test_standard_bracketing():
    assert standard_bracketing((1,)) == 1
    assert standard_bracketing((1, 2)) == (1, 2)
    assert standard_bracketing((1, 1, 2)) == (1, (1, 2))
    assert standard_bracketing((1, 2, 2)) == ((1, 2), 2)
    assert standard_bracketing((1, 2, 3)) == (1, (2, 3))
    assert standard_bracketing((1, 3, 2)) == ((1, 3), 2)


def test_bracket_expansion():
    assert bracket_expansion((1, 2)) == {(1, 2): 1, (2, 1): -1}
    assert bracket_expansion(3) == {(3,): 1}
    nested = bracket_expansion((1, (1, 2)))
    assert nested == {(1, 1, 2): 1, (1, 2, 1): -2, (2, 1, 1): 1}


def test_bracket_expansion_antisymmetry():
    a = (1, (2, 3))
    b = ((1, 3), 2)
    ab = bracket_expansion((a, b))
    ba = bracket_expansion((b, a))
    assert ab == {w: -c for w, c in ba.items()}


def test_bracket_expansion_jacobi():
    a, b, c = (1, 2), 3, (2, (1, 4))
    total = {}
    for t in (((a, (b, c))), ((b, (c, a))), ((c, (a, b)))):
        for w, coeff in bracket_expansion(t).items():
            total[w] = total.get(w, 0) + coeff
    assert all(v == 0 for v in total.values())


def test_lyndon_coordinates_of_basis_vectors():
    for m, k in ((2, 3), (3, 2), (3, 3)):
        for w in lyndon_basis(m, k):
            assert lyndon_coordinates(bracket_expansion(standard_bracketing(w))) == {w: 1}


def test_lyndon_coordinates_rewrites():
    # [x_2, x_1] = -[x_1, x_2]
    assert lyndon_coordinates(bracket_expansion((2, 1))) == {(1, 2): -1}
    # a random integer combination is recovered exactly
    rng = random.Random(7)
    words = lyndon_basis(3, 4)
    combo = {w: rng.randint(-9, 9) for w in rng.sample(list(words), 5)}
    poly = {}
    for w, c in combo.items():
        for v, cv in bracket_expansion(standard_bracketing(w)).items():
            poly[v] = poly.get(v, 0) + c * cv
    recovered = lyndon_coordinates(poly)
    assert recovered == {w: c for w, c in combo.items() if c}


def test_lyndon_coordinates_rejects_non_lie():
    with pytest.raises(ValueError):
        lyndon_coordinates({(1, 1): 1})


# ---------------------------------------------------------------------------
# echelon

def _insert(ech: _Echelon, row: dict) -> bool:
    """Reduce a zero-free copy of row against ech; True if it became a pivot."""
    return ech._absorb({j: c for j, c in row.items() if c})


def test_echelon_ranks():
    ech = _Echelon()
    assert _insert(ech, {0: 2, 1: 4})
    assert not _insert(ech, {0: 1, 1: 2})  # dependent after gcd stripping
    assert _insert(ech, {1: 1})
    assert not _insert(ech, {0: 3, 1: -5})
    assert ech.rank == 2


def test_echelon_exactness_no_spurious_rank():
    # rows engineered to cancel exactly only under exact arithmetic
    ech = _Echelon()
    big = 10 ** 30
    assert _insert(ech, {0: big, 1: 1})
    assert _insert(ech, {0: 1, 1: big})
    assert not _insert(ech, {0: big + 1, 1: big + 1})


def _fraction_ranks(rows, ncols):
    """Rank after each row, by Gaussian elimination over the rationals."""
    basis = {}  # leading column -> row scaled to lead 1
    ranks = []
    for row in rows:
        vec = [Fraction(row.get(j, 0)) for j in range(ncols)]
        for j in range(ncols):
            if vec[j] and j in basis:
                f = vec[j]
                vec = [x - f * y for x, y in zip(vec, basis[j])]
        lead = next((j for j in range(ncols) if vec[j]), None)
        if lead is not None:
            basis[lead] = [x / vec[lead] for x in vec]
        ranks.append(len(basis))
    return ranks


def _random_rows(rng, ncols, nrows):
    """Sparse integer rows spanning a random subspace, with repeats and zeros.

    Rows are small combinations of a few basis rows, so dependencies need
    exact cancellation; leading coefficients are often non-units and negative.
    """
    basis = []
    for _ in range(rng.randint(2, ncols - 2)):
        cols = rng.sample(range(ncols), rng.randint(1, 4))
        basis.append({j: rng.choice([-6, -3, -2, -1, 1, 2, 4, 5]) for j in cols})
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if pick < 0.1:
            rows.append(rng.choice([{}, {rng.randrange(ncols): 0}]))
        elif pick < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        else:
            row = {}
            for b in rng.sample(basis, rng.randint(1, min(3, len(basis)))):
                f = rng.choice([-3, -2, -1, 1, 2, 3])
                for j, c in b.items():
                    row[j] = row.get(j, 0) + f * c
            rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_echelon_rank_matches_fractions(seed):
    rng = random.Random(seed)
    ncols = rng.randint(6, 16)
    rows = _random_rows(rng, ncols, 50)
    ech = _Echelon()
    previous = 0
    for row, expected in zip(rows, _fraction_ranks(rows, ncols)):
        before = dict(row)
        assert _insert(ech, row) == (expected > previous)
        assert row == before  # the caller's row is left alone
        assert ech.rank == expected
        previous = expected
    for lead, prow in ech.pivots.items():
        assert min(prow) == lead and prow[lead] > 0
        assert all(prow.values())
        assert math.gcd(*prow.values()) == 1


@pytest.mark.parametrize("seed", range(8))
def test_echelon_row_order_does_not_matter(seed):
    # the seeded row sets above, inserted in shuffled orders
    rng = random.Random(seed)
    ncols = rng.randint(6, 16)
    rows = _random_rows(rng, ncols, 50)
    ech = _Echelon()
    for row in rows:
        _insert(ech, row)
    reduced = ech.back_reduced()
    shuffler = random.Random(1000 + seed)
    for _ in range(5):
        shuffled = rows[:]
        shuffler.shuffle(shuffled)
        other = _Echelon()
        for row in shuffled:
            _insert(other, row)
        assert other.rank == ech.rank
        assert other.pivots.keys() == ech.pivots.keys()
        assert other.back_reduced() == reduced


def test_echelon_stored_rows_never_change():
    rng = random.Random(11)
    rows = _random_rows(rng, 14, 60)
    ech = _Echelon()
    for row in rows[:30]:
        _insert(ech, row)
    snapshot = copy.deepcopy(ech.pivots)
    for row in rows[30:45]:
        _insert(ech, row)
    assert {k: ech.pivots[k] for k in snapshot} == snapshot


# ---------------------------------------------------------------------------
# presentations

def test_presentation_triangle():
    p = presentation(complete_graph(3))
    assert p.num_generators == 3
    assert p.relators == (
        (((1, 2), 1), ((1, 3), 1)),
        (((1, 2), -1), ((2, 3), 1)),
    )


def test_presentation_counts():
    # C(m, 2) - 3*kappa_2 commuting relators plus 2*kappa_2 triangle relators
    for g in (complete_graph(4), complete_graph(5), parse_graph(EXAMPLE)):
        kappa = clique_vector(g)
        m, k2 = kappa[1], kappa[2]
        expected = (m * (m - 1) // 2 - 3 * k2) + 2 * k2
        assert len(presentation(g).relators) == expected
    assert len(presentation(complete_graph(4)).relators) == 11
    assert len(presentation(complete_graph(5)).relators) == 35


def test_presentation_path_commutes():
    # two edges meeting at a vertex with no closing edge commute
    p = presentation(graph_from_edges([(0, 1), (1, 2)]))
    assert p.relators == ((((1, 2), 1),),)


@pytest.mark.parametrize(
    "num_generators, relators",
    [
        (2, ((((1, 2), 0),),)),  # a zero coefficient
        (2, ((((1, 3), 1),),)),  # a letter beyond num_generators
        (2, ((((0, 1), 1),),)),  # letters count from 1
        (-1, ()),
        (3, ((((2, 1), 1),),)),  # i < j
        (2, ((((1, 2), True),),)),
        (2, (((1, 2),),)),  # a term without its coefficient
    ],
)
def test_presentation_rejects_malformed(num_generators, relators):
    with pytest.raises(ValueError):
        holonomy.HolonomyPresentation(num_generators, relators)


def test_third_triangle_bracket_in_span():
    # [x_c, x_a + x_b] is dependent on the two relators kept per triangle
    g = parse_graph(EXAMPLE)
    p = presentation(g)
    ech = _Echelon()
    for rel in p.relators:
        _insert(ech, dict(rel))
    for u, v, w in g.triangles():
        a, b, c = sorted(
            (g.edge_index(u, v), g.edge_index(u, w), g.edge_index(v, w))
        )
        third = {(a, c): -1, (b, c): -1}
        assert not _insert(ech, third)


# ---------------------------------------------------------------------------
# graded dimensions

def test_graded_dims_triangle():
    dims = graded_dims(presentation(complete_graph(3)), 3)
    assert dims.free_dims == (3, 3, 8)
    assert dims.ideal_dims == (0, 2, 6)
    assert dims.quotient_dims == (3, 1, 2)


def test_graded_dims_extends_cached_state():
    holonomy._state.cache_clear()
    p = presentation(complete_graph(4))
    first = graded_dims(p, 2)
    assert first.quotient_dims == (6, 4)
    state = holonomy._block_states(p, 1, None, None)[0][1]
    assert state.dims == [1, 6, 25]
    extended = graded_dims(p, 4)
    assert extended.quotient_dims == (6, 4, 10, 21)
    assert state.dims == [1, 6, 25, 90, 301]
    # an equal presentation made anew extends the same state
    assert phi_bruteforce(complete_graph(4), 5) == (6, 4, 10, 21, 54)
    assert holonomy._state.cache_info().currsize == 1
    assert holonomy._block_states(p, 1, None, None)[0][1] is state
    assert len(state.dims) == 6


def test_graded_dims_splits_a_presentation_once():
    holonomy._state.cache_clear()
    g = _k4_triangle_pendant()
    for k in range(1, 5):
        graded_dims(presentation(g), k)
    # an equal graph made anew finds the same states, one per distinct
    # block: the K4, the pendant letter and the triangle
    want = phi_from_exponents(graphic_exponents(clique_vector(g)), 4)
    assert phi_bruteforce(_k4_triangle_pendant(), 4) == want
    assert holonomy._state.cache_info().misses == 3


def test_equal_blocks_of_different_graphs_share_one_state():
    holonomy._state.cache_clear()
    assert phi_bruteforce(complete_graph(4), 3) == (6, 4, 10)
    state = holonomy._block_states(
        presentation(complete_graph(4)), 1, None, None
    )[0][1]
    # K4 on 0..3 and the pendant edge 3-4, whose index 7 follows the K4's
    g = graph_from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
    )
    misses = holonomy._state.cache_info().misses
    want = phi_from_exponents(graphic_exponents(clique_vector(g)), 3)
    assert phi_bruteforce(g, 3) == want
    # only the pendant letter's state is new; the K4's is not extended
    assert holonomy._state.cache_info().misses == misses + 1
    blocks = holonomy._block_states(presentation(g), 1, None, None)
    assert [letters for letters, _ in blocks] == [(1, 2, 3, 4, 5, 6), (7,)]
    assert blocks[0][1] is state
    assert state.dims == [1, 6, 25, 90]


def test_ranks_are_peeled_once_per_degree(monkeypatch):
    assert phi_bruteforce(complete_graph(4), 4) == (6, 4, 10, 21)
    calls = []

    def counted(phi, order, original=holonomy.expand_lcs_product):
        calls.append(order)
        return original(phi, order)

    monkeypatch.setattr(holonomy, "expand_lcs_product", counted)
    # an equal graph made anew reads the ranks its state keeps
    assert phi_bruteforce(complete_graph(4), 4) == (6, 4, 10, 21)
    assert calls == []
    state = holonomy._block_states(
        presentation(complete_graph(4)), 1, None, None
    )[0][1]
    assert len(state.phi) == len(state.dims) - 1
    assert tuple(state.phi[:4]) == (6, 4, 10, 21)


def test_phi_bruteforce_matches_formula_on_complete_graphs():
    for n in range(2, 6):
        g = complete_graph(n)
        e = graphic_exponents(clique_vector(g))
        assert phi_bruteforce(g, 4) == phi_from_exponents(e, 4)


def test_phi_bruteforce_triangle_free():
    for g in (
        graph_from_edges([(0, 1), (1, 2), (2, 3), (0, 3)]),
        graph_from_edges([(0, 1), (1, 2), (2, 3)]),
    ):
        m = g.n_edges
        assert phi_bruteforce(g, 3) == (m, 0, 0)


def test_phi_bruteforce_example():
    g = parse_graph(EXAMPLE)
    assert phi_bruteforce(g, 3) == (11, 7, 16)


def test_graded_dims_without_triangles():
    free = graded_dims(holonomy.HolonomyPresentation(2, ()), 4)
    assert free.quotient_dims == (2, 1, 2, 3)
    assert free.ideal_dims == (0, 0, 0, 0)
    one = holonomy.HolonomyPresentation(3, ((((1, 2), 1),),))
    assert graded_dims(one, 4).quotient_dims == (3, 2, 5, 10)


def test_blocks_keep_a_relator_with_several_terms_whole():
    # [x_3, x_4] is a relator on its own, so only the first relator ties
    # 3 and 4 to the block of 1 and 2; together they make h abelian
    singles = tuple(
        (((i, j), 1),) for i, j in ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    )
    p = holonomy.HolonomyPresentation(4, ((((1, 2), 1), ((3, 4), 1)),) + singles)
    blocks = holonomy._block_states(p, 1, None, None)
    assert [letters for letters, _ in blocks] == [(1, 2, 3, 4)]
    assert graded_dims(p, 4).quotient_dims == (4, 0, 0, 0)


def _k4_triangle_pendant():
    # K4 on 0..3, a triangle sharing vertex 3, and the pendant edge 0-6,
    # whose index 4 falls among the K4's edges 1..3 and 5..7
    return graph_from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5),
         (4, 5), (0, 6)]
    )


def test_blocks_are_triangle_connected_classes():
    g = _k4_triangle_pendant()
    blocks = holonomy._block_states(presentation(g), 1, None, None)
    assert [letters for letters, _ in blocks] == [
        (1, 2, 3, 5, 6, 7), (4,), (8, 9, 10)
    ]
    # each block's relators, re-indexed from 1, term by term
    want = [
        holonomy._Cokernels(q.num_generators, q.relators)
        for q in (
            presentation(complete_graph(4)),
            holonomy.HolonomyPresentation(1, ()),
            presentation(complete_graph(3)),
        )
    ]
    assert [(s.m, s.terms) for _, s in blocks] == [(s.m, s.terms) for s in want]
    want = phi_from_exponents(graphic_exponents(clique_vector(g)), 5)
    assert phi_bruteforce(g, 5) == want
    dims = graded_dims(presentation(g), 5)
    assert dims.free_dims == tuple(witt_dimension(10, k) for k in range(1, 6))
    assert dims.ideal_dims == tuple(f - q for f, q in zip(dims.free_dims, want))


def test_equal_blocks_share_one_state():
    # two triangles at a vertex, then a path of two edges
    g = graph_from_edges(
        [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)]
    )
    blocks = holonomy._block_states(presentation(g), 1, None, None)
    assert [letters for letters, _ in blocks] == [
        (1, 2, 3), (4, 5, 6), (7,), (8,)
    ]
    assert blocks[0][1] is blocks[1][1]
    assert blocks[2][1] is blocks[3][1]
    want = phi_from_exponents(graphic_exponents(clique_vector(g)), 4)
    assert phi_bruteforce(g, 4) == want


def test_feasibility_entries_sum_over_blocks():
    # degree 3: |R| * dim A_1 * m * dim A_2 per block, with dim A_2 =
    # phi_2 + C(m + 1, 2): 11 * 6 * 6 * 25 for the K4, 2 * 3 * 3 * 7 for
    # the triangle and nothing for the pendant edge
    g = _k4_triangle_pendant()
    entries = 11 * 6 * 6 * 25 + 2 * 3 * 3 * 7
    with pytest.raises(FeasibilityError) as exc:
        phi_bruteforce(g, 3, max_entries=entries - 1)
    assert exc.value.entries == entries
    assert phi_bruteforce(g, 3, max_entries=entries) == (10, 5, 12)


def _wheel(rim: int):
    # a hub 0 joined to every vertex of the cycle 1..rim
    cycle = [(i, i % rim + 1) for i in range(1, rim + 1)]
    return graph_from_edges([(0, i) for i in range(1, rim + 1)] + cycle)


def test_phi_bruteforce_degree5_hot_spot():
    # the width of degree 5 is m * dim A_4 summed over the blocks: 10 * 1701
    # for K5, 9 * 1039 for K5 minus an edge, 15 * 6951 for K6, 8 * 560 and
    # 10 * 1120 for the wheels on a 4- and a 5-cycle, each one block, and
    # 14 * 4053 + 1 for a non-chordal graph whose 14-letter block has a
    # chordal edge graph.  The gate reads the same widths whether degree 4
    # was counted or eliminated.  The last field says the largest block is
    # PBW: certified with 2-letter leads only.
    k5 = complete_graph(5)
    k5_minus_e = graph_from_edges([e for e in k5.edges if e != (3, 4)])
    chordal_block = graph_from_edges(
        [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4),
         (1, 6), (2, 5), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6)]
    )
    cases = (
        (k5, 17010, True),
        (k5_minus_e, 9351, True),
        (complete_graph(6), 104_265, True),
        (_wheel(4), 4480, False),
        (_wheel(5), 11200, False),
        (chordal_block, 56743, True),
    )
    for g, width, pbw in cases:
        holonomy._state.cache_clear()
        want = phi_from_exponents(graphic_exponents(clique_vector(g)), 5)
        assert phi_bruteforce(g, 5) == want
        # the wheels' blocks are not PBW in the letter order read off their
        # edges: they take the Groebner route, with leads past 2 letters,
        # and count degrees 4 and 5 too; the largest block is the one checked
        blocks = holonomy._block_states(presentation(g), 1, None, None)
        state = max((s for _, s in blocks), key=lambda s: s.m)
        assert state.tried
        assert state.rules is not None, g.edges
        assert _pbw(state) == pbw, g.edges
        with pytest.raises(FeasibilityError) as exc:
            phi_bruteforce(g, 5, max_dim=width - 1)
        assert exc.value.dimension == width
        assert phi_bruteforce(g, 5, max_dim=width) == want


def _pbw(state) -> bool:
    """Certified with 2-letter leads only: a quadratic Groebner basis."""
    return state.rules is not None and not any(state.rules[3:])


def _labelled_classes():
    """Each class with at most 6 vertices, as given and relabelled.

    The letter order is read off each block's own edges, so what is
    certified must not depend on vertex ids.
    """
    rng = random.Random(22)
    for n in range(1, 7):
        for g in representatives(n):
            perm = list(range(n))
            rng.shuffle(perm)
            yield g
            yield graph_from_edges([(perm[u], perm[v]) for u, v in g.edges], range(n))


def test_counted_ranks_equal_eliminated_ranks():
    # phi_bruteforce certifies where it can and counts degree 4; graded_dims
    # on a cleared cache has no letter order and eliminates every degree
    for g in _labelled_classes():
        _check_counted_ranks(g)


def _check_counted_ranks(g):
    p = presentation(g)
    holonomy._state.cache_clear()
    counted = phi_bruteforce(g, 4)
    blocks = holonomy._block_states(p, 1, None, None)
    assert all(s.tried for _, s in blocks)
    # on at most 6 vertices no block falls back to elimination
    assert all(s.rules is not None for _, s in blocks), g.edges
    if glcs.is_chordal(g)[0]:
        # a chordal graph's blocks are PBW (Koszul, supersolvable)
        assert all(_pbw(s) for _, s in blocks), g.edges
    for letters, s in blocks:
        # so is each block whose own edge graph is chordal
        own = graph_from_edges([g.edges[a - 1] for a in letters])
        if glcs.is_chordal(own)[0]:
            assert _pbw(s), (g.edges, letters)
    holonomy._state.cache_clear()
    eliminated = graded_dims(p, 4).quotient_dims
    states = [s for _, s in holonomy._block_states(p, 1, None, None)]
    assert not any(s.tried for s in states)
    assert counted == eliminated, g.edges


def test_groebner_counts_equal_elimination_to_degree5():
    # a block that is not PBW in its letter order adds the rules that
    # resolve its overlaps, degree by degree, and counts degrees 4 and 5
    # from them; elimination, run on the graph that block's edges span from
    # a cleared cache, once per isomorphism class, must give the same ranks
    eliminated = {}
    blocks_checked = 0
    for g in _labelled_classes():
        holonomy._state.cache_clear()
        phi_bruteforce(g, 5)
        for letters, s in holonomy._block_states(presentation(g), 1, None, None):
            if _pbw(s):
                continue
            assert s.rules is not None, (g.edges, letters)
            own = graph_from_edges([g.edges[a - 1] for a in letters])
            at = {v: i for i, v in enumerate(own.vertices)}
            key = canonical_edges(len(at), [(at[u], at[v]) for u, v in own.edges])
            if key not in eliminated:
                holonomy._state.cache_clear()
                eliminated[key] = graded_dims(presentation(own), 5).quotient_dims
            assert eliminated[key] == tuple(s.phi[:5]), (g.edges, letters)
            blocks_checked += 1
    # 14 blocks in each labelling, of 10 isomorphism classes with 8 to 13
    # letters
    assert (blocks_checked, len(eliminated)) == (28, 10)


def test_groebner_counts_equal_elimination_on_seeded_presentations():
    # Lie-type relators with seeded coefficients on 3 or 4 letters, in the
    # letter order 0..m-1: where they are no quadratic Groebner basis, the
    # rules are completed degree by degree, with pseudo-division wherever a
    # coefficient is not 1, and every count to degree 6 must equal
    # elimination.  No state may fall back: with exact dimensions the
    # completed rules always count right.
    completed = 0
    for seed in range(200):
        rng = random.Random(seed)
        m = rng.randint(3, 4)
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        relators = []
        for _ in range(rng.randint(1, len(pairs) - 1)):
            terms = rng.sample(pairs, rng.randint(1, min(3, len(pairs))))
            coefficients = [rng.choice([-2, -1, 1, 2, 3]) for _ in terms]
            relators.append(tuple(sorted(zip(terms, coefficients))))
        counted = holonomy._Cokernels(m, relators)
        for _ in range(2):
            counted.extend()
        counted.certify(list(range(m)))
        assert counted.rules is not None, seed
        completed += any(counted.rules[3:])
        for _ in range(3):
            counted.extend()
        eliminated = holonomy._Cokernels(m, relators)
        for _ in range(5):
            eliminated.extend()
        assert counted.dims == eliminated.dims, seed
    assert completed == 57


def test_phi_bruteforce_single_edge():
    assert phi_bruteforce(complete_graph(2), 4) == (1, 0, 0, 0)


def test_feasibility_dimension_cap():
    with pytest.raises(FeasibilityError) as exc:
        phi_bruteforce(complete_graph(3), 3, max_dim=5)
    # refused at degree 2, whose width is m * dim A_1 = 3 * 3 columns
    assert exc.value.dimension == 9
    assert "raise max_dim (--max-dim)" in str(exc.value)
    assert phi_bruteforce(complete_graph(3), 3, max_dim=100) == (3, 1, 2)


def test_feasibility_dimension_sums_over_blocks():
    # degree 2: the width m * dim A_1 = m^2 is 36 + 1 + 9 for the K4, the
    # pendant edge and the triangle, not 100 for all ten edges
    g = _k4_triangle_pendant()
    with pytest.raises(FeasibilityError) as exc:
        phi_bruteforce(g, 2, max_dim=45)
    assert exc.value.dimension == 46
    assert phi_bruteforce(g, 2, max_dim=46) == (10, 5)


def test_gate_width_is_the_column_count():
    # the width the gate reads at degree k is the number of columns of the
    # degree-k matrices, one normal form per column, summed over the blocks
    graphs = [_k4_triangle_pendant(), complete_graph(5)]
    graphs += [g for g in representatives(5) if g.n_edges in (4, 7)]
    for g in graphs:
        p = presentation(g)
        blocks = holonomy._block_states(p, 4, None, None)
        widths = [
            sum(len(s.normal_form(k)) for _, s in blocks) for k in range(1, 5)
        ]
        for _, s in blocks:
            for k in range(1, 5):
                assert s.m * s.dims[k - 1] == len(s.normal_form(k))
        for k in range(2, 5):
            with pytest.raises(FeasibilityError) as exc:
                holonomy._block_states(p, k, widths[k - 1] - 1, None)
            assert exc.value.dimension == widths[k - 1]
            # the dense size is counted only when max_entries is passed
            assert exc.value.entries is None
            holonomy._block_states(p, k, widths[k - 1], None)


def test_long_cycle_passes_the_default_caps():
    # thirty one-letter blocks: W(30, 4) = 202275 is past the default cap,
    # but no block has a bracket to compute
    cycle = graph_from_edges([(i, (i + 1) % 30) for i in range(30)])
    assert phi_bruteforce(cycle, 4) == (30, 0, 0, 0)


def test_feasibility_entries_cap():
    with pytest.raises(FeasibilityError) as exc:
        phi_bruteforce(complete_graph(4), 3, max_entries=10)
    assert exc.value.entries is not None


@pytest.mark.parametrize("value", ["abc", "-5", "0", "2.5", "5"])
def test_phi_bruteforce_ignores_env_cap(monkeypatch, value):
    # the cap is set by max_dim alone; the environment changes nothing
    monkeypatch.setenv("GLCS_MAX_DIM", value)
    assert phi_bruteforce(complete_graph(3), 3) == (3, 1, 2)
    with pytest.raises(FeasibilityError) as exc:
        phi_bruteforce(complete_graph(3), 3, max_dim=5)
    assert exc.value.dimension == 9


def test_enveloping_series_times_u_is_one():
    # H_A * U = 1: H_A = sum dim A_k t^k is the product of the blocks'
    # series (U(h) is their tensor product), and U the formula's product;
    # no PBW peel and no Moebius inversion on either side
    lifted = {"max_dim": 10**9, "max_entries": 10**15}
    for n, k in ((6, 4), (5, 5)):
        for g in representatives(n):
            blocks = holonomy._block_states(presentation(g), k, **lifted)
            h = one(k)
            for _, state in blocks:
                h = h * TruncatedSeries(k, tuple(state.dims[: k + 1]))
            u = expand_product(graphic_exponents(clique_vector(g)), k)
            assert h * u == one(k), (n, g.edges)


def _random_presentation(rng):
    """3 to 5 letters; each relator up to three commutators, coefficients ±1..±3."""
    m = rng.randint(3, 5)
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    relators = tuple(
        tuple(
            sorted(
                (pair, rng.choice([-3, -2, -1, 1, 2, 3]))
                for pair in rng.sample(pairs, rng.randint(1, 3))
            )
        )
        for _ in range(rng.randint(1, m))
    )
    return holonomy.HolonomyPresentation(m, relators)


def _check_normal_forms(p, up_to):
    """mu_k, read in fractions, kills R ⊗ A_{k-2} and fixes the free columns.

    For every relator r = sum c [x_i, x_j], basis element g of A_{k-2} and
    degree k <= up_to, the element sum c x_a ⊗ mu_{k-1}(x_b g) of the
    expanded commutators is pushed through mu_k and must give zero; the
    j-th free column of the degree-k echelon must map to basis element j.
    """
    m = p.num_generators
    state = holonomy._Cokernels(m, p.relators)

    def nf(k, col):
        den, vec = state.mu[k][col]
        return {f: Fraction(num, den) for f, num in vec}

    for k in range(2, up_to + 1):
        state.extend()
        pivots = set(state.top.pivots)
        state.normal_form(k)
        below, width = state.dims[k - 2], state.dims[k - 1]
        free = [col for col in range(m * width) if col not in pivots]
        assert len(free) == state.dims[k]
        for basis, col in enumerate(free):
            assert nf(k, col) == {basis: 1}, (p, k, col)
        for rel in p.relators:
            for g in range(below):
                total = {}
                for (i, j), c in rel:
                    # c [x_i, x_j] = c x_i x_j - c x_j x_i, letters from 0
                    for a, b, s in ((i - 1, j - 1, c), (j - 1, i - 1, -c)):
                        for f, q in nf(k - 1, b * below + g).items():
                            for h, v in nf(k, a * width + f).items():
                                total[h] = total.get(h, 0) + s * q * v
                assert not any(total.values()), (p, k, rel, g)


def test_normal_forms_kill_relators_and_fix_free_columns():
    # graded_dims compares only dimensions, which a wrong denominator in a
    # normal form can leave unchanged
    rng = random.Random(2024)
    for _ in range(60):
        _check_normal_forms(_random_presentation(rng), 4)
    for n in (4, 5):
        _check_normal_forms(presentation(complete_graph(n)), 4)


# ---------------------------------------------------------------------------
# Mayer-Vietoris and kernel generation

def test_mayer_vietoris_example():
    g = parse_graph(EXAMPLE)
    report = verify_mayer_vietoris(g, g.labels.index("w"), 2)
    assert report.ok
    dims = [(r.dim_graph, r.dim_seam, r.dim_left, r.dim_right) for r in report.rows]
    assert dims == [(11, 3, 8, 6), (7, 1, 4, 4)]


def test_mayer_vietoris_shared_edge_triangles():
    g = parse_graph("a b\nb c\na c\nb d\nc d\n")
    for v in g.vertices:
        assert verify_mayer_vietoris(g, v, 3).ok


def test_kernel_generation_shared_edge_triangles():
    g = parse_graph("a b\nb c\na c\nb d\nc d\n")
    sub = g.induced([0, 1, 2])  # one triangle
    report = verify_kernel_generation(g, sub, 3)
    assert report.ok
    assert [(r.expected, r.spanned) for r in report.rows] == [
        (2, 2),
        (1, 1),
        (2, 2),
    ]
    assert report.outside_edges == (4, 5)


def test_kernel_generation_example_at_k4():
    g = parse_graph(EXAMPLE)
    w = g.labels.index("w")
    a = g.labels.index("a")
    v1 = g.labels.index("v1")
    v2 = g.labels.index("v2")
    sub = g.induced([w, a, v1, v2])  # the K_4 wing
    report = verify_kernel_generation(g, sub, 2)
    assert report.ok


def test_kernel_generation_requires_triangle_complete():
    # two edges of a triangle without the third are not triangle-complete
    g = complete_graph(3)
    bad = graph_from_edges([(0, 1), (0, 2)], vertices=[0, 1, 2])
    with pytest.raises(ValueError):
        verify_kernel_generation(g, bad, 2)


def test_kernel_generation_holds_its_own_state(monkeypatch):
    # computing sub must not cost g's echelons, even with room for one state
    g = parse_graph("a b\nb c\na c\nb d\nc d\n")
    sub = g.induced([0, 1, 2])
    expected = verify_kernel_generation(g, sub, 3)
    one_entry = functools.lru_cache(maxsize=1)(holonomy._Cokernels)
    monkeypatch.setattr(holonomy, "_state", one_entry)
    assert verify_kernel_generation(g, sub, 3) == expected


# ---------------------------------------------------------------------------
# bounded state cache

def test_state_cache_is_bounded():
    bound = holonomy._state.cache_info().maxsize
    holonomy._state.cache_clear()
    for n in range(1, bound + 4):
        # n triangles in a strip: one block, so one cache entry per graph
        strip = graph_from_edges(
            [(i, i + 1) for i in range(n + 1)] + [(i, i + 2) for i in range(n)]
        )
        want = phi_from_exponents(graphic_exponents(clique_vector(strip)), 3)
        assert phi_bruteforce(strip, 3) == want
        assert holonomy._state.cache_info().currsize <= bound
    assert holonomy._state.cache_info().currsize == bound
    # evicted blocks are recomputed from scratch, exactly
    assert phi_bruteforce(complete_graph(4), 4) == (6, 4, 10, 21)
    assert phi_bruteforce(graph_from_edges([(0, 1), (1, 2)]), 3) == (2, 0, 0)


@pytest.mark.parametrize("free", [
    lambda m, k: 0,  # phi_1 fails, when the state is made
    lambda m, k: m if k == 1 else 0,  # phi_2 fails, when degree 2 is built
], ids=["phi_1", "phi_2"])
def test_failed_rank_check_raises_again(monkeypatch, free):
    # a rank that fails its check leaves no state behind that would pass
    holonomy._state.cache_clear()
    monkeypatch.setattr(holonomy, "witt_dimension", free)
    for _ in range(2):
        with pytest.raises(glcs.MismatchError):
            phi_bruteforce(complete_graph(3), 2)
    holonomy._state.cache_clear()


# ---------------------------------------------------------------------------
# certificates are explicit checks, so they survive python -O

_CERTIFICATE_CASES = {
    "witt_dimension": (
        "glcs.holonomy.moebius = lambda d: 1",
        "glcs.witt_dimension(2, 3)",
    ),
    "nonnegative_peeled_rank": (
        # an overcounted rank shrinks dim A_2 of K3 from 7 to 5: phi_2 = -1
        "glcs.holonomy._Echelon.rank = property(lambda self: 2 * len(self.pivots))",
        "glcs.phi_bruteforce(glcs.complete_graph(3), 2)",
    ),
    "nonnegative_quotient": (
        "glcs.holonomy.witt_dimension = lambda m, k: 0",
        "glcs.phi_bruteforce(glcs.complete_graph(3), 2)",
    ),
    "first_rank_within_witt": (
        # phi_1 = m is checked too, when the block's state is made
        "glcs.holonomy.witt_dimension = lambda m, k: 0",
        "glcs.phi_bruteforce(glcs.complete_graph(3), 1)",
    ),
    "split_triangle_complete": (
        "glcs.graphs.is_triangle_complete = lambda big, small: False",
        "glcs.split_at_vertex(glcs.complete_graph(3), 0)",
    ),
    "chordless_cycle_induced": (
        "glcs.graphs._chordless_cycle = lambda g, elim, fault: [0, 1, 2]",
        "glcs.is_chordal(glcs.graph_from_edges([(0, 1), (1, 2), (2, 3), (0, 3)]))",
    ),
    "split_vertex_count": (
        # dropping each piece's smallest vertex: |g| + |seam| = 4, |g1| + |g2| = 3
        "glcs.graphs._subgraph = lambda adj, edges, labels, "
        "subgraph=glcs.graphs._subgraph: "
        "subgraph(adj, edges, labels).induced(sorted(adj)[1:])",
        "glcs.split_at_vertex(glcs.complete_graph(3), 0)",
    ),
    "nonnegative_betti": (
        # t + t^2 on two vertices gives b_1 = -1
        "glcs.formula.chromatic_polynomial = "
        "lambda g: glcs.IntPolynomial((0, 1, 1))",
        "glcs.poincare_polynomial(glcs.complete_graph(2))",
    ),
    "chordless_cycle_found": (
        "glcs.graphs._verify_elimination_order = lambda g, elim: (0, 1, 2)",
        "glcs.is_chordal(glcs.graph_from_edges([(0, 1), (0, 2)]))",
    ),
    "counted_dimension_eliminated_on_demand": (
        # K4's block is certified, so degree 4 is counted, one too many;
        # kernel generation needs its normal forms and eliminates it
        "extend = glcs.holonomy._Cokernels.extend\n"
        "def bumped(self):\n"
        "    extend(self)\n"
        "    if self.rules is not None and len(self.dims) == 5:\n"
        "        self.dims[4] += 1\n"
        "glcs.holonomy._Cokernels.extend = bumped",
        "glcs.verify_kernel_generation(glcs.complete_graph(4), "
        "glcs.complete_graph(3), 4)",
    ),
}


def _run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run script under python -O with glcs importable.

    A bare assert goes first, so the run fails unless -O strips asserts.
    """
    script = "assert False, 'python -O did not strip asserts'\n" + script
    env = dict(os.environ)
    src = str(Path(glcs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("case", sorted(_CERTIFICATE_CASES))
def test_certificate_raises_under_optimize(case):
    patch, call = _CERTIFICATE_CASES[case]
    proc = _run_optimized(
        "import sys, glcs\n"
        f"{patch}\n"
        "try:\n"
        f"    {call}\n"
        "except glcs.MismatchError as exc:\n"
        "    print('MismatchError:', exc)\n"
        "    sys.exit(0)\n"
        "sys.exit('certificate did not fire')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("MismatchError:")


def test_wrong_leading_pairs_fall_back_under_optimize():
    # one leading pair dropped from the block's one letter order, picked by
    # a seeded choice, lets more words through than A_3 has, even once the
    # overlaps of the rules left are resolved: each block with a pair to
    # drop must fail its certificate and eliminate, and the ranks stay right
    proc = _run_optimized(
        "import random, glcs\n"
        "from glcs import holonomy\n"
        "rng = random.Random(21)\n"
        "leading = holonomy._Cokernels._leading_pairs\n"
        "def dropped(self, pos):\n"
        "    ech = leading(self, pos)\n"
        "    if ech.pivots:\n"
        "        del ech.pivots[rng.choice(sorted(ech.pivots))]\n"
        "    return ech\n"
        "holonomy._Cokernels._leading_pairs = dropped\n"
        "g = glcs.graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), "
        "(2, 3), (3, 4), (3, 5), (4, 5), (0, 6)])\n"
        "print(glcs.phi_bruteforce(g, 5))\n"
        "blocks = holonomy._block_states(glcs.presentation(g), 1, None, None)\n"
        "print([(s.m, s.tried, s.rules is None) for _, s in blocks])\n"
    )
    assert proc.returncode == 0, proc.stderr
    e = graphic_exponents(clique_vector(_k4_triangle_pendant()))
    want = phi_from_exponents(e, 5)
    assert proc.stdout.splitlines() == [
        str(want),
        # the pendant letter has no leading pair, so nothing to drop
        "[(6, True, True), (1, True, False), (3, True, True)]",
    ]


def test_dropped_degree3_rule_falls_back_under_optimize():
    # the wheel on a 5-cycle is one block that is not PBW in its letter
    # order; with one of the rules that resolve its degree-3 overlaps
    # dropped, more words pass than A_3 has, so the block must fail its
    # degree-3 comparison and eliminate, and the ranks stay right
    proc = _run_optimized(
        "import glcs\n"
        "from glcs import holonomy\n"
        "resolve = holonomy._resolve\n"
        "def dropped(rules, m, k, lacking=None):\n"
        "    new = resolve(rules, m, k, lacking)\n"
        "    if k == 3 and new:\n"
        "        del new[min(new)]\n"
        "    return new\n"
        "holonomy._resolve = dropped\n"
        "g = glcs.graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), "
        "(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)])\n"
        "print(glcs.phi_bruteforce(g, 5))\n"
        "blocks = holonomy._block_states(glcs.presentation(g), 1, None, None)\n"
        "print([(s.m, s.tried, s.rules is None) for _, s in blocks])\n"
    )
    assert proc.returncode == 0, proc.stderr
    want = phi_from_exponents(graphic_exponents(clique_vector(_wheel(5))), 5)
    assert proc.stdout.splitlines() == [str(want), "[(10, True, True)]"]
