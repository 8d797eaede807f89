"""Brute-force holonomy ranks: Lyndon machinery, echelons, cross-checks."""

import copy
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
    complete_graph,
    clique_vector,
    graded_dims,
    graph_from_edges,
    graphic_exponents,
    lyndon_basis,
    parse_graph,
    phi_bruteforce,
    phi_from_exponents,
    presentation,
    verify_kernel_generation,
    verify_mayer_vietoris,
    witt_dimension,
)
from glcs import holonomy
from glcs.holonomy import (
    _Echelon,
    bracket_expansion,
    is_lyndon,
    lyndon_coordinates,
    standard_bracketing,
)

EXAMPLE = (
    "v1 v2\nv2 v3\nv3 v4\nv4 v1\n"
    "a v1\na v2\na v3\na v4\n"
    "w a\nw v1\nw v2\n"
)


# ---------------------------------------------------------------------------
# free Lie algebra infrastructure

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

def test_echelon_ranks():
    ech = _Echelon()
    assert ech.insert({0: 2, 1: 4})
    assert not ech.insert({0: 1, 1: 2})  # dependent after gcd stripping
    assert ech.insert({1: 1})
    assert not ech.insert({0: 3, 1: -5})
    assert ech.rank == 2


def test_echelon_exactness_no_spurious_rank():
    # rows engineered to cancel exactly only under exact arithmetic
    ech = _Echelon()
    big = 10 ** 30
    assert ech.insert({0: big, 1: 1})
    assert ech.insert({0: 1, 1: big})
    assert not ech.insert({0: big + 1, 1: big + 1})


def test_echelon_copy_isolation():
    ech = _Echelon()
    ech.insert({0: 1, 2: 5})
    dup = ech.copy()
    assert dup.insert({1: 1})
    assert ech.rank == 1
    assert dup.rank == 2


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
        assert ech.insert(row) == (expected > previous)
        assert row == before  # the caller's row is left alone
        assert ech.rank == expected
        previous = expected
    for lead, prow in ech.pivots.items():
        assert min(prow) == lead and prow[lead] > 0
        assert all(prow.values())
        assert math.gcd(*prow.values()) == 1


def test_echelon_stored_rows_never_change():
    rng = random.Random(11)
    rows = _random_rows(rng, 14, 60)
    ech = _Echelon()
    for row in rows[:30]:
        ech.insert(row)
    snapshot = copy.deepcopy(ech.pivots)
    for row in rows[30:45]:
        ech.insert(row)
    assert {k: ech.pivots[k] for k in snapshot} == snapshot
    snapshot = copy.deepcopy(ech.pivots)
    dup = ech.copy()
    for row in rows[45:] + [{j: 1} for j in range(14)]:
        dup.insert(row)
    assert dup.rank == 14
    assert ech.pivots == snapshot


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


def test_third_triangle_bracket_in_span():
    # [x_c, x_a + x_b] is dependent on the two relators kept per triangle
    g = parse_graph(EXAMPLE)
    p = presentation(g)
    ranks = {w: i for i, w in enumerate(lyndon_basis(p.num_generators, 2))}
    ech = _Echelon()
    for rel in p.relators:
        ech.insert({ranks[w]: c for w, c in rel})
    for u, v, w in g.triangles():
        a, b, c = sorted(
            (g.edge_index(u, v), g.edge_index(u, w), g.edge_index(v, w))
        )
        third = {ranks[(a, c)]: -1, ranks[(b, c)]: -1}
        assert not ech.copy().insert(third)


# ---------------------------------------------------------------------------
# graded dimensions

def test_graded_dims_triangle():
    dims = graded_dims(presentation(complete_graph(3)), 3)
    assert dims.free_dims == (3, 3, 8)
    assert dims.ideal_dims == (0, 2, 6)
    assert dims.quotient_dims == (3, 1, 2)


def test_graded_dims_extends_cached_state():
    p = presentation(complete_graph(4))
    first = graded_dims(p, 2)
    assert first.quotient_dims == (6, 4)
    extended = graded_dims(p, 4)
    assert extended.quotient_dims == (6, 4, 10, 21)


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


def test_phi_bruteforce_single_edge():
    assert phi_bruteforce(complete_graph(2), 4) == (1, 0, 0, 0)


def test_feasibility_dimension_cap():
    with pytest.raises(FeasibilityError) as exc:
        phi_bruteforce(complete_graph(3), 3, max_dim=5)
    assert exc.value.dimension == 8
    assert "GLCS_MAX_DIM" in str(exc.value)


def test_feasibility_entries_cap():
    with pytest.raises(FeasibilityError) as exc:
        phi_bruteforce(complete_graph(4), 3, max_entries=10)
    assert exc.value.entries is not None


def test_feasibility_env_override(monkeypatch):
    monkeypatch.setenv("GLCS_MAX_DIM", "5")
    with pytest.raises(FeasibilityError):
        phi_bruteforce(complete_graph(3), 3)
    # explicit argument wins over the environment
    assert phi_bruteforce(complete_graph(3), 3, max_dim=100) == (3, 1, 2)


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
    monkeypatch.setattr(holonomy, "_STATE_CACHE_SIZE", 1)
    holonomy._STATE_CACHE.clear()
    assert verify_kernel_generation(g, sub, 3) == expected


# ---------------------------------------------------------------------------
# bounded state cache

def test_state_cache_is_bounded():
    bound = holonomy._STATE_CACHE_SIZE
    holonomy._STATE_CACHE.clear()
    for n in range(2, bound + 5):
        path = graph_from_edges([(i, i + 1) for i in range(n)])
        assert phi_bruteforce(path, 3) == (n, 0, 0)
        assert len(holonomy._STATE_CACHE) <= bound
    assert len(holonomy._STATE_CACHE) == bound
    # evicted presentations are recomputed from scratch, exactly
    assert phi_bruteforce(complete_graph(4), 4) == (6, 4, 10, 21)
    assert phi_bruteforce(graph_from_edges([(0, 1), (1, 2)]), 3) == (2, 0, 0)


# ---------------------------------------------------------------------------
# certificates are explicit checks, so they survive python -O

_CERTIFICATE_CASES = {
    "witt_dimension": (
        "glcs.holonomy.moebius = lambda d: 1",
        "glcs.witt_dimension(2, 3)",
    ),
    "lyndon_leading_coefficient": (
        "glcs.holonomy.bracket_expansion = lambda tree: {}",
        "glcs.phi_bruteforce(glcs.complete_graph(3), 3)",
    ),
    "nonnegative_quotient": (
        "glcs.holonomy.witt_dimension = lambda m, k: 0",
        "glcs.phi_bruteforce(glcs.complete_graph(3), 2)",
    ),
    "split_triangle_complete": (
        "glcs.graphs.is_triangle_complete = lambda big, small: False",
        "glcs.split_at_vertex(glcs.complete_graph(3), 0)",
    ),
}


@pytest.mark.parametrize("case", sorted(_CERTIFICATE_CASES))
def test_certificate_raises_under_optimize(case):
    patch, call = _CERTIFICATE_CASES[case]
    # the bare assert fails the run unless -O really strips asserts
    script = (
        "import sys, glcs\n"
        "assert False, 'python -O did not strip asserts'\n"
        f"{patch}\n"
        "try:\n"
        f"    {call}\n"
        "except glcs.MismatchError as exc:\n"
        "    print('MismatchError:', exc)\n"
        "    sys.exit(0)\n"
        "sys.exit('certificate did not fire')\n"
    )
    env = dict(os.environ)
    src = str(Path(glcs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("MismatchError:")
