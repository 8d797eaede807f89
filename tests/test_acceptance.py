"""End-to-end acceptance sweeps.

Each test covers one acceptance criterion and prints a single
"criterion N (...): PASS|FAIL" line (run pytest with -s to see them all),
then asserts.  Timed blocks exclude the isomorphism-class enumeration,
which is shared setup, not part of any criterion.
"""

import math
import random
import time

import pytest

from glcs import (
    braid_series,
    chordal_chromatic,
    chromatic_polynomial,
    clique_vector,
    complete_graph,
    decomposable_series,
    expand_lcs_product,
    expand_product,
    glue_series,
    graphic_exponents,
    is_chordal,
    linear_factor,
    parse_graph,
    phi_bruteforce,
    phi_from_exponents,
    poincare_polynomial,
    split_at_vertex,
    verify_mayer_vietoris,
    witt_dimension,
)
from iso import representatives
from reference import (
    bracket_expansion,
    lyndon_basis,
    lyndon_coordinates,
    standard_bracketing,
)

EXAMPLE = (
    "v1 v2\nv2 v3\nv3 v4\nv4 v1\n"
    "a v1\na v2\na v3\na v4\n"
    "w a\nw v1\nw v2\n"
)

# frozen class counts, so a silently empty sweep cannot pass
N_CLASSES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
N_CONNECTED_5 = 31
N_CHORDAL_6 = 138
N_K4_FREE_6 = 166


def _report(num: int, desc: str, ok: bool, elapsed: float, budget: float | None):
    within = budget is None or elapsed <= budget
    status = "PASS" if ok and within else "FAIL"
    print(f"criterion {num} ({desc}): {status} [{elapsed:.2f}s]")
    assert ok, f"criterion {num} failed an exact check"
    if budget is not None:
        assert within, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


@pytest.fixture(scope="session")
def reps():
    out = {n: representatives(n) for n in range(1, 7)}
    for n, want in N_CLASSES.items():
        assert len(out[n]) == want
    return out


@pytest.fixture(scope="session")
def connected5():
    out = [g for n in range(1, 6) for g in representatives(n, connected=True)]
    assert len(out) == N_CONNECTED_5
    return out


def _u(g, order):
    return expand_product(graphic_exponents(clique_vector(g)), order)


def test_criterion_1_example_graph():
    start = time.perf_counter()
    g = parse_graph(EXAMPLE)
    e = graphic_exponents(clique_vector(g))
    expected = linear_factor(2, 6) ** 4 * linear_factor(3, 6)
    ok = e == (0, 4, 1) and expand_product(e, 6) == expected
    _report(1, "example graph, U = (1-2t)^4 (1-3t)", ok,
            time.perf_counter() - start, 1.0)


def test_criterion_2_complete_graphs():
    start = time.perf_counter()
    ok = True
    for n in range(2, 9):
        e = graphic_exponents(clique_vector(complete_graph(n)))
        ok = ok and e == (1,) * (n - 1)
        ok = ok and expand_product(e, 10) == braid_series(n, 10)
    _report(2, "complete graphs match the braid product", ok,
            time.perf_counter() - start, 1.0)


def test_criterion_3_holonomy_oracle(connected5):
    start = time.perf_counter()
    ok = True
    for g in connected5:
        want = phi_from_exponents(graphic_exponents(clique_vector(g)), 4)
        ok = ok and phi_bruteforce(g, 4) == want
    _report(3, "brute-force ranks equal formula ranks, n <= 5, k <= 4", ok,
            time.perf_counter() - start, 600.0)


def test_criterion_4_gluing_identity(reps):
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        for g in reps[n]:
            direct = _u(g, 10)
            for v in g.vertices:
                g1, g2, seam = split_at_vertex(g, v)
                glued = glue_series(_u(g1, 10), _u(g2, 10), _u(seam, 10))
                ok = ok and glued == direct
    _report(4, "vertex gluing reproduces U, n <= 6, every pivot", ok,
            time.perf_counter() - start, 10.0)


def test_criterion_5_mayer_vietoris(reps):
    start = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for g in reps[n]:
            for v in g.vertices:
                ok = ok and verify_mayer_vietoris(g, v, 3).ok
    _report(5, "Mayer-Vietoris dimensions, n <= 5, every pivot, k <= 3", ok,
            time.perf_counter() - start, 600.0)


def test_criterion_6_chordal_chromatic(reps):
    start = time.perf_counter()
    chordal = [g for n in range(1, 7) for g in reps[n] if is_chordal(g)[0]]
    ok = len(chordal) == N_CHORDAL_6
    for g in chordal:
        kappa = clique_vector(g)
        chi = chromatic_polynomial(g)
        ok = ok and chordal_chromatic(kappa) == chi
        n = len(g.vertices)
        p_neg = poincare_polynomial(g).substitute_negated()
        ok = ok and p_neg.as_series(n + 1) == _u(g, n + 1)
    _report(6, "chordal product equals chromatic; P(-t) equals U", ok,
            time.perf_counter() - start, 10.0)


def test_criterion_7_decomposable(reps):
    start = time.perf_counter()
    k4_free = [
        g for n in range(1, 7) for g in reps[n]
        if len(clique_vector(g)) <= 3
    ]
    ok = len(k4_free) == N_K4_FREE_6
    for g in k4_free:
        ok = ok and decomposable_series(g, 10) == _u(g, 10)
    _report(7, "decomposable closed form equals U on K4-free graphs", ok,
            time.perf_counter() - start, None)


def _concat(a: dict, b: dict) -> dict:
    out: dict = {}
    for w, cw in a.items():
        for v, cv in b.items():
            key = w + v
            n = out.get(key, 0) + cw * cv
            if n:
                out[key] = n
            else:
                out.pop(key, None)
    return out


def _lie(a: dict, b: dict) -> dict:
    left, right = _concat(a, b), _concat(b, a)
    out = dict(left)
    for w, c in right.items():
        n = out.get(w, 0) - c
        if n:
            out[w] = n
        else:
            out.pop(w, None)
    return out


def _rand_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.35:
        return rng.randint(1, 4)
    return (_rand_tree(rng, depth - 1), _rand_tree(rng, depth - 1))


def _expand(tree) -> dict:
    if isinstance(tree, int):
        return {(tree,): 1}
    return bracket_expansion(tree)


def test_criterion_8_property_suites(reps):
    start = time.perf_counter()
    ok = True

    # clique vector <-> exponent vector round trip
    for n in range(1, 7):
        for g in reps[n]:
            kappa = clique_vector(g)
            e = graphic_exponents(kappa)
            for s in range(1, len(kappa)):
                back = sum(
                    math.comb(j, s) * e[j - 1] for j in range(s, len(e) + 1)
                )
                ok = ok and back == kappa[s]

    # exponent vector <-> rank sequence round trip to order 12
    for n in range(1, 7):
        for g in reps[n]:
            e = graphic_exponents(clique_vector(g))
            phi = phi_from_exponents(e, 12)
            ok = ok and expand_lcs_product(phi, 12) == expand_product(e, 12)

    # Witt dimensions: power-sum identity and basis sizes
    for m in range(13):
        for k in range(1, 7):
            total = sum(d * witt_dimension(m, d) for d in range(1, k + 1) if k % d == 0)
            ok = ok and total == m ** k
    for m in range(1, 5):
        for k in range(1, 7):
            ok = ok and len(lyndon_basis(m, k)) == witt_dimension(m, k)
    ok = ok and len(lyndon_basis(12, 6)) == witt_dimension(12, 6)

    # antisymmetry / Jacobi / rewriting on random brackets
    rng = random.Random(1711)
    for i in range(1000):
        x = _rand_tree(rng, 2)
        y = _rand_tree(rng, 2)
        z = _rand_tree(rng, 2)
        ex, ey, ez = _expand(x), _expand(y), _expand(z)
        ok = ok and _expand((x, y)) == _lie(ex, ey)
        ok = ok and _lie(ex, ey) == {w: -c for w, c in _lie(ey, ex).items()}
        jacobi = {}
        for term in (_lie(ex, _lie(ey, ez)), _lie(ey, _lie(ez, ex)),
                     _lie(ez, _lie(ex, ey))):
            for w, c in term.items():
                n = jacobi.get(w, 0) + c
                if n:
                    jacobi[w] = n
                else:
                    jacobi.pop(w, None)
        ok = ok and jacobi == {}
        if i % 10 == 0 and ex:
            coords = lyndon_coordinates(ex)
            rebuilt = {}
            for w, c in coords.items():
                for v, cv in bracket_expansion(standard_bracketing(w)).items():
                    n = rebuilt.get(v, 0) + c * cv
                    if n:
                        rebuilt[v] = n
                    else:
                        rebuilt.pop(v, None)
            ok = ok and rebuilt == ex
    _report(8, "round trips, Witt identities, bracket laws", ok,
            time.perf_counter() - start, 30.0)
