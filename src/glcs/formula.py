"""Closed-form ranks for graphic arrangements and their cross-checks.

The central identity expands the clique vector into exponents e_j with
U(t) = prod_j (1 - j*t)^(e_j); everything else here is an independent route
to the same series (gluing along a vertex split, chromatic specializations)
used to corroborate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import MismatchError, NotDecomposableError
from .graphs import (
    Graph,
    DecompositionTree,
    Node,
    _rank2_flats,
    clique_vector,
    decompose,
)
from .series import IntPolynomial, TruncatedSeries, _quotient, expand_product

__all__ = [
    "Flat2",
    "graphic_exponents",
    "braid_series",
    "rank2_flats",
    "decomposable_series",
    "chromatic_polynomial",
    "chordal_chromatic",
    "glue_series",
    "series_via_decomposition",
    "poincare_polynomial",
]


@dataclass(frozen=True)
class Flat2:
    """A rank-2 intersection flat: its edges (1-based indices) and Mobius value."""

    edges: frozenset[int]
    mu: int


def graphic_exponents(kappa) -> tuple[int, ...]:
    """Exponents e_j from a clique vector by the alternating binomial sum.

    e_j = sum_{s >= j} (-1)^(s-j) C(s, j) kappa_s for 1 <= j <= kappa_0 - 1;
    trailing zeros are trimmed.  Entries can be negative (the complete graph
    on n vertices gives the 0/1 pattern selecting 1..n-1; sparse graphs with
    many triangles can dip below zero).
    """
    if not kappa or kappa[0] < 0:
        raise ValueError("clique vector must start with the vertex count")
    ell = kappa[0]
    out = []
    for j in range(1, max(ell, 1)):
        e_j = sum(
            (-1) ** (s - j) * comb(s, j) * kappa[s]
            for s in range(j, len(kappa))
        )
        out.append(e_j)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def braid_series(n: int, order: int) -> TruncatedSeries:
    """prod_{i=1}^{n-1} (1 - i*t), the braid arrangement series.

    Computed directly from the factors, multiplied one by one into a single
    coefficient list, not through exponents, so it can serve as an
    independent check on the clique-vector route for complete graphs.  For
    n <= 1 the product is empty and the series is 1.
    """
    coeffs = [1] + [0] * order
    for i in range(1, n):
        # times (1 - i*t), descending so coeffs[k - 1] is still the old one
        for k in range(min(i, order), 0, -1):
            coeffs[k] -= i * coeffs[k - 1]
    return TruncatedSeries(order, tuple(coeffs))


def rank2_flats(g: Graph) -> tuple[Flat2, ...]:
    """All rank-2 flats of the graphic arrangement.

    Triangles give three-hyperplane flats with mu = 2, in the order
    g.triangles() yields them; then the pairs of edges lying in no common
    triangle give two-hyperplane flats with mu = 1, in increasing order.
    Two edges share a flat with a third exactly when they span a triangle,
    so the count is kappa_2 + C(kappa_1, 2) - 3*kappa_2.
    """
    return tuple(Flat2(frozenset(f), len(f) - 1) for f in _rank2_flats(g))


def _decomposable(kappa: tuple[int, ...]) -> bool:
    """No K_4 in a graph of clique vector kappa: a decomposable arrangement."""
    return len(kappa) <= 3 or kappa[3] == 0


def decomposable_series(g: Graph, order: int) -> TruncatedSeries:
    """Series for graphs without K_4 subgraphs, via the rank-2 flat product.

    U(t) = (1-t)^(b1) * prod over flats p with mu(p) >= 2 of
    (1 - mu(p) t) / (1-t)^(mu(p)).  A graphic rank-2 flat is a triangle
    (mu = 2) or two edges in no common triangle (mu = 1), so with T triangles
    U(t) = (1-t)^(b1 - 2T) (1-2t)^T.  The arrangement is decomposable exactly
    when the graph has no K_4; NotDecomposableError otherwise.
    """
    kappa = clique_vector(g)
    if not _decomposable(kappa):
        raise NotDecomposableError(f"graph has {kappa[3]} K_4 subgraphs")
    b1 = kappa[1] if len(kappa) > 1 else 0
    triangles = sum(1 for flat in rank2_flats(g) if flat.mu == 2)
    return expand_product([b1 - 2 * triangles, triangles], order)


def chromatic_polynomial(g: Graph) -> IntPolynomial:
    """Chromatic polynomial by deletion and contraction.

    Exact integer arithmetic.  chi is the product over the connected
    components.  Each step deletes and contracts the first (smallest) edge.
    An isolated vertex only contributes a factor t, so every graph in the
    recursion is cut down to the vertices its edges touch, renumbered
    0..k-1 in increasing order, and that sorted edge tuple alone is the
    memo key.  Renumbering keeps the order, so it is an isomorphism that
    keeps the pivot: graphs with equal keys have equal chromatic
    polynomials.  The recursion is at most the edge count of the largest
    component deep.  Components are split off only here, not where a
    deletion disconnects the graph partway down.
    """
    comps = [c for c in g.components() if len(c) > 1]
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    pieces: list[list] = [[] for _ in comps]
    for e in g.edges:
        pieces[where[e[0]]].append(e)
    isolated = g.n_vertices - len(where)
    chi = IntPolynomial((0,) * isolated + (1,))
    memo: dict = {}
    for comp, edges in zip(comps, pieces):
        chi = chi * _chromatic(edges, len(comp), memo)
    return chi


def _chromatic(edges, n: int, memo: dict) -> IntPolynomial:
    """chi of the graph on n vertices with these sorted edges (u < v)."""
    ends = sorted({x for e in edges for x in e})
    # edges already on 0..k-1 keep their pair tuples, so the memo's keys
    # share them instead of each holding copies
    if ends != list(range(len(ends))):
        index = {x: i for i, x in enumerate(ends)}
        edges = [(index[u], index[v]) for u, v in edges]
    key = tuple(edges)
    chi = memo.get(key)
    if chi is None:
        if not key:
            chi = IntPolynomial((1,))
        else:
            (u, v), rest = key[0], key[1:]
            contracted = sorted({
                (min(a, b), max(a, b))
                for a, b in (
                    (u if x == v else x, u if y == v else y) for x, y in rest
                )
                if a != b
            })
            k = len(ends)
            chi = _chromatic(rest, k, memo) - _chromatic(contracted, k - 1, memo)
        memo[key] = chi
    return IntPolynomial((0,) * (n - len(ends)) + chi.coeffs)


def chordal_chromatic(kappa) -> IntPolynomial:
    """Chromatic polynomial of a chordal graph from its clique vector.

    chi(t) = t^(kappa_0 - sum_j e_j) * prod_j (t - j)^(e_j).  Valid only
    when every exponent is nonnegative, which chordality guarantees.
    """
    e = graphic_exponents(kappa)
    if any(x < 0 for x in e):
        raise ValueError(f"negative exponent in {e}: graph is not chordal")
    free = kappa[0] - sum(e)
    if free < 0:
        raise ValueError("exponents exceed the vertex count")
    result = IntPolynomial((0,) * free + (1,))
    for j, e_j in enumerate(e, start=1):
        result = result * IntPolynomial((-j, 1)) ** e_j
    return result


def glue_series(
    u1: TruncatedSeries, u2: TruncatedSeries, seam: TruncatedSeries
) -> TruncatedSeries:
    """Combine the two split pieces: u1 * u2 / seam.

    All three series must share a truncation order, and the seam must be a
    unit (constant term 1) so the division is exact over Z.  Only the work
    that can change the result is done: a factor equal to the series 1 is
    not multiplied in, and a seam other than 1 divides the product in the
    one exact pass of glcs.series, with no reciprocal.
    """
    if not (u1.order == u2.order == seam.order):
        raise ValueError("series orders differ")
    if seam.coeffs[0] != 1:
        raise ValueError("seam series must have constant term 1")
    unit = (1,) + (0,) * u1.order
    if u2.coeffs == unit:
        product = u1
    elif u1.coeffs == unit:
        product = u2
    else:
        product = u1 * u2
    if seam.coeffs == unit:
        return product
    return TruncatedSeries(u1.order, _quotient(product.coeffs, seam.coeffs))


@dataclass(frozen=True)
class _Folded:
    """A decomposition tree node with its series; children folded likewise.

    left, right and seam are None at a leaf; seam folds the decomposition
    of the node's seam graph.
    """

    tree: DecompositionTree
    u: TruncatedSeries
    left: "_Folded | None" = None
    right: "_Folded | None" = None
    seam: "_Folded | None" = None


def _fold(tree: DecompositionTree, order: int) -> _Folded:
    """Fold a decomposition tree into its series at every node.

    Complete leaves use the direct braid product; internal nodes glue their
    pieces, decomposing the seam.  The left chain is walked in a loop, the
    right pieces and seams (a vertex's closed neighborhood at most) by
    recursion.
    """
    chain = []
    while isinstance(tree, Node):
        chain.append(tree)
        tree = tree.left
    folded = _Folded(tree, braid_series(tree.graph.n_vertices, order))
    for node in reversed(chain):
        right = _fold(node.right, order)
        seam = _fold(decompose(node.seam), order)
        u = glue_series(folded.u, right.u, seam.u)
        folded = _Folded(node, u, folded, right, seam)
    return folded


def series_via_decomposition(tree: DecompositionTree, order: int) -> TruncatedSeries:
    """Fold a decomposition tree into a series.

    Complete leaves use the direct braid product; internal nodes glue their
    pieces, recursively decomposing the seam.  Apart from complete-graph
    base cases this route never consults the clique-vector exponents, so it
    cross-checks them.
    """
    return _fold(tree, order).u


def poincare_polynomial(g: Graph) -> IntPolynomial:
    """Betti numbers of the arrangement complement, from the chromatic polynomial.

    b_i = (-1)^i [q^(n-i)] chi(q) for a graph on n vertices.  The result
    must have nonnegative coefficients; anything else means the two sides
    of the pipeline disagree and is raised as MismatchError.
    """
    return _poincare_from_chromatic(chromatic_polynomial(g), g.n_vertices)


def _poincare_from_chromatic(chi: IntPolynomial, n: int) -> IntPolynomial:
    """poincare_polynomial of a graph on n vertices with chromatic polynomial chi."""
    betti = []
    for i in range(n + 1):
        b = (-1) ** i * chi.coefficient(n - i)
        if b < 0:
            raise MismatchError(
                f"negative Betti number b_{i} = {b} from {chi}"
            )
        betti.append(b)
    return IntPolynomial(tuple(betti))
