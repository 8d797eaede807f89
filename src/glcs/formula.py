"""Closed-form ranks for graphic arrangements and their cross-checks.

The central identity expands the clique vector into exponents e_j with
U(t) = prod_j (1 - j*t)^(e_j); everything else here is an independent route
to the same series (gluing along a vertex split, chromatic specializations)
used to corroborate it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import MismatchError, NotDecomposableError
from .graphs import (
    Graph,
    DecompositionTree,
    Leaf,
    clique_vector,
    decompose,
)
from .series import TruncatedSeries, expand_product, linear_factor, one

__all__ = [
    "IntPolynomial",
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
class IntPolynomial:
    """Dense integer polynomial, constant term first, no trailing zeros."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(
            tuple(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + IntPolynomial(tuple(-c for c in other.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPolynomial((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def coefficient(self, d: int) -> int:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def substitute_negated(self) -> "IntPolynomial":
        """The polynomial p(-t)."""
        return IntPolynomial(
            tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))
        )

    def as_series(self, order: int) -> TruncatedSeries:
        coeffs = [self.coefficient(i) for i in range(order + 1)]
        return TruncatedSeries(order, tuple(coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if i > 0 and abs(c) != 1:
                mono = f"{abs(c)}*{mono}"
            elif i == 0:
                mono = str(abs(c))
            if not parts:
                parts.append(("-" if c < 0 else "") + mono)
            else:
                parts.append(("- " if c < 0 else "+ ") + mono)
        return " ".join(parts)


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

    Computed directly from the factors, not through exponents, so it can
    serve as an independent check on the clique-vector route for complete
    graphs.  For n <= 1 the product is empty and the series is 1.
    """
    result = one(order)
    for i in range(1, n):
        result = result * linear_factor(i, order)
    return result


def rank2_flats(g: Graph) -> tuple[Flat2, ...]:
    """All rank-2 flats of the graphic arrangement.

    Triangles give three-hyperplane flats with mu = 2; pairs of edges lying
    in no common triangle give two-hyperplane flats with mu = 1.  Two edges
    share a flat with a third exactly when they span a triangle, so the
    count is kappa_2 + C(kappa_1, 2) - 3*kappa_2.
    """
    flats = []
    triangle_pairs = set()
    for a, b, c in g.triangles():
        idx = (g.edge_index(a, b), g.edge_index(a, c), g.edge_index(b, c))
        flats.append(Flat2(frozenset(idx), 2))
        for pair in itertools.combinations(sorted(idx), 2):
            triangle_pairs.add(pair)
    m = g.n_edges
    for pair in itertools.combinations(range(1, m + 1), 2):
        if pair not in triangle_pairs:
            flats.append(Flat2(frozenset(pair), 1))
    return tuple(flats)


def decomposable_series(
    g: Graph, order: int, *, printed_form: bool = False
) -> TruncatedSeries:
    """Series for graphs without K_4 subgraphs, via the rank-2 flat product.

    U(t) = (1-t)^(b1) * prod over flats p with mu(p) >= 2 of
    (1 - mu(p) t) / (1-t)^(mu(p)).  The arrangement is decomposable exactly
    when the graph has no K_4; NotDecomposableError otherwise.  printed_form
    uses a denominator exponent of 1 per flat instead of mu(p); it disagrees
    with the clique-vector route already on a single triangle and exists
    only as a diagnostic.
    """
    kappa = clique_vector(g)
    if len(kappa) > 3 and kappa[3]:
        raise NotDecomposableError(f"graph has {kappa[3]} K_4 subgraphs")
    b1 = kappa[1] if len(kappa) > 1 else 0
    exps: dict[int, int] = {1: b1}
    for flat in rank2_flats(g):
        if flat.mu >= 2:
            exps[flat.mu] = exps.get(flat.mu, 0) + 1
            exps[1] -= 1 if printed_form else flat.mu
    top = max(exps) if exps else 1
    vec = [exps.get(j, 0) for j in range(1, top + 1)]
    return expand_product(vec, order)


def chromatic_polynomial(g: Graph) -> IntPolynomial:
    """Chromatic polynomial by deletion and contraction.

    Exact integer arithmetic; splits across connected components, and
    memoizes on an isomorphism-invariant canonical form for graphs on at
    most 10 vertices.
    """
    memo: dict = {}
    return _chromatic(frozenset(g.vertices), frozenset(g.edges), memo)


def _chromatic(vertices: frozenset[int], edges: frozenset, memo) -> IntPolynomial:
    if not edges:
        return IntPolynomial((0,) * len(vertices) + (1,))
    key = _canonical_key(vertices, edges)
    if key is not None and key in memo:
        return memo[key]
    comps = _components(vertices, edges)
    if len(comps) > 1:
        result = IntPolynomial((1,))
        for comp in comps:
            sub = frozenset(e for e in edges if e[0] in comp)
            result = result * _chromatic(comp, sub, memo)
    else:
        u, v = min(edges)
        deleted = edges - {(u, v)}
        contracted = frozenset(
            (min(a, b), max(a, b))
            for a, b in (
                (u if x == v else x, u if y == v else y) for x, y in deleted
            )
            if a != b
        )
        result = _chromatic(vertices, deleted, memo) - _chromatic(
            vertices - {v}, contracted, memo
        )
    if key is not None:
        memo[key] = result
    return result


def _components(vertices: frozenset[int], edges: frozenset) -> list[frozenset[int]]:
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[int] = set()
    comps = []
    for start in sorted(vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


_PERM_CAP = 10080


def _canonical_key(vertices: frozenset[int], edges: frozenset):
    """Isomorphism-invariant memo key, or a labeled fallback key.

    Dense graphs are keyed through their complement (isomorphism-faithful
    and much sparser along deletion-contraction of near-complete graphs).
    Only vertices touched by the kept edge set enter the canonical search:
    the untouched ones are interchangeable, so their count suffices.  Color
    refinement then bounds the relabelings to minimize over; graphs whose
    refinement stays too coarse fall back to the exact labeled key, which
    is still correct, just less shared.
    """
    n = len(vertices)
    if n > 10:
        return None
    if n <= 6:
        # cheap exact key; the raw recursion is already fast at this size
        return ("labeled", n, edges)
    flag = "canon"
    if len(edges) > n * (n - 1) // 4:
        flag = "co-canon"
        edges = frozenset(
            (u, v)
            for u, v in itertools.combinations(sorted(vertices), 2)
            if (u, v) not in edges
        )
    core = sorted({v for e in edges for v in e})
    adj: dict[int, list[int]] = {v: [] for v in core}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = {v: len(adj[v]) for v in core}
    while True:
        sig = {
            v: (color[v], tuple(sorted(color[w] for w in adj[v])))
            for v in core
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in core}
        if new == color:
            break
        color = new
    classes: dict[int, list[int]] = {}
    for v in core:
        classes.setdefault(color[v], []).append(v)
    ordered = [classes[c] for c in sorted(classes)]
    count = 1
    for cls in ordered:
        for i in range(2, len(cls) + 1):
            count *= i
        if count > _PERM_CAP:
            return ("labeled", n, edges, flag)
    best = None
    for perm_parts in itertools.product(
        *(itertools.permutations(cls) for cls in ordered)
    ):
        relabel = {}
        i = 0
        for part in perm_parts:
            for v in part:
                relabel[v] = i
                i += 1
        cand = tuple(
            sorted(
                (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
                for u, v in edges
            )
        )
        if best is None or cand < best:
            best = cand
    return (flag, n, best)


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
    unit (constant term 1) so the division is exact over Z.
    """
    if not (u1.order == u2.order == seam.order):
        raise ValueError("series orders differ")
    if seam.coeffs[0] != 1:
        raise ValueError("seam series must have constant term 1")
    return u1 * u2 * seam.reciprocal()


def series_via_decomposition(tree: DecompositionTree, order: int) -> TruncatedSeries:
    """Fold a decomposition tree into a series.

    Complete leaves use the direct braid product; internal nodes glue their
    pieces, recursively decomposing the seam.  Apart from complete-graph
    base cases this route never consults the clique-vector exponents, so it
    cross-checks them.
    """
    if isinstance(tree, Leaf):
        return braid_series(tree.graph.n_vertices, order)
    left = series_via_decomposition(tree.left, order)
    right = series_via_decomposition(tree.right, order)
    seam = series_via_decomposition(decompose(tree.seam), order)
    return glue_series(left, right, seam)


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
