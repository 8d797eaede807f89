"""Straightforward reference versions of glcs routines.

Each follows its definition directly, with no shared search or shortcut, so
the faster versions in glcs are tested for identical results against them.
Integer polynomials and truncated series are plain coefficient tuples here,
with the package's earlier operator bodies, each its own loop; the series
routines multiply, power and divide with these, never with the shared
kernels of glcs.series.
The holonomy oracle at the end is the package's earlier one, in the Lyndon
basis of the free Lie algebra; it takes its presentation from the
reference above and eliminates with its own exact echelon, a copy of the
package's at the time it was split off, so no change to glcs's echelon
reaches it.
"""

from __future__ import annotations

import collections
import itertools
from math import gcd

from glcs import (
    Flat2,
    GradedDims,
    Graph,
    HolonomyPresentation,
    KernelGenerationReport,
    Leaf,
    MismatchError,
    Node,
    witt_dimension,
)
from glcs.holonomy import KernelGenerationRow
from glcs.series import TruncatedSeries, linear_factor, one


def degeneracy_order(g: Graph) -> list[int]:
    """Repeatedly remove a minimum-degree vertex (ties: smallest id)."""
    remaining = set(g.vertices)
    deg = {v: g.degree(v) for v in g.vertices}
    order = []
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        order.append(v)
        remaining.discard(v)
        for w in g.neighbors(v):
            if w in remaining:
                deg[w] -= 1
    return order


def max_cardinality_search(g: Graph) -> list[int]:
    """Pick the vertex with the most visited neighbours, ties by smallest id."""
    visited_nbrs = {v: 0 for v in g.vertices}
    unvisited = set(g.vertices)
    out = []
    while unvisited:
        v = max(unvisited, key=lambda x: (visited_nbrs[x], -x))
        unvisited.discard(v)
        out.append(v)
        for w in g.neighbors(v):
            if w in unvisited:
                visited_nbrs[w] += 1
    return out


def chordless_cycle(g: Graph) -> list[int] | None:
    """One BFS per vertex v and non-adjacent neighbor pair u < w of v."""
    best: list[int] | None = None
    for v in g.vertices:
        nbrs = sorted(g.neighbors(v))
        for u, w in itertools.combinations(nbrs, 2):
            if g.has_edge(u, w):
                continue
            blocked = (g.neighbors(v) | {v}) - {u, w}
            path = _shortest_path(g, u, w, blocked)
            if path is not None:
                cycle = [v] + path
                if best is None or len(cycle) < len(best):
                    best = cycle
    return best


def elimination_witness(g: Graph) -> list[int] | None:
    """The induced cycle through the first fault of reversed maximum cardinality search.

    Scan the order for the first v whose later neighbours are not all
    adjacent to u, the first of them; w is the smallest such neighbour not
    adjacent to u.  A shortest u-w path that avoids v, the vertices before
    it and its other neighbours closes the cycle.
    """
    elim = max_cardinality_search(g)[::-1]
    for i, v in enumerate(elim):
        later = [x for x in elim[i + 1:] if g.has_edge(v, x)]
        missing = [x for x in later[1:] if not g.has_edge(later[0], x)]
        if missing:
            u, w = later[0], min(missing)
            blocked = set(elim[:i + 1]) | (g.neighbors(v) - {u, w})
            path = _shortest_path(g, u, w, blocked)
            assert path is not None, f"no path closes the fault at {v}"
            return [v] + path
    return None


def _shortest_path(g: Graph, src: int, dst: int, blocked) -> list[int] | None:
    prev: dict[int, int | None] = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for x in frontier:
            for y in sorted(g.neighbors(x)):
                if y in blocked or y in prev:
                    continue
                prev[y] = x
                if y == dst:
                    path = [y]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                nxt.append(y)
        frontier = nxt
    return None


def is_triangle_complete(g: Graph, k: Graph) -> bool:
    """No triangle of g has exactly two of its edges in k."""
    kedges = set(k.edges)
    for a, b, c in g.triangles():
        inside = ((a, b) in kedges) + ((a, c) in kedges) + ((b, c) in kedges)
        if inside == 2:
            return False
    return True


def adjacency(g: Graph) -> dict[int, set[int]]:
    """Each vertex's neighbours, read off the edge list."""
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components(g: Graph) -> list[frozenset[int]]:
    """Breadth-first search from each vertex not yet reached, in vertex order."""
    adj = adjacency(g)
    seen: set[int] = set()
    out = []
    for start in g.vertices:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = collections.deque(comp)
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        out.append(frozenset(comp))
    return out


def induced(g: Graph, keep) -> Graph:
    """The vertices and edges of g inside keep, filtered one by one."""
    return Graph(
        tuple(v for v in g.vertices if v in keep),
        tuple((u, v) for u, v in g.edges if u in keep and v in keep),
        g.labels,
    )


def split_at_vertex(g: Graph, v: int) -> tuple[Graph, Graph, Graph]:
    """(g minus v, g on N[v], g on N(v)), each filtered from the edge list."""
    if v not in g.vertices:
        raise ValueError(f"vertex {v} not in graph")
    nv = {a if b == v else b for a, b in g.edges if v in (a, b)}
    return (
        induced(g, set(g.vertices) - {v}),
        induced(g, nv | {v}),
        induced(g, nv),
    )


def decompose(g: Graph):
    """Split at a minimum-degree vertex, recursing into both pieces."""
    if g.is_complete():
        reason = "complete-graph" if g.n_vertices >= 2 else "single-component-base"
        return Leaf(g, reason)
    pivot = min(g.vertices, key=lambda v: (g.degree(v), v))
    g1, g2, seam = split_at_vertex(g, pivot)
    return Node(g, pivot, decompose(g1), decompose(g2), seam)


def chromatic_polynomial(g: Graph) -> tuple[int, ...]:
    """Coefficients of chi(t) = sum over S in E of (-1)^|S| t^c(V, S).

    Whitney's expansion: c(V, S) counts the components of the spanning
    subgraph with edge set S, found by relabelling components as the edges
    of S join them.  Constant term first, trailing zeros trimmed; 2^m
    subsets.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    edges = [(index[u], index[v]) for u, v in g.edges]
    coeffs = [0] * (len(index) + 1)

    def expand(i, comp, count, sign):
        # comp[x] names the component of x in (V, S), S the edges taken
        if i == len(edges):
            coeffs[count] += sign
            return
        expand(i + 1, comp, count, sign)
        a, b = comp[edges[i][0]], comp[edges[i][1]]
        if a == b:
            expand(i + 1, comp, count, -sign)
        else:
            expand(i + 1, [a if c == b else c for c in comp], count - 1, -sign)

    expand(0, list(range(len(index))), len(index), 1)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _strip(coeffs) -> tuple[int, ...]:
    c = tuple(coeffs)
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def poly_add(a, b) -> tuple[int, ...]:
    a, b = _strip(a), _strip(b)
    if len(a) < len(b):
        a, b = b, a
    return _strip(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))


def poly_sub(a, b) -> tuple[int, ...]:
    return poly_add(a, tuple(-c for c in _strip(b)))


def poly_mul(a, b) -> tuple[int, ...]:
    a, b = _strip(a), _strip(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _strip(out)


def poly_pow(a, k: int) -> tuple[int, ...]:
    if k < 0:
        raise ValueError("negative power of a polynomial")
    result, base = (1,), _strip(a)
    while k:
        if k & 1:
            result = poly_mul(result, base)
        base = poly_mul(base, base)
        k >>= 1
    return result


def poly_str(a) -> str:
    """Highest degree first, as t^3 - 3*t^2 + 2*t; 0 for no terms."""
    a = _strip(a)
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
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


def series_add(a, b) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def series_sub(a, b) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def series_mul(a, b) -> tuple[int, ...]:
    """a * b truncated to len(a) coefficients."""
    n = len(a) - 1
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b[: n + 1 - i]):
            if y:
                out[i + j] += x * y
    return tuple(out)


def series_reciprocal(a) -> tuple[int, ...]:
    """1 / a to len(a) coefficients; a's constant term must be 1 or -1."""
    c0 = a[0]
    if c0 not in (1, -1):
        raise ValueError(f"series is not a unit over Z (constant term {c0})")
    n = len(a) - 1
    inv = [c0] + [0] * n
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            acc += a[i] * inv[k - i]
        inv[k] = -c0 * acc
    return tuple(inv)


def series_pow(a, k: int) -> tuple[int, ...]:
    if k < 0:
        return series_pow(series_reciprocal(a), -k)
    result = (1,) + (0,) * (len(a) - 1)
    base = tuple(a)
    while k:
        if k & 1:
            result = series_mul(result, base)
        base = series_mul(base, base)
        k >>= 1
    return result


def series_str(a) -> str:
    """Lowest degree first, as 1 - 3*t + 2*t^2 + O(t^4)."""
    terms = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c)) + "*"
            t = "t" if i == 1 else f"t^{i}"
            terms.append(("-" if c < 0 else "+") + f" {mag}{t}"
                         if terms else ("-" if c < 0 else "") + f"{mag}{t}")
    body = " ".join(terms) if terms else "0"
    return f"{body} + O(t^{len(a)})"


def expand_lcs_product(phi, order: int) -> TruncatedSeries:
    """prod_k (1 - t^k)^(phi_k) by repeated squaring of each factor."""
    if order > len(phi):
        raise ValueError(f"order {order} needs {order} ranks, got {len(phi)}")
    result = one(order).coeffs
    for k, p in enumerate(phi, start=1):
        if k > order:
            break
        if p == 0:
            continue
        coeffs = [0] * (order + 1)
        coeffs[0] = 1
        coeffs[k] = -1
        result = series_mul(result, series_pow(coeffs, p))
    return TruncatedSeries(order, result)


def expand_product(exponents, order: int) -> TruncatedSeries:
    """prod_j (1 - j*t)^(e_j), each factor raised to its power by squaring."""
    result = one(order).coeffs
    for j, e in enumerate(exponents, start=1):
        if e:
            factor = linear_factor(j, order).coeffs
            result = series_mul(result, series_pow(factor, e))
    return TruncatedSeries(order, result)


def braid_series(n: int, order: int) -> TruncatedSeries:
    """prod_{i=1}^{n-1} (1 - i*t), one series product per factor."""
    result = one(order).coeffs
    for i in range(1, n):
        result = series_mul(result, linear_factor(i, order).coeffs)
    return TruncatedSeries(order, result)


def glue_series(
    u1: TruncatedSeries, u2: TruncatedSeries, seam: TruncatedSeries
) -> TruncatedSeries:
    """u1 * u2 / seam: two products and the seam's reciprocal, every time."""
    if not (u1.order == u2.order == seam.order):
        raise ValueError("series orders differ")
    if seam.coeffs[0] != 1:
        raise ValueError("seam series must have constant term 1")
    product = series_mul(u1.coeffs, u2.coeffs)
    return TruncatedSeries(
        u1.order, series_mul(product, series_reciprocal(seam.coeffs))
    )


def rank2_flats(g: Graph) -> tuple[Flat2, ...]:
    """All rank-2 flats of the graphic arrangement, triangles first.

    Triangles give three-hyperplane flats with mu = 2; pairs of edges lying
    in no common triangle give two-hyperplane flats with mu = 1.
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


def presentation(g: Graph) -> HolonomyPresentation:
    """Presentation with one generator per edge, commuting pairs first.

    Edge pairs spanning no triangle commute.  Each triangle with edge
    indices a < b < c contributes the two relators [x_a, x_b + x_c] and
    [x_b, x_a + x_c].
    """
    m = g.n_edges
    triangle_pairs: set[tuple[int, int]] = set()
    triangle_relators = []
    for tri in sorted(g.triangles()):
        u, v, w = tri
        a, b, c = sorted(
            (g.edge_index(u, v), g.edge_index(u, w), g.edge_index(v, w))
        )
        triangle_pairs.update([(a, b), (a, c), (b, c)])
        triangle_relators.append((((a, b), 1), ((a, c), 1)))
        triangle_relators.append((((a, b), -1), ((b, c), 1)))
    commuting = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if (i, j) not in triangle_pairs:
                commuting.append((((i, j), 1),))
    return HolonomyPresentation(m, tuple(commuting + triangle_relators))


# ---------------------------------------------------------------------------
# the holonomy oracle in the Lyndon basis of the free Lie algebra
#
# Degree k of the relator ideal is spanned by brackets of a basis of degree
# k - 1 with the generators; every bracket is rewritten into Lyndon
# coordinates and the ideal is eliminated exactly.  glcs computes the same
# dimensions from the enveloping algebra instead, and never forms a Lie word.

class Echelon:
    """Incremental echelon basis over Z, rows keyed by their smallest index.

    Stored rows are primitive with a positive leading coefficient and are
    never mutated after insertion.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def copy(self) -> "Echelon":
        # rows are never mutated after insertion, so sharing them is safe
        dup = Echelon()
        dup.pivots = dict(self.pivots)
        return dup

    def insert(self, row: dict[int, int]) -> bool:
        """Reduce a row against the basis; add it if independent.

        The row may hold zeros; it is copied without them and left alone.
        """
        work = {k: c for k, c in row.items() if c}
        pivots = self.pivots
        while work:
            lead = min(work)
            prow = pivots.get(lead)
            if prow is None:
                a = work[lead]
                if a == -1:
                    for k in work:
                        work[k] = -work[k]
                elif a != 1:
                    _strip_gcd(work, make_positive_at=lead)
                pivots[lead] = dict(work)
                return True
            _cancel(work, prow, lead)
        return False


def _cancel(work: dict[int, int], prow: dict[int, int], key: int):
    """Clear work[key] with prow, whose entry there is positive, in place."""
    a = work[key]
    b = prow[key]
    g = gcd(a, b)
    ma = b // g
    mb = a // g
    if ma != 1:
        for k in work:
            work[k] *= ma
    for k, c in prow.items():
        n = work.get(k, 0) - mb * c
        if n:
            work[k] = n
        else:
            del work[k]
    if ma != 1:
        _strip_gcd(work)


def _strip_gcd(row: dict[int, int], make_positive_at: int | None = None):
    g = 0
    for c in row.values():
        g = gcd(g, c)
        if g == 1:
            break
    if make_positive_at is not None and row.get(make_positive_at, 1) < 0:
        g = -g
    if g not in (0, 1):
        for k in row:
            row[k] //= g


def lyndon_basis(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All Lyndon words of length k over letters 1..m, in lexicographic order.

    Their standard bracketings form a basis of the degree-k piece of the
    free Lie algebra, so the count is the Witt dimension.
    """
    if m < 1 or k < 1:
        return ()
    return tuple(w for w in _duval(m, k) if len(w) == k)


def _duval(m: int, maxlen: int):
    """Yield all Lyndon words over 1..m of length <= maxlen, in lex order."""
    w = [0]
    while w:
        w[-1] += 1
        yield tuple(w)
        period = len(w)
        while len(w) < maxlen:
            w.append(w[len(w) - period])
        while w and w[-1] == m:
            w.pop()


def is_lyndon(w: tuple[int, ...]) -> bool:
    return len(w) >= 1 and all(w < w[i:] + w[:i] for i in range(1, len(w)))


_BRACKETING_CACHE: dict[tuple[int, ...], object] = {}


def standard_bracketing(w: tuple[int, ...]):
    """Right-normed standard bracketing of a Lyndon word.

    A letter stands for itself; longer words split as u*v with v the
    lexicographically smallest proper suffix (itself Lyndon), giving the
    nested pair (bracketing(u), bracketing(v)).
    """
    cached = _BRACKETING_CACHE.get(w)
    if cached is not None:
        return cached
    if len(w) == 1:
        result = w[0]
    else:
        v = min(w[i:] for i in range(1, len(w)))
        u = w[: len(w) - len(v)]
        result = (standard_bracketing(u), standard_bracketing(v))
    _BRACKETING_CACHE[w] = result
    return result


def bracket_expansion(tree) -> dict[tuple[int, ...], int]:
    """Expand a bracketing tree in the free associative algebra.

    Leaves are letters; an internal node (a, b) is the commutator ab - ba.
    Returns word -> integer coefficient with zeros dropped.
    """
    if isinstance(tree, int):
        return {(tree,): 1}
    left = bracket_expansion(tree[0])
    right = bracket_expansion(tree[1])
    out: dict[tuple[int, ...], int] = {}
    for wa, ca in left.items():
        for wb, cb in right.items():
            c = ca * cb
            for key, delta in ((wa + wb, c), (wb + wa, -c)):
                n = out.get(key, 0) + delta
                if n:
                    out[key] = n
                else:
                    out.pop(key, None)
    return out


_ASSOC_CACHE: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}


def _assoc_of_lyndon(w: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    cached = _ASSOC_CACHE.get(w)
    if cached is None:
        cached = bracket_expansion(standard_bracketing(w))
        if cached.get(w) != 1:
            raise MismatchError(f"leading coefficient of {w} is not 1")
        _ASSOC_CACHE[w] = cached
    return cached


def lyndon_coordinates(poly: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """Coordinates of a homogeneous Lie element in the Lyndon basis.

    Repeatedly peels off the lexicographically smallest word: for a Lie
    element it is always Lyndon and its coefficient is the coordinate on
    that basis vector (basis expansions are triangular: each one is its
    word plus lexicographically larger rearrangements).  A non-Lyndon
    minimal word therefore certifies that the input was not a Lie element.
    """
    work = {w: c for w, c in poly.items() if c}
    coords: dict[tuple[int, ...], int] = {}
    while work:
        w = min(work)
        if not is_lyndon(w):
            raise ValueError(f"minimal word {w} is not Lyndon: not a Lie element")
        c = work.pop(w)
        coords[w] = c
        for v, cv in _assoc_of_lyndon(w).items():
            if v == w:
                continue
            n = work.get(v, 0) - c * cv
            if n:
                work[v] = n
            else:
                work.pop(v, None)
    return coords


_BRACKET_TABLE: dict[tuple[tuple[int, ...], int], dict[tuple[int, ...], int]] = {}


def _bracket_with_generator(w: tuple[int, ...], i: int) -> dict[tuple[int, ...], int]:
    """Lyndon coordinates of [P_w, x_i] for a Lyndon word w."""
    key = (w, i)
    cached = _BRACKET_TABLE.get(key)
    if cached is None:
        poly: dict[tuple[int, ...], int] = {}
        for v, c in _assoc_of_lyndon(w).items():
            for word, delta in ((v + (i,), c), ((i,) + v, -c)):
                n = poly.get(word, 0) + delta
                if n:
                    poly[word] = n
                else:
                    poly.pop(word, None)
        cached = _BRACKET_TABLE[key] = lyndon_coordinates(poly)
    return cached


_LYNDON_INDEX: dict[tuple[int, int], tuple[tuple, dict]] = {}


def _lyndon_index(m: int, k: int):
    """Lyndon words of length k over m letters, and word -> position."""
    entry = _LYNDON_INDEX.get((m, k))
    if entry is None:
        words = lyndon_basis(m, k)
        entry = _LYNDON_INDEX[(m, k)] = (words, {w: i for i, w in enumerate(words)})
    return entry


def ideal_echelons(p: HolonomyPresentation, up_to: int) -> dict[int, Echelon]:
    """Degree -> echelon of the relator ideal in Lyndon coordinates, k >= 2.

    Degree k is spanned by brackets of a degree-(k-1) basis with the
    generators, since the ideal is generated in degree 2.
    """
    m = p.num_generators
    state: dict[int, Echelon] = {}
    for k in range(2, up_to + 1):
        ech = Echelon()
        ranks = _lyndon_index(m, k)[1]
        if k == 2:
            for rel in p.relators:
                ech.insert({ranks[word]: c for word, c in rel})
        else:
            prev = state[k - 1]
            prev_words = _lyndon_index(m, k - 1)[0]
            candidates = []
            for lead in sorted(prev.pivots):
                row = prev.pivots[lead]
                for i in range(1, m + 1):
                    cand: dict[int, int] = {}
                    for idx, c in row.items():
                        for v, cv in _bracket_with_generator(prev_words[idx], i).items():
                            r = ranks[v]
                            n = cand.get(r, 0) + c * cv
                            if n:
                                cand[r] = n
                            else:
                                cand.pop(r, None)
                    if cand:
                        candidates.append((min(cand), cand))
            candidates.sort(key=lambda t: t[0])
            for _, cand in candidates:
                ech.insert(cand)
        state[k] = ech
    return state


def graded_dims(p: HolonomyPresentation, up_to: int) -> GradedDims:
    """Free Lie, ideal and quotient dimensions per degree 1..up_to, uncapped."""
    return _dims(p, ideal_echelons(p, up_to), up_to)


def _dims(p: HolonomyPresentation, state: dict[int, Echelon], up_to: int) -> GradedDims:
    free = [witt_dimension(p.num_generators, k) for k in range(1, up_to + 1)]
    ideal = [0] + [state[k].rank for k in range(2, up_to + 1)]
    return GradedDims(
        tuple(free), tuple(ideal), tuple(f - i for f, i in zip(free, ideal))
    )


def verify_kernel_generation(g: Graph, sub: Graph, up_to: int) -> KernelGenerationReport:
    """The image of the free Lie span of Lyndon words over the outside edges.

    Its dimension in degree k is the rank the unit vectors of those words
    add to the degree-k ideal echelon.
    """
    if not is_triangle_complete(g, sub):
        raise ValueError("subgraph is not triangle-complete in g")
    sub_edges = set(sub.edges)
    outside = tuple(i for i, e in enumerate(g.edges, start=1) if e not in sub_edges)
    p = presentation(g)
    state = ideal_echelons(p, up_to)
    phi_g = _dims(p, state, up_to).quotient_dims
    phi_sub = graded_dims(presentation(sub), up_to).quotient_dims
    rows = []
    for k in range(1, up_to + 1):
        ranks = _lyndon_index(g.n_edges, k)[1]
        ech = state[k].copy() if k >= 2 else Echelon()
        added = 0
        for w in lyndon_basis(len(outside), k):
            if ech.insert({ranks[tuple(outside[i - 1] for i in w)]: 1}):
                added += 1
        rows.append(KernelGenerationRow(k, phi_g[k - 1] - phi_sub[k - 1], added))
    return KernelGenerationReport(outside, tuple(rows))
