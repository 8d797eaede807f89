"""Straightforward reference versions of the graph-layer and series routines.

Each follows its definition directly, with no shared search or shortcut, so
the faster versions in glcs are tested for identical results against them.
"""

from __future__ import annotations

import itertools

from glcs import Graph, Leaf, Node, split_at_vertex
from glcs.series import TruncatedSeries, one


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


def lex_bfs(g: Graph) -> list[int]:
    """Pick the largest label, ties by smallest id; labels are visit steps."""
    labels: dict[int, list[int]] = {v: [] for v in g.vertices}
    unvisited = set(g.vertices)
    out = []
    for step in range(g.n_vertices, 0, -1):
        v = max(unvisited, key=lambda x: (labels[x], -x))
        unvisited.discard(v)
        out.append(v)
        for w in g.neighbors(v):
            if w in unvisited:
                labels[w].append(step)
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


def decompose(g: Graph):
    """Split at a minimum-degree vertex, recursing into both pieces."""
    if g.is_complete():
        reason = "complete-graph" if g.n_vertices >= 2 else "single-component-base"
        return Leaf(g, reason)
    pivot = min(g.vertices, key=lambda v: (g.degree(v), v))
    g1, g2, seam = split_at_vertex(g, pivot)
    return Node(g, pivot, decompose(g1), decompose(g2), seam)


def expand_lcs_product(phi, order: int) -> TruncatedSeries:
    """prod_k (1 - t^k)^(phi_k) by repeated squaring of each factor."""
    if order > len(phi):
        raise ValueError(f"order {order} needs {order} ranks, got {len(phi)}")
    result = one(order)
    for k, p in enumerate(phi, start=1):
        if k > order:
            break
        if p == 0:
            continue
        coeffs = [0] * (order + 1)
        coeffs[0] = 1
        coeffs[k] = -1
        result = result * TruncatedSeries(order, tuple(coeffs)) ** p
    return result
