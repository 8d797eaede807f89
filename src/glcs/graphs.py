"""Finite simple graphs: parsing, clique counts, chordality, and splitting.

Vertices are integer ids.  Parsed graphs number their vertices 0..n-1 in
first-appearance order and remember the original tokens as labels; subgraph
operations keep the parent's ids, so labels stay valid across splits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import MismatchError, ParseError

__all__ = [
    "Graph",
    "Leaf",
    "Node",
    "DecompositionTree",
    "graph_from_edges",
    "complete_graph",
    "parse_graph",
    "to_edge_list",
    "clique_vector",
    "is_chordal",
    "is_triangle_complete",
    "split_at_vertex",
    "decompose",
    "tree_leaves",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph.

    vertices: strictly increasing vertex ids.
    edges: canonical edge list, each (u, v) with u < v, sorted; position + 1
        is the edge's 1-based index, which downstream modules use as the
        generator index for the arrangement's hyperplanes.
    labels: optional display tokens, indexed by vertex id.  Excluded from
        equality so relabeled copies of the same graph compare equal.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices) or tuple(sorted(vs)) != self.vertices:
            raise ValueError("vertices must be strictly increasing")
        seen = set()
        for u, v in self.edges:
            if u >= v:
                raise ValueError(f"edge ({u}, {v}) not in canonical order")
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u}, {v}) uses an unknown vertex")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if tuple(sorted(self.edges)) != self.edges:
            raise ValueError("edges must be sorted")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i + 1 for i, e in enumerate(self.edges)}

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_index

    def edge_index(self, u: int, v: int) -> int:
        """1-based position of an edge in the canonical edge list."""
        return self._edge_index[(min(u, v), max(u, v))]

    def label(self, v: int) -> str:
        if self.labels is not None and v < len(self.labels):
            return self.labels[v]
        return str(v)

    def is_complete(self) -> bool:
        n = self.n_vertices
        return self.n_edges == n * (n - 1) // 2

    def induced(self, keep) -> "Graph":
        """Induced subgraph on the given vertices, keeping parent ids."""
        keep = frozenset(keep)
        return Graph(
            tuple(v for v in self.vertices if v in keep),
            tuple(e for e in self.edges if e[0] in keep and e[1] in keep),
            self.labels,
        )

    def triangles(self):
        """Yield each triangle once as an increasing vertex triple."""
        adj = self._adjacency
        for u, v in self.edges:
            for w in sorted(adj[u] & adj[v]):
                if w > v:
                    yield (u, v, w)

    def components(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        out = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                for w in self._adjacency[stack.pop()]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(frozenset(comp))
        return out


def graph_from_edges(edges, vertices=None) -> Graph:
    """Build a Graph from an iterable of vertex pairs.

    Extra isolated vertices can be supplied via `vertices`; otherwise the
    vertex set is exactly the set of endpoints.
    """
    canon = {(min(u, v), max(u, v)) for u, v in edges}
    for u, v in canon:
        if u == v:
            raise ValueError(f"self-loop at {u}")
    vs = {v for e in canon for v in e}
    if vertices is not None:
        vs |= set(vertices)
    return Graph(tuple(sorted(vs)), tuple(sorted(canon)))


def complete_graph(n: int) -> Graph:
    return Graph(
        tuple(range(n)),
        tuple((i, j) for i in range(n) for j in range(i + 1, n)),
    )


# ---------------------------------------------------------------------------
# edge-list text format

def parse_graph(text: str, *, strict: bool = False) -> Graph:
    """Parse the plain edge-list format.

    Each non-blank line is either an edge "u v" (two whitespace-separated
    tokens) or an isolated-vertex declaration "v <token>".  '#' starts a
    comment.  Tokens become vertex ids 0..n-1 in first-appearance order.
    Self-loops are rejected; duplicate edges are rejected in strict mode and
    deduplicated otherwise.  Errors carry 1-based line numbers.
    """
    ids: dict[str, int] = {}
    order: list[str] = []

    def intern(tok: str) -> int:
        if tok not in ids:
            ids[tok] = len(order)
            order.append(tok)
        return ids[tok]

    edges: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 2:
            intern(parts[1])
            continue
        if len(parts) != 2:
            raise ParseError(f"expected two tokens, got {len(parts)}", lineno)
        a, b = intern(parts[0]), intern(parts[1])
        if a == b:
            raise ParseError(f"self-loop at {parts[0]!r}", lineno)
        e = (min(a, b), max(a, b))
        if e in edges:
            if strict:
                raise ParseError(
                    f"duplicate edge {parts[0]} {parts[1]} "
                    f"(first seen on line {edges[e]})",
                    lineno,
                )
            continue
        edges[e] = lineno
    return Graph(tuple(range(len(order))), tuple(sorted(edges)), tuple(order))


def to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format.

    Every vertex is declared with a "v" line in id order before the edges,
    so parsing the output reproduces the same ids, edge indices, and labels.
    """
    lines = [f"v {g.label(v)}" for v in g.vertices]
    lines += [f"{g.label(u)} {g.label(v)}" for u, v in g.edges]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# clique counting

def clique_vector(g: Graph) -> tuple[int, ...]:
    """Count complete subgraphs by size.

    Entry s counts the complete subgraphs on s+1 vertices, so entry 0 is the
    vertex count and entry 1 the edge count.  Trailing zeros are trimmed,
    keeping at least the vertex count.  Exact enumeration over a degeneracy
    order: each clique is counted once, at its order-minimal vertex.
    """
    order = _degeneracy_order(g)
    pos = {v: i for i, v in enumerate(order)}
    later = {
        v: frozenset(w for w in g.neighbors(v) if pos[w] > pos[v])
        for v in g.vertices
    }
    counts = [0] * max(1, g.n_vertices)
    counts[0] = g.n_vertices

    def grow(cand: frozenset[int], size: int):
        for w in cand:
            counts[size] += 1
            grow(cand & later[w], size + 1)

    for v in g.vertices:
        grow(later[v], 1)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def _degeneracy_order(g: Graph) -> list[int]:
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


# ---------------------------------------------------------------------------
# chordality

def is_chordal(g: Graph) -> tuple[bool, list[int]]:
    """Decide chordality with a checkable witness.

    Returns (True, elimination_order) where the order is a perfect
    elimination order, or (False, cycle) with an induced cycle of length
    >= 4 listed in cyclic order.  The candidate order comes from a
    lexicographic BFS and is then verified, so the True answer never
    depends on the search having been implemented correctly.
    """
    elim = list(reversed(_lex_bfs(g)))
    if _verify_elimination_order(g, elim):
        return True, elim
    return False, _chordless_cycle(g)


def _lex_bfs(g: Graph) -> list[int]:
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


def _verify_elimination_order(g: Graph, elim: list[int]) -> bool:
    pos = {v: i for i, v in enumerate(elim)}
    for v in elim:
        later = [w for w in g.neighbors(v) if pos[w] > pos[v]]
        if not later:
            continue
        u = min(later, key=lambda w: pos[w])
        rest = set(later) - {u}
        if not rest <= g.neighbors(u):
            return False
    return True


def _chordless_cycle(g: Graph) -> list[int]:
    """Find an induced cycle of length >= 4 in a non-chordal graph.

    For each vertex v and non-adjacent neighbors u, w, a shortest u-w path
    avoiding the rest of N[v] closes to an induced cycle through v.
    """
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
    if best is None:
        raise AssertionError("no chordless cycle in a non-chordal graph")
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


# ---------------------------------------------------------------------------
# triangle-complete subgraphs and vertex splits

def is_triangle_complete(g: Graph, k: Graph) -> bool:
    """Whether every triangle of g with two edges in k lies entirely in k.

    k must be a subgraph of g (checked; ValueError otherwise).
    """
    if not set(k.vertices) <= set(g.vertices):
        raise ValueError("k has vertices outside g")
    kedges = set(k.edges)
    if not kedges <= set(g.edges):
        raise ValueError("k has edges outside g")
    for a, b, c in g.triangles():
        inside = ((a, b) in kedges) + ((a, c) in kedges) + ((b, c) in kedges)
        if inside == 2:
            return False
    return True


def split_at_vertex(g: Graph, v: int) -> tuple[Graph, Graph, Graph]:
    """Split g at vertex v into (g1, g2, seam).

    g1 is g minus v.  The seam is the subgraph of g1 induced on the
    neighborhood of v, restricted to edges whose endpoints both neighbor v.
    g2 is the star of v together with the seam, on the closed neighborhood.
    All four containments (seam in g1, seam in g2, g1 in g, g2 in g) are
    triangle-complete; vertex counts satisfy |g| + |seam| = |g1| + |g2|.
    """
    if v not in g._adjacency:
        raise ValueError(f"vertex {v} not in graph")
    nv = g.neighbors(v)
    g1 = g.induced(set(g.vertices) - {v})
    seam = Graph(
        tuple(sorted(nv)),
        tuple(e for e in g1.edges if e[0] in nv and e[1] in nv),
        g.labels,
    )
    star = [(min(u, v), max(u, v)) for u in nv]
    g2 = Graph(
        tuple(sorted(nv | {v})),
        tuple(sorted(set(star) | set(seam.edges))),
        g.labels,
    )
    for big, small, name in (
        (g1, seam, "seam in g1"),
        (g2, seam, "seam in g2"),
        (g, g1, "g1 in g"),
        (g, g2, "g2 in g"),
    ):
        if not is_triangle_complete(big, small):
            raise MismatchError(f"split at vertex {v}: {name} is not triangle-complete")
    if g.n_vertices + seam.n_vertices != g1.n_vertices + g2.n_vertices:
        raise MismatchError(f"split at vertex {v}: vertex counts do not add up")
    return g1, g2, seam


@dataclass(frozen=True)
class Leaf:
    graph: Graph
    reason: str  # "complete-graph" or "single-component-base"


@dataclass(frozen=True)
class Node:
    graph: Graph
    pivot: int
    left: "DecompositionTree"  # split residue (graph minus pivot)
    right: "DecompositionTree"  # pivot's closed neighborhood piece
    seam: Graph


DecompositionTree = Leaf | Node


def decompose(g: Graph) -> DecompositionTree:
    """Recursively split at a minimum-degree vertex until leaves are complete.

    Pivot choice: minimum degree, ties broken by smallest id.  In any
    non-complete graph such a vertex's closed neighborhood is proper, so
    both split pieces are strictly smaller and recursion terminates.
    """
    if g.is_complete():
        reason = "complete-graph" if g.n_vertices >= 2 else "single-component-base"
        return Leaf(g, reason)
    pivot = min(g.vertices, key=lambda v: (g.degree(v), v))
    g1, g2, seam = split_at_vertex(g, pivot)
    return Node(g, pivot, decompose(g1), decompose(g2), seam)


def tree_leaves(tree: DecompositionTree):
    """Yield the leaves of a decomposition tree, left to right."""
    if isinstance(tree, Leaf):
        yield tree
    else:
        yield from tree_leaves(tree.left)
        yield from tree_leaves(tree.right)
