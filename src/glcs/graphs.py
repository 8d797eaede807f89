"""Finite simple graphs: parsing, clique counts, chordality, and splitting.

Vertices are integer ids.  Parsed graphs number their vertices 0..n-1 in
first-appearance order and remember the original tokens as labels; subgraph
operations keep the parent's ids, so labels stay valid across splits.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_left
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations

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
        vs = self.vertices
        if not isinstance(vs, tuple) or not isinstance(self.edges, tuple):
            raise ValueError("vertices and edges must be tuples")
        if not all(map(operator.lt, vs, vs[1:])):
            raise ValueError("vertices must be strictly increasing")
        known = set(vs)
        prev = None
        # strictly increasing edges are sorted and free of duplicates
        for e in self.edges:
            u, v = e
            if u >= v:
                raise ValueError(f"edge ({u}, {v}) not in canonical order")
            if u not in known or v not in known:
                raise ValueError(f"edge ({u}, {v}) uses an unknown vertex")
            if prev is not None and e <= prev:
                if e == prev:
                    raise ValueError(f"duplicate edge ({u}, {v})")
                raise ValueError("edges must be sorted")
            prev = e

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
        """Vertex sets of the connected components, by smallest vertex."""
        return _components(self.vertices, self.edges)


def _components(vertices, pairs) -> list[frozenset[int]]:
    """Connected components of (vertices, pairs), by their first vertex."""
    root = {v: v for v in vertices}

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for u, v in pairs:
        root[find(u)] = find(v)
    members: dict[int, list[int]] = {}
    for v in vertices:
        members.setdefault(find(v), []).append(v)
    return [frozenset(c) for c in members.values()]


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
    An edge at a vertex labelled "v" is written with "v" second, since a
    line starting with "v" declares a vertex.  A label that is empty, holds
    whitespace or '#', or repeats another vertex's label would not read
    back, so it raises ValueError.
    """
    seen: set[str] = set()
    for v in g.vertices:
        label = g.label(v)
        if "#" in label or label.split() != [label] or label in seen:
            raise ValueError(
                f"vertex {v}: label {label!r} is empty, holds whitespace or '#', "
                "or repeats another vertex's label"
            )
        seen.add(label)
    lines = [f"v {g.label(v)}" for v in g.vertices]
    for u, v in g.edges:
        a, b = g.label(u), g.label(v)
        lines.append(f"{b} {a}" if a == "v" else f"{a} {b}")
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
    order = _peel(g, g.degree)
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


def _peel(g: Graph, start: Callable[[int], int]) -> Iterator[int]:
    """Yield the vertex of least key (ties: smallest id) again and again.

    Vertex v's key starts at start(v), and taking v lowers the key of each
    untaken neighbour by one.  So starting at g.degree gives the degeneracy
    order (minimum degree in what is left), and starting at 0 everywhere
    gives maximum cardinality search (most taken neighbours).  A lazy heap
    of (key, id) entries: keys only fall, so a vertex's current entry
    surfaces before its older ones, which are skipped.
    """
    key = {v: start(v) for v in g.vertices}
    heap = [(k, v) for v, k in key.items()]
    heapq.heapify(heap)
    while heap:
        _, v = heapq.heappop(heap)
        if v not in key:
            continue
        del key[v]
        yield v
        for w in g.neighbors(v):
            if w in key:
                key[w] -= 1
                heapq.heappush(heap, (key[w], w))


def _rank2_flats(g: Graph) -> list[tuple[int, ...]]:
    """Edge indices of each rank-2 flat of the graphic arrangement.

    First the increasing triple a < b < c of each triangle, in the order
    g.triangles() yields them, then each pair i < j of edges that span no
    triangle, in increasing order.  Two edges lie in a flat with a third
    exactly when they span a triangle.
    """
    idx = g._edge_index
    flats = [(idx[u, v], idx[u, w], idx[v, w]) for u, v, w in g.triangles()]
    spanned = {pair for tri in flats for pair in combinations(tri, 2)}
    pairs = combinations(range(1, g.n_edges + 1), 2)
    return flats + [pair for pair in pairs if pair not in spanned]


# ---------------------------------------------------------------------------
# chordality

def is_chordal(g: Graph) -> tuple[bool, list[int]]:
    """Decide chordality with a checkable witness.

    Returns (True, elimination_order) where the order is a perfect
    elimination order, or (False, cycle) with an induced cycle of length
    >= 4 listed in cyclic order.  The candidate order is a maximum
    cardinality search reversed, which is a perfect elimination order
    exactly when g is chordal (Tarjan & Yannakakis 1984).  When it is not,
    the cycle passes through the first fault the elimination check finds;
    it need not be a shortest one.  Both answers are verified before they
    are returned, so neither depends on the searches having been
    implemented correctly.
    """
    elim = list(_peel(g, lambda v: 0))[::-1]
    fault = _verify_elimination_order(g, elim)
    if fault is None:
        return True, elim
    cycle = _chordless_cycle(g, elim, fault)
    if not _is_induced_cycle(g, cycle):
        raise MismatchError(f"chordless-cycle witness {cycle} is not an induced cycle")
    return False, cycle


def _verify_elimination_order(g: Graph, elim: list[int]) -> tuple[int, int, int] | None:
    """The first fault of elim as a perfect elimination order, or None.

    Each vertex v with later neighbours needs them all adjacent to u, the
    first of them in the order; that suffices for every later neighbourhood
    to be a clique.  The fault is (v, u, w) for the first v where this
    fails, with w the smallest-id later neighbour of v not adjacent to u.
    """
    pos = {v: i for i, v in enumerate(elim)}
    for v in elim:
        later = [w for w in g.neighbors(v) if pos[w] > pos[v]]
        if not later:
            continue
        u = min(later, key=pos.__getitem__)
        missing = set(later) - g.neighbors(u) - {u}
        if missing:
            return v, u, min(missing)
    return None


def _chordless_cycle(
    g: Graph, elim: list[int], fault: tuple[int, int, int]
) -> list[int]:
    """Close the fault (v, u, w) of elim into an induced cycle v, u, ..., w.

    u and w are neighbours of v and not adjacent to each other, so a
    shortest u-w path through vertices after v outside N(v) closes an
    induced cycle through v.  One BFS from u, neighbours in ascending id,
    finds it; that such a path exists when elim is a reversed maximum
    cardinality search is checked, not assumed.
    """
    v, u, w = fault
    inside = (set(elim[elim.index(v) + 1:]) - g.neighbors(v)) | {w}
    prev = {u: u}
    frontier = [u]
    while frontier and w not in prev:
        nxt = []
        for x in frontier:
            for y in sorted(g.neighbors(x)):
                if y in inside and y not in prev:
                    prev[y] = x
                    nxt.append(y)
        frontier = nxt
    if w not in prev:
        raise MismatchError("no chordless cycle in a non-chordal graph")
    path = [w]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return [v] + path[::-1]


def _is_induced_cycle(g: Graph, cycle: list[int]) -> bool:
    """Whether cycle lists, in cyclic order, an induced cycle of g on >= 4 vertices.

    Consecutive vertices are adjacent, so each has at least two neighbours
    on the cycle; exactly two for every vertex means there is no chord.
    """
    on = set(cycle)
    return (
        len(on) == len(cycle) >= 4
        and all(g.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        and all(len(g.neighbors(x) & on) == 2 for x in cycle)
    )


# ---------------------------------------------------------------------------
# triangle-complete subgraphs and vertex splits

def is_triangle_complete(g: Graph, k: Graph) -> bool:
    """Whether every triangle of g with two edges in k lies entirely in k.

    k must be a subgraph of g (checked; ValueError otherwise).  Such a
    triangle has its third edge (b, c) in g but not in k, with b and c
    joined in k through a common neighbor.  So at each vertex b of k only
    the neighbors c of b in g but not in k are examined, and a vertex whose
    neighbor set k shares with g (a split piece shares its parent's) is
    passed over at once.
    """
    gadj, kadj = g._adjacency, k._adjacency
    if not kadj.keys() <= gadj.keys():
        raise ValueError("k has vertices outside g")
    for b, kb in kadj.items():
        gb = gadj[b]
        if kb is gb:
            continue
        if not kb <= gb:
            raise ValueError("k has edges outside g")
        for c in gb - kb:
            if c in kadj and not kb.isdisjoint(kadj[c]):
                return False
    return True


def _subgraph(adj: dict[int, frozenset[int]], edges, labels) -> Graph:
    """The Graph on the keys of adj with these edges, and adj as its adjacency.

    The keys must be in increasing order and adj must be the adjacency of
    the edges; the Graph is validated as any other, and adj is stored as
    its cached adjacency instead of being rebuilt from the edges.
    """
    g = Graph(tuple(adj), tuple(edges), labels)
    g.__dict__["_adjacency"] = adj
    return g


def split_at_vertex(g: Graph, v: int) -> tuple[Graph, Graph, Graph]:
    """Split g at vertex v into (g1, g2, seam).

    g1 is g minus v, g2 the subgraph induced on the closed neighborhood
    N[v], and the seam the subgraph induced on the neighborhood N(v).  All
    four containments (seam in g1, seam in g2, g1 in g, g2 in g) are
    triangle-complete; vertex counts satisfy |g| + |seam| = |g1| + |g2|.
    Both are checked, and a failure raises MismatchError.

    The pieces are built from the adjacency of g: g1 keeps every neighbor
    set of g except those of N(v), which lose v, and its edges are those of
    g with v's deg(v) edges cut out (one copy of the edge tuple); g2 and
    the seam are g's adjacency restricted to N[v] and N(v), in O(deg(v)^2)
    set operations.
    """
    adj = g._adjacency
    if v not in adj:
        raise ValueError(f"vertex {v} not in graph")
    nv = adj[v]
    edges = g.edges
    cuts = sorted(bisect_left(edges, (min(v, w), max(v, w))) for w in nv)
    adj1 = dict(adj)
    del adj1[v]
    adj1.update((w, adj[w] - {v}) for w in nv)
    g1 = _subgraph(
        adj1,
        chain.from_iterable(
            edges[a + 1:b] for a, b in zip([-1, *cuts], [*cuts, len(edges)])
        ),
        g.labels,
    )
    closed = nv | {v}
    adj2 = {x: adj[x] & closed for x in sorted(closed)}
    edges2 = [(x, y) for x, ns in adj2.items() for y in sorted(ns) if y > x]
    g2 = _subgraph(adj2, edges2, g.labels)
    seam = _subgraph(
        {x: ns - {v} for x, ns in adj2.items() if x != v},
        (e for e in edges2 if v not in e),
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
    """Split at a minimum-degree vertex until every leaf is complete.

    Pivot choice: minimum degree, ties broken by smallest id, so the
    pivots of the left chain are the degeneracy order of g.  In any
    non-complete graph such a vertex's closed neighborhood is proper, so
    both split pieces are strictly smaller and the splitting terminates.
    The left chain (g minus pivot, again and again) is built in a loop, so
    its length is not limited by the recursion limit; the right pieces are
    decomposed recursively, to a depth of at most the degree plus one.
    """
    chain = []
    pivots = _peel(g, g.degree)
    while not g.is_complete():
        pivot = next(pivots)
        g1, g2, seam = split_at_vertex(g, pivot)
        chain.append((g, pivot, decompose(g2), seam))
        g = g1
    reason = "complete-graph" if g.n_vertices >= 2 else "single-component-base"
    tree: DecompositionTree = Leaf(g, reason)
    for graph, pivot, right, seam in reversed(chain):
        tree = Node(graph, pivot, tree, right, seam)
    return tree


def tree_leaves(tree: DecompositionTree):
    """Yield the leaves of a decomposition tree, left to right."""
    stack = [tree]
    while stack:
        tree = stack.pop()
        if isinstance(tree, Leaf):
            yield tree
        else:
            stack.append(tree.right)
            stack.append(tree.left)
