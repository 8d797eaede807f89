"""Benchmark inputs, made from the workload seed.

A graph here is a pair (n, edges): vertices 0..n-1 and a list of pairs
(u, v) with u < v.  `to_text` writes it in glcs's edge-list format under a
seeded labelling: vertex tokens and line order both come from the seed, so
the ids glcs assigns (first appearance) and hence its edge indices differ
between seeds while the graph class stays the same.  Nothing here imports
glcs.
"""

from __future__ import annotations

import itertools
import os
import random

from answers import is_chordal_graph

CLASS_VERTICES = 6
CLASS_COUNT = 112  # connected graphs on 6 vertices, OEIS A001349
CLASS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "data", "connected6.txt")

VERIFY_EDGES = range(9, 13)  # 48 classes; 13-15 edges exceed the default gate
CHROMATIC_VERTICES = 9
CHROMATIC_EDGES = 18  # half of the 36 vertex pairs
CHROMATIC_GNM = 300  # G(n, m) graphs per round
CHROMATIC_CHORDAL = 100  # random chordal graphs per round, same n and m
SPARSE_VERTICES = 150
SPARSE_EDGES = 450  # mean degree 6
SPARSE_GRAPHS = 40  # graphs per round


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# small-graph classes

def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def canonical_form(n: int, edges) -> tuple:
    """The smallest sorted edge tuple over all relabelings that keep degree order.

    Vertices are grouped by degree and only relabelings sending each group
    onto a fixed block of new ids are tried; isomorphisms preserve degree, so
    equal forms mean isomorphic graphs and vice versa.
    """
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    groups = [[v for v in range(n) if deg[v] == d] for d in sorted(set(deg))]
    best = None
    for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
        new = {}
        for v in itertools.chain.from_iterable(parts):
            new[v] = len(new)
        cand = tuple(sorted((min(new[u], new[v]), max(new[u], new[v]))
                            for u, v in edges))
        if best is None or cand < best:
            best = cand
    return best


def load_classes() -> list[list[tuple[int, int]]]:
    """The committed class list, checked for count, connectivity and distinctness."""
    with open(CLASS_FILE, encoding="utf-8") as fh:
        classes = [[(int(t[0]), int(t[1])) for t in line.split()]
                   for line in fh if line.strip()]
    if len(classes) != CLASS_COUNT:
        raise ValueError(f"{CLASS_FILE}: {len(classes)} classes, "
                         f"expected {CLASS_COUNT}")
    forms = set()
    for edges in classes:
        if not is_connected(CLASS_VERTICES, edges):
            raise ValueError(f"class {edges} is not connected")
        forms.add(canonical_form(CLASS_VERTICES, edges))
    if len(forms) != len(classes):
        raise ValueError("the class list holds isomorphic graphs")
    return classes


# ---------------------------------------------------------------------------
# random graphs

def gnm(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    return sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))


def random_chordal(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A connected chordal graph on n vertices with exactly m edges.

    Vertex i joins a random nonempty part of a clique of earlier vertices
    (one earlier vertex and greedily more of its neighbours), so the earlier
    neighbours of every vertex form a clique and 0..n-1 is the reverse of a
    perfect elimination order.  Draws that miss m edges are thrown away.
    """
    while True:
        adj = [set() for _ in range(n)]
        for i in range(1, n):
            anchor = rng.randrange(i)
            clique = [anchor]
            for w in sorted(adj[anchor]):
                if all(w in adj[c] for c in clique):
                    clique.append(w)
            size = rng.randint(1, len(clique))
            for w in rng.sample(clique, size):
                adj[i].add(w)
                adj[w].add(i)
        edges = sorted((u, v) for u in range(n) for v in adj[u] if u < v)
        if len(edges) == m:
            return edges


# ---------------------------------------------------------------------------
# labelled text

def to_text(rng: random.Random, n: int, edges) -> tuple[str, list[str]]:
    """Edge-list text under a seeded labelling, and the label of each vertex."""
    tokens = [f"v{i}" for i in range(n)]
    rng.shuffle(tokens)
    declared = list(range(n))
    rng.shuffle(declared)
    lines = [f"v {tokens[v]}" for v in declared]
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(shuffled)
    lines += [f"{tokens[u]} {tokens[v]}" for u, v in shuffled]
    return "\n".join(lines) + "\n", tokens


def make_inputs(workload: str, seed: int) -> list[dict]:
    """One round of inputs: dicts with n, edges, text, labels and kind."""
    rng = rng_for(workload, seed)
    graphs: list[tuple[str, int, list]] = []
    if workload in ("oracle_sweep", "verify_cli"):
        for edges in load_classes():
            if workload == "oracle_sweep" or len(edges) in VERIFY_EDGES:
                graphs.append(("class", CLASS_VERTICES, edges))
    elif workload == "chromatic":
        n, m = CHROMATIC_VERTICES, CHROMATIC_EDGES
        graphs += [("gnm", n, gnm(rng, n, m)) for _ in range(CHROMATIC_GNM)]
        graphs += [("chordal", n, random_chordal(rng, n, m))
                   for _ in range(CHROMATIC_CHORDAL)]
    elif workload == "sparse_structure":
        while len(graphs) < SPARSE_GRAPHS:
            edges = gnm(rng, SPARSE_VERTICES, SPARSE_EDGES)
            if not is_chordal_graph(SPARSE_VERTICES, edges):
                graphs.append(("gnm", SPARSE_VERTICES, edges))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for kind, n, edges in graphs:
        text, labels = to_text(rng, n, edges)
        out.append({"kind": kind, "n": n, "edges": edges, "text": text,
                    "labels": labels})
    return out
