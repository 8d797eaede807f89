"""Brute-force graded ranks of the holonomy Lie algebra of a graph.

Generators are the graph's edges (1-based indices); relators live in degree
two: one commutator per edge pair spanning no triangle, and two relators per
triangle.  Degree-k pieces of the relator ideal are built by bracketing a
basis of the previous degree with the generators, rewriting everything into
the Lyndon basis of the free Lie algebra, and running exact integer
elimination.  No floating point and no modular shortcuts: ranks are certified
over the rationals.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd

from .errors import FeasibilityError, MismatchError
from .graphs import Graph, is_triangle_complete
from .series import moebius

__all__ = [
    "HolonomyPresentation",
    "GradedDims",
    "MayerVietorisReport",
    "KernelGenerationReport",
    "witt_dimension",
    "lyndon_basis",
    "standard_bracketing",
    "bracket_expansion",
    "lyndon_coordinates",
    "presentation",
    "graded_dims",
    "phi_bruteforce",
    "verify_mayer_vietoris",
    "verify_kernel_generation",
    "DEFAULT_MAX_DIM",
    "DEFAULT_MAX_ENTRIES",
]

DEFAULT_MAX_DIM = 200_000
DEFAULT_MAX_ENTRIES = 50_000_000


def witt_dimension(m: int, k: int) -> int:
    """Dimension of the degree-k piece of the free Lie algebra on m letters."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    total = 0
    for d in range(1, k + 1):
        if k % d == 0:
            total += moebius(d) * m ** (k // d)
    if total % k:
        raise MismatchError(
            f"necklace sum {total} for m={m} is not divisible by k={k}"
        )
    return total // k


# ---------------------------------------------------------------------------
# Lyndon words and the free Lie algebra

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
            k1 = wa + wb
            n1 = out.get(k1, 0) + c
            if n1:
                out[k1] = n1
            elif k1 in out:
                del out[k1]
            k2 = wb + wa
            n2 = out.get(k2, 0) - c
            if n2:
                out[k2] = n2
            elif k2 in out:
                del out[k2]
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
    minimal word therefore certifies that the input was not a Lie element,
    which doubles as a soundness check on the rewriting itself.
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
            elif v in work:
                del work[v]
    return coords


_BRACKET_TABLE: dict[tuple[tuple[int, ...], int], dict[tuple[int, ...], int]] = {}


def _bracket_with_generator(w: tuple[int, ...], i: int) -> dict[tuple[int, ...], int]:
    """Lyndon coordinates of [P_w, x_i] for a Lyndon word w."""
    key = (w, i)
    cached = _BRACKET_TABLE.get(key)
    if cached is None:
        pw = _assoc_of_lyndon(w)
        poly: dict[tuple[int, ...], int] = {}
        for v, c in pw.items():
            k1 = v + (i,)
            n1 = poly.get(k1, 0) + c
            if n1:
                poly[k1] = n1
            elif k1 in poly:
                del poly[k1]
            k2 = (i,) + v
            n2 = poly.get(k2, 0) - c
            if n2:
                poly[k2] = n2
            elif k2 in poly:
                del poly[k2]
        cached = lyndon_coordinates(poly)
        _BRACKET_TABLE[key] = cached
    return cached


# ---------------------------------------------------------------------------
# exact integer echelon forms

class _Echelon:
    """Incremental echelon basis over Z, rows keyed by their smallest index.

    Stored rows are primitive with a positive leading coefficient and are
    never mutated after insertion.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def copy(self) -> "_Echelon":
        # rows are never mutated after insertion, so sharing them is safe
        dup = _Echelon()
        dup.pivots = dict(self.pivots)
        return dup

    def insert(self, row: dict[int, int]) -> bool:
        """Reduce a row against the basis; add it if independent.

        One working copy of the row is reduced in place.  Both the working
        row and the stored rows hold no zeros, so an update that gives zero
        always names a key already in the working row.
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
                # a compact copy: the deletions above leave the table sparse
                pivots[lead] = dict(work)
                return True
            a = work[lead]
            b = prow[lead]
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
                # unscaled, work only lost a multiple of prow; a common
                # factor left then is stripped when the row is stored
                _strip_gcd(work)
        return False


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


# ---------------------------------------------------------------------------
# presentations and graded dimensions

@dataclass(frozen=True)
class HolonomyPresentation:
    """Degree-two presentation of the holonomy Lie algebra of a graph.

    relators are linear combinations of degree-2 Lyndon basis vectors,
    each stored as a sorted tuple of ((i, j), coefficient) pairs with
    i < j generator indices.
    """

    num_generators: int
    relators: tuple[tuple[tuple[tuple[int, int], int], ...], ...]


def presentation(g: Graph) -> HolonomyPresentation:
    """Presentation with one generator per edge.

    Edge pairs spanning no triangle commute.  Each triangle with edge
    indices a < b < c contributes the two relators [x_a, x_b + x_c] and
    [x_b, x_a + x_c]; the third such bracket is a linear combination of
    these, so it is omitted.
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


@dataclass(frozen=True)
class GradedDims:
    """Dimensions per degree 1..k: free Lie algebra, relator ideal, quotient."""

    free_dims: tuple[int, ...]
    ideal_dims: tuple[int, ...]
    quotient_dims: tuple[int, ...]


# Echelons are kept for the few most recently used presentations only:
# enough for one `glcs verify`, which goes back to g between the seam and
# the two pieces of each Mayer-Vietoris pivot.  The word tables are shared
# by all presentations and stay.
_STATE_CACHE_SIZE = 4
_STATE_CACHE: dict[tuple[int, tuple], dict[int, _Echelon]] = {}


def _ideal_state(p: HolonomyPresentation) -> dict[int, _Echelon]:
    """The cached degree -> echelon map of a presentation, now most recent."""
    key = (p.num_generators, p.relators)
    state = _STATE_CACHE.pop(key, None)
    if state is None:
        state = {}
        while len(_STATE_CACHE) >= _STATE_CACHE_SIZE:
            del _STATE_CACHE[next(iter(_STATE_CACHE))]
    _STATE_CACHE[key] = state
    return state


_LYNDON_INDEX: dict[
    tuple[int, int], tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]
] = {}


def _lyndon_index(
    m: int, k: int
) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]:
    """Lyndon words of length k over m letters, and word -> position.

    Shared by every presentation with m generators.
    """
    entry = _LYNDON_INDEX.get((m, k))
    if entry is None:
        words = lyndon_basis(m, k)
        entry = _LYNDON_INDEX[(m, k)] = (words, {w: i for i, w in enumerate(words)})
    return entry


def _resolve_caps(max_dim: int | None, max_entries: int | None) -> tuple[int, int]:
    if max_dim is None:
        env = os.environ.get("GLCS_MAX_DIM")
        max_dim = int(env) if env else DEFAULT_MAX_DIM
    if max_entries is None:
        max_entries = DEFAULT_MAX_ENTRIES
    return max_dim, max_entries


def graded_dims(
    p: HolonomyPresentation,
    up_to: int,
    *,
    max_dim: int | None = None,
    max_entries: int | None = None,
) -> GradedDims:
    """Exact graded dimensions of the holonomy Lie algebra up to a degree.

    Degree k of the ideal is spanned by brackets of a degree-(k-1) basis
    with the generators (the ideal is generated in degree 2, so this
    recursion is exhaustive).  Work beyond the configured caps (free Lie
    dimension above max_dim, or estimated matrix entries above max_entries;
    GLCS_MAX_DIM overrides the former) raises FeasibilityError instead of
    grinding.  The echelons of the most recently used presentations are
    cached and extended on demand.
    """
    if up_to < 1:
        raise ValueError("up_to must be >= 1")
    max_dim, max_entries = _resolve_caps(max_dim, max_entries)
    state = _ideal_state(p)
    m = p.num_generators
    free = [witt_dimension(m, k) for k in range(1, up_to + 1)]
    for k in range(2, up_to + 1):
        # checked even when the degree is already cached, so the outcome
        # does not depend on what earlier calls happened to compute
        wd = free[k - 1]
        if wd > max_dim:
            raise FeasibilityError(
                f"free Lie dimension {wd} at degree {k} exceeds the cap "
                f"{max_dim}; lower the degree or raise GLCS_MAX_DIM",
                dimension=wd,
            )
        if k >= 3:
            est = len(state[k - 1].pivots) * m * wd
            if est > max_entries:
                raise FeasibilityError(
                    f"estimated {est} matrix entries at degree {k} exceed the "
                    f"cap {max_entries}; lower the degree",
                    entries=est,
                )
        if k in state:
            continue
        ech = _Echelon()
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
                            elif r in cand:
                                del cand[r]
                    if cand:
                        candidates.append((min(cand), cand))
            candidates.sort(key=lambda t: t[0])
            for _, cand in candidates:
                ech.insert(cand)
        state[k] = ech
    ideal = [0] + [state[k].rank for k in range(2, up_to + 1)]
    quotient = [f - i for f, i in zip(free, ideal)]
    if any(q < 0 for q in quotient):
        raise MismatchError(
            f"ideal dimensions {ideal} exceed the free Lie dimensions {free}"
        )
    return GradedDims(tuple(free), tuple(ideal), tuple(quotient))


def phi_bruteforce(
    g: Graph,
    up_to: int,
    *,
    max_dim: int | None = None,
    max_entries: int | None = None,
) -> tuple[int, ...]:
    """Lower-central-series ranks of the graph's holonomy Lie algebra."""
    dims = graded_dims(
        presentation(g), up_to, max_dim=max_dim, max_entries=max_entries
    )
    return dims.quotient_dims


# ---------------------------------------------------------------------------
# structural cross-checks

@dataclass(frozen=True)
class MayerVietorisRow:
    degree: int
    dim_graph: int
    dim_seam: int
    dim_left: int
    dim_right: int

    @property
    def ok(self) -> bool:
        return self.dim_graph + self.dim_seam == self.dim_left + self.dim_right


@dataclass(frozen=True)
class MayerVietorisReport:
    pivot: int
    rows: tuple[MayerVietorisRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_mayer_vietoris(
    g: Graph,
    pivot: int,
    up_to: int,
    *,
    max_dim: int | None = None,
    max_entries: int | None = None,
) -> MayerVietorisReport:
    """Check dim h(g)_k + dim h(seam)_k = dim h(g1)_k + dim h(g2)_k.

    The four graded dimensions come from independent brute-force runs on
    the split pieces at the given pivot vertex.
    """
    from .graphs import split_at_vertex

    g1, g2, seam = split_at_vertex(g, pivot)
    kw = {"max_dim": max_dim, "max_entries": max_entries}
    dims = {
        name: phi_bruteforce(graph, up_to, **kw)
        for name, graph in (("g", g), ("seam", seam), ("g1", g1), ("g2", g2))
    }
    rows = tuple(
        MayerVietorisRow(
            k + 1, dims["g"][k], dims["seam"][k], dims["g1"][k], dims["g2"][k]
        )
        for k in range(up_to)
    )
    return MayerVietorisReport(pivot, rows)


@dataclass(frozen=True)
class KernelGenerationRow:
    degree: int
    expected: int
    spanned: int

    @property
    def ok(self) -> bool:
        return self.expected == self.spanned


@dataclass(frozen=True)
class KernelGenerationReport:
    outside_edges: tuple[int, ...]
    rows: tuple[KernelGenerationRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_kernel_generation(
    g: Graph,
    sub: Graph,
    up_to: int,
    *,
    max_dim: int | None = None,
    max_entries: int | None = None,
) -> KernelGenerationReport:
    """Check that generators outside a triangle-complete subgraph span the kernel.

    For each degree k, the image in the quotient of the free-Lie span of
    Lyndon words over the outside edge indices must have dimension
    phi_k(g) - phi_k(sub).  The span dimension is computed by inserting
    those (unit) basis vectors into a copy of the degree-k ideal echelon.
    """
    if not is_triangle_complete(g, sub):
        raise ValueError("subgraph is not triangle-complete in g")
    sub_edges = set(sub.edges)
    outside = tuple(
        i for i, e in enumerate(g.edges, start=1) if e not in sub_edges
    )
    max_dim, max_entries = _resolve_caps(max_dim, max_entries)
    p = presentation(g)
    phi_g = graded_dims(
        p, up_to, max_dim=max_dim, max_entries=max_entries
    ).quotient_dims
    # g's echelons are held here: computing sub may evict them from the cache.
    # p is the most recent entry, so this lookup evicts nothing.
    state = _ideal_state(p)
    phi_sub = phi_bruteforce(sub, up_to, max_dim=max_dim, max_entries=max_entries)
    rows = []
    for k in range(1, up_to + 1):
        ranks = _lyndon_index(g.n_edges, k)[1]
        ech = state[k].copy() if k >= 2 else _Echelon()
        added = 0
        for w in _lyndon_words_over(outside, k):
            if ech.insert({ranks[w]: 1}):
                added += 1
        rows.append(KernelGenerationRow(k, phi_g[k - 1] - phi_sub[k - 1], added))
    return KernelGenerationReport(outside, tuple(rows))


def _lyndon_words_over(letters: tuple[int, ...], k: int):
    """Lyndon words of length k over an arbitrary increasing alphabet."""
    alphabet = sorted(letters)
    for w in lyndon_basis(len(alphabet), k):
        yield tuple(alphabet[i - 1] for i in w)
