"""Brute-force graded ranks of the holonomy Lie algebra of a graph.

Generators are the graph's edges (1-based indices); relators live in degree
two: one commutator per edge pair spanning no triangle, and two relators per
triangle.  The oracle builds the enveloping algebra U(h) = T(V)/(R) degree by
degree, each graded piece A_k as the cokernel of an exact integer matrix
R ⊗ A_{k-2} -> V ⊗ A_{k-1}, and reads the Lie ranks off dim A_k through the
Poincare-Birkhoff-Witt identity sum dim A_k t^k = prod_k (1 - t^k)^(-phi_k).
Edges that share no triangle commute, so h is the direct product of the
holonomy algebras of its blocks, the triangle-connected classes of edges:
each block gets its own cokernels, cached per presentation, and the ranks
add.  The one size gate is the width of degree k, the column count
m * dim A_{k-1} summed over the blocks, known exactly before degree k is
built.  Each degree's rows are inserted shortest first, which changes the
fill-in along the way but not the reduced echelon form.  No Lie word is ever
formed.  No floating point and no modular shortcuts: ranks are certified
over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import add

from .errors import FeasibilityError, MismatchError
from .graphs import (
    Graph,
    _components,
    _rank2_flats,
    is_triangle_complete,
    split_at_vertex,
)
from .series import expand_lcs_product, moebius

__all__ = [
    "HolonomyPresentation",
    "GradedDims",
    "MayerVietorisReport",
    "KernelGenerationReport",
    "witt_dimension",
    "presentation",
    "graded_dims",
    "phi_bruteforce",
    "verify_mayer_vietoris",
    "verify_kernel_generation",
    "DEFAULT_MAX_DIM",
]

DEFAULT_MAX_DIM = 200_000


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

        The row may hold zeros; it is copied without them and left alone.
        """
        return self._absorb({k: c for k, c in row.items() if c})

    def _absorb(self, work: dict[int, int]) -> bool:
        """insert for a fresh row with no zeros, reduced in place, no copy.

        Both work and the stored rows hold no zeros, so an update that
        gives zero always names a key already in work.
        """
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
            _cancel(work, prow, lead)
        return False

    def back_reduced(self) -> dict[int, dict[int, int]]:
        """Lead -> row reduced to its lead and the non-pivot columns.

        Fraction-free: each row is made primitive with a positive lead.
        The stored rows are left as they are.
        """
        out: dict[int, dict[int, int]] = {}
        for lead in sorted(self.pivots, reverse=True):
            work = dict(self.pivots[lead])
            # every other pivot in the row is larger, so already reduced
            for col in [c for c in work if c != lead and c in out]:
                _cancel(work, out[col], col)
            _strip_gcd(work, make_positive_at=lead)
            out[lead] = work
        return out


def _cancel(work: dict[int, int], prow: dict[int, int], key: int):
    """Clear work[key] with prow, whose entry there is positive, in place.

    work is scaled by a positive integer only when prow's entry does not
    divide work's; a common factor left then is stripped.
    """
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
        # unscaled, work only lost a multiple of prow; a common factor
        # left can only come from the scaling
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


# ---------------------------------------------------------------------------
# presentations and graded dimensions

@dataclass(frozen=True)
class HolonomyPresentation:
    """Degree-two presentation of the holonomy Lie algebra of a graph.

    relators are linear combinations of the degree-2 commutators
    [x_i, x_j], each stored as a sorted tuple of ((i, j), coefficient)
    pairs with generator indices 1 <= i < j <= num_generators and nonzero
    integer coefficients; anything else raises ValueError.
    """

    num_generators: int
    relators: tuple[tuple[tuple[tuple[int, int], int], ...], ...]

    def __post_init__(self):
        m = self.num_generators
        if type(m) is not int or m < 0:
            raise ValueError(f"num_generators must be an integer >= 0, got {m!r}")
        for rel in self.relators:
            for term in rel:
                try:
                    (i, j), c = term
                except (TypeError, ValueError):
                    raise ValueError(f"malformed relator term {term!r}") from None
                if type(i) is not int or type(j) is not int or not 1 <= i < j <= m:
                    raise ValueError(
                        f"relator term {term!r} needs generator indices "
                        f"1 <= i < j <= {m}"
                    )
                if type(c) is not int or not c:
                    raise ValueError(
                        f"relator term {term!r} needs a nonzero integer coefficient"
                    )


def presentation(g: Graph) -> HolonomyPresentation:
    """Presentation with one generator per edge, read off the rank-2 flats.

    The flats are those rank2_flats returns.  First each two-edge flat
    {i, j}, in increasing order, gives the commutator [x_i, x_j]; then
    each triangle with edge indices a < b < c, in the order g.triangles()
    yields them, gives the two relators [x_a, x_b + x_c] and
    [x_b, x_a + x_c].  The third such bracket is a linear combination of
    these, so it is omitted.
    """
    commuting, triangle_relators = [], []
    for flat in _rank2_flats(g):
        if len(flat) == 2:
            commuting.append(((flat, 1),))
        else:
            a, b, c = flat
            triangle_relators.append((((a, b), 1), ((a, c), 1)))
            triangle_relators.append((((a, b), -1), ((b, c), 1)))
    return HolonomyPresentation(g.n_edges, tuple(commuting + triangle_relators))


@dataclass(frozen=True)
class GradedDims:
    """Dimensions per degree 1..k: free Lie algebra, relator ideal, quotient."""

    free_dims: tuple[int, ...]
    ideal_dims: tuple[int, ...]
    quotient_dims: tuple[int, ...]


class _Cokernels:
    """The enveloping algebra U(h) = T(V)/(R) of m letters, by degree.

    A_k = coker(R ⊗ A_{k-2} -> V ⊗ A_{k-1}): column a * dims[k-1] + f of
    degree k stands for x_a times basis element f of A_{k-1}, and relator
    r = sum c_ab x_a x_b with basis element g of A_{k-2} gives the row
    sum c_ab e_a ⊗ mu[k-1](x_b ⊗ g), built by _row as the working row that
    _Echelon._absorb reduces in place.  The free columns of the degree-k
    echelon are the basis of A_k.  mu[k] maps each column of degree k to
    its normal form in A_k, as (denominator, ((basis index, numerator),
    ...)); it is built from the echelon only when asked for.  The relators
    are written as in HolonomyPresentation.
    """

    __slots__ = ("m", "terms", "dims", "mu", "top")

    def __init__(self, m: int, relators):
        self.m = m
        # [x_i, x_j] = x_i x_j - x_j x_i, with letters from 0
        self.terms = [
            tuple(
                t
                for (i, j), c in rel
                for t in ((i - 1, j - 1, c), (j - 1, i - 1, -c))
            )
            for rel in relators
        ]
        self.dims = [1, self.m]
        self.mu = [None, [(1, ((a, 1),)) for a in range(self.m)]]
        self.top: _Echelon | None = None

    def extend(self):
        """Eliminate the next degree, shortest rows first.

        A row's key is its term count before cancellation, the sum of
        len mu[k-1](x_b ⊗ g) over its relator's terms; ties keep the
        (relator, g) order.  The reduced echelon form, and with it the
        free columns and mu[k], does not depend on the order rows arrive
        in; short rows first leave less fill-in on the way.  Only one int
        per row is held, key * rows + row number; each row is built when
        it is inserted, from terms shifted once to (a * width, b * below, c).
        """
        k = len(self.dims)
        mu = self.normal_form(k - 1)
        width = self.dims[k - 1]
        below = self.dims[k - 2]
        lens = [len(vec) for _, vec in mu]
        rows = len(self.terms) * below
        order = []
        for r, terms in enumerate(self.terms):
            keys = [0] * below
            for _, b, _ in terms:
                keys = map(add, keys, lens[b * below : (b + 1) * below])
            first = r * below
            order.extend(key * rows + first + g for g, key in enumerate(keys))
        order.sort()
        shifted = [[(a * width, b * below, c) for a, b, c in t] for t in self.terms]
        ech = _Echelon()
        for x in order:
            r, g = divmod(x % rows, below)
            ech._absorb(_row(shifted[r], g, mu))
        self.dims.append(self.m * width - ech.rank)
        self.top = ech

    def normal_form(self, k: int) -> list:
        """mu[k], built from the degree-k echelon on first use."""
        if k < len(self.mu):
            return self.mu[k]
        ech = self.top
        pos: dict[int, int] = {}
        mu: list = []
        for col in range(self.m * self.dims[k - 1]):
            if col in ech.pivots:
                mu.append(None)
            else:
                pos[col] = len(pos)
                mu.append((1, ((pos[col], 1),)))
        for lead, row in ech.back_reduced().items():
            mu[lead] = (
                row[lead],
                tuple((pos[f], -c) for f, c in row.items() if f != lead),
            )
        self.mu.append(mu)
        self.top = None
        return mu


def _row(terms, g: int, mu) -> dict[int, int]:
    """An integer multiple of sum c * e_a ⊗ mu[col + g] over terms (base, col, c).

    base is a times the width of mu's basis, so e_a ⊗ (basis element f) is
    column base + f; with every base 0 this is the normal form of
    sum c * e_(col + g).  The row is fresh and holds no zeros.
    """
    den = 1
    for _, col, _ in terms:
        d = mu[col + g][0]
        if d != 1:
            den = den * d // gcd(den, d)
    row: dict[int, int] = {}
    for base, col, c in terms:
        d, vec = mu[col + g]
        scale = c * (den // d)
        for f, num in vec:
            key = base + f
            n = row.get(key, 0) + scale * num
            if n:
                row[key] = n
            else:
                del row[key]
    return row


def _pbw_ranks(dims) -> tuple[int, ...]:
    """phi_1, phi_2, ... of a graded Lie algebra from dims[k] = dim U_k.

    PBW: sum dims[k] t^k = prod_k (1 - t^k)^(-phi_k), so phi_k is the
    coefficient of t^k in that series times prod_{j<k} (1 - t^j)^(phi_j).
    """
    phi: list[int] = []
    for k in range(1, len(dims)):
        prod = expand_lcs_product(phi + [0], k).coeffs
        phi.append(sum(dims[i] * prod[k - i] for i in range(k + 1)))
    return tuple(phi)


@lru_cache(maxsize=4)
def _blocks(p: HolonomyPresentation) -> tuple:
    """p's direct factors: (letters, cokernels on them) per block.

    Letters i < j share a block when [x_i, x_j] on its own is not a
    relator, or when a relator with more than one term involves both.
    Every commutator across blocks is then a relator, so h(p) is the
    direct product of the blocks' algebras and U(h(p)) the tensor product
    of theirs.  Blocks come in order of their smallest letter, each
    re-indexed from 1 in increasing order with its relators in p's order;
    the commutators across blocks are dropped.  For presentation(g) the
    blocks are the triangle-connected classes of edges.

    Cached for the 4 most recently used presentations, by content, so an
    equal presentation made anew extends the same states: enough for g
    and the three pieces of one Mayer-Vietoris pivot.
    """
    m = p.num_generators
    linked = set(combinations(range(1, m + 1), 2))
    linked -= {rel[0][0] for rel in p.relators if len(rel) == 1}
    for rel in p.relators:
        if len(rel) > 1:
            linked.update((rel[0][0][0], x) for (i, j), _ in rel for x in (i, j))
    blocks = [sorted(c) for c in _components(range(1, m + 1), linked)]
    block_of = [0] * (m + 1)
    index = [0] * (m + 1)
    for b, letters in enumerate(blocks):
        for i, a in enumerate(letters, start=1):
            block_of[a] = b
            index[a] = i
    relators: list[list] = [[] for _ in blocks]
    for rel in p.relators:
        if rel and block_of[rel[0][0][0]] == block_of[rel[0][0][1]]:
            relators[block_of[rel[0][0][0]]].append(
                tuple(((index[i], index[j]), c) for (i, j), c in rel)
            )
    # equal blocks, such as every single letter, share one state
    keys = [(len(ls), tuple(rels)) for ls, rels in zip(blocks, relators)]
    states = {key: _Cokernels(*key) for key in keys}
    return tuple((tuple(ls), states[key]) for ls, key in zip(blocks, keys))


def _block_states(
    p: HolonomyPresentation, up_to: int, max_dim: int | None, max_entries: int | None
) -> tuple:
    """(letters, cokernels) of each block of p, built to degree up_to.

    max_dim caps the width of each degree k >= 2, the column count
    m * dim A_{k-1} of the blocks' degree-k matrices, summed; max_entries,
    if given, their dense size for k >= 3.  The caps are checked at every
    degree, even when it is already cached, so the outcome does not depend
    on what earlier calls computed.  The caller holds the states returned,
    so a later call that evicts p from the cache does not cost it their
    echelons.
    """
    if up_to < 1:
        raise ValueError("up_to must be >= 1")
    if max_dim is None:
        max_dim = DEFAULT_MAX_DIM
    blocks = _blocks(p)
    for k in range(2, up_to + 1):
        width = sum(s.m * s.dims[k - 1] for _, s in blocks)
        if width > max_dim:
            raise FeasibilityError(
                f"width {width} of degree {k} (matrix columns, summed over "
                f"the blocks) exceeds the cap {max_dim}; lower the degree "
                f"or raise max_dim (--max-dim)",
                dimension=width,
            )
        if max_entries is not None and k >= 3:
            entries = sum(
                len(s.terms) * s.dims[k - 2] * s.m * s.dims[k - 1]
                for _, s in blocks
            )
            if entries > max_entries:
                raise FeasibilityError(
                    f"{entries} matrix entries at degree {k} exceed the "
                    f"cap {max_entries}; lower the degree",
                    entries=entries,
                )
        for _, state in blocks:
            if k == len(state.dims):
                state.extend()
    return blocks


def _peeled_ranks(blocks, up_to: int) -> tuple[int, ...]:
    """phi_1..phi_up_to of the direct product: the blocks' ranks added."""
    phi = [0] * up_to
    for letters, state in blocks:
        ranks = _pbw_ranks(state.dims[: up_to + 1])
        free = [witt_dimension(len(letters), k) for k in range(1, up_to + 1)]
        if any(not 0 <= q <= f for q, f in zip(ranks, free)):
            raise MismatchError(
                f"ranks {ranks} read off the enveloping algebra of a block "
                f"leave the range 0..{free} of the free Lie dimensions"
            )
        phi = list(map(add, phi, ranks))
    return tuple(phi)


def graded_dims(
    p: HolonomyPresentation,
    up_to: int,
    *,
    max_dim: int | None = None,
    max_entries: int | None = None,
) -> GradedDims:
    """Exact graded dimensions of the holonomy Lie algebra up to a degree.

    The enveloping algebra's graded pieces A_k are built as cokernels of
    exact integer matrices, degree by degree, one set per block of the
    presentation, and the Lie ranks phi_k are read off their dimensions
    through PBW and added over the blocks.  The free dimensions are the
    Witt dimensions of the whole presentation and the ideal dimensions
    their difference from phi.  A request whose width at some degree, the
    column count of that degree's matrices summed over the blocks, exceeds
    max_dim (default DEFAULT_MAX_DIM) raises FeasibilityError instead of
    grinding.  max_entries, when given, also caps their dense size; it stays
    in the signatures only because the benchmark (bench/worker.py,
    bench/spans.py) passes it.  The blocks' cokernels of the 4 most
    recently used presentations are cached and extended on demand.
    """
    phi = _peeled_ranks(_block_states(p, up_to, max_dim, max_entries), up_to)
    free = [witt_dimension(p.num_generators, k) for k in range(1, up_to + 1)]
    return GradedDims(
        tuple(free), tuple(f - q for f, q in zip(free, phi)), phi
    )


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

    For each degree k, the Lie subalgebra of h(g) generated by the outside
    edges must have dimension phi_k(g) - phi_k(sub).  Its enveloping
    algebra embeds in U(h(g)) (PBW) as the span S of products of outside
    letters: S_1 is their span and S_k = outside * S_{k-1} in A_k.  The
    Lie dimensions are read off dim S_k through PBW.
    """
    if not is_triangle_complete(g, sub):
        raise ValueError("subgraph is not triangle-complete in g")
    sub_edges = set(sub.edges)
    outside = tuple(
        i for i, e in enumerate(g.edges, start=1) if e not in sub_edges
    )
    blocks = _block_states(presentation(g), up_to, max_dim, max_entries)
    phi_g = _peeled_ranks(blocks, up_to)
    phi_sub = phi_bruteforce(sub, up_to, max_dim=max_dim, max_entries=max_entries)
    # letters of different blocks commute, so the subalgebra the outside
    # letters generate is the direct sum of the ones generated in each block
    outside_set = set(outside)
    spanned = [0] * up_to
    for letters, state in blocks:
        mine = [b for b, a in enumerate(letters) if a in outside_set]
        if not mine:
            continue
        span = [{b: 1} for b in mine]
        dims = [1, len(span)]
        for k in range(2, up_to + 1):
            mu = state.normal_form(k)
            width = state.dims[k - 1]
            ech = _Echelon()
            for a in mine:
                for vec in span:
                    # the normal form of x_a * vec, in A_k
                    terms = [(0, a * width + f, c) for f, c in vec.items()]
                    ech._absorb(_row(terms, 0, mu))
            span = list(ech.pivots.values())
            dims.append(ech.rank)
        spanned = list(map(add, spanned, _pbw_ranks(dims)))
    rows = tuple(
        KernelGenerationRow(k, phi_g[k - 1] - phi_sub[k - 1], spanned[k - 1])
        for k in range(1, up_to + 1)
    )
    return KernelGenerationReport(outside, rows)
