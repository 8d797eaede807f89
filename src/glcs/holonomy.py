"""Brute-force graded ranks of the holonomy Lie algebra of a graph.

Generators are the graph's edges (1-based indices); relators live in degree
two: one commutator per edge pair spanning no triangle, and two relators per
triangle.  The oracle builds the enveloping algebra U(h) = T(V)/(R) degree by
degree, each graded piece A_k as the cokernel of an exact integer matrix
R ⊗ A_{k-2} -> V ⊗ A_{k-1}, and peels the Lie rank phi_k off dim A_k through
the Poincare-Birkhoff-Witt identity sum dim A_k t^k = prod_k (1 - t^k)^(-phi_k)
once, as degree k is built, checked against the Witt dimension.  Edges that
share no triangle commute, so h is the direct product of the holonomy
algebras of its blocks, the triangle-connected classes of edges: each block
gets its own cokernels and ranks, cached by content and so shared with every
equal block, and the ranks add.  The one size gate is the width of
degree k, the column count m * dim A_{k-1} summed over the blocks, known
exactly before degree k is built.  Each degree's rows are inserted shortest
first, which changes the fill-in along the way but not the reduced echelon
form.  No Lie word is ever formed.  No floating point and no modular
shortcuts: ranks are certified over the rationals.

Degrees 1 to 3 are always eliminated.  Past them, phi_bruteforce offers each
block a certificate: under one letter order, read off the graph the block's
own edges span by maximum cardinality search, the relators' leading pairs
are rewriting rules, and the words with no leading word as a factor must
number exactly dim A_3.  Where they do not, a truncated noncommutative
Buchberger step (Bergman's diamond lemma, degree by degree) adds the
degree-3 rules that resolve the overlaps, and the count must then match.
A certified block counts dim A_k for k >= 4 instead of eliminating it,
adding at each degree the rules that resolve the overlaps of that length;
with leading pairs only it is PBW and adds none.  A block whose count
misses keeps eliminating, so no answer rests on trust; a counted degree
whose normal forms are needed is eliminated on demand and must give the
count.  The gate reads the same widths, with the same message, whichever
way a degree was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd
from operator import add

from .errors import FeasibilityError, MismatchError
from .graphs import (
    Graph,
    _components,
    _peel,
    _rank2_flats,
    graph_from_edges,
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

    def _absorb(self, work: dict[int, int]) -> bool:
        """Reduce a fresh row against the basis in place; add it if independent.

        The row is taken over, not copied.  Both work and the stored rows
        hold no zeros, so an update that gives zero always names a key
        already in work.
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
    ...)); it is built from the echelon only when asked for, and top holds
    the echelon of degree len(mu) until then.  phi[k-1] is phi_k, peeled
    off dims and checked once, as degree k is built.  The relators are
    written as in HolonomyPresentation.

    A state that certify accepts counts each later degree instead of
    eliminating it: rules[d] holds the rewriting rules of degree d, moves
    the automaton that reads normal words (_automaton) and tally the
    normal words of the top degree per automaton state.  tried records
    that certify has run.
    """

    __slots__ = (
        "m", "terms", "dims", "phi", "mu", "top", "tried", "rules", "moves",
        "tally",
    )

    def __init__(self, m: int, relators):
        self.m = m
        self.phi = [self._checked(1, m)]
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
        self.tried = False
        self.rules: list[dict[int, dict[int, int]]] | None = None
        self.moves: list[list[int]] | None = None
        self.tally: list[int] | None = None

    def extend(self):
        """Build the next degree: counted once certified, else eliminated."""
        k = len(self.dims)
        if self.rules is None:
            ech = self._echelon(k)
            dims = self.dims + [self.m * self.dims[k - 1] - ech.rank]
        else:
            rules, moves, tally = _grow(self.rules, self.moves, self.tally, self.m, k)
            dims = self.dims + [sum(tally)]
        # the state changes only once phi_k has passed its check
        self.phi.append(self._checked(k, _lie_rank(dims, self.phi)))
        self.dims = dims
        if self.rules is None:
            self.top = ech
        else:
            self.rules, self.moves, self.tally = rules, moves, tally

    def _echelon(self, k: int) -> _Echelon:
        """The echelon of degree k's rows, inserted shortest first.

        A row's key is its term count before cancellation, the sum of
        len mu[k-1](x_b ⊗ g) over its relator's terms; ties keep the
        (relator, g) order.  The reduced echelon form, and with it the
        free columns and mu[k], does not depend on the order rows arrive
        in; short rows first leave less fill-in on the way.  Only one int
        per row is held, key * rows + row number; each row is built when
        it is inserted, from terms shifted once to (a * width, b * below, c).
        """
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
        return ech

    def certify(self, pos: list[int]):
        """Count degrees past 3 from normal words, if the letter order allows.

        pos[a] is letter a's place in the order.  Under it, a word of
        degree d is the base-m integer of its renamed letters, and the
        leading word of a combination is its smallest word, as in _Echelon.
        The relators' echelon rows in V ⊗ V are the rewriting rules of
        degree 2, their pivots the leading pairs.  Words with no lead as a
        factor span every A_k, and by Bergman's diamond lemma they are a
        basis of A_k once every overlap of two leads up to degree k
        resolves; _automaton and _step count them, never listing them.
        When they number dim A_k, every overlap of degree k already
        resolves.  When they do not, the rules, back-reduced, are
        completed to degree k (_grow: a truncated Buchberger step), and
        the count must then equal dim A_k.  If the counts equal dims from
        degree 3 up, the state keeps the rules and counts every later
        degree; if not, it keeps eliminating.  With 2-letter leads only
        (rules[3:] all empty) the algebra is PBW (Priddy 1970).  Runs once
        per state; the state must hold degree 3.
        """
        self.tried = True
        m = self.m
        ech = self._leading_pairs(pos)
        rules = [{}, {}, ech.pivots]
        moves = _automaton(rules, m)
        tally = _step(moves, [1] * m)
        for k in range(3, len(self.dims)):
            counted = _step(moves, tally)
            lacking = sum(counted) - self.dims[k]
            if not lacking:
                # the normal words are a basis of A_k, so every overlap of
                # union k already resolves to 0
                rules, tally = rules + [{}], counted
                continue
            # the same rules, back-reduced: with no lead in a tail,
            # overlaps resolve in fewer steps
            rules[2] = ech.back_reduced()
            rules, moves, tally = _grow(rules, moves, tally, m, k, lacking)
            if sum(tally) != self.dims[k]:
                return
        self.rules, self.moves, self.tally = rules, moves, tally

    def _leading_pairs(self, pos: list[int]) -> _Echelon:
        """The relator rows in V ⊗ V, column pos[a] * m + pos[b] for x_a x_b."""
        ech = _Echelon()
        m = self.m
        for terms in self.terms:
            # mu[1] is the identity, so _row only collects the terms
            placed = [(pos[a] * m, pos[b], c) for a, b, c in terms]
            ech._absorb(_row(placed, 0, self.mu[1]))
        return ech

    def _checked(self, k: int, phi: int) -> int:
        """phi, the Lie rank of degree k, once it lies in 0..W(m, k)."""
        free = witt_dimension(self.m, k)
        if not 0 <= phi <= free:
            raise MismatchError(
                f"rank {phi} of degree {k} read off the enveloping algebra "
                f"of a block leaves the range 0..{free} of the free Lie algebra"
            )
        return phi

    def normal_form(self, k: int) -> list:
        """mu[k], built from the degree-k echelon on first use.

        A degree that was counted is eliminated here first, and its rank
        must leave the counted dimension.
        """
        while len(self.mu) <= k:
            j = len(self.mu)
            ech = self.top
            if ech is None:
                ech = self._echelon(j)
                if self.m * self.dims[j - 1] - ech.rank != self.dims[j]:
                    raise MismatchError(
                        f"degree {j} of a block eliminates to dimension "
                        f"{self.m * self.dims[j - 1] - ech.rank}, not the "
                        f"{self.dims[j]} normal words counted"
                    )
            pos: dict[int, int] = {}
            mu: list = []
            for col in range(self.m * self.dims[j - 1]):
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
        return self.mu[k]


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


def _flag_order(edges) -> list[int]:
    """pos[letter] = place, for a block whose letters are these edges.

    Maximum cardinality search visits the vertices of the graph the edges
    span; the letters are sorted by (visit of the later-visited endpoint,
    visit of the earlier one).  On a chordal graph the prefixes of the
    search span a modular flag, along which the relators are expected to
    form a quadratic Groebner basis; certify checks it, never trusts it.
    """
    visit = {v: i for i, v in enumerate(_peel(graph_from_edges(edges), lambda v: 0))}
    order = sorted(
        range(len(edges)),
        key=lambda a: sorted((visit[v] for v in edges[a]), reverse=True),
    )
    pos = [0] * len(edges)
    for place, a in enumerate(order):
        pos[a] = place
    return pos


def _grow(rules, moves, tally, m: int, k: int, lacking: int | None = None):
    """(rules, moves, tally) of degree k, from those of degree k - 1.

    While an overlap of two leads can still have k letters, _resolve adds
    the rules of degree k, told how many are lacking when dim A_k is
    known.  Only when it adds some is the automaton rebuilt and the count
    run again from degree 1.
    """
    longest = max((d for d, leads in enumerate(rules) if leads), default=0)
    new = _resolve(rules, m, k, lacking) if k < 2 * longest else {}
    rules = rules + [new]
    if not new:
        return rules, moves, _step(moves, tally)
    moves = _automaton(rules, m)
    tally = [1] * m + [0] * (len(moves) - m)
    for _ in range(k - 1):
        tally = _step(moves, tally)
    return rules, moves, tally


def _resolve(
    rules, m: int, k: int, lacking: int | None = None
) -> dict[int, dict[int, int]]:
    """The back-reduced rules of degree k that resolve the overlaps of union k.

    rules[d], for d < k, maps each lead word of degree d to its row: a
    primitive integer combination of degree-d words whose smallest word
    is the lead, with a positive coefficient, and whose others contain no
    lead.  Leads u s and s v, s not empty, overlap in u s v; the first
    rule times v, with u s v cleared by u times the second as _cancel
    clears it, is reduced to normal form by _reduce.  The nonzero
    remainders are echeloned and back-reduced, so the new leads and tails
    contain no lead either.

    lacking, when given, is the number of normal words of degree k less
    dim A_k.  Each independent remainder removes one normal word, and the
    normal words always span A_k; so once lacking rules are found they
    are a basis, every overlap left resolves to 0, and it is skipped.
    """
    power = [m**i for i in range(k + 1)]
    found = _Echelon()
    reducers: dict[int, dict[int, int] | None] = {}
    for d1 in range(2, k):
        for d2 in range(k + 1 - d1, k):
            if not rules[d1] or not rules[d2]:
                continue
            shared = d1 + d2 - k
            past = power[k - d1]
            starting: dict[int, list[int]] = {}
            for w2 in rules[d2]:
                starting.setdefault(w2 // power[d2 - shared], []).append(w2)
            for w1, g1 in rules[d1].items():
                left = w1 // power[shared] * power[d2]
                for w2 in starting.get(w1 % power[shared], ()):
                    v = w2 % past
                    work = {x * past + v: c for x, c in g1.items()}
                    g2 = {left + x: c for x, c in rules[d2][w2].items()}
                    _cancel(work, g2, w1 * past + v)
                    _reduce(work, rules, power, reducers)
                    if work and found._absorb(work) and found.rank == lacking:
                        return found.back_reduced()
    return found.back_reduced()


def _reduce(work: dict[int, int], rules, power, reducers):
    """Rewrite work, a combination of degree-k words, to its normal form.

    In place and fraction-free, as _cancel scales; k = len(power) - 1.
    Words are rewritten smallest first: rewriting a word only brings in
    larger ones.  reducers caches each word's rewriting row, or None for a
    normal word.
    """
    heap = list(work)
    heapify(heap)
    seen = set(heap)
    while heap:
        w = heappop(heap)
        if w not in work:
            continue
        if w in reducers:
            prow = reducers[w]
        else:
            prow = reducers[w] = _reducer(w, rules, power)
        if prow is None:
            continue
        _cancel(work, prow, w)
        for x in prow:
            if x not in seen:
                seen.add(x)
                heappush(heap, x)


def _reducer(w: int, rules, power) -> dict[int, int] | None:
    """p g q for the first rule g whose lead is a factor of w = p lead q."""
    k = len(power) - 1
    for d in range(2, min(len(rules), k + 1)):
        leads = rules[d]
        if not leads:
            continue
        for j in range(k - d + 1):
            below = power[j]
            row = leads.get(w // below % power[d])
            if row is not None:
                q = w % below
                p = w // (below * power[d]) * power[d]
                return {(p + x) * below + q: c for x, c in row.items()}
    return None


def _automaton(rules, m: int) -> list[list[int]]:
    """moves[s]: the states one more letter leads to from state s.

    A state is a letter, 0..m-1, or a proper prefix of a lead with at
    least 2 letters; a normal word is in the state of its longest suffix
    that is one.  A lead that is a suffix of the word a letter longer is
    then a suffix of the state's word that letter longer, so that move is
    left out; the longest state that is a suffix of it is found the same
    way.  With 2-letter leads only, the states are the letters and the
    moves the allowed pairs.
    """
    power = [m**i for i in range(len(rules))]
    # grows[s][u]: b -> the state u b, a prefix with s letters
    grows: list[dict[int, dict[int, int]]] = [{} for _ in rules]
    states = [(1, a) for a in range(m)]
    for d in range(3, len(rules)):
        for w in rules[d]:
            for size in range(2, d):
                v = w // power[d - size]
                nexts = grows[size].setdefault(v // m, {})
                if v % m not in nexts:
                    nexts[v % m] = len(states)
                    states.append((size, v))
    moves = []
    for size, v in states:
        allowed = range(m)
        nexts = {}
        for d in range(2, min(size + 2, len(rules))):
            u = v % power[d - 1]
            base, leads = u * m, rules[d]
            allowed = [b for b in allowed if base + b not in leads]
            # longer suffixes come later and win
            nexts.update(grows[d].get(u, ()))
        moves.append([nexts.get(b, b) for b in allowed] if nexts else allowed)
    return moves


def _step(moves, tally) -> list[int]:
    """Normal words one letter longer, counted by automaton state."""
    out = [0] * len(moves)
    for s, n in enumerate(tally):
        if n:
            for t in moves[s]:
                out[t] += n
    return out


def _lie_rank(dims, phi: list[int]) -> int:
    """phi_k of a graded Lie algebra, k = len(phi) + 1, from dims[i] = dim U_i.

    phi holds phi_1..phi_(k-1) and dims at least k + 1 entries.  PBW:
    sum dims[i] t^i = prod_j (1 - t^j)^(-phi_j), so phi_k is the
    coefficient of t^k in that series times prod_{j<k} (1 - t^j)^(phi_j).
    """
    k = len(phi) + 1
    prod = expand_lcs_product(phi + [0], k).coeffs
    return sum(dims[i] * prod[k - i] for i in range(k + 1))


# the 4 most recently used blocks' cokernels, keyed by content: enough for
# g and the pieces of one Mayer-Vietoris pivot only when those graphs hold
# at most 4 distinct blocks between them
_state = lru_cache(maxsize=4)(_Cokernels)


def _block_states(
    p: HolonomyPresentation,
    up_to: int,
    max_dim: int | None,
    max_entries: int | None,
    edges=None,
) -> tuple:
    """p's direct factors, (letters, cokernels on them) per block, to degree up_to.

    Letters i < j share a block when [x_i, x_j] on its own is not a
    relator, or when a relator with more than one term involves both.
    Every commutator across blocks is then a relator, so h(p) is the
    direct product of the blocks' algebras and U(h(p)) the tensor product
    of theirs.  Blocks come in order of their smallest letter, each
    re-indexed from 1 in increasing order with its relators in p's order;
    the commutators across blocks are dropped.  For presentation(g) the
    blocks are the triangle-connected classes of edges.  Each block's
    cokernels come from _state, keyed by (m, re-indexed relators), and
    carry the block's ranks phi, each checked as its degree is built.

    edges, if given, holds the graph edge of each letter of p; with
    up_to >= 4, each state that has not yet tried is certified once, in
    the order _flag_order reads off its block's edges, after degree 3 and
    before degree 4 is built.

    max_dim caps the width of each degree k >= 2, the column count
    m * dim A_{k-1} of the blocks' degree-k matrices, summed; max_entries,
    if given, their dense size for k >= 3.  The caps are checked at every
    degree, even when it is already cached, so the outcome does not depend
    on what earlier calls computed.  The caller holds the states returned,
    so a later call that evicts them from _state does not cost it their
    echelons.
    """
    if up_to < 1:
        raise ValueError("up_to must be >= 1")
    if max_dim is None:
        max_dim = DEFAULT_MAX_DIM
    m = p.num_generators
    linked = set(combinations(range(1, m + 1), 2))
    linked -= {rel[0][0] for rel in p.relators if len(rel) == 1}
    for rel in p.relators:
        if len(rel) > 1:
            linked.update((rel[0][0][0], x) for (i, j), _ in rel for x in (i, j))
    letters = [sorted(c) for c in _components(range(1, m + 1), linked)]
    block_of = [0] * (m + 1)
    index = [0] * (m + 1)
    for b, ls in enumerate(letters):
        for i, a in enumerate(ls, start=1):
            block_of[a] = b
            index[a] = i
    relators: list[list] = [[] for _ in letters]
    for rel in p.relators:
        if rel and block_of[rel[0][0][0]] == block_of[rel[0][0][1]]:
            relators[block_of[rel[0][0][0]]].append(
                tuple(((index[i], index[j]), c) for (i, j), c in rel)
            )
    contents = zip(map(len, letters), map(tuple, relators))
    blocks = tuple((tuple(ls), _state(*c)) for ls, c in zip(letters, contents))
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
        for ls, state in blocks:
            if k == 4 and edges is not None and not state.tried:
                state.certify(_flag_order([edges[a - 1] for a in ls]))
            if k == len(state.dims):
                state.extend()
    return blocks


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
    presentation.  Each block peels its Lie rank phi_k off dim A_k through
    PBW once, when it builds degree k, checks it against the block's Witt
    dimension and keeps it; the blocks' ranks are added.  The free
    dimensions are the Witt dimensions of the whole presentation and the
    ideal dimensions their difference from phi.  A request whose width at
    some degree, the column count of that degree's matrices summed over
    the blocks, exceeds max_dim (default DEFAULT_MAX_DIM) raises
    FeasibilityError instead of grinding.  max_entries, when given, also
    caps their dense size; it stays in the signatures only because the
    benchmark (bench/worker.py, bench/spans.py) passes it.  The 4 most
    recently used blocks' cokernels, of any presentation, are cached by
    content and extended on demand.
    """
    phi = _ranks(_block_states(p, up_to, max_dim, max_entries), up_to)
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
    """Lower-central-series ranks of the graph's holonomy Lie algebra.

    graded_dims' ranks of presentation(g), under the same gate; past
    degree 3, each block is offered for certification in the letter order
    _flag_order reads off the block's own edges.
    """
    blocks = _block_states(presentation(g), up_to, max_dim, max_entries, g.edges)
    return _ranks(blocks, up_to)


def _ranks(blocks, up_to: int) -> tuple[int, ...]:
    """phi_1..phi_up_to summed over the blocks' states."""
    return tuple(sum(s.phi[k] for _, s in blocks) for k in range(up_to))


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
    blocks = _block_states(presentation(g), up_to, max_dim, max_entries, g.edges)
    phi_g = _ranks(blocks, up_to)
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
        dims, phi = [1, len(mine)], [len(mine)]
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
            phi.append(_lie_rank(dims, phi))
        spanned = list(map(add, spanned, phi))
    rows = tuple(
        KernelGenerationRow(k, phi_g[k - 1] - phi_sub[k - 1], spanned[k - 1])
        for k in range(1, up_to + 1)
    )
    return KernelGenerationReport(outside, rows)
