"""Answers computed apart from glcs, and the checks that compare against them.

Nothing here imports glcs.  The lower-central-series ranks come from the
paper's formula, recomputed from scratch: clique counts by plain extension
in vertex-id order, the binomial transform to exponents e_j, power sums
p_k = sum_j e_j j^k, and Moebius inversion.  The series U is rebuilt from
the same power sums by Newton's recurrence, not by multiplying factors.
Chromatic answers come from counting proper colourings by backtracking.

Every check returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

from math import comb


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def clique_counts(n: int, edges) -> list[int]:
    """Entry s counts complete subgraphs on s + 1 vertices."""
    adj = adjacency(n, edges)
    higher = [{w for w in adj[v] if w > v} for v in range(n)]
    counts = [n]

    def extend(cand: set[int], size: int):
        for w in cand:
            if len(counts) <= size:
                counts.append(0)
            counts[size] += 1
            extend(cand & higher[w], size + 1)

    for v in range(n):
        extend(higher[v], 1)
    return counts


def mobius(k: int) -> int:
    result, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1
    return -result if k > 1 else result


def exponents(kappa) -> list[int]:
    """e_j = sum_{s >= j} (-1)^(s-j) C(s, j) kappa_s, trailing zeros dropped."""
    e = [sum((-1) ** (s - j) * comb(s, j) * kappa[s]
             for s in range(j, len(kappa)))
         for j in range(1, kappa[0])]
    while e and e[-1] == 0:
        e.pop()
    return e


def power_sums(e, order: int) -> list[int]:
    return [sum(ej * j ** k for j, ej in enumerate(e, start=1))
            for k in range(1, order + 1)]


def ranks(e, order: int) -> list[int]:
    """phi_1..phi_order by Moebius inversion of the power sums."""
    p = power_sums(e, order)
    out = []
    for k in range(1, order + 1):
        acc = sum(mobius(k // d) * p[d - 1] for d in range(1, k + 1) if k % d == 0)
        if acc % k:
            raise ArithmeticError(f"rank {k} is not an integer")
        out.append(acc // k)
    return out


def u_series(e, order: int) -> list[int]:
    """Coefficients of prod_j (1 - j t)^(e_j) by Newton: k u_k = -sum p_i u_(k-i)."""
    p = power_sums(e, order)
    u = [1]
    for k in range(1, order + 1):
        acc = -sum(p[i - 1] * u[k - i] for i in range(1, k + 1))
        if acc % k:
            raise ArithmeticError(f"U coefficient {k} is not an integer")
        u.append(acc // k)
    return u


class Formula:
    """kappa, e, phi and U of one graph, up to a truncation order."""

    def __init__(self, n: int, edges, order: int):
        self.kappa = clique_counts(n, edges)
        self.e = exponents(self.kappa)
        self.phi = ranks(self.e, order)
        self.u = u_series(self.e, order)


# ---------------------------------------------------------------------------
# chordality and colourings

def is_chordal_graph(n: int, edges) -> bool:
    """Maximum cardinality search, then a perfect-elimination check."""
    adj = adjacency(n, edges)
    weight = [0] * n
    picked = [False] * n
    order = []
    for _ in range(n):
        v = max((x for x in range(n) if not picked[x]), key=lambda x: weight[x])
        picked[v] = True
        order.append(v)
        for w in adj[v]:
            if not picked[w]:
                weight[w] += 1
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [w for w in adj[v] if pos[w] < pos[v]]
        if earlier:
            parent = max(earlier, key=lambda w: pos[w])
            if any(w != parent and w not in adj[parent] for w in earlier):
                return False
    return True


def count_colourings(n: int, edges, q: int) -> int:
    """Proper colourings with q colours, by backtracking in vertex order."""
    adj = adjacency(n, edges)
    earlier = [[w for w in adj[v] if w < v] for v in range(n)]
    colour = [0] * n

    def place(v: int) -> int:
        if v == n:
            return 1
        total = 0
        for c in range(q):
            if all(colour[w] != c for w in earlier[v]):
                colour[v] = c
                total += place(v + 1)
        return total

    return place(0)


def poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def elimination_product(n: int, edges) -> list[int] | None:
    """prod_v (t - |earlier neighbours of v|) when 0..n-1 reversed is a PEO.

    Returns None when some vertex's earlier neighbours do not form a clique.
    """
    adj = adjacency(n, edges)
    poly = [1]
    for v in range(n):
        earlier = [w for w in adj[v] if w < v]
        if any(b not in adj[a] for i, a in enumerate(earlier) for b in earlier[i + 1:]):
            return None
        poly = poly_mul(poly, [-len(earlier), 1])
    return poly


def evaluate(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def triangle_count(n: int, edges) -> int:
    counts = clique_counts(n, edges)
    return counts[2] if len(counts) > 2 else 0


# ---------------------------------------------------------------------------
# checks, one per kind of operation

def _mismatch(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: got {got}, expected {want}"]


def _ints(xs) -> list[int]:
    return [int(x) for x in xs]


def check_oracle(inp: dict, phi) -> list[str]:
    want = Formula(inp["n"], inp["edges"], 4).phi
    return _mismatch("phi_1..phi_4", list(phi), want)


def check_verify(inp: dict, exit_code: int, payload: dict) -> list[str]:
    f = Formula(inp["n"], inp["edges"], 10)
    problems = _mismatch("exit code", exit_code, 0)
    problems += _mismatch("kappa", _ints(payload["kappa"]), f.kappa)
    problems += _mismatch("e", _ints(payload["e"]), f.e)
    problems += _mismatch("U", _ints(payload["U"]), f.u)
    problems += _mismatch("phi", _ints(payload["phi"]), f.phi)
    problems += _mismatch("phi_oracle", _ints(payload["phi_oracle"]), f.phi[:4])
    problems += [f"check {c['name']} failed" for c in payload["checks"]
                 if not c["pass"]]
    return problems


def check_chromatic(inp: dict, exit_code: int, payload: dict) -> list[str]:
    n, edges = inp["n"], inp["edges"]
    m = len(edges)
    chi = _ints(payload["chromatic"])
    problems = _mismatch("exit code", exit_code, 0)
    problems += _mismatch("degree", len(chi) - 1, n)
    if len(chi) == n + 1:
        top = [chi[n], chi[n - 1], chi[n - 2]]
        problems += _mismatch("top coefficients", top,
                              [1, -m, comb(m, 2) - triangle_count(n, edges)])
    for q in (1, 2, 3):
        problems += _mismatch(f"chi({q})", evaluate(chi, q),
                              count_colourings(n, edges, q))
    chordal = is_chordal_graph(n, edges)
    problems += _mismatch("chordal", payload["chordal"], chordal)
    if inp["kind"] == "chordal":
        product = elimination_product(n, edges)
        if product is None:
            problems.append("construction order is not a perfect elimination order")
        else:
            problems += _mismatch("chi against the elimination product", chi, product)
            problems += _mismatch("chordal_product",
                                  payload["chordal_product"] and _ints(payload["chordal_product"]),
                                  product)
    betti = [(-1) ** i * chi[n - i] for i in range(n + 1)] if len(chi) == n + 1 else None
    while betti and betti[-1] == 0:
        betti.pop()
    problems += _mismatch("poincare", _ints(payload["poincare"]), betti)
    problems += [f"check {c['name']} failed" for c in payload["checks"]
                 if not c["pass"]]
    return problems


def check_witness(inp: dict, tokens) -> list[str]:
    """The classify witness must be an induced cycle of length at least 4."""
    index = {label: v for v, label in enumerate(inp["labels"])}
    if any(t not in index for t in tokens):
        return [f"witness names unknown vertices: {tokens}"]
    cycle = [index[t] for t in tokens]
    k = len(cycle)
    adj = adjacency(inp["n"], inp["edges"])
    if k < 4 or len(set(cycle)) != k:
        return [f"witness {tokens} is not a cycle of length >= 4"]
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j == i + 1 or (i == 0 and j == k - 1)
            if (cycle[j] in adj[cycle[i]]) != consecutive:
                what = "misses the edge" if consecutive else "has the chord"
                return [f"witness {tokens} {what} {tokens[i]}-{tokens[j]}"]
    return []


def _fields(text: str) -> dict[str, str]:
    """Map each unindented 'key: value' line of glcs text output to its value."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith(" ") and ": " in line:
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def check_structure(inp: dict, codes, texts) -> list[str]:
    """classify, compute --degree 60 and decompose text outputs of one graph."""
    n, edges = inp["n"], inp["edges"]
    f60 = Formula(n, edges, 60)
    u10 = f60.u[:11]
    problems = _mismatch("exit codes", list(codes), [0, 0, 0])
    header = f"{n} vertices, {len(edges)} edges"
    classify, compute, decompose = (_fields(t) for t in texts)
    kappa = " ".join(map(str, f60.kappa))
    problems += _mismatch("classify graph", classify.get("graph"), header)
    problems += _mismatch("classify kappa", classify.get("kappa"), kappa)
    chordal = is_chordal_graph(n, edges)
    problems += _mismatch("classify chordal", classify.get("chordal (supersolvable)"),
                          "yes" if chordal else "no")
    decomposable = len(f60.kappa) <= 3
    problems += _mismatch("classify decomposable", classify.get("decomposable"),
                          "yes" if decomposable else "no")
    if not chordal:
        problems += check_witness(
            inp, classify.get("witness (chordless-cycle)", "").split())
    problems += _mismatch("compute kappa", compute.get("kappa"), kappa)
    problems += _mismatch("compute e", compute.get("e"), " ".join(map(str, f60.e)))
    problems += _mismatch("compute U", compute.get("U"), " ".join(map(str, f60.u)))
    problems += _mismatch("compute phi", compute.get("phi"), " ".join(map(str, f60.phi)))
    problems += _mismatch("compute check", compute.get("check lcs-product-consistency"),
                          "PASS")
    problems += _mismatch("decompose graph", decompose.get("graph"), header)
    problems += _mismatch("decompose glued U", decompose.get("U"),
                          " ".join(map(str, u10)))
    problems += _mismatch("decompose direct U", decompose.get("U direct"),
                          " ".join(map(str, u10)))
    problems += _mismatch("decompose check", decompose.get("check glued-equals-direct"),
                          "PASS")
    return problems
