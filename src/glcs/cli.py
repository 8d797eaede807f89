"""Command-line front end: compute, verify, classify, decompose, chromatic.

Output is deterministic for identical input and flags; JSON payloads are
schema-stable and render every integer as a decimal string.  Exit codes:
0 success / all checks pass, 2 usage, parse or input error, 3 integrality
failure, 4 feasibility refusal, 5 mathematical mismatch between routes.
A reader that closes stdout early does not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .errors import (
    FeasibilityError,
    IntegralityError,
    MismatchError,
    ParseError,
)
from .formula import (
    _decomposable,
    _fold,
    _poincare_from_chromatic,
    chordal_chromatic,
    chromatic_polynomial,
    graphic_exponents,
)
from .graphs import (
    Graph,
    clique_vector,
    decompose,
    is_chordal,
    parse_graph,
)
from .holonomy import DEFAULT_MAX_DIM, phi_bruteforce, verify_mayer_vietoris
from .series import expand_lcs_product, expand_product, phi_from_exponents

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INTEGRALITY = 3
EXIT_FEASIBILITY = 4
EXIT_MISMATCH = 5

_MV_VERTEX_LIMIT = 6
_MV_MAX_DEGREE = 3


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_graph(text, strict=args.strict)


def _s(x: int) -> str:
    return str(int(x))


def _ints(xs) -> list[str]:
    return [_s(x) for x in xs]


def _graph_json(g: Graph) -> dict:
    return {
        "vertices": [g.label(v) for v in g.vertices],
        "edges": [[g.label(u), g.label(v)] for u, v in g.edges],
    }


def _json_chunks(value):
    """The text of json.dumps(value, indent=2), in pieces, without recursion.

    So no depth is too deep, and the text is never held whole.  Dicts,
    lists and tuples are laid out here as json.dumps lays them out; keys,
    which are strings, and scalars are written by json.dumps itself.
    """
    todo: list = [(0, value)]  # (depth, value) to write, or text as it is
    while todo:
        item = todo.pop()
        if type(item) is str:
            yield item
            continue
        depth, value = item
        if isinstance(value, dict):
            brackets = "{}"
            entries = [(json.dumps(k) + ": ", v) for k, v in value.items()]
        elif isinstance(value, (list, tuple)):
            brackets = "[]"
            entries = [("", v) for v in value]
        else:
            yield json.dumps(value)
            continue
        if not entries:
            yield brackets
            continue
        yield brackets[0]
        todo.append("\n" + "  " * depth + brackets[1])
        pad = "\n" + "  " * (depth + 1)
        for i in reversed(range(len(entries))):
            key, v = entries[i]
            todo.append((depth + 1, v))
            todo.append(("," if i else "") + pad + key)


def _check(name: str, ok: bool) -> dict:
    return {"name": name, "pass": bool(ok)}


def _render_checks(lines: list[str], checks: list[dict]):
    for c in checks:
        lines.append(f"check {c['name']}: {'PASS' if c['pass'] else 'FAIL'}")


# ---------------------------------------------------------------------------
# subcommands: each takes the graph read and returns (json payload, text
# lines after the graph's header, exit code)

def cmd_compute(g: Graph, args: argparse.Namespace):
    kappa = clique_vector(g)
    e = graphic_exponents(kappa)
    u = expand_product(e, args.degree)
    phi = phi_from_exponents(e, args.degree)
    consistent = expand_lcs_product(phi, args.degree) == u
    checks = [_check("lcs-product-consistency", consistent)]
    payload = {
        "kappa": _ints(kappa),
        "e": _ints(e),
        "U": _ints(u.coeffs),
        "phi": _ints(phi),
        "checks": checks,
    }
    lines = [
        "kappa: " + " ".join(_ints(kappa)),
        "e: " + " ".join(_ints(e)),
        "U: " + " ".join(_ints(u.coeffs)),
        "phi: " + " ".join(_ints(phi)),
    ]
    _render_checks(lines, checks)
    code = EXIT_OK if consistent else EXIT_MISMATCH
    return payload, lines, code


def cmd_verify(g: Graph, args: argparse.Namespace):
    kappa = clique_vector(g)
    e = graphic_exponents(kappa)
    u = expand_product(e, args.degree)
    phi = phi_from_exponents(e, max(args.degree, args.oracle_degree))
    oracle = phi_bruteforce(g, args.oracle_degree, max_dim=args.max_dim)
    checks = []
    table = []
    for k in range(1, args.oracle_degree + 1):
        ok = phi[k - 1] == oracle[k - 1]
        checks.append(_check(f"phi-degree-{k}", ok))
        table.append((k, phi[k - 1], oracle[k - 1], ok))
    mv_reports = []
    if g.n_vertices <= _MV_VERTEX_LIMIT:
        mv_degree = min(args.oracle_degree, _MV_MAX_DEGREE)
        for v in g.vertices:
            rep = verify_mayer_vietoris(g, v, mv_degree, max_dim=args.max_dim)
            mv_reports.append((v, rep))
            checks.append(_check(f"mayer-vietoris-pivot-{g.label(v)}", rep.ok))
    all_ok = all(c["pass"] for c in checks)
    payload = {
        "kappa": _ints(kappa),
        "e": _ints(e),
        "U": _ints(u.coeffs),
        "phi": _ints(phi[: args.degree]),
        "phi_oracle": _ints(oracle),
        "checks": checks,
    }
    lines = [
        "kappa: " + " ".join(_ints(kappa)),
        "e: " + " ".join(_ints(e)),
        "degree  formula  oracle  status",
    ]
    for k, f_val, o_val, ok in table:
        lines.append(
            f"{k:<7d} {f_val:<8d} {o_val:<7d} {'PASS' if ok else 'FAIL'}"
        )
    for v, rep in mv_reports:
        dims = "; ".join(
            f"k={r.degree}: {r.dim_graph}+{r.dim_seam} vs {r.dim_left}+{r.dim_right}"
            for r in rep.rows
        )
        lines.append(
            f"mayer-vietoris pivot={g.label(v)}: "
            f"{'PASS' if rep.ok else 'FAIL'} ({dims})"
        )
    lines.append(f"result: {'PASS' if all_ok else 'FAIL'}")
    return payload, lines, EXIT_OK if all_ok else EXIT_MISMATCH


def cmd_classify(g: Graph, args: argparse.Namespace):
    kappa = clique_vector(g)
    chordal, witness = is_chordal(g)
    witness_kind = "elimination-order" if chordal else "chordless-cycle"
    decomposable = _decomposable(kappa)
    payload = {
        "kappa": _ints(kappa),
        "chordal": chordal,
        "supersolvable": chordal,
        "witness_kind": witness_kind,
        "witness": [g.label(v) for v in witness],
        "decomposable": decomposable,
        "checks": [],
    }
    lines = [
        "kappa: " + " ".join(_ints(kappa)),
        f"chordal (supersolvable): {'yes' if chordal else 'no'}",
        f"witness ({witness_kind}): "
        + " ".join(g.label(v) for v in witness),
        f"decomposable: {'yes' if decomposable else 'no'}",
    ]
    return payload, lines, EXIT_OK


def _tree_lines(folded, depth: int, tag: str, lines: list[str]):
    """Text of a folded tree: each node, its left chain, pieces and U."""
    chain = []
    while folded.left is not None:
        g = folded.tree.graph
        lines.append(
            "  " * depth + f"{tag}node pivot={g.label(folded.tree.pivot)} "
            f"n={g.n_vertices} m={g.n_edges}"
        )
        chain.append((folded, depth))
        folded, depth, tag = folded.left, depth + 1, "left: "
    g = folded.tree.graph
    lines.append(
        "  " * depth + f"{tag}leaf[{folded.tree.reason}] "
        f"n={g.n_vertices} m={g.n_edges} "
        "U: " + " ".join(_ints(folded.u.coeffs))
    )
    for node, depth in reversed(chain):
        _tree_lines(node.right, depth + 1, "right: ", lines)
        _tree_lines(node.seam, depth + 1, "seam: ", lines)
        lines.append("  " * depth + "U: " + " ".join(_ints(node.u.coeffs)))


def _tree_json(folded) -> dict:
    """JSON of a folded tree: each node's graph, pieces and U."""
    chain = []
    while folded.left is not None:
        chain.append(folded)
        folded = folded.left
    node = {
        "kind": "leaf",
        "reason": folded.tree.reason,
        "graph": _graph_json(folded.tree.graph),
        "U": _ints(folded.u.coeffs),
    }
    for folded in reversed(chain):
        g = folded.tree.graph
        node = {
            "kind": "node",
            "pivot": g.label(folded.tree.pivot),
            "graph": _graph_json(g),
            "left": node,
            "right": _tree_json(folded.right),
            "seam": _tree_json(folded.seam),
            "U": _ints(folded.u.coeffs),
        }
    return node


def cmd_decompose(g: Graph, args: argparse.Namespace):
    folded = _fold(decompose(g), args.degree)
    direct = expand_product(graphic_exponents(clique_vector(g)), args.degree)
    ok = folded.u == direct
    checks = [_check("glued-equals-direct", ok)]
    # the tree is rendered only in the format that is printed
    if args.format == "json":
        payload = {
            "tree": _tree_json(folded),
            "U": _ints(folded.u.coeffs),
            "U_direct": _ints(direct.coeffs),
            "checks": checks,
        }
        return payload, [], EXIT_OK if ok else EXIT_MISMATCH
    lines = []
    _tree_lines(folded, 0, "", lines)
    lines.append("U direct: " + " ".join(_ints(direct.coeffs)))
    _render_checks(lines, checks)
    return {}, lines, EXIT_OK if ok else EXIT_MISMATCH


def cmd_chromatic(g: Graph, args: argparse.Namespace):
    kappa = clique_vector(g)
    chi = chromatic_polynomial(g)
    chordal, _ = is_chordal(g)
    poincare = _poincare_from_chromatic(chi, g.n_vertices)
    checks = []
    product = product_coeffs = None
    if chordal:
        product = chordal_chromatic(kappa)
        product_coeffs = _ints(product.coeffs)
        checks.append(_check("chordal-product-equals-chromatic", product == chi))
        e = graphic_exponents(kappa)
        order = max(g.n_vertices, kappa[1] if len(kappa) > 1 else 0, 1)
        u = expand_product(e, order)
        neg = poincare.substitute_negated().as_series(order)
        checks.append(_check("poincare-at-minus-t-equals-U", neg == u))
    all_ok = all(c["pass"] for c in checks)
    payload = {
        "chromatic": _ints(chi.coeffs),
        "chordal": chordal,
        "chordal_product": product_coeffs,
        "poincare": _ints(poincare.coeffs),
        "checks": checks,
    }
    lines = [
        f"chromatic polynomial: {chi}",
        f"chordal: {'yes' if chordal else 'no'}",
    ]
    if chordal:
        lines.append(f"chordal product form: {product}")
    lines.append(f"poincare polynomial: {poincare}")
    _render_checks(lines, checks)
    return payload, lines, EXIT_OK if all_ok else EXIT_MISMATCH


_COMMANDS = {
    "compute": cmd_compute,
    "verify": cmd_verify,
    "classify": cmd_classify,
    "decompose": cmd_decompose,
    "chromatic": cmd_chromatic,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glcs",
        description=(
            "Exact lower-central-series ranks of graphic arrangement "
            "complements, with brute-force and gluing cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "compute": "clique vector, exponents, U series, and ranks",
        "verify": "compare the closed formula against the brute-force ranks",
        "classify": "chordal/supersolvable and decomposable classification",
        "decompose": "vertex-split tree with glued series at every node",
        "chromatic": "chromatic and Poincare polynomials with specializations",
    }
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--input", default="-", metavar="PATH",
                        help="edge-list file, or - for stdin (default)")
        if name in ("compute", "verify", "decompose"):
            sp.add_argument("--degree", type=_positive_int, default=10,
                            metavar="N",
                            help="series truncation order (default 10)")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--strict", action="store_true",
                        help="reject duplicate edges instead of deduplicating")
        if name == "verify":
            sp.add_argument("--oracle-degree", type=_positive_int, default=4,
                            metavar="D", help="brute-force degree (default 4)")
            sp.add_argument("--max-dim", type=_positive_int, default=None,
                            metavar="CAP",
                            help="cap on the width of each degree of the "
                                 "brute force, its matrix columns summed over "
                                 f"its blocks (default {DEFAULT_MAX_DIM})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    exits = {
        # malformed, unreadable or undecodable input
        ParseError: EXIT_PARSE,
        OSError: EXIT_PARSE,
        UnicodeDecodeError: EXIT_PARSE,
        IntegralityError: EXIT_INTEGRALITY,
        FeasibilityError: EXIT_FEASIBILITY,
        MismatchError: EXIT_MISMATCH,
    }
    try:
        g = _load_graph(args)
        payload, lines, code = _COMMANDS[args.command](g, args)
    except tuple(exits) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(c for t, c in exits.items() if isinstance(exc, t))
    try:
        if args.format == "json":
            sys.stdout.writelines(_json_chunks(payload))
            print()
        else:
            print(f"graph: {g.n_vertices} vertices, {g.n_edges} edges")
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`); send what is left to
        # os.devnull, so that the flush at interpreter exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
