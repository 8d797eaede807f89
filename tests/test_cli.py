"""Command-line behavior: schemas, determinism, exit codes."""

import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import glcs
from glcs import cli
from iso import representatives

EXAMPLE = (
    "v1 v2\nv2 v3\nv3 v4\nv4 v1\n"
    "a v1\na v2\na v3\na v4\n"
    "w a\nw v1\nw v2\n"
)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.edges"
    path.write_text(EXAMPLE)
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text("1 2\n2 3\n1 3\n")
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute

def test_compute_text(example_file, capsys):
    code, out, err = run_cli(
        ["compute", "--input", example_file, "--degree", "5"], capsys
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert "kappa: 6 11 7 1" in lines
    assert "e: 0 4 1" in lines
    assert "U: 1 -11 48 -104 112 -48" in lines
    assert "phi: 11 7 16 30 72" in lines
    assert "check lcs-product-consistency: PASS" in lines


def test_compute_json_schema(example_file, capsys):
    code, out, _ = run_cli(
        ["compute", "--input", example_file, "--degree", "5", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["kappa", "e", "U", "phi", "checks"]
    assert payload["kappa"] == ["6", "11", "7", "1"]
    assert payload["e"] == ["0", "4", "1"]
    assert payload["U"] == ["1", "-11", "48", "-104", "112", "-48"]
    assert payload["phi"] == ["11", "7", "16", "30", "72"]
    assert all(isinstance(x, str) for x in payload["U"])
    assert payload["checks"][0]["pass"] is True


def test_compute_deterministic_bytes(example_file, capsys):
    argv = ["compute", "--input", example_file, "--format", "json"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_compute_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.edges"
    path.write_text("")
    code, out, _ = run_cli(
        ["compute", "--input", str(path), "--degree", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] == ["0"]
    assert payload["U"] == ["1", "0", "0", "0"]
    assert payload["phi"] == ["0", "0", "0"]


def test_compute_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("1 2\n2 3\n1 3\n"))
    code, out, _ = run_cli(["compute", "--degree", "3"], capsys)
    assert code == 0
    assert "U: 1 -3 2 0" in out


def test_compute_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("a b\nc c\n")
    code, out, err = run_cli(["compute", "--input", str(path)], capsys)
    assert code == 2
    assert "line 2" in err


def test_compute_strict_duplicate_exit_2(tmp_path, capsys):
    path = tmp_path / "dup.edges"
    path.write_text("1 2\n1 2\n")
    code, _, err = run_cli(
        ["compute", "--input", str(path), "--strict"], capsys
    )
    assert code == 2
    assert "duplicate" in err
    code, _, _ = run_cli(["compute", "--input", str(path)], capsys)
    assert code == 0


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(["compute", "--input", "/nonexistent.edges"], capsys)
    assert code == 2
    assert "error" in err


def test_rejects_degree_zero(example_file, capsys):
    with pytest.raises(SystemExit):
        cli.main(["compute", "--input", example_file, "--degree", "0"])


@pytest.mark.parametrize(
    "command, flag",
    [(c, "--degree") for c in ("classify", "chromatic")]
    + [
        (c, f)
        for c in ("classify", "chromatic", "compute", "decompose")
        for f in ("--oracle-degree", "--max-dim")
    ],
)
def test_rejects_flag_the_command_does_not_read(example_file, command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--input", example_file, flag, "3"])
    assert exc.value.code == cli.EXIT_PARSE == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_usage_error_leaves_the_parser_as_it_was(k3_file, capsys):
    # one parser serves every call in a process
    assert cli.build_parser() is cli.build_parser()
    argv = ["chromatic", "--input", k3_file]
    first = run_cli(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--degree", "3"])
    assert exc.value.code == cli.EXIT_PARSE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert first[0] == 0
    assert run_cli(argv, capsys) == first


def test_undecodable_file_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.edges"
    path.write_bytes(b"a b\n\xff c\n")
    code, out, err = run_cli(["compute", "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify

def test_verify_k3(k3_file, capsys):
    code, out, _ = run_cli(
        ["verify", "--input", k3_file, "--oracle-degree", "4"], capsys
    )
    assert code == 0
    assert "result: PASS" in out
    # the per-degree table covers all requested degrees
    for k, val in ((1, 3), (2, 1), (3, 2), (4, 3)):
        assert any(
            line.startswith(str(k)) and f"{val}" in line
            for line in out.splitlines()
        )


def test_verify_json_schema(k3_file, capsys):
    code, out, _ = run_cli(
        ["verify", "--input", k3_file, "--format", "json", "--degree", "4"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["kappa", "e", "U", "phi", "phi_oracle", "checks"]
    assert payload["phi_oracle"] == ["3", "1", "2", "3"]
    names = [c["name"] for c in payload["checks"]]
    assert "phi-degree-1" in names
    assert any(n.startswith("mayer-vietoris-pivot-") for n in names)


def test_verify_splits_g_once(tmp_path, capsys, monkeypatch):
    # each split piece has fewer edges than g, so g's one block is the only
    # state of 12 letters; it is built once and found again at every pivot
    g = next(h for h in representatives(6) if h.n_edges == 12)
    path = tmp_path / "g.edges"
    path.write_text(glcs.to_edge_list(g))
    letters = []

    def counted(m, relators):
        letters.append(m)
        return glcs.holonomy._Cokernels(m, relators)

    bound = glcs.holonomy._state.cache_info().maxsize
    fresh = functools.lru_cache(maxsize=bound)(counted)
    monkeypatch.setattr(glcs.holonomy, "_state", fresh)
    code, out, _ = run_cli(["verify", "--input", str(path)], capsys)
    assert code == 0
    assert "mayer-vietoris" in out
    assert letters.count(12) == 1
    assert len(letters) > 1


def test_verify_feasibility_exit_4(tmp_path, capsys):
    # K9 at degree 4: 36 letters times dim A_3 = 11880 columns
    path = tmp_path / "k9.edges"
    edges = [
        f"{i} {j}" for i in range(9) for j in range(i + 1, 9)
    ]
    path.write_text("\n".join(edges) + "\n")
    code, _, err = run_cli(
        ["verify", "--input", str(path), "--oracle-degree", "4"], capsys
    )
    assert code == 4
    assert "width 427680 of degree 4" in err
    assert "cap 200000" in err
    assert "lower the degree or raise max_dim (--max-dim)" in err


@pytest.mark.parametrize("n_edges", [13, 14, 15])
def test_verify_dense_six_vertex_classes_pass(tmp_path, capsys, n_edges):
    # K6, K6 minus an edge and the two classes with 13 edges are well
    # within the width gate at degree 4
    graphs = [g for g in representatives(6) if g.n_edges == n_edges]
    assert len(graphs) == (2 if n_edges == 13 else 1)
    for g in graphs:
        path = tmp_path / "g.edges"
        path.write_text(glcs.to_edge_list(g))
        code, out, _ = run_cli(
            ["verify", "--input", str(path), "--oracle-degree", "4",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert len(checks) == 4 + 6
        assert all(c["pass"] for c in checks)


def test_verify_max_dim_flag(k3_file, capsys):
    code, _, err = run_cli(
        ["verify", "--input", k3_file, "--max-dim", "2"], capsys
    )
    assert code == 4
    assert "raise max_dim (--max-dim)" in err


@pytest.mark.parametrize("value", ["2", "abc", "-5"])
def test_verify_ignores_env_cap(k3_file, capsys, monkeypatch, value):
    # the cap is set by --max-dim alone; the environment changes nothing
    plain = run_cli(["verify", "--input", k3_file], capsys)
    monkeypatch.setenv("GLCS_MAX_DIM", value)
    assert run_cli(["verify", "--input", k3_file], capsys) == plain
    assert plain[0] == 0


def test_verify_mismatch_exit_5(k3_file, capsys, monkeypatch):
    # plumbing check: a disagreeing oracle must surface as exit code 5
    monkeypatch.setattr(cli, "phi_bruteforce", lambda g, d, **kw: (9, 9, 9, 9))
    code, out, _ = run_cli(["verify", "--input", k3_file], capsys)
    assert code == 5
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# classify

def test_classify_k4(tmp_path, capsys):
    path = tmp_path / "k4.edges"
    path.write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    code, out, _ = run_cli(["classify", "--input", str(path)], capsys)
    assert code == 0
    assert "chordal (supersolvable): yes" in out
    assert "decomposable: no" in out
    assert "witness (elimination-order):" in out


def test_classify_octahedron(tmp_path, capsys):
    edges = [
        f"{i} {j}" for i in range(6) for j in range(i + 1, 6) if j - i != 3
    ]
    path = tmp_path / "oct.edges"
    path.write_text("\n".join(edges) + "\n")
    code, out, _ = run_cli(["classify", "--input", str(path)], capsys)
    assert code == 0
    assert "chordal (supersolvable): no" in out
    assert "decomposable: yes" in out


def test_classify_example_neither(example_file, capsys):
    code, out, _ = run_cli(["classify", "--input", example_file], capsys)
    assert code == 0
    assert "chordal (supersolvable): no" in out
    assert "decomposable: no" in out


def test_classify_json(example_file, capsys):
    code, out, _ = run_cli(
        ["classify", "--input", example_file, "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chordal"] is False
    assert payload["supersolvable"] is False
    assert payload["decomposable"] is False
    assert payload["witness_kind"] == "chordless-cycle"
    # the first fault of the elimination check is at v4: its later
    # neighbour v1 is not adjacent to v3, the first one
    assert payload["witness"] == ["v4", "v3", "v2", "v1"]


def test_classify_witness_is_perfect_elimination_order(tmp_path, capsys):
    path = tmp_path / "g.edges"
    chordal_classes = 0
    for n in range(1, 7):
        for g in representatives(n):
            path.write_text(glcs.to_edge_list(g))
            code, out, _ = run_cli(
                ["classify", "--input", str(path), "--format", "json"], capsys
            )
            assert code == 0
            payload = json.loads(out)
            if not payload["chordal"]:
                continue
            chordal_classes += 1
            assert payload["witness_kind"] == "elimination-order"
            order = [int(label) for label in payload["witness"]]
            assert sorted(order) == list(g.vertices)
            # each vertex's neighbours later in the order form a clique
            for i, v in enumerate(order):
                later = [w for w in order[i + 1:] if g.has_edge(v, w)]
                for a, b in itertools.combinations(later, 2):
                    assert g.has_edge(a, b), (g.edges, order)
    assert chordal_classes == 1 + 2 + 4 + 10 + 27 + 94  # OEIS A048192


def test_classify_witness_is_induced_cycle(tmp_path, capsys):
    path = tmp_path / "g.edges"
    cycles = 0
    for n in range(1, 7):
        for g in representatives(n):
            path.write_text(glcs.to_edge_list(g))
            code, out, _ = run_cli(
                ["classify", "--input", str(path), "--format", "json"], capsys
            )
            assert code == 0
            payload = json.loads(out)
            if payload["chordal"]:
                continue
            cycles += 1
            assert payload["witness_kind"] == "chordless-cycle"
            cycle = [int(label) for label in payload["witness"]]
            k = len(cycle)
            assert k >= 4 and len(set(cycle)) == k
            # consecutive vertices, and only those, are adjacent
            for i, j in itertools.combinations(range(k), 2):
                consecutive = j - i in (1, k - 1)
                assert g.has_edge(cycle[i], cycle[j]) == consecutive, (g.edges, cycle)
    assert cycles == 70


# ---------------------------------------------------------------------------
# decompose

def test_decompose_pyramid(tmp_path, capsys):
    path = tmp_path / "pyramid.edges"
    path.write_text("v1 v2\nv2 v3\nv3 v4\nv4 v1\na v1\na v2\na v3\na v4\n")
    code, out, _ = run_cli(
        ["decompose", "--input", str(path), "--degree", "4"], capsys
    )
    assert code == 0
    assert "U: 1 -8 24 -32 16" in out  # (1-2t)^4 at the root
    assert "check glued-equals-direct: PASS" in out
    assert out.count("leaf[complete-graph] n=3") == 4


def test_decompose_example_root(example_file, capsys):
    code, out, _ = run_cli(
        ["decompose", "--input", example_file, "--degree", "4", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["U"] == ["1", "-11", "48", "-104", "112"]
    assert payload["U"] == payload["U_direct"]
    assert payload["tree"]["kind"] == "node"


def test_decompose_complete_single_leaf(k3_file, capsys):
    code, out, _ = run_cli(
        ["decompose", "--input", k3_file, "--degree", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tree"]["kind"] == "leaf"
    assert payload["tree"]["reason"] == "complete-graph"
    assert payload["U"] == ["1", "-3", "2", "0"]


def test_decompose_text_tree(example_file, capsys):
    code, out, _ = run_cli(
        ["decompose", "--input", example_file, "--degree", "3"], capsys
    )
    assert code == 0
    assert out == """\
graph: 6 vertices, 11 edges
node pivot=v3 n=6 m=11
  left: node pivot=v4 n=5 m=8
    left: leaf[complete-graph] n=4 m=6 U: 1 -6 11 -6
    right: leaf[complete-graph] n=3 m=3 U: 1 -3 2 0
    seam: leaf[complete-graph] n=2 m=1 U: 1 -1 0 0
  U: 1 -8 23 -28
  right: node pivot=v2 n=4 m=5
    left: leaf[complete-graph] n=3 m=3 U: 1 -3 2 0
    right: leaf[complete-graph] n=3 m=3 U: 1 -3 2 0
    seam: leaf[complete-graph] n=2 m=1 U: 1 -1 0 0
  U: 1 -5 8 -4
  seam: node pivot=v2 n=3 m=2
    left: leaf[complete-graph] n=2 m=1 U: 1 -1 0 0
    right: leaf[complete-graph] n=2 m=1 U: 1 -1 0 0
    seam: leaf[single-component-base] n=1 m=0 U: 1 0 0 0
  U: 1 -2 1 0
U: 1 -11 48 -104
U direct: 1 -11 48 -104
check glued-equals-direct: PASS
"""


def test_decompose_json_tree_matches_text(example_file, capsys):
    args = ["decompose", "--input", example_file, "--degree", "3"]
    _, text, _ = run_cli(args, capsys)
    _, out, _ = run_cli(args + ["--format", "json"], capsys)

    def walk(node, pivots, series):
        if node["kind"] == "node":
            pivots.append(node["pivot"])
            for part in ("left", "right", "seam"):
                walk(node[part], pivots, series)
        series.append(" ".join(node["U"]))

    pivots, series = [], []
    walk(json.loads(out)["tree"], pivots, series)
    tree_lines = text.splitlines()[1:-2]
    # text lists pivots before a node's pieces and each U after them
    assert pivots == [
        line.split("pivot=")[1].split()[0] for line in tree_lines if "pivot=" in line
    ]
    assert series == [line.split("U: ")[1] for line in tree_lines if "U: " in line]


def _env_with_package():
    """The environment with the imported glcs first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(glcs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_decompose_deep_path_within_recursion_limit(tmp_path):
    # a path splits off one end vertex at a time: a left chain of 998 nodes
    path = tmp_path / "path.edges"
    path.write_text("".join(f"p{i} p{i + 1}\n" for i in range(999)))
    script = (
        "import sys, glcs.cli\n"
        "sys.setrecursionlimit(150)\n"
        f"sys.exit(glcs.cli.main(['decompose', '--degree', '3', '--input', {str(path)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=_env_with_package(),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[0] == "graph: 1000 vertices, 999 edges"
    assert lines[-1] == "check glued-equals-direct: PASS"
    assert proc.stdout.count("node pivot=") == 998
    assert lines[-3] == "U: 1 -999 498501 -165668499"


def test_decompose_into_closed_pipe_is_quiet(tmp_path):
    # `glcs decompose --input g150.edges | head -1`: the reader leaves after
    # the first of about 0.5 MB of lines, far more than a pipe buffers
    rng = random.Random(150)
    pairs = list(itertools.combinations(range(150), 2))
    path = tmp_path / "g150.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in rng.sample(pairs, 450)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "glcs.cli", "decompose", "--input", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env_with_package(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert first == b"graph: 150 vertices, 450 edges\n"
    assert err == b""


def test_decompose_mismatch_exit_5(k3_file, capsys, monkeypatch):
    from glcs.series import one

    monkeypatch.setattr(
        cli, "expand_product", lambda e, order: one(order)
    )
    code, out, _ = run_cli(["decompose", "--input", k3_file], capsys)
    assert code == 5
    assert "check glued-equals-direct: FAIL" in out


# ---------------------------------------------------------------------------
# chromatic

def test_chromatic_k3(k3_file, capsys):
    code, out, _ = run_cli(["chromatic", "--input", k3_file], capsys)
    assert code == 0
    assert "chromatic polynomial: t^3 - 3*t^2 + 2*t" in out
    assert "chordal: yes" in out
    assert "check chordal-product-equals-chromatic: PASS" in out
    assert "check poincare-at-minus-t-equals-U: PASS" in out


def test_chromatic_square_skips_product(tmp_path, capsys):
    path = tmp_path / "c4.edges"
    path.write_text("1 2\n2 3\n3 4\n4 1\n")
    code, out, _ = run_cli(["chromatic", "--input", str(path)], capsys)
    assert code == 0
    assert "chordal: no" in out
    assert "chordal-product" not in out


def test_chromatic_cycle_30(tmp_path, capsys):
    # chi(C_30) = (t-1)^30 + (t-1), from deletion-contraction on 30 edges
    path = tmp_path / "c30.edges"
    path.write_text("".join(f"c{i} c{(i + 1) % 30}\n" for i in range(30)))
    code, out, _ = run_cli(
        ["chromatic", "--input", str(path), "--format", "json"], capsys
    )
    assert code == 0
    expected = [math.comb(30, k) * (-1) ** (30 - k) for k in range(31)]
    expected[0] -= 1
    expected[1] += 1
    payload = json.loads(out)
    assert payload["chromatic"] == [str(c) for c in expected]
    assert payload["chordal"] is False


def test_chromatic_perfect_matching_1000(tmp_path, capsys):
    # chi = t^1000 (t-1)^1000; each component recurses one edge deep, so
    # the 1000 edges in all never approach the recursion limit
    path = tmp_path / "matching.edges"
    path.write_text("".join(f"a{i} b{i}\n" for i in range(1000)))
    code, out, _ = run_cli(
        ["chromatic", "--input", str(path), "--format", "json"], capsys
    )
    assert code == 0
    expected = [0] * 1000 + [
        math.comb(1000, k) * (-1) ** (1000 - k) for k in range(1001)
    ]
    payload = json.loads(out)
    assert payload["chromatic"] == [str(c) for c in expected]


def test_chromatic_json(k3_file, capsys):
    code, out, _ = run_cli(
        ["chromatic", "--input", k3_file, "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "chromatic",
        "chordal",
        "chordal_product",
        "poincare",
        "checks",
    ]
    assert payload["chromatic"] == ["0", "2", "-3", "1"]
    assert payload["chordal"] is True
    assert payload["chordal_product"] == payload["chromatic"]
    assert payload["poincare"] == ["1", "3", "2"]


def test_chromatic_tree(tmp_path, capsys):
    path = tmp_path / "tree.edges"
    path.write_text("r a\nr b\nb c\n")
    code, out, _ = run_cli(
        ["chromatic", "--input", str(path), "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    # t(t-1)^3
    assert payload["chromatic"] == ["0", "-1", "3", "-3", "1"]
    assert all(c["pass"] for c in payload["checks"])


@pytest.mark.parametrize("edges", ["1 2\n2 3\n1 3\n", "1 2\n2 3\n3 4\n4 1\n"])
def test_chromatic_computes_chi_once(edges, tmp_path, capsys, monkeypatch):
    from glcs import formula

    calls = []
    original = formula.chromatic_polynomial

    def counting(g):
        calls.append(g)
        return original(g)

    # formula's own binding too, which poincare_polynomial would use
    monkeypatch.setattr(formula, "chromatic_polynomial", counting)
    monkeypatch.setattr(cli, "chromatic_polynomial", counting)
    path = tmp_path / "g.edges"
    path.write_text(edges)
    code, _, _ = run_cli(["chromatic", "--input", str(path)], capsys)
    assert code == 0
    assert len(calls) == 1


def test_chromatic_mismatch_exit_5(k3_file, capsys, monkeypatch):
    from glcs import IntPolynomial

    monkeypatch.setattr(
        cli, "chordal_chromatic", lambda kappa: IntPolynomial((1,))
    )
    code, out, _ = run_cli(["chromatic", "--input", k3_file], capsys)
    assert code == 5
    assert "check chordal-product-equals-chromatic: FAIL" in out


# ---------------------------------------------------------------------------
# JSON output

def test_json_chunks_lay_out_as_json_dumps():
    values = [
        {}, [], (), 0, -7, True, False, None, "plain", 'é "q"\n\t☃',
        {"a": [], "b": {}, "c": [[], {}, [[]]]},
        ("t", ["u", ("v",)]),
        {"kind": "node", "U": ["1", "-3"], "checks": [{"name": "x", "pass": True}],
         "chordal_product": None, "ü": {"": [1, [2, {"z": [None]}]]}},
    ]
    for value in values:
        assert "".join(cli._json_chunks(value)) == json.dumps(value, indent=2)


def test_json_chunks_have_no_depth_limit():
    def nested(depth):
        value = "x"
        for _ in range(depth):
            value = [value]
        return value

    def layout(depth):
        return "\n".join(
            ["  " * i + "[" for i in range(depth)] + ["  " * depth + '"x"']
            + ["  " * i + "]" for i in reversed(range(depth))]
        )

    assert layout(3) == json.dumps(nested(3), indent=2)
    depth = 5 * sys.getrecursionlimit()
    assert "".join(cli._json_chunks(nested(depth))) == layout(depth)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_json_output_is_json_dumps(example_file, capsys, command):
    args = [command, "--input", example_file, "--format", "json"]
    if command == "verify":
        args += ["--oracle-degree", "3"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_decompose_json_deeper_than_recursion_limit(tmp_path):
    # the tree nests one level per node of the path's left chain: 118 levels
    path = tmp_path / "path.edges"
    path.write_text("".join(f"p{i} p{i + 1}\n" for i in range(119)))
    script = (
        "import sys, glcs.cli\n"
        "sys.setrecursionlimit(100)\n"
        "sys.exit(glcs.cli.main(['decompose', '--degree', '3', '--format', "
        f"'json', '--input', {str(path)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=_env_with_package(),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(payload, indent=2) + "\n"
    depth, node = 0, payload["tree"]
    while node["kind"] == "node":
        depth, node = depth + 1, node["left"]
    assert depth == 118
    assert payload["checks"] == [{"name": "glued-equals-direct", "pass": True}]


# ---------------------------------------------------------------------------
# entry point

def _console_script(name, bin_dir):
    """Write the launcher pip would generate for ``[project.scripts] name``."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    script.chmod(0o755)


def test_console_script_installed(example_file, tmp_path):
    _console_script("glcs", tmp_path / "bin")
    env = dict(os.environ)
    for var, first in [
        ("PATH", tmp_path / "bin"),
        ("PYTHONPATH", Path(glcs.__file__).resolve().parents[1]),
    ]:
        env[var] = os.pathsep.join(filter(None, [str(first), env.get(var)]))

    def run(*argv):
        return subprocess.run(
            ["glcs", *argv], capture_output=True, text=True, env=env, cwd=tmp_path
        )

    proc = run("compute", "--input", example_file, "--degree", "3")
    assert proc.returncode == 0
    assert "kappa: 6 11 7 1" in proc.stdout

    proc = run("compute", "--input", str(tmp_path / "missing.edges"))
    assert proc.returncode == cli.EXIT_PARSE == 2
    assert "error" in proc.stderr
