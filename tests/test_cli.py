"""Command-line behavior: schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glcs
from glcs import cli

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


def test_verify_feasibility_exit_4(tmp_path, capsys):
    path = tmp_path / "k6.edges"
    edges = [
        f"{i} {j}" for i in range(6) for j in range(i + 1, 6)
    ]
    path.write_text("\n".join(edges) + "\n")
    code, _, err = run_cli(
        ["verify", "--input", str(path), "--oracle-degree", "4"], capsys
    )
    assert code == 4
    assert "lower the degree" in err


def test_verify_max_dim_flag(k3_file, capsys):
    code, _, err = run_cli(
        ["verify", "--input", k3_file, "--max-dim", "2"], capsys
    )
    assert code == 4
    assert "GLCS_MAX_DIM" in err


def test_verify_env_cap(k3_file, capsys, monkeypatch):
    monkeypatch.setenv("GLCS_MAX_DIM", "2")
    code, _, _ = run_cli(["verify", "--input", k3_file], capsys)
    assert code == 4


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
    assert payload["witness"] == ["v1", "v2", "v3", "v4"]


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
