"""The public names of glcs: each is defined once and re-exported as is.

The package re-exports each module's __all__ with a star import, so the
lists must be disjoint (a later module would silently shadow a name of an
earlier one) and together they must give exactly the pinned list below.
"""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import glcs
from glcs import errors, formula, graphs, holonomy, series

MODULES = (errors, graphs, series, formula, holonomy)

PUBLIC = [
    "DEFAULT_MAX_DIM",
    "DecompositionTree",
    "FeasibilityError",
    "Flat2",
    "GlcsError",
    "GradedDims",
    "Graph",
    "HolonomyPresentation",
    "IntPolynomial",
    "IntegralityError",
    "KernelGenerationReport",
    "Leaf",
    "MayerVietorisReport",
    "MismatchError",
    "Node",
    "NotDecomposableError",
    "ParseError",
    "TruncatedSeries",
    "__version__",
    "braid_series",
    "chordal_chromatic",
    "chromatic_polynomial",
    "clique_vector",
    "complete_graph",
    "decomposable_series",
    "decompose",
    "expand_lcs_product",
    "expand_product",
    "glue_series",
    "graded_dims",
    "graph_from_edges",
    "graphic_exponents",
    "is_chordal",
    "is_triangle_complete",
    "linear_factor",
    "moebius",
    "one",
    "parse_graph",
    "phi_bruteforce",
    "phi_from_exponents",
    "poincare_polynomial",
    "presentation",
    "rank2_flats",
    "ranks_from_power_sums",
    "series_via_decomposition",
    "split_at_vertex",
    "to_edge_list",
    "tree_leaves",
    "verify_kernel_generation",
    "verify_mayer_vietoris",
    "witt_dimension",
]


def test_all_is_the_pinned_list_without_duplicates():
    assert len(glcs.__all__) == len(set(glcs.__all__))
    assert sorted(glcs.__all__) == PUBLIC


def test_each_name_is_the_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(glcs, name) is getattr(module, name), name


def test_module_lists_are_pairwise_disjoint():
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_star_import_binds_exactly_the_public_names():
    script = (
        "import json\n"
        "before = set(globals())\n"
        "from glcs import *\n"
        "print(json.dumps(sorted(set(globals()) - before - {'before'})))\n"
    )
    env = dict(os.environ)
    src = str(Path(glcs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == PUBLIC


def test_readme_quick_start_prints_its_comments():
    # the Quick start block of README.md runs as written, and each print
    # gives the text of the comment beside it
    root = Path(glcs.__file__).resolve().parents[2]
    readme = (root / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    comments = [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert comments == [
        "1 - 4*t + 5*t^2 - 2*t^3 + O(t^7)",
        "(4, 1, 2, 3, 6, 9)",
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == comments
