"""Exact lower-central-series ranks for graphic arrangement complements.

The clique vector of a graph determines the ranks in closed form; this
package computes that formula exactly and cross-checks it three independent
ways: a brute-force holonomy Lie algebra computation through its enveloping
algebra, a gluing calculus along vertex splits, and chromatic-polynomial
specializations.  All arithmetic is exact integer arithmetic.
"""

from .errors import (
    FeasibilityError,
    GlcsError,
    IntegralityError,
    MismatchError,
    NotDecomposableError,
    ParseError,
)
from .formula import (
    Flat2,
    IntPolynomial,
    braid_series,
    chordal_chromatic,
    chromatic_polynomial,
    decomposable_series,
    glue_series,
    graphic_exponents,
    poincare_polynomial,
    rank2_flats,
    series_via_decomposition,
)
from .graphs import (
    DecompositionTree,
    Graph,
    Leaf,
    Node,
    clique_vector,
    complete_graph,
    decompose,
    graph_from_edges,
    is_chordal,
    is_triangle_complete,
    parse_graph,
    split_at_vertex,
    to_edge_list,
    tree_leaves,
)
from .holonomy import (
    GradedDims,
    HolonomyPresentation,
    KernelGenerationReport,
    MayerVietorisReport,
    graded_dims,
    phi_bruteforce,
    presentation,
    verify_kernel_generation,
    verify_mayer_vietoris,
    witt_dimension,
)
from .series import (
    TruncatedSeries,
    expand_lcs_product,
    expand_product,
    linear_factor,
    moebius,
    one,
    phi_from_exponents,
    ranks_from_power_sums,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GlcsError",
    "ParseError",
    "IntegralityError",
    "FeasibilityError",
    "NotDecomposableError",
    "MismatchError",
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
    "TruncatedSeries",
    "one",
    "linear_factor",
    "expand_product",
    "expand_lcs_product",
    "phi_from_exponents",
    "ranks_from_power_sums",
    "moebius",
    "IntPolynomial",
    "Flat2",
    "graphic_exponents",
    "braid_series",
    "rank2_flats",
    "decomposable_series",
    "chromatic_polynomial",
    "chordal_chromatic",
    "glue_series",
    "series_via_decomposition",
    "poincare_polynomial",
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
]
