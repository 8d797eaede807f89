"""Exact lower-central-series ranks for graphic arrangement complements.

The clique vector of a graph determines the ranks in closed form; this
package computes that formula exactly and cross-checks it three independent
ways: a brute-force holonomy Lie algebra computation through its enveloping
algebra, a gluing calculus along vertex splits, and chromatic-polynomial
specializations.  All arithmetic is exact integer arithmetic.
"""

from . import errors, formula, graphs, holonomy, series
from .errors import *
from .graphs import *
from .series import *
from .formula import *
from .holonomy import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *graphs.__all__,
    *series.__all__,
    *formula.__all__,
    *holonomy.__all__,
]
