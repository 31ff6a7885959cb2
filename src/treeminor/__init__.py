"""Exact arithmetic for tree-distance matrices: minor and Pfaffian formulas,
four-point-condition machinery, and dissimilarity-map representations.

Everything is computed over rationals (or square-root extensions and
truncated series where the pipelines need them); no floating point touches
a finite result.  The one float is metric.MINUS_INF, float("-inf"), which
stands for an absent value: it appears in valuations, map values and
violations, until an exact sentinel replaces it (ROADMAP item 3).
"""

from .poly import ExactPoly, PolyMatrix, det, pfaffian
from .tree import Tree, TreeFormatError, edge_key, random_tree
from .minors import minor_formula, minor_leading, minor_oracle
from .pfaffian import NotNicelyOrderedError, pf_formula, pf_oracle
from .metric import (
    check_4pc,
    hpp_eigen_check,
    inertia,
    realize_tree,
    star_condition_check,
)
from .matroid import (
    ValuatedFn,
    check_delta_matroid,
    check_valuated_matroid,
    k_dissimilarity,
    odd_dissimilarity,
    represent_odd,
    rooted_k_dissimilarity,
    verify_rooted_representation,
)
from .tropic import PrecisionError, PuiseuxTrunc, cholesky
from .radicals import QRad

__version__ = "0.1.0"

__all__ = [
    "ExactPoly",
    "NotNicelyOrderedError",
    "PolyMatrix",
    "PrecisionError",
    "PuiseuxTrunc",
    "QRad",
    "Tree",
    "TreeFormatError",
    "ValuatedFn",
    "check_4pc",
    "check_delta_matroid",
    "check_valuated_matroid",
    "cholesky",
    "det",
    "edge_key",
    "hpp_eigen_check",
    "inertia",
    "k_dissimilarity",
    "minor_formula",
    "minor_leading",
    "minor_oracle",
    "odd_dissimilarity",
    "pf_formula",
    "pf_oracle",
    "pfaffian",
    "random_tree",
    "realize_tree",
    "represent_odd",
    "rooted_k_dissimilarity",
    "star_condition_check",
    "verify_rooted_representation",
]
