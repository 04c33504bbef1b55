"""Exact computation of Tutte-type invariants for integer polymatroids.

The package computes the two-variable Tutte polynomial of a polymatroid by
two independent routes (basis-activity enumeration and a slice
deletion-contraction recursion), its one-variable interior and exterior
specializations, hypergraph rank functions and hypertrees, closed-form
coefficient identities, monotonicity comparators, and a connectivity
profile characterized by exterior coefficients.  All arithmetic is exact.
"""

from .bipoly import BiPoly, X, X_PLUS_Y_MINUS_1, Y
from .core import (
    Polymatroid,
    RankTable,
    enumerate_bases,
    enumerate_small_polymatroids,
    rank_from_bases,
    slice_rank,
)
from .activity import (
    direct_polynomials,
    exterior_direct,
    interior_direct,
    tight_sets,
    tutte_direct,
)
from .recursion import (
    classical_tutte,
    dc_polynomials,
    exterior_dc,
    interior_dc,
    matroid_form,
    tutte_dc,
    tutte_to_matroid_form,
    uniform_matroid,
)
from .hypergraph import (
    Hypergraph,
    connectivity_profile,
    count_four_cycles,
    hypergraph_rank,
    hypertree_polymatroid,
)
from .formulas import (
    binomial,
    coefficient_report,
    coefficientwise_le,
    full_rank_prefix,
    near_top_coefficient,
    near_top_univariate,
    search_by_tutte,
    second_band_coefficient,
    second_band_univariate,
    top_coefficient,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "Hypergraph",
    "Polymatroid",
    "RankTable",
    "X",
    "X_PLUS_Y_MINUS_1",
    "Y",
    "binomial",
    "classical_tutte",
    "coefficient_report",
    "coefficientwise_le",
    "connectivity_profile",
    "count_four_cycles",
    "dc_polynomials",
    "direct_polynomials",
    "enumerate_bases",
    "enumerate_small_polymatroids",
    "exterior_dc",
    "exterior_direct",
    "full_rank_prefix",
    "hypergraph_rank",
    "hypertree_polymatroid",
    "interior_dc",
    "interior_direct",
    "matroid_form",
    "near_top_coefficient",
    "near_top_univariate",
    "rank_from_bases",
    "search_by_tutte",
    "second_band_coefficient",
    "second_band_univariate",
    "slice_rank",
    "tight_sets",
    "top_coefficient",
    "tutte_dc",
    "tutte_direct",
    "tutte_to_matroid_form",
    "uniform_matroid",
]
