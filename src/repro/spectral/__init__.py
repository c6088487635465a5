"""Spectral and combinatorial expansion toolkit.

Everything in Section 2 of the paper that is about *measuring*
expansion lives here: conductance (exact and spectrally certified),
the mixing-time bound of lazy random walks, sweep cuts, and the
balanced edge separators of Theorem 1.6.
"""

from .conductance import (
    cheeger_bounds,
    conductance_lower_bound,
    exact_conductance,
    fiedler_vector,
    normalized_laplacian,
    spectral_gap,
    sweep_cut,
)
from .random_walk import mixing_time_bound
from .separators import balanced_edge_separator, separator_quality

__all__ = [
    "cheeger_bounds",
    "conductance_lower_bound",
    "exact_conductance",
    "fiedler_vector",
    "normalized_laplacian",
    "spectral_gap",
    "sweep_cut",
    "mixing_time_bound",
    "balanced_edge_separator",
    "separator_quality",
]
