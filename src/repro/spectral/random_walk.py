"""Lazy random walks and mixing times (Section 2, "Mixing Time").

The paper's routing lemma (Lemma 2.4) rides on the fact that a lazy
random walk on a phi-expander mixes in O(phi^-2 log n) steps.  This
module provides the spectral estimate of that mixing time which sizes
the gather phase's walks.
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError:  # pragma: no cover - the no-NumPy CI leg
    np = None

from ..graph import Graph


def mixing_time_bound(graph: Graph) -> float:
    """Spectral upper estimate O(log|V| / Phi^2) via the Cheeger bound.

    Uses ``tau <= 2 log(n / pi_min) / gap`` with ``gap`` the spectral
    gap of the lazy walk (= lambda_2(normalized Laplacian) / 2).
    """
    from .conductance import spectral_gap

    if graph.n < 2:
        return 0.0
    gap = spectral_gap(graph) / 2.0
    if gap <= 0:
        return float("inf")
    pi_min = graph.min_degree() / (2.0 * graph.m) if graph.m else 1.0
    return float(2.0 * np.log(graph.n / max(pi_min, 1e-12)) / gap)

