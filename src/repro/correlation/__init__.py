"""Agreement-maximization correlation clustering (Theorem 1.3 / §3.3).

Edges carry +/- labels; the goal is a vertex partition maximizing
intra-cluster positive edges plus inter-cluster negative edges.
Provided: the agreement score, exact optimum for small graphs, a
local-search solver for cluster-sized graphs, the trivial baselines
behind the gamma(G) >= |E|/2 bound, and the framework-based
(1 - epsilon)-approximation.
"""

from .scoring import agreement_score, best_trivial_clustering
from .exact import exact_correlation
from .local_search import local_search_correlation, solve_correlation
from .distributed import (
    DistributedClusteringResult,
    distributed_correlation_clustering,
)

__all__ = [
    "agreement_score",
    "best_trivial_clustering",
    "exact_correlation",
    "local_search_correlation",
    "solve_correlation",
    "DistributedClusteringResult",
    "distributed_correlation_clustering",
]
