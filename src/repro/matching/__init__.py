"""Matching algorithms (Theorems 1.1 and 3.2).

Exact solvers (run at cluster leaders and used as experiment oracles):
a from-scratch blossom algorithm for maximum cardinality matching and a
from-scratch primal-dual weighted blossom for maximum weight matching.
Approximate/distributed: the Section 3.2 planar MCM pipeline (star
elimination + framework), the Theorem 1.1 H-minor-free MWM algorithm,
and greedy baselines.
"""

from .blossom import max_cardinality_matching
from .weighted import max_weight_matching
from .greedy import greedy_weight_matching, maximal_matching
from .preprocess import eliminate_stars
from .util import is_matching, matching_weight
from .distributed import (
    DistributedMatchingResult,
    ProposalMatching,
    distributed_maximal_matching,
    distributed_mcm_planar,
    distributed_mwm,
)

__all__ = [
    "max_cardinality_matching",
    "max_weight_matching",
    "greedy_weight_matching",
    "maximal_matching",
    "eliminate_stars",
    "is_matching",
    "matching_weight",
    "DistributedMatchingResult",
    "ProposalMatching",
    "distributed_maximal_matching",
    "distributed_mcm_planar",
    "distributed_mwm",
]
