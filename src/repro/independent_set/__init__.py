"""Maximum independent set (Theorem 1.2 / Section 3.1).

Exact branch-and-bound MAXIS (the leaders' local solver and the
experiment oracle), the min-degree greedy that witnesses
alpha(G) >= n/(2d+1) on density-d graphs (the Section 3.1 linearity
argument), Luby's distributed MIS as the classic CONGEST baseline, and
the framework-based (1 - epsilon)-approximation.
"""

from .exact import exact_maxis, solve_maxis, two_improvement_is
from .greedy import LubyMIS, greedy_min_degree_is, luby_mis
from .distributed import DistributedISResult, distributed_maxis

__all__ = [
    "exact_maxis",
    "solve_maxis",
    "two_improvement_is",
    "greedy_min_degree_is",
    "LubyMIS",
    "luby_mis",
    "DistributedISResult",
    "distributed_maxis",
]
