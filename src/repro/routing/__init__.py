"""Distributed routing inside expander clusters (Section 2.2).

Everything here runs genuinely message-by-message on the CONGEST
simulator: max-degree leader election, Barenboim-Elkin peeling
orientation, the Lemma 2.4 random-walk information gathering (with the
Section 2.3 reverse-routing failure detection), and a BFS-tree
gather/broadcast baseline used for comparison in experiment E3.
"""

from .leader import MaxDegreeLeaderElection, elect_leader
from .orientation import PeelingOrientation, orient_low_out_degree
from .walk_exchange import (
    ExchangeResult,
    WalkExchange,
    default_walk_steps,
    walk_exchange,
)
from .gather import GatherResult, gather_topology
from .tree import TreeExchange, tree_exchange

__all__ = [
    "MaxDegreeLeaderElection",
    "elect_leader",
    "PeelingOrientation",
    "orient_low_out_degree",
    "ExchangeResult",
    "WalkExchange",
    "default_walk_steps",
    "walk_exchange",
    "GatherResult",
    "gather_topology",
    "TreeExchange",
    "tree_exchange",
]
