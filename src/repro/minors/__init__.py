"""Minor-related machinery.

The paper's framework is parameterized by an excluded minor H.  This
package supplies the pieces needed to *work with* that parameterization
in code: a from-scratch Left-Right planarity test (planar = K_5-free and
K_{3,3}-minor-free), exact checkers for the small minor-closed classes
the experiments use, and the degeneracy/edge-density tools behind the
paper's "H-minor-free graphs have O(1) edge density" arguments
(Section 2.2).
"""

from .planarity import is_planar
from .density import (
    degeneracy,
    degeneracy_ordering,
    greedy_orientation,
    is_forest,
    is_outerplanar,
    is_series_parallel,
)

__all__ = [
    "is_planar",
    "degeneracy",
    "degeneracy_ordering",
    "greedy_orientation",
    "is_forest",
    "is_outerplanar",
    "is_series_parallel",
]
