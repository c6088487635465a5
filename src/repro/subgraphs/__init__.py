"""Subgraph finding (extension).

The first application of distributed expander decompositions was
triangle listing (Chang-Pettie-Saranurak-Zhang, discussed in the
paper's Section 1.4).  This package reproduces that lineage in the
sparse-network setting: exact centralized triangle listing via
degeneracy orientation, and a distributed listing algorithm that uses
the Theorem 2.6 framework for intra-cluster triangles and a direct
neighbor-list exchange across the few inter-cluster edges.
"""

from .triangles import distributed_triangle_listing, list_triangles

__all__ = [
    "distributed_triangle_listing",
    "list_triangles",
]
