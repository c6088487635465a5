"""Planar graph generators.

Planar graphs are the paper's flagship graph class (Theorem 3.2 and the
planarity property tester of Theorem 1.4 are stated for them).  We
provide deterministic planar families (grids, triangulated grids) and
random ones (Delaunay triangulations of random points, edge-subsampled
triangulations, maximal outerplanar graphs).  All outputs are planar by
construction; the test suite re-checks them with both our own Left-Right
planarity test and networkx.
"""

from __future__ import annotations

from ..errors import GraphError
from ..graph import Graph
from ..rng import NumpySeedLike, SeedLike, ensure_numpy_rng, ensure_rng
from .classic import grid_graph


def _delaunay_class():
    """``scipy.spatial.Delaunay``, or ``None`` where scipy is missing.

    Imported on first use rather than with the package: ``scipy.spatial``
    costs about half a second, which every ``import repro`` (CLI start,
    spawned worker, chaos subprocess) would otherwise pay.
    """
    try:
        from scipy.spatial import Delaunay
    except ImportError:  # pragma: no cover - the no-NumPy/SciPy CI leg
        return None
    return Delaunay


def __getattr__(name: str):
    # ``planar.Delaunay`` stays available as an availability probe
    # (``None`` without scipy) without importing scipy up front.
    if name == "Delaunay":
        return _delaunay_class()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def triangulated_grid_graph(rows: int, cols: int) -> Graph:
    """A grid with one diagonal per cell — a planar near-triangulation.

    Denser than the plain grid (average degree approaching 6), which
    makes it a stronger instance for the decomposition experiments.
    """
    g = grid_graph(rows, cols)
    for r in range(rows - 1):
        for c in range(cols - 1):
            v = r * cols + c
            g.add_edge(v, v + cols + 1)
    return g


def delaunay_planar_graph(n: int, seed: NumpySeedLike = None) -> Graph:
    """Delaunay triangulation of ``n`` uniformly random points.

    Delaunay triangulations are the standard "random planar network"
    model (road networks, sensor networks); they are planar and nearly
    maximal (|E| close to 3n - 6).
    """
    if n < 3:
        raise GraphError("a Delaunay triangulation needs at least 3 points")
    Delaunay = _delaunay_class()
    if Delaunay is None:
        raise GraphError(
            "delaunay_planar_graph requires numpy and scipy; use a "
            "deterministic planar family (grid_graph, "
            "triangulated_grid_graph) instead"
        )
    rng = ensure_numpy_rng(seed)
    points = rng.random((n, 2))
    tri = Delaunay(points)
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for simplex in tri.simplices:
        a, b, c = (int(x) for x in simplex)
        g.add_edge(a, b)
        g.add_edge(b, c)
        g.add_edge(a, c)
    return g


def random_planar_graph(
    n: int, edge_fraction: float = 0.7, seed: SeedLike = None
) -> Graph:
    """A random planar graph: a Delaunay triangulation with edges subsampled.

    ``edge_fraction`` of the triangulation's edges are kept (a spanning
    tree is always kept first so the result stays connected).
    """
    if not 0.0 <= edge_fraction <= 1.0:
        raise GraphError("edge_fraction must lie in [0, 1]")
    rng = ensure_rng(seed)
    base = delaunay_planar_graph(n, seed=rng.getrandbits(64))
    edges = base.edges()
    rng.shuffle(edges)

    # Kruskal-style spanning forest to preserve connectivity.
    parent = {v: v for v in base.vertices()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    keep = []
    extra = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            keep.append((u, v))
        else:
            extra.append((u, v))

    budget = max(0, int(round(edge_fraction * len(edges))) - len(keep))
    keep.extend(extra[:budget])

    g = Graph()
    for v in base.vertices():
        g.add_vertex(v)
    for u, v in keep:
        g.add_edge(u, v)
    return g


def maximal_outerplanar_graph(n: int, seed: SeedLike = None) -> Graph:
    """A random maximal outerplanar graph (triangulated convex polygon).

    Built by recursively triangulating the polygon ``0..n-1`` with
    random diagonals.  Outerplanar graphs are K_4-minor-free and
    K_{2,3}-minor-free, making them the smallest non-trivial
    minor-closed class the property tester handles.
    """
    if n < 3:
        raise GraphError("an outerplanar triangulation needs >= 3 vertices")
    rng = ensure_rng(seed)
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for v in range(n):
        g.add_edge(v, (v + 1) % n)

    def triangulate(lo: int, hi: int) -> None:
        # Triangulate the polygon chord (lo, hi) over vertices lo..hi.
        if hi - lo < 2:
            return
        mid = rng.randrange(lo + 1, hi)
        if not g.has_edge(lo, mid):
            g.add_edge(lo, mid)
        if not g.has_edge(mid, hi):
            g.add_edge(mid, hi)
        triangulate(lo, mid)
        triangulate(mid, hi)

    triangulate(0, n - 1)
    return g
