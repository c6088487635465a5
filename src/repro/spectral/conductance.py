"""Conductance: exact computation, spectral certificates, sweep cuts.

The expander decomposition needs two directions of evidence about a
cluster G_i:

* an *upper bound* witness — a concrete low-conductance cut, found by a
  sweep over the Fiedler vector, telling the decomposition where to
  split; and
* a *lower bound* certificate — Cheeger's inequality
  ``Phi(G) >= lambda_2 / 2`` on the normalized Laplacian, proving that
  a finished cluster really is a phi-expander.

Exact conductance (brute force over all cuts) is provided for small
graphs and is what the test suite pins both bounds against.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Optional, Set, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - the no-NumPy CI leg
    np = None

from ..errors import GraphError, SolverError
from ..graph import Graph, canonical_vertex_order
from ..obs import registry as _telemetry

#: Largest vertex count for which exact (2^n) conductance is allowed.
EXACT_CONDUCTANCE_LIMIT = 20

#: Eigenvalues within this distance of lambda_2 count as lambda_2: the
#: Fiedler vector is chosen from that whole (possibly repeated) eigenspace.
_EIGENSPACE_TOL = 1e-8

#: Vertex count from which the bottom of the spectrum comes from a sparse
#: shift-invert Lanczos solve instead of a dense eigendecomposition (the
#: measured crossover on Delaunay, 3-tree and grid clusters).
_SPARSE_MIN_N = 128

#: Shift for the sparse solve: just below the spectrum, whose smallest
#: eigenvalue is 0, so L - sigma * I stays positive definite.
_SHIFT = -1e-3

#: Sweep embeddings are rounded to this fraction of their largest
#: magnitude before ranking, so solver round-off cannot reorder ties.
_SWEEP_QUANTUM = 1e-9


def _canonical_ranks(order: List) -> np.ndarray:
    """Rank of each vertex of ``order`` in :func:`canonical_vertex_order`."""
    rank = {v: i for i, v in enumerate(canonical_vertex_order(order))}
    return np.fromiter((rank[v] for v in order), dtype=np.int64, count=len(order))


def _probe(ranks: np.ndarray) -> np.ndarray:
    """Fixed pseudo-random entries in [-1/2, 1/2), one per canonical rank.

    The splitmix64 finalizer in exact integer arithmetic, so the probe
    is the same on every platform and for every insertion order.
    """
    z = (ranks.astype(np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(float) * 2.0**-53 - 0.5


def _sparse_laplacian(graph: Graph, order: List):
    """The normalized Laplacian in CSR form, built from the adjacency rows."""
    from scipy.sparse import csr_matrix, diags

    adj = graph._adj
    n = len(order)
    index = {v: i for i, v in enumerate(order)}
    deg = np.array([len(adj[v]) for v in order], dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.fromiter(
        (index[u] for v in order for u in adj[v]), dtype=np.int64, count=indptr[-1]
    )
    d_inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1)), 0.0)
    data = -np.repeat(d_inv_sqrt, deg) * d_inv_sqrt[indices]
    off = csr_matrix((data, indices, indptr), shape=(n, n))
    return off + diags((deg > 0).astype(float), format="csr")


def _sparse_bottom(graph: Graph, order: List, probe: np.ndarray):
    """Smallest eigenpairs by shift-invert Lanczos, or None.

    Doubles the number of requested pairs until the largest one clears
    lambda_2 by more than :data:`_EIGENSPACE_TOL`, so every lambda_2
    vector the solve resolved is in hand.  Lanczos may resolve fewer
    copies of a repeated eigenvalue than its multiplicity, but started
    from ``probe`` its Krylov space holds the probe's projection onto
    each eigenspace, so projecting the probe onto the copies it did
    resolve gives the dense path's vector.  None means the caller must
    solve densely: ARPACK did not converge, or the eigenspace reaches
    the top of what a Lanczos solve may request.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    lap = _sparse_laplacian(graph, order)
    k = 3
    try:
        while k < graph.n:
            values, vectors = eigsh(
                lap, k=k, sigma=_SHIFT, which="LM", v0=probe, tol=1e-12
            )
            ascending = np.argsort(values)
            values, vectors = values[ascending], vectors[:, ascending]
            if values[-1] - values[1] > _EIGENSPACE_TOL:
                return values, vectors
            k *= 2
    except ArpackNoConvergence:
        pass
    _telemetry.count("spectral.eigen.fallbacks")
    return None


def _canonical_fiedler(graph: Graph, order: List) -> Tuple[float, np.ndarray]:
    """``(lambda_2, Fiedler vector)`` that depend only on the graph.

    The vector is the unit-norm projection of a fixed probe onto the
    lambda_2 eigenspace (every eigenvector within
    :data:`_EIGENSPACE_TOL` of lambda_2): independent of the solver, of
    the basis it returned for a repeated eigenvalue, of the BLAS thread
    count and of the vertex insertion order.  The probe also fixes the
    sign.  Large graphs are solved sparsely (dense when that fails),
    small ones densely; rows are in ``order``.
    """
    if np is None:
        raise SolverError("spectral routines require numpy")
    if graph.n < 2:
        raise GraphError("spectral gap needs at least two vertices")
    probe = _probe(_canonical_ranks(order))
    bottom = None
    if graph.n >= _SPARSE_MIN_N:
        bottom = _sparse_bottom(graph, order, probe)
    if bottom is None:
        _telemetry.count("spectral.eigen.dense")
        values, vectors = np.linalg.eigh(normalized_laplacian(graph, order))
    else:
        _telemetry.count("spectral.eigen.sparse")
        values, vectors = bottom
    # When lambda_2 = 0 this also takes in lambda_1's constant-embedding
    # vector, which shifts a sweep's embedding without reordering it.
    basis = vectors[:, np.abs(values - values[1]) <= _EIGENSPACE_TOL]
    _telemetry.observe("spectral.eigenspace_dim", basis.shape[1])
    vector = basis @ (basis.T @ probe)
    return float(max(0.0, values[1])), vector / np.linalg.norm(vector)


def exact_conductance(graph: Graph) -> Tuple[float, Set]:
    """Brute-force Phi(G) and an optimal cut; exponential, small n only.

    Subsets are walked as adjacency bitmasks (cut size and volume come
    from ``int.bit_count`` instead of set algebra), which makes the
    2^n sweep cheap enough that the expander decomposition can afford
    exact certificates for every small cluster.  Enumeration order and
    tie-breaking match the original set-based implementation exactly.
    """
    if graph.n > EXACT_CONDUCTANCE_LIMIT:
        raise SolverError(
            f"exact conductance is limited to n <= {EXACT_CONDUCTANCE_LIMIT}"
        )
    if graph.n < 2:
        raise GraphError("conductance needs at least two vertices")
    vertices = graph.vertices()
    n = graph.n
    index = {v: i for i, v in enumerate(vertices)}
    degrees = [graph.degree(v) for v in vertices]
    adj_masks = []
    for v in vertices:
        mask = 0
        for u in graph.neighbors(v):
            mask |= 1 << index[u]
        adj_masks.append(mask)
    total_volume = 2 * graph.m
    full = (1 << n) - 1

    best = float("inf")
    best_mask = 0
    anchor_deg = degrees[0]
    anchor_adj = adj_masks[0]
    # It suffices to enumerate subsets containing vertices[0] (cut
    # symmetry) of size 1..n-1.
    rest = list(range(1, n))
    for r in range(len(rest) + 1):
        if r + 1 == n:
            continue
        for combo in combinations(rest, r):
            mask = 1
            vol_s = anchor_deg
            for i in combo:
                mask |= 1 << i
                vol_s += degrees[i]
            complement = full & ~mask
            other = min(vol_s, total_volume - vol_s)
            if other == 0:
                # A side with zero volume is a disconnection witness.
                phi = 0.0
            else:
                cut = (anchor_adj & complement).bit_count()
                for i in combo:
                    cut += (adj_masks[i] & complement).bit_count()
                phi = cut / other
            if phi < best:
                best = phi
                best_mask = mask
    best_cut = {vertices[i] for i in range(n) if best_mask >> i & 1}
    return best, best_cut


def normalized_laplacian(graph: Graph, order: Optional[List] = None) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2}; isolated vertices get L[i, i] = 0."""
    if np is None:
        raise SolverError("spectral routines require numpy")
    if order is None:
        order = graph.vertices()
    a = graph.adjacency_matrix(order)
    deg = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        d_inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    lap = -a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
    np.fill_diagonal(lap, np.where(deg > 0, 1.0, 0.0))
    return lap


def spectral_gap(graph: Graph) -> float:
    """lambda_2 of the normalized Laplacian (0 iff disconnected)."""
    return lambda2_and_fiedler(graph)[0]


def fiedler_vector(graph: Graph, order: Optional[List] = None) -> np.ndarray:
    """Canonical unit eigenvector of the normalized Laplacian for lambda_2."""
    if order is None:
        order = graph.vertices()
    return _canonical_fiedler(graph, order)[1]


def lambda2_and_fiedler(graph: Graph) -> Tuple[float, np.ndarray]:
    """``(lambda_2, Fiedler vector)`` from a single eigensolve.

    The expander decomposition needs both the Cheeger certificate
    (``lambda_2 / 2``) and — when the certificate fails — the Fiedler
    vector to sweep along.  Both come from the same normalized
    Laplacian, so solving once halves the dominant eigensolver cost of
    the decomposition.  The vector is in ``graph.vertices()`` order,
    matching what :func:`sweep_cut` expects via its ``vector`` argument.
    """
    return _canonical_fiedler(graph, graph.vertices())


def cheeger_bounds(graph: Graph) -> Tuple[float, float]:
    """(lambda_2 / 2, sqrt(2 * lambda_2)): Cheeger's sandwich on Phi(G)."""
    gap = spectral_gap(graph)
    return gap / 2.0, float(np.sqrt(2.0 * gap))


def conductance_lower_bound(graph: Graph) -> float:
    """Certified lower bound on Phi(G): lambda_2 / 2.

    This is the certificate attached to every cluster the expander
    decomposition emits.
    """
    if graph.n < 2:
        # A single vertex is vacuously a perfect expander.
        return 1.0
    return cheeger_bounds(graph)[0]


def sweep_cut(
    graph: Graph,
    vector: Optional[np.ndarray] = None,
    balanced: bool = False,
    rng=None,
    slack: float = 1.0,
) -> Tuple[float, Set]:
    """Best prefix cut of a vertex ordering by the (scaled) Fiedler vector.

    Sorts vertices by ``D^{-1/2} v`` (the degree-normalized Fiedler
    embedding, rounded to a tolerance, ties by canonical vertex rank)
    and evaluates the conductance of every prefix, returning the
    minimum.  Cheeger's proof guarantees the result is at most
    ``sqrt(2 * lambda_2)``, i.e. within a quadratic factor of optimal.

    With ``balanced=True``, only prefixes whose sides both contain at
    least |V|/3 vertices are considered — the variant used to build
    edge separators (Theorem 1.6).

    With ``rng`` set and ``slack > 1``, return a uniformly random
    prefix among those with conductance at most ``slack`` times the
    best — the randomization hook iterated algorithms (distributed MWM)
    use to vary cluster boundaries between rounds while keeping the
    conductance guarantee within the slack factor.
    """
    if graph.n < 2:
        raise GraphError("sweep cut needs at least two vertices")
    order = graph.vertices()
    if vector is None:
        vector = fiedler_vector(graph, order)
    degrees = np.array([max(1, graph.degree(v)) for v in order], dtype=float)
    embedding = vector / np.sqrt(degrees)
    # Rank by the embedding rounded well above solver noise, ties by
    # canonical vertex rank, so equal entries never order arbitrarily.
    scale = float(np.max(np.abs(embedding))) * _SWEEP_QUANTUM or 1.0
    keys = (_canonical_ranks(order), np.rint(embedding / scale))
    ranked = [order[i] for i in np.lexsort(keys)]

    total_volume = 2 * graph.m
    prefix: Set = set()
    cut_edges = 0
    vol = 0
    candidates: List[Tuple[float, int]] = []  # (phi, prefix length)
    for i, v in enumerate(ranked[:-1]):
        # Incremental cut-size update: edges into the prefix flip from
        # cut to internal; edges out of the prefix become cut.
        for u in graph.neighbors(v):
            if u in prefix:
                cut_edges -= 1
            else:
                cut_edges += 1
        prefix.add(v)
        vol += graph.degree(v)
        size = i + 1
        if balanced and not (
            size * 3 >= graph.n and (graph.n - size) * 3 >= graph.n
        ):
            continue
        denom = min(vol, total_volume - vol)
        phi = cut_edges / denom if denom > 0 else 0.0
        candidates.append((phi, size))

    if not candidates:
        # No balanced prefix existed (tiny graphs): fall back to the
        # most balanced split available.
        half = max(1, graph.n // 2)
        cut = set(ranked[:half])
        return graph.conductance_of_cut(cut), cut

    best = min(phi for phi, _size in candidates)
    if rng is not None and slack > 1.0:
        eligible = [
            size for phi, size in candidates if phi <= slack * best + 1e-12
        ]
        chosen = rng.choice(eligible)
    else:
        chosen = min(
            (size for phi, size in candidates if phi <= best + 1e-12)
        )
    cut = set(ranked[:chosen])
    return graph.conductance_of_cut(cut), cut
