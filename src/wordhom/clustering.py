"""Graph clustering by similarity threshold, merge persistence, or
Markov flow, scored with weighted modularity.

Every method takes :class:`~wordhom.complexes.WeightedGraph`, the graph
the Vietoris-Rips filtration is built from. Threshold and persistence
clustering share one elder-rule merge pass (``_merge``) over the
graph's dissimilarity order, with the vertex births the filtration
uses; Markov flow and modularity read the strengths. The sweeps sort
the edges, derive the vertex births and set up the modularity scorer
once, then walk the grid in ascending order.

Markov flow's matrix code lives in :mod:`wordhom.markov`, imported on
the first ``markov_clusters`` call: it holds CSC matrices as numpy
arrays and calls scipy's compiled sparse kernels on them, byte-identical
to the ``scipy.sparse`` operators and without importing ``scipy.sparse``
(see that module). The sweeps relabel a union-find forest on arrays
(``UnionFind.label_array``) and score the label array, with no
``Clustering`` per point.

Result types are named tuples. numpy is imported inside the functions
that compute with it (relabelling and the modularity scorer) and by
:mod:`wordhom.markov`, so importing this module loads neither numpy nor
scipy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, NamedTuple, Sequence

from .complexes import WeightedGraph


class UnionFind:
    """Disjoint sets with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.n_components = n

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True

    def labels(self) -> list[int]:
        """Dense component labels in order of first appearance."""
        return self.label_array()[0].tolist()

    def label_array(self):
        """``labels()`` as an integer array, with the number of
        components, by pointer jumping on a copy of ``parent``: no
        ``find`` per vertex, and the forest is left as it is."""
        import numpy as np

        root = np.array(self.parent, dtype=np.intp)
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
        _, first, inverse = np.unique(root, return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.intp)
        rank[np.argsort(first)] = np.arange(first.size)
        return rank[inverse], first.size


class Clustering:
    """A partition of vertex ids into disjoint labeled groups.

    Labels are densified to 0..n_clusters-1 in order of first
    appearance, so structurally equal partitions compare equal.
    """

    __slots__ = ("labels", "n_clusters")

    def __init__(self, labels: Sequence[int]):
        dense: dict[int, int] = {}
        out = []
        for raw in labels:
            if raw not in dense:
                dense[raw] = len(dense)
            out.append(dense[raw])
        object.__setattr__(self, "labels", tuple(out))
        object.__setattr__(self, "n_clusters", len(dense))

    def __setattr__(self, name, value):
        raise AttributeError("Clustering is immutable")

    def __getstate__(self):
        return self.labels

    def __setstate__(self, state):
        object.__setattr__(self, "labels", tuple(state))
        object.__setattr__(self, "n_clusters", len(set(state)))

    def members(self, cluster: int) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.labels) if c == cluster)

    def sizes(self) -> tuple[int, ...]:
        counts = [0] * self.n_clusters
        for c in self.labels:
            counts[c] += 1
        return tuple(counts)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, Clustering) and other.labels == self.labels

    def __repr__(self) -> str:
        return f"Clustering({len(self.labels)} vertices, {self.n_clusters} clusters)"


def _merge(edges: Sequence[tuple[float, int, int]], uf: UnionFind, birth: list[float], tau: float) -> float:
    """Elder-rule merge pass, the one union-find walk of this module.

    ``birth`` holds the birth of each root and is updated in place.
    When an edge joins two components, the younger one (the larger
    birth, ties to the larger root id) is merged in only if its
    lifetime so far, edge dissimilarity minus its birth, is at most
    ``tau``. Returns the smallest lifetime rejected, or inf.
    """
    rejected = math.inf
    for d, i, j in edges:
        ra, rb = uf.find(i), uf.find(j)
        if ra == rb:
            continue
        if (birth[ra], ra) < (birth[rb], rb):
            elder, younger = ra, rb
        else:
            elder, younger = rb, ra
        lifetime = d - birth[younger]
        if lifetime <= tau:
            uf.union(elder, younger)
            birth[uf.find(elder)] = birth[elder]
        elif lifetime < rejected:
            rejected = lifetime
    return rejected


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")


def _check_tau(tau: float) -> None:
    if not tau >= 0:  # also rejects nan; inf is allowed
        raise ValueError("tau must be >= 0")


def threshold_clusters(graph: WeightedGraph, eps: float) -> Clustering:
    """Connected components of the subgraph whose edges have
    dissimilarity 1 - w at most eps."""
    _check_eps(eps)
    edges = graph.merge_order()
    uf = UnionFind(graph.n)
    _merge(edges[: bisect_right(edges, (eps, math.inf))], uf, [0.0] * graph.n, eps)
    return Clustering(uf.labels())


def persistence_clusters(
    graph: WeightedGraph,
    tau: float,
    vertex_birth: str = "first-edge",
) -> Clustering:
    """Single-linkage merging that only accepts short-lived components.

    Edges are processed in increasing dissimilarity. Each vertex is
    born at its minimum incident dissimilarity (or at 0 under the
    ``zero`` mode, which makes the method collapse to plain
    thresholding at eps = tau). When an edge joins two components, the
    younger one (the larger birth) is merged in only if its lifetime so
    far, edge dissimilarity minus its birth, is at most tau. Rejected
    pairs stay separate: any later edge between them is at least as
    dissimilar while component births only decrease, so the lifetime
    test can never pass afterwards.
    """
    _check_tau(tau)
    edges = graph.merge_order()
    births = graph.vertex_births(vertex_birth)
    uf = UnionFind(graph.n)
    _merge(edges, uf, births, tau)
    return Clustering(uf.labels())


class MarkovResult(NamedTuple):
    clustering: Clustering
    converged: bool
    n_iter: int


def _check_inflation(inflation: float) -> None:
    if not inflation > 1:  # also rejects nan
        raise ValueError("inflation must be > 1")
    if math.isinf(inflation):
        raise ValueError("inflation must be finite")


def _check_mcl(
    inflation: float, expansion: int, prune: float, max_iter: int, tol: float, self_loop: float
) -> None:
    """Reject Markov flow parameters the iteration cannot honour."""
    from numbers import Integral

    _check_inflation(inflation)
    if expansion < 2:
        raise ValueError("expansion must be >= 2")
    if not isinstance(expansion, Integral):
        raise ValueError("expansion must be an integer")
    if not (isinstance(max_iter, Integral) and max_iter >= 1):
        raise ValueError("max_iter must be an integer >= 1")
    if not tol >= 0:  # also rejects nan
        raise ValueError("tol must be >= 0")
    if not 0 <= prune < 1:
        raise ValueError("prune must lie in [0, 1)")
    if not (math.isfinite(self_loop) and self_loop >= 0):
        raise ValueError("self_loop must be finite and >= 0")


def markov_clusters(
    graph: WeightedGraph,
    inflation: float,
    expansion: int = 2,
    prune: float = 1e-5,
    max_iter: int = 200,
    tol: float = 1e-8,
    self_loop: float = 1.0,
) -> MarkovResult:
    """Markov flow clustering: alternate matrix powers (long walks)
    with entrywise powers (short walks) until the support decomposes.

    Weights are rescaled so the largest equals 1 before self-loops of
    weight ``self_loop`` are added; partitions are therefore invariant
    under uniform scaling of the input weights. Each round raises the
    column-stochastic matrix to the ``expansion`` power, takes
    entrywise ``inflation`` powers with column renormalization, then
    drops entries below ``prune`` and renormalizes again. Iteration
    stops when the largest entry change falls below ``tol``; hitting
    ``max_iter`` first is reported via ``converged=False``.
    """
    _check_mcl(inflation, expansion, prune, max_iter, tol, self_loop)
    from .markov import flow

    labels, converged, n_iter = flow(graph, inflation, expansion, prune, max_iter, tol, self_loop)
    return MarkovResult(Clustering(labels), converged, n_iter)


class _Scorer:
    """Weighted modularity of partitions of one graph.

    Holds the pair-sorted edges, the float degrees and M, and sums them
    in the order the loop form would: intra-cluster weights in edge
    order, degree sums in vertex order, cluster terms in label order.
    So every score is bit-identical however many partitions it scores.
    """

    __slots__ = ("i", "j", "w", "degrees", "m_total")

    def __init__(self, graph: WeightedGraph):
        import numpy as np

        self.m_total = 2.0 * graph.total_weight()
        if self.m_total == 0.0:
            raise ValueError("modularity is undefined for a graph with no edges or no edge weight")
        edges = graph.pair_sorted_edges()
        self.i = np.array([e[0] for e in edges], dtype=np.intp)
        self.j = np.array([e[1] for e in edges], dtype=np.intp)
        self.w = np.array([e[2] for e in edges], dtype=np.float64)
        self.degrees = graph.degrees()

    def __call__(self, clustering: Clustering) -> float:
        import numpy as np

        return self.score(np.array(clustering.labels, dtype=np.intp), clustering.n_clusters)

    def score(self, labels, k: int) -> float:
        """Modularity of the partition with dense ``labels`` 0..k-1 (an
        integer array, one label per vertex)."""
        import numpy as np

        # bincount adds its weights one at a time in input order
        li, lj = labels[self.i], labels[self.j]
        same = li == lj
        intra = np.bincount(li[same], weights=self.w[same], minlength=k).tolist()
        degree_sum = np.bincount(labels, weights=self.degrees, minlength=k).tolist()
        m_total = self.m_total
        q = 0.0
        for c in range(k):
            q += 2.0 * intra[c] - degree_sum[c] ** 2 / m_total
        return q / m_total


def modularity(graph: WeightedGraph, clustering: Clustering) -> float:
    """Weighted modularity of a partition.

    Uses the ordered-pair normalization: M is twice the edge-weight
    sum, and the degree-product penalty includes the diagonal terms, so
    the single-cluster partition scores exactly 0 and the score stays
    within [-1, 1].
    """
    if len(clustering) != graph.n:
        raise ValueError(
            f"clustering covers {len(clustering)} vertices, graph has {graph.n}"
        )
    return _Scorer(graph)(clustering)


class SweepRow(NamedTuple):
    param: float
    q: float
    n_clusters: int


class SweepResult(NamedTuple):
    """Rows in grid order; ``unconverged`` lists the MCL grid points
    whose flow hit ``max_iter`` before converging."""

    method: str
    rows: tuple[SweepRow, ...]
    unconverged: tuple[float, ...] = ()

    @property
    def best(self) -> SweepRow:
        best = self.rows[0]
        for row in self.rows[1:]:
            if row.q > best.q:
                best = row
        return best


SWEEP_METHODS = ("threshold", "persistence", "mcl")


def cluster_by_method(graph: WeightedGraph, method: str, param: float, **params) -> Clustering:
    if method == "threshold":
        return threshold_clusters(graph, param)
    if method == "persistence":
        return persistence_clusters(graph, param, **params)
    if method == "mcl":
        return markov_clusters(graph, param, **params).clustering
    raise ValueError(f"unknown method {method!r}; expected one of {SWEEP_METHODS}")


def _mcl_point(args) -> tuple[SweepRow, bool]:
    graph, inflation, params = args
    result = markov_clusters(graph, inflation, **params)
    clustering = result.clustering
    return SweepRow(inflation, modularity(graph, clustering), clustering.n_clusters), result.converged


def _threshold_rows(graph: WeightedGraph, grid: list[float]) -> list[SweepRow]:
    """One ascending pass: each grid point adds the edges up to its eps
    to a single union-find, and the partition is relabelled and scored
    only where a union happened since the previous point."""
    for eps in grid:
        _check_eps(eps)
    order = sorted(range(len(grid)), key=grid.__getitem__)
    scorer = _Scorer(graph)
    edges = graph.merge_order()
    uf = UnionFind(graph.n)
    zero = [0.0] * graph.n
    rows = [None] * len(grid)
    done, seen_components, q, n_clusters = 0, -1, 0.0, 0
    for idx in order:
        eps = grid[idx]
        stop = bisect_right(edges, (eps, math.inf), done)
        _merge(edges[done:stop], uf, zero, eps)
        done = stop
        if uf.n_components != seen_components:
            seen_components = uf.n_components
            labels, n_clusters = uf.label_array()
            q = scorer.score(labels, n_clusters)
        rows[idx] = SweepRow(eps, q, n_clusters)
    return rows


def _persistence_rows(
    graph: WeightedGraph,
    grid: list[float],
    vertex_birth: str = "first-edge",
) -> list[SweepRow]:
    """One merge pass per decision interval of an ascending grid.

    A pass at tau accepts every lifetime <= tau and records
    ``rejected``, the smallest lifetime it rejected. At a later point
    tau' with tau <= tau' < rejected, every lifetime the pass accepted
    is still <= tau' and every one it rejected is still > tau'. Each
    decision depends only on the union-find state the earlier
    decisions left, so by induction along the edge order a pass at
    tau' makes the same decisions, and its partition and Q are the
    pass at tau's. A new pass starts only at the first point with
    tau' >= rejected.

    Under zero births every lifetime is the edge's own dissimilarity, so
    the pass at tau is the threshold pass at min(tau, 1); those rows come
    from the one pass of ``_threshold_rows``.
    """
    for tau in grid:
        _check_tau(tau)
    births = graph.vertex_births(vertex_birth)
    if vertex_birth == "zero":
        rows = _threshold_rows(graph, [min(tau, 1.0) for tau in grid])
        return [SweepRow(tau, row.q, row.n_clusters) for tau, row in zip(grid, rows)]
    order = sorted(range(len(grid)), key=grid.__getitem__)
    scorer = _Scorer(graph)
    edges = graph.merge_order()
    rows = [None] * len(grid)
    rejected, q, n_clusters = -math.inf, 0.0, 0
    for idx in order:
        tau = grid[idx]
        if not tau < rejected:
            uf = UnionFind(graph.n)
            rejected = _merge(edges, uf, list(births), tau)
            labels, n_clusters = uf.label_array()
            q = scorer.score(labels, n_clusters)
        rows[idx] = SweepRow(tau, q, n_clusters)
    return rows


def sweep(
    graph: WeightedGraph,
    method: str,
    grid: Iterable[float],
    jobs: int = 1,
    **params,
) -> SweepResult:
    """Run one clustering method over a parameter grid and score each
    point; grid order is preserved and ties for the best row go to the
    earliest grid point.

    Each row equals ``SweepRow(p, modularity(graph, c), c.n_clusters)``
    with ``c = cluster_by_method(graph, method, p, **params)``. Threshold
    and persistence sweeps visit the grid in ascending order in one
    process and share one edge sort, vertex births and modularity
    scorer (see ``_threshold_rows`` and ``_persistence_rows``). Only MCL
    points are fanned out over ``jobs`` worker processes.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("sweep needs a non-empty parameter grid")
    if method not in SWEEP_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {SWEEP_METHODS}")
    if method == "threshold":
        return SweepResult(method, tuple(_threshold_rows(graph, grid)))
    if method == "persistence":
        return SweepResult(method, tuple(_persistence_rows(graph, grid, **params)))
    for inflation in grid:  # the first point's call checks the shared parameters
        _check_inflation(inflation)
    tasks = [(graph, param, params) for param in grid]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(_mcl_point, tasks))
    else:
        points = [_mcl_point(t) for t in tasks]
    unconverged = tuple(row.param for row, converged in points if not converged)
    return SweepResult(method, tuple(row for row, _ in points), unconverged)

