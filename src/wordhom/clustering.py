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
(see that module). The sweeps index each cluster of a union-find forest
by its least vertex, its slot (``UnionFind.slots``), with no
``Clustering`` per point. One modularity scorer, ``_Scorer``, serves
the sweeps and :func:`modularity`: it keeps a term per slot and
recomputes only the terms whose cluster changed since the partition
it scored last, with the loop form's floats.

Result types are named tuples. numpy is imported only by the sweeps'
slots, the modularity scorer and :mod:`wordhom.markov`: importing
this module, or clustering at one threshold or persistence point, loads
neither numpy nor scipy.
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

    def slots(self):
        """Each vertex's slot, the least vertex of its set, as an integer
        array for the sweeps: roots by pointer jumping on a copy of
        ``parent``, with no ``find`` per vertex (the forest is left as
        it is), then the least vertex of each root."""
        import numpy as np

        root = np.array(self.parent, dtype=np.intp)
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
        least = np.full(len(root), len(root), dtype=np.intp)
        np.minimum.at(least, root, np.arange(len(root)))
        return least[root]


class Clustering:
    """A partition of vertex ids into disjoint labeled groups.

    Labels are densified to 0..n_clusters-1 in order of first
    appearance, so structurally equal partitions compare equal.
    """

    __slots__ = ("labels", "n_clusters")

    def __init__(self, labels: Iterable[int]):
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


_RULES = {  # a real parameter's rule, as its message states it and as a test (false on nan)
    "eps": ("lie in [0, 1]", lambda v: 0 <= v <= 1),
    "tau": ("be >= 0", lambda v: v >= 0),  # inf is allowed
    "inflation": ("be finite and > 1", lambda v: 1 < v < math.inf),
    "prune": ("lie in [0, 1)", lambda v: 0 <= v < 1),
    "tol": ("be >= 0", lambda v: v >= 0),
    "self_loop": ("be finite and >= 0", lambda v: 0 <= v < math.inf),
}


def _real(name: str, x) -> None:
    """Refuse x unless it is a real number, not a bool, that meets the
    rule of parameter ``name``, with a ValueError that names it."""
    rule, ok = _RULES[name]
    if type(x) is not float:  # a sweep's grid is floats: no ABC check per point
        from numbers import Real

        if isinstance(x, bool) or not isinstance(x, Real):
            raise ValueError(f"{name} must be a real number, got {x!r}")
    if not ok(x):
        raise ValueError(f"{name} must {rule}, got {x!r}")


def threshold_clusters(graph: WeightedGraph, eps: float) -> Clustering:
    """Connected components of the subgraph whose edges have
    dissimilarity 1 - w at most eps."""
    _real("eps", eps)
    edges = graph.merge_order()
    uf = UnionFind(graph.n)
    _merge(edges[: bisect_right(edges, (eps, math.inf))], uf, [0.0] * graph.n, eps)
    return Clustering(map(uf.find, range(graph.n)))


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
    test can never pass afterwards. ``Clustering`` relabels the roots once.
    """
    _real("tau", tau)
    edges = graph.merge_order()
    births = graph.vertex_births(vertex_birth)
    uf = UnionFind(graph.n)
    _merge(edges, uf, births, tau)
    return Clustering(map(uf.find, range(graph.n)))


class MarkovResult(NamedTuple):
    clustering: Clustering
    converged: bool
    n_iter: int


def _check_mcl(
    inflation: float, expansion: int, prune: float, max_iter: int, tol: float, self_loop: float
) -> None:
    """Reject Markov flow parameters the iteration cannot honour."""
    from numbers import Integral

    for name, x in (("inflation", inflation), ("prune", prune), ("tol", tol), ("self_loop", self_loop)):
        _real(name, x)
    if not isinstance(expansion, Integral) or isinstance(expansion, bool):
        raise ValueError("expansion must be an integer")
    if expansion < 2:
        raise ValueError("expansion must be >= 2")
    if not isinstance(max_iter, Integral) or isinstance(max_iter, bool) or max_iter < 1:
        raise ValueError("max_iter must be an integer >= 1")


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
    """Weighted modularity of partitions of one graph, each given as an
    index array: one index below n per vertex, the clusters in
    increasing index order (a sweep's slots, or a clustering's labels).

    The loop form sums intra-cluster weights in edge order, degree sums
    in vertex order and the terms 2 * intra - ds**2 / M in cluster
    order; so does this, by ``bincount`` (which adds in input order) and
    one ``cumsum`` over a term per index. An index with no cluster holds
    0.0, which leaves a partial sum as it is (none is -0.0). A term is
    recomputed, with CPython's ``**`` as the loop squares, only where its
    (intra, ds) changed since the last partition scored. So every score
    is the loop's, bit for bit, whatever partitions came before.
    """

    __slots__ = ("i", "j", "w", "degrees", "m_total", "intra", "ds", "terms")

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
        self.intra = self.ds = np.zeros(graph.n)  # replaced, never written
        self.terms = np.zeros(graph.n)

    def score(self, index) -> float:
        """Modularity of the partition given by ``index`` (an integer array)."""
        import numpy as np

        n = len(index)
        li, lj = index[self.i], index[self.j]
        same = li == lj
        intra = np.bincount(li[same], weights=self.w[same], minlength=n)
        ds = np.bincount(index, weights=self.degrees, minlength=n)
        changed = np.flatnonzero((intra != self.intra) | (ds != self.ds))
        terms, m_total = self.terms, self.m_total
        for c, a, d in zip(changed.tolist(), intra[changed].tolist(), ds[changed].tolist()):
            terms[c] = 2.0 * a - d**2 / m_total
        self.intra, self.ds = intra, ds
        return float(np.cumsum(terms)[-1]) / m_total


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
    import numpy as np

    return _Scorer(graph).score(np.array(clustering.labels, dtype=np.intp))


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


def _mcl_point(args) -> tuple[SweepRow, bool]:
    graph, inflation, params = args
    result = markov_clusters(graph, inflation, **params)
    clustering = result.clustering
    return SweepRow(inflation, modularity(graph, clustering), clustering.n_clusters), result.converged


def _threshold_rows(graph: WeightedGraph, grid: list[float]) -> list[SweepRow]:
    """One ascending pass: each grid point adds the edges up to its eps
    to a single union-find, and the partition's slots are taken and
    scored only where a union happened since the previous point."""
    for eps in grid:
        _real("eps", eps)
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
            seen_components = n_clusters = uf.n_components
            q = scorer.score(uf.slots())
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
        _real("tau", tau)
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
            q, n_clusters = scorer.score(uf.slots()), uf.n_components
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

    Each row equals ``SweepRow(p, modularity(graph, c), c.n_clusters)``,
    where c is the per-point clustering at p: ``threshold_clusters(graph,
    p)``, ``persistence_clusters(graph, p, **params)`` or
    ``markov_clusters(graph, p, **params).clustering``. Threshold
    and persistence sweeps visit the grid in ascending order in one
    process and share one edge sort, vertex births and modularity
    scorer (see ``_threshold_rows`` and ``_persistence_rows``). Only MCL
    points are fanned out, over ``min(jobs, len(grid))`` worker processes.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("sweep needs a non-empty parameter grid")
    from numbers import Integral

    if not isinstance(jobs, Integral) or isinstance(jobs, bool):
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if method not in SWEEP_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {SWEEP_METHODS}")
    if method == "threshold":
        return SweepResult(method, tuple(_threshold_rows(graph, grid)))
    if method == "persistence":
        return SweepResult(method, tuple(_persistence_rows(graph, grid, **params)))
    for inflation in grid:  # the first point's call checks the shared parameters
        _real("inflation", inflation)
    tasks = [(graph, param, params) for param in grid]
    workers = min(jobs, len(grid))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_mcl_point, tasks))
    else:
        points = [_mcl_point(t) for t in tasks]
    unconverged = tuple(row.param for row, converged in points if not converged)
    return SweepResult(method, tuple(row for row, _ in points), unconverged)

