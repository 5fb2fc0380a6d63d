"""Graph clustering by similarity threshold, merge persistence, or
Markov flow, scored with weighted modularity.

Every method takes :class:`~wordhom.complexes.WeightedGraph`, the graph
the Vietoris-Rips filtration is built from. Threshold and persistence
clustering share one elder-rule merge pass (``_merge``) over the
graph's dissimilarity order, with the vertex births the filtration
uses; Markov flow and modularity read the strengths. The sweeps sort
the edges, derive the vertex births and set up the modularity scorer
once, then walk the grid in ascending order.

Result types are named tuples. numpy and scipy.sparse are imported
inside the functions that compute with them (Markov flow and the
modularity scorer), so importing this module loads neither.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .complexes import WeightedGraph

if TYPE_CHECKING:
    from scipy import sparse


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
        out = []
        seen: dict[int, int] = {}
        for v in range(len(self.parent)):
            root = self.find(v)
            if root not in seen:
                seen[root] = len(seen)
            out.append(seen[root])
        return out


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


def _normalize_columns(m: sparse.csc_matrix) -> sparse.csc_matrix:
    import numpy as np
    from scipy import sparse

    sums = np.asarray(m.sum(axis=0)).ravel()
    empty = np.nonzero(sums == 0)[0]
    if empty.size:
        fix = sparse.csc_matrix(
            (np.ones(empty.size), (empty, empty)), shape=m.shape, dtype=np.float64
        )
        m = (m + fix).tocsc()
        sums = np.asarray(m.sum(axis=0)).ravel()
    scale = sparse.diags(1.0 / sums)
    return (m @ scale).tocsc()


def _rescale_prune_rescale(m: sparse.csc_matrix, prune: float) -> sparse.csc_matrix:
    """Normalize the columns, drop entries below ``prune``, normalize
    again: bit-identical to ``_normalize_columns`` on both sides of the
    prune, without its two diagonal-matrix products.

    ``_normalize_columns`` multiplies by a diagonal matrix, and scipy's
    sparse product emits each column's entries in reverse storage order,
    so its second column sums add each column backwards. The second sums
    here read each column reversed; the two reversals of that route
    cancel, so the entries stay in storage order. A column that is or
    becomes empty needs ``_normalize_columns``' self-loop, so such a step
    takes that route.
    """
    import numpy as np
    from scipy import sparse

    counts = np.diff(m.indptr)
    if counts.all():
        col = np.repeat(np.arange(m.shape[1]), counts)
        sums = np.add.reduceat(m.data, m.indptr[:-1])
        if sums.all():
            data = m.data * (1.0 / sums)[col]
            keep = (data >= prune) & (data != 0.0)
            data, indices, col = data[keep], m.indices[keep], col[keep]
            counts = np.bincount(col, minlength=m.shape[1])
            if counts.all():
                indptr = np.concatenate(([0], np.cumsum(counts))).astype(m.indptr.dtype)
                reverse = (indptr[:-1] + indptr[1:] - 1)[col] - np.arange(col.size)
                data *= (1.0 / np.add.reduceat(data[reverse], indptr[:-1]))[col]
                out = sparse.csc_matrix((data, indices, indptr), shape=m.shape)
                out.eliminate_zeros()  # the product route drops underflows too
                return out
    m = _normalize_columns(m)
    m.data[m.data < prune] = 0.0
    m.eliminate_zeros()
    return _normalize_columns(m)


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
    import numpy as np
    from scipy import sparse

    if inflation <= 1:
        raise ValueError("inflation must be > 1")
    if expansion < 2:
        raise ValueError("expansion must be >= 2")
    n = graph.n
    if n == 0:
        return MarkovResult(Clustering([]), True, 0)

    rows, cols, data = [], [], []
    edges = graph.pair_sorted_edges()
    wmax = max((w for _, _, w in edges), default=0.0) or 1.0  # all weights 0 (every d = 1): self-loops only
    for i, j, w in edges:
        rows.extend((i, j))
        cols.extend((j, i))
        data.extend((w / wmax, w / wmax))
    for v in range(n):
        rows.append(v)
        cols.append(v)
        data.append(float(self_loop))
    m = sparse.csc_matrix((data, (rows, cols)), shape=(n, n), dtype=np.float64)
    m = _normalize_columns(m)

    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        prev = m
        powered = m
        for _ in range(expansion - 1):
            powered = (powered @ m).tocsc()
        powered.data = np.power(powered.data, inflation)
        m = _rescale_prune_rescale(powered, prune)
        delta = (m - prev).tocsc()
        change = float(np.abs(delta.data).max()) if delta.nnz else 0.0
        if change < tol:
            converged = True
            break

    labels = _markov_labels(m.tocsr(), n)
    return MarkovResult(Clustering(labels), converged, n_iter)


def _markov_labels(m: sparse.csr_matrix, n: int) -> list[int]:
    """Interpret a converged flow matrix: attractors (nonzero diagonal)
    are joined into systems along their mutual support, and every
    vertex follows the attractors feeding it; overlaps resolve to the
    lowest-labeled system."""
    import numpy as np

    diag = m.diagonal()
    attractors = [int(v) for v in np.nonzero(diag > 0)[0]]
    attractor_set = set(attractors)
    uf = UnionFind(n)
    for a in attractors:
        for b in m.indices[m.indptr[a] : m.indptr[a + 1]]:
            if int(b) in attractor_set:
                uf.union(a, int(b))
    system_label: dict[int, int] = {}
    for a in attractors:
        root = uf.find(a)
        system_label[root] = min(system_label.get(root, a), a)

    csc = m.tocsc()
    labels = []
    next_free = n  # singleton labels for unsupported vertices
    for v in range(n):
        rows = csc.indices[csc.indptr[v] : csc.indptr[v + 1]]
        owners = [system_label[uf.find(int(r))] for r in rows if int(r) in attractor_set]
        if owners:
            labels.append(min(owners))
        else:
            labels.append(next_free)
            next_free += 1
    return labels


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

        # bincount adds its weights one at a time in input order
        labels = np.array(clustering.labels, dtype=np.intp)
        li, lj = labels[self.i], labels[self.j]
        same = li == lj
        k = clustering.n_clusters
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
    score = _Scorer(graph)
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
            clustering = Clustering(uf.labels())
            q, n_clusters = score(clustering), clustering.n_clusters
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
    score = _Scorer(graph)
    edges = graph.merge_order()
    rows = [None] * len(grid)
    rejected, q, n_clusters = -math.inf, 0.0, 0
    for idx in order:
        tau = grid[idx]
        if not tau < rejected:
            uf = UnionFind(graph.n)
            rejected = _merge(edges, uf, list(births), tau)
            clustering = Clustering(uf.labels())
            q, n_clusters = score(clustering), clustering.n_clusters
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
    tasks = [(graph, param, params) for param in grid]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(_mcl_point, tasks))
    else:
        points = [_mcl_point(t) for t in tasks]
    unconverged = tuple(row.param for row, converged in points if not converged)
    return SweepResult(method, tuple(row for row, _ in points), unconverged)
