"""Markov flow on sparse column-stochastic matrices (van Dongen 2000,
"Graph clustering by flow simulation"), the matrix side of
:func:`~wordhom.clustering.markov_clusters`.

That function imports this module on its first call, so ``import
wordhom`` neither compiles it nor loads numpy and scipy.

Every sparse product here is ``_product``: it calls the numeric kernel
scipy's ``@`` ends in (``_sparsetools.csr_matmat``) with the arguments
``@`` passes, but sizes the output by a per-column bound instead of
scipy's symbolic counting pass (``csr_matmat_maxnnz``, Gustavson 1978).
Same kernel, same summation and index order, so every matrix, iteration
count and partition is the one ``@`` gives. ``_sparsetools`` is private
to scipy; ``test_product_equals_matmul`` pins the helper to ``@`` array
for array, so a scipy release that changes either side fails there.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .clustering import UnionFind
from .complexes import WeightedGraph


def _normalize_columns(m: sparse.csc_matrix) -> sparse.csc_matrix:
    sums = np.asarray(m.sum(axis=0)).ravel()
    empty = np.nonzero(sums == 0)[0]
    if empty.size:
        fix = sparse.csc_matrix(
            (np.ones(empty.size), (empty, empty)), shape=m.shape, dtype=np.float64
        )
        m = (m + fix).tocsc()
        sums = np.asarray(m.sum(axis=0)).ravel()
    return _product(m, sparse.diags(1.0 / sums, format="csc"))


def _product(a: sparse.csc_matrix, b: sparse.csc_matrix) -> sparse.csc_matrix:
    """``a @ b`` by the numeric kernel ``@`` ends in, without its
    symbolic pass.

    ``_cs_matrix._matmul_sparse`` first counts the product's entries
    exactly (``csr_matmat_maxnnz``), then fills buffers of that size
    (``csr_matmat``). Here the buffers are sized by a bound instead:
    output column j holds at most min(n_rows, sum of nnz(a[:, k]) over
    the k stored in b[:, j]) entries. The kernel is called with the
    CSC-swapped arguments ``@`` passes, so it sums in the same order,
    emits indices in the same (unsorted) order and drops the same exact
    zeros; the buffers are then trimmed to ``indptr[-1]``.
    """
    n_rows, n_cols = a.shape[0], b.shape[1]
    reach = np.concatenate(([0], np.cumsum(np.diff(a.indptr)[b.indices])))[b.indptr]
    bound = int(np.minimum(np.diff(reach), n_rows).sum())
    idx = np.result_type(a.indptr, a.indices, b.indptr, b.indices, np.int32)
    if bound > np.iinfo(np.int32).max:
        idx = np.int64
    indptr = np.empty(n_cols + 1, dtype=idx)
    indices = np.empty(bound, dtype=idx)
    data = np.empty(bound, dtype=np.result_type(a.dtype, b.dtype))
    _sparsetools.csr_matmat(
        n_cols, n_rows,
        b.indptr.astype(idx, copy=False), b.indices.astype(idx, copy=False), b.data,
        a.indptr.astype(idx, copy=False), a.indices.astype(idx, copy=False), a.data,
        indptr, indices, data,
    )
    nnz = indptr[-1]
    return sparse.csc_matrix((data[:nnz], indices[:nnz], indptr), shape=(n_rows, n_cols))


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


def flow(
    graph: WeightedGraph,
    inflation: float,
    expansion: int,
    prune: float,
    max_iter: int,
    tol: float,
    self_loop: float,
) -> tuple[list[int], bool, int]:
    """The iteration of :func:`~wordhom.clustering.markov_clusters`, on
    checked parameters: the raw labels, whether it converged, and the
    number of rounds."""
    n = graph.n
    if n == 0:
        return [], True, 0

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
            powered = _product(powered, m)
        powered.data = np.power(powered.data, inflation)
        m = _rescale_prune_rescale(powered, prune)
        delta = (m - prev).tocsc()
        change = float(np.abs(delta.data).max()) if delta.nnz else 0.0
        if change < tol:
            converged = True
            break

    return _markov_labels(m.tocsr(), n), converged, n_iter


def _markov_labels(m: sparse.csr_matrix, n: int) -> list[int]:
    """Interpret a converged flow matrix: attractors (nonzero diagonal)
    are joined into systems along their mutual support, and every
    vertex follows the attractors feeding it; overlaps resolve to the
    lowest-labeled system."""
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
