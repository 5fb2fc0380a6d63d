"""Markov flow on sparse column-stochastic matrices (van Dongen 2000,
"Graph clustering by flow simulation"), the matrix side of
:func:`~wordhom.clustering.markov_clusters`.

That function imports this module on its first call, so ``import
wordhom`` neither compiles it nor loads numpy and scipy.

A matrix is n-by-n CSC, held as ``(indptr, indices, data)``. Each
helper calls the ``_sparsetools`` kernel its ``scipy.sparse`` operator
ends in, with the operator's arguments, so every matrix, iteration
count and partition is the operators'. ``scipy.sparse`` is never
imported (about 300 modules and 20 MiB): the kernels come from its
already loaded module, else from the extension file itself. They are
private to scipy, so the tests pin each helper to its operator array
for array, and a scipy release that changes either side fails there.
Connected components come from ``cs_graph_components``, which no
operator calls; the tests check its sizes against union-find.

A round's convergence test builds the difference of two rounds only
when their supports are the same size or hold an entry below ``tol``;
otherwise the round cannot have converged (see :func:`flow`).
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from .clustering import UnionFind
from .complexes import WeightedGraph


def _load_sparsetools(name: str = "scipy.sparse._sparsetools"):
    if name in sys.modules:
        return sys.modules[name]
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
    from importlib.util import find_spec, module_from_spec
    scipy = find_spec("scipy")  # located, not imported
    where = scipy and os.path.join(scipy.submodule_search_locations[0], "sparse")
    spec = where and FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} extension file (scipy's sparse directory: {where})")
    spec.loader.exec_module(module := module_from_spec(spec))
    return module


_sparsetools = _load_sparsetools()


def _kernel_args(n: int, size: int, *matrices):
    """A kernel's inputs (index arrays cast alike) and n-column, ``size``-entry output."""
    idx = np.int64 if size > 2**31 - 1 else np.result_type(*(x for m in matrices for x in m[:2]), np.int32)
    args = [x if k == 2 else x.astype(idx, copy=False) for m in matrices for k, x in enumerate(m)]
    return args, (np.empty(n + 1, dtype=idx), np.empty(size, dtype=idx), np.empty(size))


def _trimmed(indptr, indices, data):
    return indptr, indices[: indptr[-1]], data[: indptr[-1]]


def _assemble(rows, cols, data, n: int):
    """``csc_matrix((data, (rows, cols)), shape=(n, n))``: ``coo_tocsr`` on
    the swapped coordinates, sort, sum duplicates; explicit zeros stay."""
    rows, cols = np.asarray(rows, dtype=np.int32), np.asarray(cols, dtype=np.int32)
    out = np.empty(n + 1, dtype=np.int32), np.empty(rows.size, dtype=np.int32), np.empty(rows.size)
    _sparsetools.coo_tocsr(n, n, rows.size, cols, rows, np.asarray(data, dtype=np.float64), *out)
    if not _sparsetools.csr_has_sorted_indices(n, *out[:2]):
        _sparsetools.csr_sort_indices(n, *out)
    _sparsetools.csr_sum_duplicates(n, n, *out)
    return _trimmed(*out)


def _column_sums(m):
    """``m.sum(axis=0)``: ``np.add.reduceat`` over the nonempty columns."""
    sums = np.zeros(len(m[0]) - 1)
    nonempty = np.flatnonzero(np.diff(m[0]))
    sums[nonempty] = np.add.reduceat(m[2], m[0][nonempty])
    return sums


def _binop(op: str, a, b):
    """``a + b`` (op ``"plus"``) or ``a - b`` (``"minus"``); zero results are dropped."""
    n = len(a[0]) - 1
    args, out = _kernel_args(n, len(a[1]) + len(b[1]), a, b)
    getattr(_sparsetools, f"csr_{op}_csr")(n, n, *args, *out)
    return _trimmed(*out)


def _normalize_columns(m):
    """``(m + fix) @ diags(1 / sums)``: add a self-loop of weight 1 to each
    empty column, then divide each column by its (nonzero) sum."""
    sums = _column_sums(m)
    empty = np.flatnonzero(sums == 0)
    if empty.size:
        m = _binop("plus", m, _assemble(empty, empty, np.ones(empty.size), len(sums)))
        sums = _column_sums(m)
    eye = np.arange(len(sums) + 1, dtype=np.int32)
    return _product(m, (eye, eye[:-1], 1.0 / sums), len(sums))


def _product(a, b, n_rows: int, cap=None):
    """``a @ b`` for an ``n_rows``-row ``a`` by ``csr_matmat``, the kernel
    ``@`` ends in, with ``@``'s (CSC-swapped) arguments, but sized by a
    bound instead of ``@``'s exact symbolic count (``csr_matmat_maxnnz``,
    Gustavson 1978). Column j holds at most cap_j entries, where ``cap``
    is ``n_rows`` or one number per column, and at most the sum of
    nnz(a[:, k]) over the k stored in b[:, j]. The kernel fills one
    buffer column after column without a bounds check, so the buffer
    takes the smaller of the two sums over j; the second is nnz(a[:, k])
    times the entries b stores in row k, summed over k. A cap must hold
    for every column."""
    n_cols = len(b[0]) - 1
    reach = int(np.diff(a[0]) @ np.bincount(b[1], minlength=len(a[0]) - 1))
    bound = min(reach, n_rows * n_cols if cap is None else int(cap.sum()))
    args, out = _kernel_args(n_cols, bound, b, a)
    _sparsetools.csr_matmat(n_cols, n_rows, *args, *out)
    return _trimmed(*out)


def _rescale_prune_rescale(m, prune: float):
    """Normalize the columns, drop entries below ``prune``, normalize
    again: bit-identical to ``_normalize_columns`` on both sides of the
    prune, without its diagonal products. Each scaling is
    ``csr_scale_rows`` (entry times its column's reciprocal sum, the
    product the diagonal route forms) on exact-size copies, since the
    route below reads m again; the prune zeroes entries and compacts
    with ``csr_eliminate_zeros``. That route's first product reverses
    each column, so its second sums add it backwards: they are taken
    on the reversed data, whose columns start at the mirrored offsets.
    A column that is or becomes empty needs the self-loop, so such a
    step takes that route."""
    indptr, indices, data = m
    n = len(indptr) - 1
    if np.diff(indptr).all():
        sums = np.add.reduceat(data, indptr[:-1])
        if sums.all():
            indptr, indices, data = indptr.copy(), indices.copy(), data.copy()
            _sparsetools.csr_scale_rows(n, n, indptr, indices, data, 1.0 / sums)
            data *= data >= max(prune, math.ulp(0.0))  # zero each entry < prune (such an entry is finite and >= 0)
            _sparsetools.csr_eliminate_zeros(n, n, indptr, indices, data)
            if np.diff(indptr).all():
                end = indptr[-1]
                sums = np.add.reduceat(data[end - 1 :: -1], end - indptr[:0:-1])[::-1]
                _sparsetools.csr_scale_rows(n, n, indptr, indices, data, 1.0 / sums)
                _sparsetools.csr_eliminate_zeros(n, n, indptr, indices, data)  # the product route drops underflows too
                return _trimmed(indptr, indices, data)
    indptr, indices, data = _normalize_columns(m)
    data[data < prune] = 0.0
    _sparsetools.csr_eliminate_zeros(n, n, indptr, indices, data)  # m.eliminate_zeros()
    return _normalize_columns(_trimmed(indptr, indices, data))


def flow(
    graph: WeightedGraph, inflation: float, expansion: int, prune: float, max_iter: int, tol: float, self_loop: float
) -> tuple[list[int], bool, int]:
    """The iteration of :func:`~wordhom.clustering.markov_clusters` on checked
    parameters: the raw labels, whether it converged, and the rounds.

    Flow never leaves a connected component, so each product column is
    sized by its vertex's component, not by n. That bound holds because
    the start matrix is block-diagonal by the components of its stored
    entries (every edge, zero weights included, and every self-loop), and
    products, entrywise powers, normalization (which adds only diagonal
    entries) and pruning keep it block-diagonal.

    A round has converged when the largest |m - prev| is below ``tol``.
    That needs the difference only when nnz(m) == nnz(prev) or an entry
    of either is below ``tol``. Otherwise some position is stored in one
    of them only (neither stores a position twice), with a value v >=
    tol, and the difference there is v or -v. The kernel drops it only
    if v = 0, and the largest |m - prev| is >= 0 all the same. So that
    largest value is >= v >= tol and the round has not converged, for
    every ``tol`` and ``prune``."""
    n = graph.n
    if n == 0:
        return [], True, 0
    i, j, w = np.array(graph.pair_sorted_edges(), dtype=np.float64).reshape(-1, 3).T
    w = w / (w.max(initial=0.0) or 1.0)  # all weights 0 (every d = 1): self-loops only
    loops = np.arange(n)
    data = np.concatenate((w, w, np.full(n, float(self_loop))))
    m = _assemble(np.concatenate((i, j, loops)), np.concatenate((j, i, loops)), data, n)
    component = np.empty(n, dtype=m[0].dtype)
    # the kernel reads a symmetric pattern and labels an entry-less vertex -2;
    # every column holds its loop, so bincount sees no negative label
    _sparsetools.cs_graph_components(n, *m[:2], component)
    size = np.bincount(component)[component]
    m = _normalize_columns(m)
    for n_iter in range(1, max_iter + 1):
        prev = m
        for _ in range(expansion - 1):
            m = _product(m, prev, n, size)
        np.power(m[2], inflation, out=m[2])  # the product's own buffer
        m = _rescale_prune_rescale(m, prune)
        if len(m[2]) != len(prev[2]) and min(m[2].min(), prev[2].min()) >= tol:
            continue  # some entry v >= tol is stored in one of them only: |difference| >= v there
        if float(np.abs(_binop("minus", m, prev)[2]).max(initial=0.0)) < tol:  # its buffer dies here, not a round later
            return _markov_labels(m, n), True, n_iter
    return _markov_labels(m, n), False, max_iter


def _markov_labels(m, n: int) -> list[int]:
    """Interpret a converged flow matrix: attractors (positive diagonal)
    join into systems along their mutual support, and every vertex follows
    the attractors feeding it, the lowest-labeled system on overlap; a
    vertex fed by none gets its own label, counting up from ``n``."""
    indptr, indices, data = m
    col = np.repeat(np.arange(n), np.diff(indptr))
    on_diagonal = indices == col
    attractor = np.bincount(col[on_diagonal], weights=data[on_diagonal], minlength=n) > 0
    uf = UnionFind(n)
    mutual = attractor[indices] & attractor[col]
    for r, c in zip(indices[mutual].tolist(), col[mutual].tolist()):
        uf.union(r, c)
    owner, lowest = np.full(n, n), {}  # owner n: not an attractor
    for a in np.flatnonzero(attractor).tolist():  # ascending, so the first of a system is its lowest
        owner[a] = lowest.setdefault(uf.find(a), a)
    labels = np.full(n, n)
    np.minimum.at(labels, col, owner[indices])
    unsupported = labels == n
    labels[unsupported] = n + np.arange(np.count_nonzero(unsupported))
    return labels.tolist()
