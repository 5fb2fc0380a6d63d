"""The dense rank/coset oracle: homology at a fixed scale from first principles.

Betti numbers, chains, boundaries, homology bases and coset
representatives are computed directly from the boundary matrices of
one complex by Gaussian elimination mod p: the k-th Betti number is
the nullity of the k-boundary matrix minus the rank of the
(k+1)-boundary matrix. This route shares no code with the column
reduction in :mod:`wordhom.reduction` or with the filtrations of
:mod:`wordhom.complexes`, so the tests can check those against it;
``test_oracle_imports_only_the_homology_route`` holds it to that.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from wordhom.chains import Chain, boundary_chain
from wordhom.fields import PrimeField
from wordhom.simplices import Simplex


def _row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of an integer matrix over Z/p; returns (rref, pivot columns)."""
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank_mod_p(matrix: Sequence[Sequence[int]] | np.ndarray, p: int) -> int:
    """Rank of an integer matrix over Z/p."""
    a = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    if a.size == 0:
        return 0
    _, pivots = _row_reduce(a, p)
    return len(pivots)


def simplices_by_dim(simplices: Iterable[Simplex]) -> dict[int, list[Simplex]]:
    """Simplices grouped by dimension, each group sorted."""
    by_dim: dict[int, list[Simplex]] = {}
    for s in simplices:
        by_dim.setdefault(s.dim, []).append(s)
    for group in by_dim.values():
        group.sort()
    return by_dim


def boundary_matrix(
    k_simplices: Sequence[Simplex],
    faces: Sequence[Simplex],
    p: int,
) -> np.ndarray:
    """Matrix of the boundary map: rows index faces, columns k-simplices."""
    index = {s: i for i, s in enumerate(faces)}
    a = np.zeros((len(faces), len(k_simplices)), dtype=np.int64)
    for col, s in enumerate(k_simplices):
        for j, face in enumerate(s.faces()):
            a[index[face], col] = 1 if j % 2 == 0 else p - 1
    return a


def betti_of_complex(simplices: Iterable[Simplex], k: int, field: PrimeField) -> int:
    """k-th Betti number of a fixed complex: nullity of the k-boundary
    map minus the rank of the (k+1)-boundary map."""
    if k < 0:
        raise ValueError("k must be >= 0")
    by_dim = simplices_by_dim(simplices)
    n_k = len(by_dim.get(k, []))
    if n_k == 0:
        return 0
    if k == 0:
        nullity = n_k
    else:
        a = boundary_matrix(by_dim[k], by_dim[k - 1], field.p)
        nullity = n_k - rank_mod_p(a, field.p)
    above = by_dim.get(k + 1, [])
    rank_above = 0
    if above:
        rank_above = rank_mod_p(boundary_matrix(above, by_dim[k], field.p), field.p)
    return nullity - rank_above


def complex_at(filt, eps: float) -> set[Simplex]:
    """All simplices of a filtration born at or before eps (monotone in eps)."""
    return {Simplex(vs) for vs in filt.vertices[: bisect_right(filt.births, eps)]}


def betti_at(filt, eps: float, k: int, field: PrimeField) -> int:
    """k-th Betti number of the complex at scale eps."""
    return betti_of_complex(complex_at(filt, eps), k, field)


def canonicalize(vertices: Sequence[int]) -> tuple[Simplex, int]:
    """Sort a vertex sequence and report the parity of the reordering.

    Returns ``(simplex, sign)`` with sign +1 when the input ordering
    differs from the sorted one by an even number of transpositions,
    -1 otherwise. Vertex sequences with duplicates are rejected.
    A single vertex always carries sign +1.
    """
    vs = tuple(vertices)
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate vertex ids in {vs}")
    inversions = 0
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if vs[i] > vs[j]:
                inversions += 1
    sign = 1 if inversions % 2 == 0 else -1
    return Simplex(sorted(vs)), sign


def zero_chain(dim: int) -> Chain:
    return Chain(dim)


def chain_add(c1: Chain, c2: Chain, field: PrimeField) -> Chain:
    """Termwise field addition; zero results are dropped."""
    if c1.dim != c2.dim:
        raise ValueError(f"cannot add chains of dimensions {c1.dim} and {c2.dim}")
    return Chain.from_items(chain(c1._terms.items(), c2._terms.items()), field, c1.dim)


def chain_scale(a: int, c: Chain, field: PrimeField) -> Chain:
    """Multiply every coefficient by ``a``; a = 0 yields the zero chain."""
    a %= field.p
    if a == 0:
        return Chain(c.dim)
    if a == 1:
        return c
    return Chain(c.dim, {s: a * v % field.p for s, v in c._terms.items()})


def chain_neg(c: Chain, field: PrimeField) -> Chain:
    return chain_scale(field.p - 1, c, field)


def boundary_simplex(s: Simplex, field: PrimeField) -> Chain:
    """Alternating sum of the codimension-1 faces of one simplex.

    The boundary of a 0-simplex is the empty chain.
    """
    return boundary_chain(Chain(s.dim, {s: 1}), field)


def face_closure(simplices: Iterable[Simplex]) -> set[Simplex]:
    """Close a simplex collection under taking faces."""
    out: set[Simplex] = set()
    stack = list(simplices)
    while stack:
        s = stack.pop()
        if s in out:
            continue
        out.add(s)
        stack.extend(s.faces())
    return out


def validate_complex(simplices: Iterable[Simplex]) -> list[tuple[Simplex, Simplex]]:
    """List every (simplex, missing face) pair; empty means face-closed."""
    present = set(simplices)
    violations = []
    for s in present:
        for face in s.faces():
            if face not in present:
                violations.append((s, face))
    violations.sort(key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))
    return violations


def event_values(filtration) -> tuple[float, ...]:
    """The distinct births of a filtration, ascending."""
    return tuple(sorted(set(filtration.births)))


def scaled(graph, factor: float):
    """The graph with every strength multiplied by ``factor``."""
    return type(graph)(graph.n, {(i, j): w * factor for i, j, w in graph.pair_sorted_edges()})


def modularity_loop(graph, labels: Sequence[int]) -> float:
    """Weighted modularity by its loop form, in plain Python: intra-cluster
    weights added in pair order, degree sums in vertex order, then the
    terms 2 * intra - ds**2 / M added from 0.0 in order of each cluster's
    least vertex, and the sum divided by M = 2 * total weight. It shares
    no code with the package's scorer, so it pins that scorer's floats."""
    m_total = 2.0 * graph.total_weight()
    order: dict[int, None] = dict.fromkeys(labels)  # labels by least vertex
    intra = dict.fromkeys(order, 0.0)
    for i, j, w in graph.pair_sorted_edges():
        if labels[i] == labels[j]:
            intra[labels[i]] += w
    degree_sum = dict.fromkeys(order, 0.0)
    for v, k in enumerate(graph.degrees().tolist()):
        degree_sum[labels[v]] += k
    q = 0.0
    for c in order:
        q += 2.0 * intra[c] - degree_sum[c] ** 2 / m_total
    return q / m_total


def kernel_basis_mod_p(matrix: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of the null space of a matrix over Z/p, one vector per free column."""
    a = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    rows, cols = a.shape
    if cols == 0:
        return []
    rref, pivots = _row_reduce(a, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = np.zeros(cols, dtype=np.int64)
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = (-rref[r, free]) % p
        basis.append(v)
    return basis


class EchelonSpan:
    """Incrementally echelonized span of vectors in (Z/p)^n.

    ``residual(v)`` returns the unique representative of v modulo the
    span with zeros at every pivot coordinate, so two vectors have
    equal residuals exactly when they differ by a span element.
    """

    def __init__(self, n: int, p: int):
        self.n = n
        self.p = p
        self._rows: dict[int, np.ndarray] = {}

    def residual(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64) % self.p
        if v.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}")
        v = v.copy()
        for c in sorted(self._rows):
            if v[c]:
                v = (v - v[c] * self._rows[c]) % self.p
        return v

    def insert(self, v: np.ndarray) -> bool:
        """Add v to the span; False when v was already contained."""
        r = self.residual(v)
        lead = np.nonzero(r)[0]
        if lead.size == 0:
            return False
        c = int(lead[0])
        self._rows[c] = r * pow(int(r[c]), self.p - 2, self.p) % self.p
        return True

    @property
    def dim(self) -> int:
        return len(self._rows)


def _chain_to_vector(c: Chain, index: dict[Simplex, int]) -> np.ndarray:
    v = np.zeros(len(index), dtype=np.int64)
    for s, a in c.items():
        if s not in index:
            raise ValueError(f"{s!r} is not a simplex of the complex")
        v[index[s]] = a
    return v


def _vector_to_chain(v: np.ndarray, simplices: Sequence[Simplex], dim: int) -> Chain:
    return Chain(dim, {simplices[i]: int(a) for i, a in enumerate(v) if a})


def betti_numbers(simplices: Iterable[Simplex], max_k: int, field: PrimeField) -> tuple[int, ...]:
    sims = set(simplices)
    return tuple(betti_of_complex(sims, k, field) for k in range(max_k + 1))


class CosetReducer:
    """Canonical representatives of homology classes at one scale.

    Reduces cycles against an echelonized basis of the k-boundary
    space: two cycles map to equal representatives exactly when their
    difference is a sum of boundaries, which realizes coset addition
    and scalar action on actual chains.
    """

    def __init__(self, simplices: Iterable[Simplex], k: int, field: PrimeField):
        if k < 0:
            raise ValueError("k must be >= 0")
        sims = set(simplices)
        violations = validate_complex(sims)
        if violations:
            raise ValueError(f"input is not face-closed: {violations[:3]}")
        by_dim = simplices_by_dim(sims)
        self.k = k
        self.field = field
        self._faces = by_dim.get(k - 1, [])
        self._k_simplices = by_dim.get(k, [])
        self._index = {s: i for i, s in enumerate(self._k_simplices)}
        self._boundaries = EchelonSpan(len(self._k_simplices), field.p)
        for col in boundary_matrix(by_dim.get(k + 1, []), self._k_simplices, field.p).T:
            self._boundaries.insert(col)

    def is_cycle(self, c: Chain) -> bool:
        return boundary_chain(c, self.field).is_zero

    def representative(self, c: Chain) -> Chain:
        """Reduce a k-cycle modulo the boundary space."""
        if c.dim != self.k:
            raise ValueError(f"expected a chain of dimension {self.k}, got {c.dim}")
        if not self.is_cycle(c):
            raise ValueError("chain is not a cycle (nonzero boundary)")
        v = _chain_to_vector(c, self._index)
        return _vector_to_chain(self._boundaries.residual(v), self._k_simplices, self.k)

    def is_boundary(self, c: Chain) -> bool:
        return self.representative(c).is_zero

    def same_class(self, c1: Chain, c2: Chain) -> bool:
        return self.representative(c1) == self.representative(c2)


def homology_basis(simplices: Iterable[Simplex], k: int, field: PrimeField) -> list[Chain]:
    """Cycle representatives of a basis of the k-th homology group.

    The returned chains have zero boundary, are independent modulo the
    boundary space, and there are exactly betti_of_complex(...) of them:
    each cycle of a kernel basis of the k-boundary map (every k-chain
    when k = 0, whose boundary matrix has no rows) is kept when it is
    new modulo the boundaries and the cycles kept before it.
    """
    reducer = CosetReducer(simplices, k, field)
    k_simplices, span, p = reducer._k_simplices, reducer._boundaries, field.p
    generators = []
    for z in kernel_basis_mod_p(boundary_matrix(k_simplices, reducer._faces, p), p):
        r = span.residual(z)
        if span.insert(r):
            generators.append(_vector_to_chain(r, k_simplices, k))
    return generators
