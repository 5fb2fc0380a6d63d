"""Betti numbers of a fixed complex via dense Gaussian elimination mod p.

This is the rank/nullity route behind :func:`betti_at`: the k-th Betti
number is the nullity of the k-boundary matrix minus the rank of the
(k+1)-boundary matrix. It shares no code with the column reduction in
:mod:`wordhom.reduction`, so the two can check each other. The rest of
the dense oracle (homology bases, coset representatives and chain
arithmetic) is used only by the tests and lives with them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .fields import PrimeField
from .simplices import Simplex


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


def betti_at(filtration, eps: float, k: int, field: PrimeField) -> int:
    """k-th Betti number of the complex at scale eps."""
    return betti_of_complex(filtration.complex_at(eps), k, field)
