"""Persistence over Z/p by coboundary reduction with clearing.

Pairs and essential classes come from reducing the coboundary matrix
(de Silva, Morozov & Vejdemo-Johansson 2011, "Dualities in persistent
(co)homology"), dimension by dimension from the bottom up, with the
simplices of each dimension taken in reverse filtration order. A simplex
that kills a class one dimension lower has a coboundary column that
would reduce to zero, so it is skipped ("clearing", Chen & Kerber 2011,
"Persistent homology computation with a twist"); top-dimension simplices
have empty coboundaries and cost nothing. The boundary and coboundary
matrices have the same persistence pairing, so the barcode is that of
the standard left-to-right boundary reduction. No :class:`Simplex` is
made until a cycle is asked for, and no :class:`Interval` until a caller
asks for one: a barcode stores its bars as plain tuples.

Over Z/2 a column is an ``int`` with bit r set when row r is nonzero,
so adding a column is ``^``; over Z/p it is a dict from row to entry.
Every column has its pivot at its top row, ``bit_length() - 1`` over
Z/2 and ``max`` over Z/p: a boundary column's rows are the positions of
its faces, and its pivot is its latest face; a coboundary column's rows
are the ranks of its cofaces within their dimension, numbered from the
end (rank r of n is row n - 1 - r), so its pivot, the earliest coface,
is the top row too. For each dimension d, the faces of all
(d+1)-simplices are looked up once, in ``combinations`` order, into one
flat list of positions; a d-simplex's cofaces are the ascending flat
indices t where it appears. Index t is rank t // (d + 2), with vertex
d + 1 - t % (d + 2) omitted, which gives the entry's sign. The first
index is the unreduced pivot; a column is built only when an addition
needs it.

Representative cycles need reduced boundary columns, which the
cohomology pass does not produce. :meth:`ReducedFiltration.representative`
builds them one dimension at a time on first use, by left-to-right
reduction of only the columns that matter there: the death columns,
which are the only ones that own a pivot, and the essential columns,
whose accumulated chains are the essential cycles. The cycles are
therefore those of the full left-to-right reduction.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from itertools import chain, combinations, groupby, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .chains import Chain
from .complexes import Filtration
from .fields import PrimeField
from .simplices import Simplex


class Interval(NamedTuple):
    """Half-open lifetime [birth, death) of one homology class.

    ``death`` is ``math.inf`` for classes that never die. Indices
    locate the creating and (for finite intervals) killing simplex in
    the filtration; they may be None for intervals read back from disk.
    """

    dim: int
    birth: float
    death: float
    birth_index: int | None = None
    death_index: int | None = None

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.death)

    def sort_key(self):
        """Barcode order; it reads fields by position, so it also sorts
        the plain rows a :class:`Barcode` stores."""
        return (self[0], self[1], self[2], self[3] is None, self[3] or 0)


_as_interval = partial(tuple.__new__, Interval)  # Interval(*row) without a Python-level call


class Barcode:
    """Per-dimension collections of persistence intervals, each with
    dim >= 0, a finite birth >= 0 and a death >= it (``inf`` if essential).

    Bars are stored as rows ``(dim, birth, death, birth_index,
    death_index)``, plain tuples however the barcode was made, which the
    cyclic garbage collector untracks (it never untracks a named tuple);
    :meth:`intervals` and :meth:`all_intervals` make :class:`Interval` on request.
    """

    def __init__(self, intervals: Iterator[Interval] | list[Interval]):
        intervals = list(intervals)
        for iv in intervals:
            if not (iv.dim >= 0 and 0 <= iv.birth < math.inf and iv.death >= iv.birth):
                raise ValueError(f"interval needs dim >= 0, a finite birth >= 0 and a death >= it, got {iv}")
        self._set(list(map(tuple, intervals)), Interval.sort_key)

    def _set(self, rows: list[tuple], key: Callable | None = None) -> "Barcode":
        """Sort rows by ``key`` (plain tuple order if None; either way
        by dimension first) and store them by dimension, unchecked."""
        rows.sort(key=key)
        self._by_dim = {k: tuple(run) for k, run in groupby(rows, itemgetter(0))}
        return self

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self._by_dim)

    def _rows(self, k: int, include_zero_length: bool = True) -> tuple[tuple, ...]:
        """The stored dim-k rows in (birth, death) order, zero-length ones only if asked."""
        rows = self._by_dim.get(k, ())
        if include_zero_length:
            return rows
        return tuple(row for row in rows if row[2] != row[1])

    def intervals(self, k: int, include_zero_length: bool = True) -> tuple[Interval, ...]:
        return tuple(map(_as_interval, self._rows(k, include_zero_length)))

    def all_intervals(self, include_zero_length: bool = True) -> list[Interval]:
        return [iv for k in self.dims for iv in self.intervals(k, include_zero_length)]

    def alive_count(self, k: int, eps: float) -> int:
        """Number of dim-k intervals containing eps; equals the k-th
        Betti number of the complex at that scale."""
        return sum(1 for _, birth, death, _, _ in self._rows(k) if birth <= eps < death)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Barcode):
            return False
        mine = [row[:3] for k in self.dims for row in self._rows(k)]
        return mine == [row[:3] for k in other.dims for row in other._rows(k)]

    def __repr__(self) -> str:
        counts = ", ".join(f"k={k}: {len(v)}" for k, v in self._by_dim.items())
        return f"Barcode({counts})"


# A column is an int bitset over Z/2 and a row -> entry dict over Z/p; a
# reduced column comes with the combination summing to it (empty if untracked).
Column = int | dict[int, int]
Reduced = tuple[Column, Column]


def _column(rows: Iterable[int], ks: Iterable[int], p: int) -> Column:
    """Entry (-1)**k on each row r, pairing rows with ks (unread over Z/2)."""
    if p == 2:
        col = 0
        for r in rows:
            col |= 1 << r
        return col
    return {r: 1 if k % 2 == 0 else p - 1 for r, k in zip(rows, ks)}


def _reduce_column(
    col: Column,
    combo: Column,
    owner_of: dict[int, int],
    columns: dict[int, Reduced],
    build: Callable[[int], Reduced] | None,
    p: int,
) -> tuple[int | None, Column, Column]:
    """Add multiples of owned columns to col, and of their combinations
    to combo, until col's pivot, its top row, has no owner; return that
    row (None when col empties), col and combo.

    ``owner_of`` maps a pivot row to the key of the reduced column that
    owns it, and ``columns`` holds the columns by key; ``build(key)``
    makes, stores and returns one the first time it is added. Both maps
    are read inline, so no other pivot step makes a Python-level call.
    """
    while col:
        row = col.bit_length() - 1 if p == 2 else max(col)
        if row not in owner_of:
            return row, col, combo
        other, other_combo = columns.get(owner_of[row]) or build(owner_of[row])
        if p == 2:
            col ^= other
            combo ^= other_combo
            continue
        factor = col[row] * pow(other[row], p - 2, p) % p
        for acc, add in ((col, other), (combo, other_combo)):
            for r, v in add.items():
                nv = (acc.get(r, 0) - factor * v) % p
                if nv:
                    acc[r] = nv
                else:
                    acc.pop(r, None)
    return None, col, combo


class ReducedFiltration:
    """Outcome of the reduction: the persistence pairs ``(birth, death)``,
    sorted by death, and the essential simplices, sorted by position.

    Representative cycles are computed on demand and cached per
    dimension; see :meth:`representative`.
    """

    def __init__(
        self,
        filtration: Filtration,
        field: PrimeField,
        pairs: list[tuple[int, int]],
        essentials: list[int],
    ):
        self.filtration = filtration
        self.field = field
        self.pairs = tuple(pairs)
        self.essentials = tuple(essentials)
        self._boundary_cache: dict[int, dict[int, Reduced]] = {}

    def barcode(self) -> Barcode:
        """The intervals of the pairs and essential classes. They are sound
        by construction and their birth indices are distinct, so plain
        tuple order is :meth:`Interval.sort_key` order and nothing is checked."""
        vertices, births = self.filtration.vertices, self.filtration.births
        rows = [(len(vertices[i]) - 1, births[i], births[j], i, j) for i, j in self.pairs]
        rows += ((len(vertices[i]) - 1, births[i], math.inf, i, None) for i in self.essentials)
        return Barcode.__new__(Barcode)._set(rows)

    @cached_property
    def _death_of(self) -> dict[int, int | None]:
        """Birth index -> death index, None for essential classes."""
        out: dict[int, int | None] = dict(self.pairs)
        out.update((i, None) for i in self.essentials)
        return out

    def _boundary_columns(self, dim: int) -> dict[int, Reduced]:
        """Left-to-right reduced boundary columns of the dim-simplices
        that kill a class or are essential, keyed by position.

        The combinations are tracked only when dim has essential
        classes, the only ones whose cycles need them.
        """
        cached = self._boundary_cache.get(dim)
        if cached is not None:
            return cached
        vertices, position = self.filtration.vertices, self.filtration._position
        essentials = [i for i in self.essentials if len(vertices[i]) == dim + 1]
        deaths = [j for _, j in self.pairs if len(vertices[j]) == dim + 1]
        owner_of: dict[int, int] = {}
        columns: dict[int, Reduced] = {}
        for j in sorted(deaths + essentials):
            combo = _column((j,) if essentials else (), (0,), self.field.p)
            # faces in vertex-omission order, the reverse of combinations
            faces = [position[f] for f in combinations(vertices[j], dim)][::-1] if dim else ()
            col = _column(faces, range(dim + 1), self.field.p)
            low, col, combo = _reduce_column(col, combo, owner_of, columns, None, self.field.p)
            if low is not None:
                owner_of[low] = j
            columns[j] = (col, combo)
        self._boundary_cache[dim] = columns
        return columns

    def representative(self, interval: Interval) -> Chain:
        """A cycle alive exactly on the interval.

        For a class killed by a simplex, the reduced boundary column of
        the killer; for a dim-0 class, the single younger vertex; for an
        essential class, the accumulated combination whose boundary
        vanished.
        """
        vertices = self.filtration.vertices
        i = interval.birth_index
        j = interval.death_index
        if i is None or self._death_of.get(i, -1) != j or len(vertices[i]) - 1 != interval.dim:
            raise ValueError(f"interval {interval} does not belong to this reduction")
        if j is None:
            _, terms = self._boundary_columns(interval.dim)[i]
        elif interval.dim == 0:
            terms = {i: 1}
        else:
            terms, _ = self._boundary_columns(interval.dim + 1)[j]
        if not isinstance(terms, dict):  # a Z/2 bitset: entry 1 on each set bit
            bits, terms = terms, {}
            while bits:  # bits & -bits is the lowest set bit, and bits & (bits - 1) clears it
                terms[(bits & -bits).bit_length() - 1] = 1
                bits &= bits - 1
        return Chain(interval.dim, {Simplex(vertices[r]): v for r, v in terms.items()})

    def __repr__(self) -> str:
        return (
            f"ReducedFiltration({len(self.filtration)} columns, "
            f"{len(self.pairs)} pairs, {len(self.essentials)} essential)"
        )


def reduce_filtration(filtration: Filtration, field: PrimeField) -> ReducedFiltration:
    """Persistence pairs and essential classes of a filtration over Z/p.

    For each dimension d, the coboundary column of every d-simplex not
    cleared by dimension d - 1 is reduced, in reverse filtration order,
    against the columns already reduced; its pivot is its earliest
    coface. A column left nonempty pairs its simplex (birth) with the
    pivot (death) and clears the pivot's column in dimension d + 1; a
    column that empties is an essential class. Ties are broken by
    filtration position, so at a merge the younger class dies. A
    :class:`Filtration` is checked where it is made, so it is not
    checked here.
    """
    vertices, p = filtration.vertices, field.p
    top = max(map(len, vertices), default=1)  # vertex count of the largest simplex
    by_dim: list[list[int]] = [[] for _ in range(top + 1)]
    for i, vs in enumerate(vertices):
        by_dim[len(vs) - 1].append(i)

    pairs: list[tuple[int, int]] = []
    essentials: list[int] = []
    cleared: set[int] = set()
    for d in range(top):
        cells = by_dim[d + 1]  # rank r of the coboundary rows is cells[r]
        last = len(cells) - 1  # rank r is row last - r, so a column's pivot is its top row
        k = d + 2  # faces per cell: flat index t is face k - 1 - t % k of rank t // k
        # the position of each d-simplex, to look up the faces of the cells
        position = dict(zip(map(vertices.__getitem__, by_dim[d]), by_dim[d])) if cells else {}
        faces = chain.from_iterable(map(combinations, map(vertices.__getitem__, cells), repeat(d + 1)))
        flat = list(map(position.__getitem__, faces))
        cofaces: list[list[int] | None] = [None] * len(vertices)  # per d-simplex, the flat indices of its cofaces
        for i in set(flat):
            cofaces[i] = []
        for t, i in enumerate(flat):
            cofaces[i].append(t)
        owner_of: dict[int, int] = {}  # pivot row -> simplex whose column owns it
        columns: dict[int, Reduced] = {}  # simplex -> column, once built
        empty = _column((), (), p)

        def build(i: int) -> Reduced:
            ts = cofaces[i]
            if p == 2:  # _column's loop, inlined: this is the hot build
                col = 0
                for t in ts:
                    col |= 1 << (last - t // k)
            else:
                col = _column([last - t // k for t in ts], (k - 1 - t % k for t in ts), p)
            built = columns[i] = (col, empty)
            return built

        for i in reversed(by_dim[d]):
            if i in cleared:
                continue
            row = last - cofaces[i][0] // k if cofaces[i] else None
            if row in owner_of:
                row, col, _ = _reduce_column(build(i)[0], empty, owner_of, columns, build, p)
                columns[i] = (col, empty)
            if row is None:
                essentials.append(i)
            else:
                owner_of[row] = i
                pairs.append((i, cells[last - row]))
        cleared = {cells[last - r] for r in owner_of}

    pairs.sort(key=lambda pair: pair[1])
    essentials.sort()
    return ReducedFiltration(filtration, field, pairs, essentials)


def betti_at(filtration: Filtration, eps: float, k: int, field: PrimeField) -> int:
    """k-th Betti number of the complex at scale eps: the number of dim-k
    bars alive at eps. eps must be finite; no bar is alive at ``inf``,
    essential ones included."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not math.isfinite(eps):
        raise ValueError(f"scale {eps} must be finite")
    return reduce_filtration(filtration, field).barcode().alive_count(k, eps)


def betti_of_complex(simplices: Iterable[Simplex], k: int, field: PrimeField) -> int:
    """k-th Betti number of a fixed complex, which must be face-closed.

    Every simplex is born at 0, so every pair has zero length and the
    bars alive at 0 are the essential classes.
    """
    return betti_at(Filtration([(s, 0.0) for s in set(simplices)]), 0.0, k, field)
