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
made until a cycle is asked for.

Over Z/2 a column is an ``int`` with bit r set when row r is nonzero,
so adding a column is ``^``; over Z/p it is a dict from row to entry.
Rows are ranks within their dimension, to keep bitsets narrow. For each
dimension d, the faces of all (d+1)-simplices are looked up once, in
``combinations`` order, into one flat list of positions; a d-simplex's
cofaces are the ascending flat indices t where it appears. Index t is
row t // (d + 2), with vertex d + 1 - t % (d + 2) omitted, which gives
the entry's sign. The first index is the unreduced pivot; a column is
built only when an addition needs it.

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
import re
from functools import cached_property
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

    @property
    def is_zero_length(self) -> bool:
        return self.death == self.birth

    def alive_at(self, eps: float) -> bool:
        return self.birth <= eps < self.death

    def sort_key(self):
        return (self.dim, self.birth, self.death, self.birth_index is None, self.birth_index or 0)


class Barcode:
    """Per-dimension collections of persistence intervals, each with
    dim >= 0, a finite birth >= 0 and a death >= it (``inf`` if essential)."""

    def __init__(self, intervals: Iterator[Interval] | list[Interval]):
        intervals = list(intervals)
        for iv in intervals:
            if not (iv.dim >= 0 and 0 <= iv.birth < math.inf and iv.death >= iv.birth):
                raise ValueError(f"interval needs dim >= 0, a finite birth >= 0 and a death >= it, got {iv}")
        self._set(intervals, Interval.sort_key)

    def _set(self, intervals: list[Interval], key: Callable | None = None) -> "Barcode":
        """Sort intervals by ``key`` (plain tuple order if None; either way
        by dimension first) and store them by dimension, unchecked."""
        intervals.sort(key=key)
        self._by_dim = {k: tuple(run) for k, run in groupby(intervals, itemgetter(0))}
        return self

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self._by_dim)

    def intervals(self, k: int, include_zero_length: bool = True) -> tuple[Interval, ...]:
        group = self._by_dim.get(k, ())
        if include_zero_length:
            return group
        return tuple(iv for iv in group if iv.death != iv.birth)

    def all_intervals(self, include_zero_length: bool = True) -> list[Interval]:
        out = []
        for k in self.dims:
            out.extend(self.intervals(k, include_zero_length))
        return out

    def alive_count(self, k: int, eps: float) -> int:
        """Number of dim-k intervals containing eps; equals the k-th
        Betti number of the complex at that scale."""
        return sum(1 for iv in self._by_dim.get(k, ()) if iv.alive_at(eps))

    def max_finite_value(self) -> float:
        values = [0.0]
        for ivs in self._by_dim.values():
            values.append(ivs[-1].birth)  # the largest: intervals sort by birth
            values += set(map(itemgetter(2), ivs)) - {math.inf}
        return max(values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Barcode):
            return False
        mine = [(iv.dim, iv.birth, iv.death) for iv in self.all_intervals()]
        theirs = [(iv.dim, iv.birth, iv.death) for iv in other.all_intervals()]
        return mine == theirs

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
        return sum(map((1).__lshift__, rows))
    return {r: 1 if k % 2 == 0 else p - 1 for r, k in zip(rows, ks)}


def _first_row(col: Column) -> int:
    """Pivot of a coboundary column: its smallest nonzero row."""
    return (col & -col).bit_length() - 1 if isinstance(col, int) else min(col)


def _last_row(col: Column) -> int:
    """Pivot of a boundary column: its largest nonzero row."""
    return col.bit_length() - 1 if isinstance(col, int) else max(col)


def _entries(col: Column) -> dict[int, int]:
    """Nonzero row -> entry."""
    if isinstance(col, dict):
        return col
    return {m.start(): 1 for m in re.finditer("1", f"{col:b}"[::-1])}


def _reduce_column(
    col: Column,
    pivot: Callable[[Column], int],
    owner: Callable[[int], Reduced | None],
    field: PrimeField,
    combo: Column,
) -> tuple[int | None, Column, Column]:
    """Add multiples of owned columns to col, and of their combinations
    to combo, until col's pivot row has no owner (``owner`` gives the
    reduced column owning a row, or None); return that row (None when
    col empties), col and combo."""
    p = field.p
    while col:
        row = pivot(col)
        owned = owner(row)
        if owned is None:
            return row, col, combo
        other, other_combo = owned
        if p == 2:
            col, combo = col ^ other, combo ^ other_combo
            continue
        factor = col[row] * field.inv(other[row]) % p
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
        new = tuple.__new__  # new(Interval, row) is Interval(*row) without a Python-level call
        intervals = [new(Interval, (len(vertices[i]) - 1, births[i], births[j], i, j)) for i, j in self.pairs]
        intervals += (new(Interval, (len(vertices[i]) - 1, births[i], math.inf, i, None)) for i in self.essentials)
        return Barcode.__new__(Barcode)._set(intervals)

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
        vertices, faces = self.filtration.vertices, self.filtration.face_positions
        essentials = [i for i in self.essentials if len(vertices[i]) == dim + 1]
        deaths = [j for _, j in self.pairs if len(vertices[j]) == dim + 1]
        owners: dict[int, Reduced] = {}
        columns: dict[int, Reduced] = {}
        for j in sorted(deaths + essentials):
            combo = _column((j,) if essentials else (), (0,), self.field.p)
            col = _column(faces[j], range(dim + 1), self.field.p)
            low, col, combo = _reduce_column(col, _last_row, owners.get, self.field, combo)
            if low is not None:
                owners[low] = (col, combo)
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
        return Chain(interval.dim, {Simplex(vertices[r]): v for r, v in _entries(terms).items()})

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
    vertices = filtration.vertices
    top = max(map(len, vertices), default=1)  # vertex count of the largest simplex
    by_dim: list[list[int]] = [[] for _ in range(top + 1)]
    for i, vs in enumerate(vertices):
        by_dim[len(vs) - 1].append(i)

    pairs: list[tuple[int, int]] = []
    essentials: list[int] = []
    cleared: set[int] = set()
    for d in range(top):
        cells = by_dim[d + 1]  # row r of the coboundary matrix is cells[r]
        k = d + 2  # faces per row: flat index t is face k - 1 - t % k of row t // k
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
        empty = _column((), (), field.p)

        def column(i: int) -> Reduced:
            if i not in columns:
                ts = cofaces[i]
                columns[i] = (_column([t // k for t in ts], (k - 1 - t % k for t in ts), field.p), empty)
            return columns[i]

        def owner(row: int) -> Reduced | None:
            return column(owner_of[row]) if row in owner_of else None

        for i in reversed(by_dim[d]):
            if i in cleared:
                continue
            row = cofaces[i][0] // k if cofaces[i] else None
            if row in owner_of:
                row, col, _ = _reduce_column(column(i)[0], _first_row, owner, field, empty)
                columns[i] = (col, empty)
            if row is None:
                essentials.append(i)
            else:
                owner_of[row] = i
                pairs.append((i, cells[row]))
        cleared = {cells[r] for r in owner_of}

    pairs.sort(key=lambda pair: pair[1])
    essentials.sort()
    return ReducedFiltration(filtration, field, pairs, essentials)
