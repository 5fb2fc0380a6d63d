"""The word-association graph and the Vietoris-Rips filtrations built on it.

:class:`WeightedGraph` is the one graph type of the package: it holds
each edge's strength w and its dissimilarity d = 1 - w. Filtrations
read d from its edge map, thresholds and merge persistence in a merge
order it sorts once, and modularity and Markov flow read w in a pair
order it also sorts once. A :class:`Filtration` holds sorted vertex
tuples and births and makes :class:`Simplex` objects only on request.
Only :meth:`WeightedGraph.degrees` imports numpy, when it is called.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .simplices import Simplex

if TYPE_CHECKING:
    import numpy as np

VERTEX_BIRTH_MODES = ("zero", "first-edge")


class SimplexBudgetError(RuntimeError):
    """Raised when a complex would exceed the configured simplex budget."""


class WeightedGraph:
    """Symmetric association strengths w on unordered vertex pairs, with
    the dissimilarity view d = 1 - w.

    The constructor takes strengths in (0, 1] and derives each d as
    ``1.0 - w``; :meth:`from_dissimilarities` takes dissimilarities in
    [0, 1] and keeps them exactly. Absent pairs never enter any complex
    or cluster (conceptually infinite dissimilarity); they are not
    densified to d = 1. Edges keep their insertion order, which sets
    the summation order of :meth:`degrees` and :meth:`total_weight`.
    The pair-sorted and the dissimilarity-sorted edge lists are built
    on first use and kept; they are not part of the pickled state.
    """

    __slots__ = ("n", "_w", "_d", "_pair_sorted", "_merge_order")

    def __init__(self, n: int, weights: Mapping[tuple[int, int], float]):
        w = _checked_edges(n, weights, "weight", zero_ok=False)
        self._set(n, w, {e: 1.0 - x for e, x in w.items()})

    @classmethod
    def from_dissimilarities(cls, n: int, dissimilarities: Mapping[tuple[int, int], float]) -> "WeightedGraph":
        d = _checked_edges(n, dissimilarities, "dissimilarity", zero_ok=True)
        graph = cls.__new__(cls)
        graph._set(n, {e: 1.0 - x for e, x in d.items()}, d)
        return graph

    def _set(self, n: int, w: dict, d: dict) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_pair_sorted", None)
        object.__setattr__(self, "_merge_order", None)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedGraph is immutable")

    def __getstate__(self):
        return (self.n, self._w, self._d)

    def __setstate__(self, state):
        self._set(*state)

    @property
    def n_edges(self) -> int:
        return len(self._w)

    def pair_sorted_edges(self) -> tuple[tuple[int, int, float], ...]:
        """Edges as (i, j, w), sorted by vertex pair: the graph's own cached tuple."""
        if self._pair_sorted is None:
            edges = tuple((i, j, w) for (i, j), w in sorted(self._w.items()))
            object.__setattr__(self, "_pair_sorted", edges)
        return self._pair_sorted

    def weight(self, i: int, j: int) -> float | None:
        if i > j:
            i, j = j, i
        return self._w.get((i, j))

    def dissimilarity(self, i: int, j: int) -> float | None:
        if i > j:
            i, j = j, i
        return self._d.get((i, j))

    def merge_order(self) -> tuple[tuple[float, int, int], ...]:
        """Edges as (d, i, j) in increasing dissimilarity: the graph's own cached tuple."""
        if self._merge_order is None:
            order = tuple(sorted((d, i, j) for (i, j), d in self._d.items()))
            object.__setattr__(self, "_merge_order", order)
        return self._merge_order

    def dissimilarity_events(self) -> tuple[float, ...]:
        """Sorted distinct edge dissimilarities."""
        return tuple(sorted(set(self._d.values())))

    def vertex_births(self, mode: str) -> list[float]:
        """Birth value per vertex id under the given mode.

        ``zero`` births every vertex at 0 (the standard construction);
        ``first-edge`` births a vertex at its minimum incident
        dissimilarity, which gives component merges a nonzero lifetime.
        Vertices with no incident edge are born at 0 in both modes.
        """
        if mode not in VERTEX_BIRTH_MODES:
            raise ValueError(f"unknown vertex birth mode {mode!r}; expected one of {VERTEX_BIRTH_MODES}")
        if mode == "zero":
            return [0.0] * self.n
        first = [math.inf] * self.n
        for (i, j), d in self._d.items():
            if d < first[i]:
                first[i] = d
            if d < first[j]:
                first[j] = d
        return [0.0 if b == math.inf else b for b in first]

    def degrees(self) -> np.ndarray:
        import numpy as np

        k = [0.0] * self.n
        for (i, j), w in self._w.items():
            k[i] += w
            k[j] += w
        return np.array(k, dtype=np.float64)

    def total_weight(self) -> float:
        return float(sum(self._w.values()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedGraph)
            and other.n == self.n
            and other._w == self._w
            and other._d == self._d
        )

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={self.n_edges})"


def _checked_edges(n: int, values: Mapping[tuple[int, int], float], name: str, zero_ok: bool) -> dict:
    """Float copy of per-edge values in (0, 1], or [0, 1] if ``zero_ok``,
    keyed by ordered pairs within range(n)."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    checked = {}
    for (i, j), v in values.items():
        if not (0 <= i < j < n):
            raise ValueError(f"edge ({i}, {j}) is not an ordered pair within range({n})")
        v = float(v)
        if not 0.0 <= v <= 1.0 or (v == 0.0 and not zero_ok):
            interval = "[0, 1]" if zero_ok else "(0, 1]"
            raise ValueError(f"{name} {v} of edge ({i}, {j}) outside {interval}")
        checked[(i, j)] = v
    return checked


class Filtration:
    """Distinct simplices with finite births >= 0, sorted by (birth, dim, vertices).

    ``vertices`` and ``births`` are parallel tuples in that order;
    :attr:`entries` pairs them as ``(Simplex, birth)`` on first use.
    Every face of a simplex appears earlier with birth no larger than
    the simplex's own. The constructor checks this once, and nothing
    downstream again; the VR build (sound by construction) and the TSV
    reader (which names a bad row's line) use the unchecked :meth:`_set`.
    """

    def __init__(self, entries: Iterable[tuple[Simplex, float]]):
        self._set(*_in_order([(float(b), len(s), s.vertices) for s, b in entries]))
        problems = []
        for i, (vs, b) in enumerate(zip(self.vertices, self.births)):
            if self._position[vs] != i:
                problems.append(f"{Simplex(vs)!r} appears more than once in the filtration")
            if not (math.isfinite(b) and b >= 0):
                problems.append(f"birth {b} of {Simplex(vs)!r} is not finite and >= 0")
        problems += (problem for _, problem in self._violations())
        if problems:
            raise ValueError(f"filtration violates its invariants: {problems[:3]}")

    def _set(self, vertices: tuple[tuple[int, ...], ...], births: tuple[float, ...]) -> "Filtration":
        """Store vertex tuples and births already in filtration order, unchecked."""
        vars(self).update(vertices=vertices, births=births)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Filtration is immutable")

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[tuple[Simplex, float]]:
        return iter(self.entries)

    @cached_property
    def entries(self) -> tuple[tuple[Simplex, float], ...]:
        """``(Simplex, birth)`` pairs, made on first use and kept."""
        return tuple((Simplex(vs), b) for vs, b in zip(self.vertices, self.births))

    @cached_property
    def _position(self) -> dict[tuple[int, ...], int]:
        """Position of each vertex tuple (its last, if listed twice)."""
        return dict(zip(self.vertices, range(len(self.vertices))))

    def _violations(self) -> Iterator[tuple[int, str]]:
        """Each missing face, or face born after its simplex, with the
        position of that simplex. A face placed after its simplex is
        born after it: the order puts a face born with its simplex first."""
        get = self._position.get
        for i, vs in enumerate(self.vertices):
            for j in range(len(vs) if len(vs) > 1 else 0):
                f = get(vs[:j] + vs[j + 1 :])
                if f is None or f > i:
                    s, face = Simplex(vs), Simplex(vs[:j] + vs[j + 1 :])
                    if f is None:
                        yield i, f"{s!r} present without its face {face!r}"
                    else:
                        yield i, f"face {face!r} born at {self.births[f]} after {s!r} at {self.births[i]}"

    def __repr__(self) -> str:
        return f"Filtration({len(self)} simplices)"


def build_vr_filtration(
    graph: WeightedGraph,
    max_dim: int = 3,
    max_eps: float = 1.0,
    vertex_birth: str = "zero",
    max_simplices: int | None = None,
) -> Filtration:
    """Expand a graph's dissimilarities into a Vietoris-Rips filtration.

    A k-simplex is included for every (k+1)-clique of edges with
    dissimilarity at most max_eps; its birth is the largest pairwise
    dissimilarity among its vertices (vertices use ``vertex_birth``).
    Cliques are enumerated by ordered neighbor intersection, so the
    work is proportional to the simplices actually emitted; each
    candidate vertex carries its largest dissimilarity to the clique, so
    a birth is one comparison. The last level, the max_dim-simplices, is
    emitted by its parent's loop: each (max_dim - 1)-simplex appends its
    cofaces and their births directly, with no call or candidate list
    of its own. The search meets each dimension's simplices in
    lexicographic order, so one stable sort by birth puts them in
    filtration order.

    Simplices are counted in batches, the cofaces one simplex adds at a
    time, and :class:`SimplexBudgetError` is raised after the first
    batch that takes the count past ``max_simplices`` (an integer >= 0;
    None sets no budget), so the build stops within one batch of the
    budget.
    """
    from numbers import Integral, Real

    if not isinstance(max_dim, Integral) or isinstance(max_dim, bool) or max_dim < 0:
        raise ValueError(f"max_dim must be an integer >= 0, got {max_dim!r}")
    if max_simplices is not None and (
        not isinstance(max_simplices, Integral) or isinstance(max_simplices, bool) or max_simplices < 0
    ):
        raise ValueError(f"max_simplices must be an integer >= 0, got {max_simplices!r}")
    if not isinstance(max_eps, Real) or isinstance(max_eps, bool) or not 0.0 <= max_eps <= 1.0:
        raise ValueError(f"max_eps must lie in [0, 1], got {max_eps!r}")

    births = graph.vertex_births(vertex_birth)
    near: list[dict[int, float]] = [{} for _ in range(graph.n)]  # near[v][u] = d(v, u) for u > v, d <= max_eps
    for (v, u), d in graph._d.items():
        if d <= max_eps:
            near[v][u] = d
    budget = math.inf if max_simplices is None else max_simplices
    # by_dim[k] lists the k-simplices, and born[k] their births, in
    # lexicographic order: the order in which the search below meets them
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(max_dim + 1)]
    born: list[list[float]] = [[] for _ in range(max_dim + 1)]
    count = 0

    def refuse() -> None:
        raise SimplexBudgetError(
            f"complex exceeds the {max_simplices}-simplex budget; "
            "lower max_eps or max_dim, or raise the budget"
        )

    def grow(clique: tuple[int, ...], birth: float, cand: list[tuple[int, float]]) -> None:
        # cand pairs each vertex adjacent (within max_eps) to all of clique,
        # in ascending order, with the largest of its own birth and its
        # dissimilarities to clique
        nonlocal count
        count += len(cand)
        if count > budget:
            refuse()
        dim = len(clique)
        extended = [clique + (u,) for u, _ in cand]
        extended_births = [birth if birth >= d else d for _, d in cand]
        by_dim[dim] += extended
        born[dim] += extended_births
        if dim == max_dim:
            return
        if dim + 1 < max_dim:
            for idx, (u, _) in enumerate(cand):
                adjacent = near[u]
                nxt = [(w, d if d >= e else e) for w, d in cand[idx + 1 :] if (e := adjacent.get(w)) is not None]
                if nxt:
                    grow(extended[idx], extended_births[idx], nxt)
            return
        # the top level: each extended clique emits its own cofaces here,
        # without a call or candidate list of its own
        top, top_born = by_dim[max_dim], born[max_dim]
        for idx, (u, _) in enumerate(cand):
            adjacent, simplex, b = near[u], extended[idx], extended_births[idx]
            before = len(top)
            for w, d in cand[idx + 1 :]:
                e = adjacent.get(w)
                if e is not None:
                    top.append(simplex + (w,))
                    if e > d:
                        d = e
                    top_born.append(b if b >= d else d)
            count += len(top) - before
            if count > budget:
                refuse()

    grow((), 0.0, [(v, b) for v, b in enumerate(births) if b <= max_eps])
    del grow  # grow's closure cell holds grow itself: a cycle that would keep the working set alive
    # (birth, dim, vertices) order: the dimensions joined in turn, then
    # one stable sort of the positions by birth
    vertices = list(chain.from_iterable(by_dim))
    births = list(chain.from_iterable(born))
    order = sorted(range(len(births)), key=births.__getitem__)
    return Filtration.__new__(Filtration)._set(
        tuple(map(vertices.__getitem__, order)), tuple(map(births.__getitem__, order))
    )


def _in_order(rows: list[tuple[float, int, tuple[int, ...]]]) -> tuple[tuple, tuple]:
    """Vertex tuples and births of (birth, vertex count, vertices) rows, sorted."""
    rows.sort()
    return tuple(vs for _, _, vs in rows), tuple(b for b, _, _ in rows)
