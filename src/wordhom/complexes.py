"""The word-association graph and the Vietoris-Rips filtrations built on it.

:class:`WeightedGraph` is the one graph type of the package: it holds
each edge's strength w and its dissimilarity d = 1 - w. Filtrations,
thresholds and merge persistence read d; modularity and Markov flow
read w.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Iterator, Mapping, TextIO

import numpy as np

from .simplices import Simplex

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
    """

    __slots__ = ("n", "_w", "_d")

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

    def __setattr__(self, name, value):
        raise AttributeError("WeightedGraph is immutable")

    def __getstate__(self):
        return (self.n, self._w, self._d)

    def __setstate__(self, state):
        self._set(*state)

    @property
    def n_edges(self) -> int:
        return len(self._w)

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as (i, j, w), sorted by vertex pair."""
        return [(i, j, w) for (i, j), w in sorted(self._w.items())]

    def dissimilarity(self, i: int, j: int) -> float | None:
        if i > j:
            i, j = j, i
        return self._d.get((i, j))

    def sorted_dissimilarities(self) -> list[tuple[float, int, int]]:
        """Edges as (d, i, j) in increasing dissimilarity: the merge order."""
        return sorted((d, i, j) for (i, j), d in self._d.items())

    def dissimilarity_events(self) -> tuple[float, ...]:
        """Sorted distinct edge dissimilarities."""
        return tuple(sorted(set(self._d.values())))

    def adjacency(self) -> dict[int, dict[int, float]]:
        """Dissimilarity of each neighbour, per vertex."""
        adj: dict[int, dict[int, float]] = {v: {} for v in range(self.n)}
        for (i, j), d in self._d.items():
            adj[i][j] = d
            adj[j][i] = d
        return adj

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
        k = [0.0] * self.n
        for (i, j), w in self._w.items():
            k[i] += w
            k[j] += w
        return np.array(k, dtype=np.float64)

    def total_weight(self) -> float:
        return float(sum(self._w.values()))

    def scaled(self, factor: float) -> "WeightedGraph":
        return WeightedGraph(self.n, {e: w * factor for e, w in self._w.items()})

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
    """Distinct simplices tagged with birth values, sorted by (birth, dim, vertices).

    Every face of a simplex appears earlier with birth no larger than
    the simplex's own; :func:`build_vr_filtration` guarantees this by
    construction and :meth:`validate` re-checks it.
    """

    __slots__ = ("_entries", "_births", "max_dim", "max_eps")

    def __init__(self, entries: Iterable[tuple[Simplex, float]], max_dim: int, max_eps: float):
        entries = tuple((s, float(b)) for s, b in entries)
        keys = [(b, s.dim, s.vertices) for s, b in entries]
        if keys != sorted(keys):
            raise ValueError("filtration entries must be sorted by (birth, dim, vertices)")
        seen = set()
        for s, b in entries:
            if s.vertices in seen:
                raise ValueError(f"{s!r} appears more than once in the filtration")
            seen.add(s.vertices)
            if b < 0:
                raise ValueError(f"negative birth {b} for {s!r}")
            if s.dim > max_dim:
                raise ValueError(f"{s!r} exceeds max_dim={max_dim}")
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_births", tuple(b for _, b in entries))
        object.__setattr__(self, "max_dim", max_dim)
        object.__setattr__(self, "max_eps", float(max_eps))

    def __setattr__(self, name, value):
        raise AttributeError("Filtration is immutable")

    @classmethod
    def from_complex(
        cls,
        simplices: Iterable[Simplex],
        birth: float | Mapping[Simplex, float] = 0.0,
        max_eps: float = 1.0,
    ) -> "Filtration":
        """Wrap a fixed complex as a filtration (uniform birth by default)."""
        sims = set(simplices)
        if isinstance(birth, Mapping):
            entries = [(s, float(birth[s])) for s in sims]
        else:
            entries = [(s, float(birth)) for s in sims]
        entries.sort(key=lambda e: (e[1], e[0].dim, e[0].vertices))
        max_dim = max((s.dim for s in sims), default=0)
        return cls(entries, max_dim, max_eps)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[Simplex, float]]:
        return iter(self._entries)

    @property
    def entries(self) -> tuple[tuple[Simplex, float], ...]:
        return self._entries

    def complex_at(self, eps: float) -> set[Simplex]:
        """All simplices born at or before eps (monotone in eps)."""
        cut = bisect_right(self._births, eps)
        return {s for s, _ in self._entries[:cut]}

    def event_values(self) -> tuple[float, ...]:
        return tuple(sorted(set(self._births)))

    def validate(self) -> list[str]:
        """Closure and birth-monotonicity violations (empty when sound)."""
        births = {s.vertices: b for s, b in self._entries}
        problems = []
        for s, b in self._entries:
            vs = s.vertices
            for j in range(len(vs) if len(vs) > 1 else 0):
                face = vs[:j] + vs[j + 1 :]
                fb = births.get(face)
                if fb is None:
                    problems.append(f"{s!r} present without its face {Simplex(face)!r}")
                elif fb > b:
                    problems.append(f"face {Simplex(face)!r} born at {fb} after {s!r} at {b}")
        return problems

    def to_tsv(self, stream: TextIO) -> None:
        for s, b in self._entries:
            stream.write(f"{b!r}\t{','.join(map(str, s.vertices))}\n")

    def __repr__(self) -> str:
        return f"Filtration({len(self)} simplices, max_dim={self.max_dim}, max_eps={self.max_eps})"


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
    work is proportional to the simplices actually emitted.

    Raises :class:`SimplexBudgetError` when more than ``max_simplices``
    simplices would be produced.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    if not 0.0 <= max_eps <= 1.0:
        raise ValueError("max_eps must lie in [0, 1]")

    births = graph.vertex_births(vertex_birth)
    adj = graph.adjacency()
    neighbors = {
        v: sorted(u for u, d in adj[v].items() if u > v and d <= max_eps)
        for v in range(graph.n)
    }

    entries: list[tuple[Simplex, float]] = []

    def emit(vertices: tuple[int, ...], birth: float) -> None:
        if max_simplices is not None and len(entries) >= max_simplices:
            raise SimplexBudgetError(
                f"complex exceeds the {max_simplices}-simplex budget; "
                "lower max_eps or max_dim, or raise the budget"
            )
        entries.append((Simplex(vertices), birth))

    def grow(clique: tuple[int, ...], birth: float, cand: list[int]) -> None:
        # invariant: every candidate is adjacent (within max_eps) to all of clique
        for idx, u in enumerate(cand):
            b = birth
            for w in clique:
                d = adj[u][w]
                if d > b:
                    b = d
            extended = clique + (u,)
            emit(extended, b)
            if len(extended) <= max_dim:
                nxt = [w for w in cand[idx + 1 :] if w in adj[u] and adj[u][w] <= max_eps]
                if nxt:
                    grow(extended, b, nxt)

    for v in range(graph.n):
        if births[v] <= max_eps:
            emit((v,), births[v])
        if max_dim >= 1:
            grow((v,), births[v], neighbors[v])

    entries.sort(key=lambda e: (e[1], e[0].dim, e[0].vertices))
    return Filtration(entries, max_dim, max_eps)


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
