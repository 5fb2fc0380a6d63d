"""Combinatorial simplices stored in canonical (sorted) vertex order."""

from __future__ import annotations

from typing import Iterable, Iterator


class Simplex:
    """A k-simplex given by k+1 distinct vertex ids in increasing order.

    Orientation is not stored here; an unordered vertex sequence is
    refused rather than sorted.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[int]):
        vs = tuple(vertices)
        if not vs:
            raise ValueError("a simplex needs at least one vertex")
        for v in vs:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"vertex ids must be non-negative ints, got {v!r}")
        for a, b in zip(vs, vs[1:]):
            if a >= b:
                raise ValueError(f"vertices must be strictly increasing, got {vs}")
        object.__setattr__(self, "vertices", vs)

    def __setattr__(self, name, value):
        raise AttributeError("Simplex is immutable")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def faces(self) -> Iterator["Simplex"]:
        """Codimension-1 faces, in vertex-omission order (j = 0..k)."""
        if self.dim == 0:
            return
        vs = self.vertices
        for j in range(len(vs)):
            yield Simplex(vs[:j] + vs[j + 1 :])

    def sort_key(self):
        return (self.dim, self.vertices)

    def __eq__(self, other) -> bool:
        return isinstance(other, Simplex) and other.vertices == self.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __lt__(self, other: "Simplex") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Simplex") -> bool:
        return self.sort_key() <= other.sort_key()

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"Simplex({list(self.vertices)})"
