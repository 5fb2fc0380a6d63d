"""Chains with prime-field coefficients and the boundary operator."""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping

from .fields import PrimeField
from .simplices import Simplex


class Chain:
    """A formal sum of same-dimension simplices with nonzero coefficients.

    Coefficients are ints already reduced into ``range(1, p)``; zero
    terms are never stored, so structural equality is chain equality.
    ``dim == -1`` is reserved for the empty chain that boundaries of
    0-chains land in.
    """

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[Simplex, int] | None = None):
        if not isinstance(dim, int) or dim < -1:
            raise ValueError(f"chain dimension must be an int >= -1, got {dim!r}")
        terms = dict(terms or {})
        if dim == -1 and terms:
            raise ValueError("dimension -1 admits only the empty chain")
        for s, a in terms.items():
            if not isinstance(s, Simplex) or s.dim != dim:
                raise ValueError(f"term {s!r} does not have dimension {dim}")
            if not isinstance(a, int) or a == 0:
                raise ValueError(f"coefficient of {s!r} must be a nonzero int, got {a!r}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Chain is immutable")

    @classmethod
    def from_items(
        cls,
        items: Iterable[tuple[Simplex, int]],
        field: PrimeField,
        dim: int | None = None,
    ) -> "Chain":
        """Accumulate (simplex, coefficient) pairs mod p, dropping zeros."""
        acc: dict[Simplex, int] = {}
        for s, a in items:
            if dim is None:
                dim = s.dim
            v = (acc.get(s, 0) + a) % field.p
            if v:
                acc[s] = v
            else:
                acc.pop(s, None)
        if dim is None:
            raise ValueError("cannot infer dimension of an empty chain; pass dim=")
        return cls(dim, acc)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list[tuple[Simplex, int]]:
        """Terms sorted by simplex, for deterministic iteration/export."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def support(self) -> tuple[Simplex, ...]:
        return tuple(s for s, _ in self.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chain)
            and other.dim == self.dim
            and other._terms == self._terms
        )

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"Chain({self.dim}, 0)"
        body = " + ".join(f"{a}*{list(s.vertices)}" for s, a in self.items())
        return f"Chain({self.dim}, {body})"


def zero_chain(dim: int) -> Chain:
    return Chain(dim)


def chain_add(c1: Chain, c2: Chain, field: PrimeField) -> Chain:
    """Termwise field addition; zero results are dropped."""
    if c1.dim != c2.dim:
        raise ValueError(f"cannot add chains of dimensions {c1.dim} and {c2.dim}")
    return Chain.from_items(chain(c1._terms.items(), c2._terms.items()), field, c1.dim)


def chain_scale(a: int, c: Chain, field: PrimeField) -> Chain:
    """Multiply every coefficient by ``a``; a = 0 yields the zero chain."""
    a = field.normalize(a)
    if a == 0:
        return Chain(c.dim)
    if a == 1:
        return c
    return Chain(c.dim, {s: field.mul(a, v) for s, v in c._terms.items()})


def chain_neg(c: Chain, field: PrimeField) -> Chain:
    return chain_scale(field.p - 1, c, field)


def boundary_simplex(s: Simplex, field: PrimeField) -> Chain:
    """Alternating sum of the codimension-1 faces of one simplex.

    The boundary of a 0-simplex is the empty chain.
    """
    return boundary_chain(Chain(s.dim, {s: 1}), field)


def boundary_chain(c: Chain, field: PrimeField) -> Chain:
    """Linear extension of the simplex boundary to whole chains."""
    if c.dim <= 0:
        return Chain(-1)
    terms = (
        (face, a if j % 2 == 0 else field.p - a)
        for s, a in c._terms.items()
        for j, face in enumerate(s.faces())
    )
    return Chain.from_items(terms, field, c.dim - 1)
