"""Arithmetic in the prime field of integers modulo p."""

from __future__ import annotations


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Modular arithmetic mod a prime p.

    Elements are plain ints in ``range(p)``. Construction rejects
    composite moduli so that every nonzero element a has an inverse,
    ``pow(a, p - 2, p)`` by Fermat, which the Z/p reduction step uses.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"field modulus must be an integer, got {p!r}")
        if not _is_prime(p):
            raise ValueError(f"field modulus must be prime, got {p}")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"
