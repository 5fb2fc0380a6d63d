import random

import pytest

from wordhom import (
    Chain,
    PrimeField,
    Simplex,
    boundary_chain,
)
from oracle import boundary_simplex, chain_add, chain_neg, chain_scale, zero_chain

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def random_chain(rng, field, dim, n_vertices=12, max_terms=6):
    items = []
    for _ in range(rng.randint(0, max_terms)):
        verts = tuple(sorted(rng.sample(range(n_vertices), dim + 1)))
        items.append((Simplex(verts), rng.randint(1, field.p - 1)))
    return Chain.from_items(items, field, dim=dim)


def test_boundary_of_edge():
    c = boundary_simplex(Simplex((0, 1)), F5)
    assert c == Chain(0, {Simplex((1,)): 1, Simplex((0,)): 4})


def test_boundary_of_triangle():
    c = boundary_simplex(Simplex((0, 1, 2)), F5)
    # [b,c] - [a,c] + [a,b]
    assert c == Chain(
        1, {Simplex((1, 2)): 1, Simplex((0, 2)): 4, Simplex((0, 1)): 1}
    )


def test_boundary_of_vertex_is_empty():
    c = boundary_simplex(Simplex((3,)), F5)
    assert c.dim == -1 and c.is_zero


def test_boundary_of_tetrahedron_term_count():
    for k in range(1, 5):
        s = Simplex(tuple(range(k + 1)))
        assert len(boundary_simplex(s, F3)) == k + 1


def test_double_boundary_of_tetrahedron():
    s = Simplex((0, 1, 2, 3))
    dd = boundary_chain(boundary_simplex(s, F5), F5)
    assert dd.is_zero


def test_chain_add_identity_and_inverse():
    rng = random.Random(3)
    for _ in range(50):
        c = random_chain(rng, F5, 2)
        assert chain_add(c, zero_chain(2), F5) == c
        assert chain_add(c, chain_neg(c, F5), F5) == zero_chain(2)


def test_chain_add_mod_two_cancellation():
    ab = Chain(1, {Simplex((0, 1)): 1})
    ab_bc = Chain(1, {Simplex((0, 1)): 1, Simplex((1, 2)): 1})
    assert chain_add(ab, ab_bc, F2) == Chain(1, {Simplex((1, 2)): 1})


def test_chain_add_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        chain_add(zero_chain(1), zero_chain(2), F2)


def test_chain_scale():
    c = Chain(0, {Simplex((0,)): 1, Simplex((1,)): 1})
    assert chain_scale(1, c, F3) == c
    assert chain_scale(0, c, F3) == zero_chain(0)
    assert chain_scale(2, c, F3) == Chain(0, {Simplex((0,)): 2, Simplex((1,)): 2})


def test_chain_group_laws_random():
    rng = random.Random(11)
    for field in (F2, F3, F5):
        for _ in range(60):
            dim = rng.randint(0, 3)
            a = random_chain(rng, field, dim)
            b = random_chain(rng, field, dim)
            c = random_chain(rng, field, dim)
            assert chain_add(a, b, field) == chain_add(b, a, field)
            assert chain_add(chain_add(a, b, field), c, field) == chain_add(
                a, chain_add(b, c, field), field
            )


def test_boundary_linearity():
    rng = random.Random(12)
    for field in (F2, F3, F5):
        for _ in range(40):
            dim = rng.randint(1, 4)
            a = random_chain(rng, field, dim)
            b = random_chain(rng, field, dim)
            lhs = boundary_chain(chain_add(a, b, field), field)
            rhs = chain_add(boundary_chain(a, field), boundary_chain(b, field), field)
            assert lhs == rhs


def test_double_boundary_vanishes_randomized():
    rng = random.Random(13)
    for field in (F2, F3, F5):
        for _ in range(200):
            dim = rng.randint(0, 4)
            c = random_chain(rng, field, dim)
            assert boundary_chain(boundary_chain(c, field), field).is_zero


def test_boundary_mod_two_path():
    # d([a,b] + [b,c]) = [a] + [c] over Z/2
    c = Chain(1, {Simplex((0, 1)): 1, Simplex((1, 2)): 1})
    assert boundary_chain(c, F2) == Chain(0, {Simplex((0,)): 1, Simplex((2,)): 1})


def test_boundary_of_zero_chain():
    assert boundary_chain(zero_chain(3), F2).is_zero
    assert boundary_chain(zero_chain(0), F2).dim == -1


def test_zero_terms_never_stored():
    c = Chain.from_items([(Simplex((0, 1)), 1), (Simplex((0, 1)), 1)], F2)
    assert c.is_zero and len(c) == 0
    with pytest.raises(ValueError):
        Chain(1, {Simplex((0, 1)): 0})
