import itertools
import random

import pytest

from wordhom import Simplex
from oracle import canonicalize


def brute_force_sign(seq):
    """Parity oracle: decompose the sorting permutation into
    transpositions by selection and count them."""
    seq = list(seq)
    swaps = 0
    for i in range(len(seq)):
        j = seq.index(min(seq[i:]), i)
        if j != i:
            seq[i], seq[j] = seq[j], seq[i]
            swaps += 1
    return 1 if swaps % 2 == 0 else -1


def test_single_transposition():
    s, sign = canonicalize((1, 0))
    assert s == Simplex((0, 1))
    assert sign == -1


def test_two_transpositions():
    s, sign = canonicalize((2, 0, 1))
    assert s == Simplex((0, 1, 2))
    assert sign == 1


def test_duplicate_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        canonicalize((0, 0, 1))


def test_zero_simplex_sign_positive():
    _, sign = canonicalize((7,))
    assert sign == 1


def test_sign_matches_brute_force_on_all_small_permutations():
    for k in range(1, 6):
        for perm in itertools.permutations(range(k)):
            _, sign = canonicalize(perm)
            assert sign == brute_force_sign(perm), perm


def test_sign_matches_brute_force_random():
    rng = random.Random(7)
    for _ in range(300):
        verts = rng.sample(range(50), rng.randint(1, 8))
        s, sign = canonicalize(verts)
        assert s.vertices == tuple(sorted(verts))
        assert sign == brute_force_sign(verts)


def test_canonicalize_idempotent():
    rng = random.Random(8)
    for _ in range(100):
        verts = sorted(rng.sample(range(50), rng.randint(1, 8)))
        _, sign = canonicalize(verts)
        assert sign == 1


def test_simplex_requires_sorted_vertices():
    with pytest.raises(ValueError):
        Simplex((2, 1))
    with pytest.raises(ValueError):
        Simplex(())
    with pytest.raises(ValueError):
        Simplex((-1, 0))


def test_faces_count_and_order():
    s = Simplex((2, 5, 7, 9))
    faces = list(s.faces())
    assert len(faces) == 4
    assert faces[0] == Simplex((5, 7, 9))
    assert faces[-1] == Simplex((2, 5, 7))
    assert list(Simplex((3,)).faces()) == []


def test_ordering_is_dim_then_lexicographic():
    assert Simplex((9,)) < Simplex((0, 1))
    assert Simplex((0, 2)) < Simplex((1, 2))


def test_immutability():
    s = Simplex((0, 1))
    with pytest.raises(AttributeError):
        s.vertices = (1, 2)
