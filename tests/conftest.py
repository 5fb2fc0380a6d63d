import random

import pytest

from wordhom import Simplex, WeightedGraph, build_vr_filtration
from oracle import face_closure


def shell_arm_complex():
    """Five-vertex complex: a hollow tetrahedral shell on 0..3 plus an
    unfilled triangular arm through vertex 4."""
    return face_closure(
        [
            Simplex((0, 1, 2)),
            Simplex((0, 1, 3)),
            Simplex((0, 2, 3)),
            Simplex((1, 2, 3)),
            Simplex((0, 4)),
            Simplex((2, 4)),
        ]
    )


@pytest.fixture
def shell_arm():
    return shell_arm_complex()


def circle_filtration(d=0.5):
    """The 4-cycle 0-1-2-3, every edge born at d."""
    g = WeightedGraph.from_dissimilarities(4, {(0, 1): d, (1, 2): d, (2, 3): d, (0, 3): d})
    return build_vr_filtration(g, max_dim=2, max_eps=1.0)


@pytest.fixture
def octahedron():
    """Boundary of the octahedron: antipodal pairs (0,1), (2,3), (4,5)."""
    return face_closure(
        Simplex(tuple(sorted((a, b, c))))
        for a in (0, 1)
        for b in (2, 3)
        for c in (4, 5)
    )


@pytest.fixture
def torus7():
    """Minimal 7-vertex torus triangulation (14 triangles on K7)."""
    return face_closure(
        Simplex(tuple(sorted(t)))
        for i in range(7)
        for t in ((i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7))
    )


def random_dissimilarity_graph(rng: random.Random, n_min=5, n_max=12, p_edge=0.45):
    n = rng.randint(n_min, n_max)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                edges[(i, j)] = round(rng.uniform(0.05, 0.95), 2)
    return WeightedGraph.from_dissimilarities(n, edges)


def nan_flow_graph():
    """A 14-vertex graph whose flow at inflation 400 (prune 0) drives a
    column sum below 1/DBL_MAX in its first round."""
    rng = random.Random(16)
    edges = {}
    for i in range(14):
        for j in range(i + 1, 14):
            if rng.random() < 0.4:
                edges[(i, j)] = 1 - 0.99 * rng.random()
    return WeightedGraph(14, edges)
