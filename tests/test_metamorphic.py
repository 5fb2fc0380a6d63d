"""Properties of the barcode checked against routes that share no code
with the reduction: the same graph under other vertex ids, and the
minimum spanning forest of ``networkx``."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from wordhom import PrimeField, WeightedGraph, build_vr_filtration, reduce_filtration


@st.composite
def relabelled_graphs(draw):
    """(n, dissimilarities, permutation of the vertex ids) on up to 8
    vertices; tied and zero dissimilarities are common."""
    n = draw(st.integers(1, 8))
    value = st.one_of(st.none(), st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 1.0))
    edges = {e: d for e in combinations(range(n), 2) if (d := draw(value)) is not None}
    return n, edges, draw(st.permutations(range(n)))


def diagram(n, edges, max_dim, p, vertex_birth="zero"):
    """Sorted (dim, birth, death) triples of the graph's VR barcode."""
    graph = WeightedGraph.from_dissimilarities(n, edges)
    filt = build_vr_filtration(graph, max_dim=max_dim, vertex_birth=vertex_birth)
    return sorted((iv.dim, iv.birth, iv.death) for iv in reduce_filtration(filt, PrimeField(p)).barcode().all_intervals())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(relabelled_graphs(), st.integers(1, 3), st.sampled_from((2, 3)), st.sampled_from(("zero", "first-edge")))
def test_relabelling_the_vertices_leaves_the_diagram_unchanged(graph, max_dim, p, vertex_birth):
    n, edges, perm = graph
    relabelled = {tuple(sorted((perm[i], perm[j]))): d for (i, j), d in edges.items()}
    assert diagram(n, relabelled, max_dim, p, vertex_birth) == diagram(n, edges, max_dim, p, vertex_birth)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(relabelled_graphs(), st.integers(1, 3), st.sampled_from((2, 3)))
def test_finite_h0_deaths_are_the_minimum_spanning_forest_weights(graph, max_dim, p):
    nx = pytest.importorskip("networkx")
    n, edges, _ = graph
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_weighted_edges_from((i, j, d) for (i, j), d in edges.items())
    weights = sorted(data["weight"] for _, _, data in nx.minimum_spanning_edges(g, data=True))
    deaths = [death for dim, _, death in diagram(n, edges, max_dim, p) if dim == 0 and death != math.inf]
    assert sorted(deaths) == weights
