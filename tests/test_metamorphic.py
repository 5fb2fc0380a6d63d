"""Properties checked against routes that share no code with the ones
they check: the barcode of the same graph under other vertex ids and
under an increasing remap of its dissimilarities, the vertex births read
off the edge list, the minimum spanning forest of ``networkx``, and the
nesting of persistence partitions."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from wordhom import PrimeField, WeightedGraph, build_vr_filtration, persistence_clusters, reduce_filtration, sweep


@st.composite
def relabelled_graphs(draw):
    """(n, dissimilarities, permutation of the vertex ids) on up to 8
    vertices; tied and zero dissimilarities are common."""
    n = draw(st.integers(1, 8))
    value = st.one_of(st.none(), st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 1.0))
    edges = {e: d for e in combinations(range(n), 2) if (d := draw(value)) is not None}
    return n, edges, draw(st.permutations(range(n)))


@st.composite
def remapped_graphs(draw):
    """(n, dissimilarities, remap): the remap fixes 0 and sends the other
    drawn values, in increasing order, to increasing values in (0, 1]."""
    n, edges, _ = draw(relabelled_graphs())
    values = sorted(set(edges.values()) - {0.0})
    image = st.sampled_from((0.25, 0.5, 1.0)) | st.floats(0.0, 1.0, exclude_min=True)
    images = draw(st.lists(image, min_size=len(values), max_size=len(values), unique=True))
    return n, edges, dict(zip([0.0, *values], [0.0, *sorted(images)]))


def reduced(n, edges, max_dim, p, vertex_birth="zero"):
    graph = WeightedGraph.from_dissimilarities(n, edges)
    filt = build_vr_filtration(graph, max_dim=max_dim, vertex_birth=vertex_birth)
    return reduce_filtration(filt, PrimeField(p))


def diagram(n, edges, max_dim, p, vertex_birth="zero"):
    """Sorted (dim, birth, death) triples of the graph's VR barcode."""
    bars = reduced(n, edges, max_dim, p, vertex_birth).barcode().all_intervals()
    return sorted((iv.dim, iv.birth, iv.death) for iv in bars)


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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(relabelled_graphs(), st.integers(1, 3), st.sampled_from((2, 3)))
def test_h0_bars_are_born_at_the_vertex_births(graph, max_dim, p):
    """Every vertex opens an H0 bar at its birth: 0, or under first-edge
    births its smallest incident dissimilarity (0 if it has none)."""
    n, edges, _ = graph
    first = [min((d for e, d in edges.items() if v in e), default=0.0) for v in range(n)]
    for vertex_birth, births in (("zero", [0.0] * n), ("first-edge", first)):
        bars = diagram(n, edges, max_dim, p, vertex_birth)
        assert sorted(birth for dim, birth, _ in bars if dim == 0) == sorted(births)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(remapped_graphs(), st.integers(1, 3), st.sampled_from((2, 3)), st.sampled_from(("zero", "first-edge")))
def test_an_increasing_remap_of_the_dissimilarities_maps_every_bar_end(graph, max_dim, p, vertex_birth):
    n, edges, remap = graph
    before = reduced(n, edges, max_dim, p, vertex_birth)
    after = reduced(n, {e: remap[d] for e, d in edges.items()}, max_dim, p, vertex_birth)
    assert (after.pairs, after.essentials) == (before.pairs, before.essentials)
    remap[math.inf] = math.inf
    ends = sorted((iv.dim, remap[iv.birth], remap[iv.death]) for iv in before.barcode().all_intervals())
    assert sorted((iv.dim, iv.birth, iv.death) for iv in after.barcode().all_intervals()) == ends


@settings(max_examples=80, deadline=None, derandomize=True)
@given(relabelled_graphs(), st.data())
def test_persistence_partitions_are_nested_as_tau_grows(graph, data):
    """Each cluster at a smaller tau lies inside one cluster at a larger
    tau; the grid favours lifetimes, differences of two drawn values."""
    n, edges, _ = graph
    g = WeightedGraph.from_dissimilarities(n, edges)
    values = {0.0, *edges.values()}
    lifetimes = sorted({b - a for a in values for b in values if b >= a})
    taus = sorted(data.draw(st.lists(st.sampled_from(lifetimes) | st.floats(0.0, 1.0), min_size=2, max_size=6)))
    for mode in ("first-edge", "zero"):
        parts = [persistence_clusters(g, tau, mode).labels for tau in taus]
        for finer, coarser in zip(parts, parts[1:]):
            assert len(set(zip(finer, coarser))) == len(set(finer))


def brute_force_persistence(n, edges, tau, vertex_birth):
    """Persistence clustering from its definition, with nothing carried
    between edges but the vertex sets: edges in (d, i, j) order; a
    component's birth is recomputed as the least birth of its vertices,
    and an edge between two components merges them if d minus the
    younger (larger) birth is at most tau."""
    births = [0.0] * n
    if vertex_birth == "first-edge":
        births = [min((d for e, d in edges.items() if v in e), default=0.0) for v in range(n)]
    components = [{v} for v in range(n)]
    for d, i, j in sorted((d, i, j) for (i, j), d in edges.items()):
        a = next(c for c in components if i in c)
        b = next(c for c in components if j in c)
        if a is not b and d - max(min(births[v] for v in a), min(births[v] for v in b)) <= tau:
            components.remove(b)
            a |= b
    return {frozenset(c) for c in components}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(relabelled_graphs())
def test_persistence_clusters_equal_the_brute_force_definition(graph):
    """At every lifetime the graph can produce (each decision changes
    only there) and at inf, under both vertex-birth modes, the
    partitions and the sweep's cluster counts are the brute force's."""
    n, edges, _ = graph
    g = WeightedGraph.from_dissimilarities(n, edges)
    values = {0.0, *edges.values()}
    taus = sorted({b - a for a in values for b in values if b >= a}) + [math.inf]
    for mode in ("first-edge", "zero"):
        expected = [brute_force_persistence(n, edges, tau, mode) for tau in taus]
        for tau, parts in zip(taus, expected):
            labels = persistence_clusters(g, tau, mode).labels
            assert {frozenset(v for v in range(n) if labels[v] == k) for k in set(labels)} == parts
        if g.total_weight() > 0:  # a sweep scores its rows, and modularity needs weight
            rows = sweep(g, "persistence", taus, vertex_birth=mode).rows
            assert [row.n_clusters for row in rows] == list(map(len, expected))
