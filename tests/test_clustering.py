import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import wordhom
from wordhom import (
    Clustering,
    SweepRow,
    WeightedGraph,
    markov_clusters,
    modularity,
    persistence_clusters,
    sweep,
    threshold_clusters,
)
from wordhom.clustering import cluster_by_method


def random_weighted_graph(rng, n_min=5, n_max=14, p_edge=0.5):
    n = rng.randint(n_min, n_max)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                edges[(i, j)] = round(rng.uniform(0.05, 1.0), 3)
    if not edges:
        edges[(0, 1)] = 0.5
    return WeightedGraph(n, edges)


def two_cliques(bridge=0.05):
    edges = {}
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges[(base + i, base + j)] = 1.0
    edges[(4, 5)] = bridge
    return WeightedGraph(10, edges)


def test_threshold_extremes():
    g = random_weighted_graph(random.Random(0))
    all_below_one = all(w < 1.0 for _, _, w in g.edges())
    if all_below_one:
        assert threshold_clusters(g, 0.0).n_clusters == g.n
    # eps = 1 keeps every edge
    full = threshold_clusters(g, 1.0)
    from wordhom import UnionFind

    uf = UnionFind(g.n)
    for i, j, _ in g.edges():
        uf.union(i, j)
    assert full.n_clusters == uf.n_components


def test_threshold_cat_dog_scales():
    g = WeightedGraph(2, {(0, 1): 0.4})
    assert threshold_clusters(g, 0.7).n_clusters == 1
    assert threshold_clusters(g, 0.5).n_clusters == 2


def test_threshold_monotone_coarsening():
    rng = random.Random(1)
    for _ in range(10):
        g = random_weighted_graph(rng)
        grid = sorted(rng.uniform(0, 1) for _ in range(8))
        parts = [threshold_clusters(g, e) for e in grid]
        for small, large in zip(parts, parts[1:]):
            mapping = {}
            for v in range(g.n):
                key = small.labels[v]
                if key in mapping:
                    assert mapping[key] == large.labels[v]
                else:
                    mapping[key] = large.labels[v]


def test_persistence_path_with_tau_zero():
    # chain a-b-c-d whose later edges outlive both endpoints' births:
    # only the two birth-edge pairs merge
    g = WeightedGraph(4, {(0, 1): 0.8, (1, 2): 0.5, (2, 3): 0.7})
    c = persistence_clusters(g, 0.0)
    assert c.labels[0] == c.labels[1]
    assert c.labels[2] == c.labels[3]
    assert c.n_clusters == 2


def test_persistence_two_tight_pairs_with_bridge():
    g = WeightedGraph(4, {(0, 1): 0.9, (2, 3): 0.9, (1, 2): 0.1})
    c = persistence_clusters(g, 0.3)
    assert c.n_clusters == 2
    assert c.labels[0] == c.labels[1] and c.labels[2] == c.labels[3]


def test_persistence_large_tau_equals_full_threshold():
    rng = random.Random(2)
    for _ in range(10):
        g = random_weighted_graph(rng)
        assert persistence_clusters(g, 2.0) == threshold_clusters(g, 1.0)


def test_persistence_zero_birth_mode_degenerates_to_threshold():
    rng = random.Random(3)
    for _ in range(10):
        g = random_weighted_graph(rng)
        for tau in (0.1, 0.4, 0.8):
            assert persistence_clusters(g, tau, vertex_birth="zero") == threshold_clusters(g, tau)


def test_persistence_rejects_negative_tau():
    for tau in (-0.1, math.nan):
        with pytest.raises(ValueError):
            persistence_clusters(two_cliques(), tau)
        with pytest.raises(ValueError):
            sweep(two_cliques(), "persistence", [0.1, tau])
    assert persistence_clusters(two_cliques(), math.inf).n_clusters == 1


def test_mcl_two_cliques():
    g = two_cliques()
    for inflation in (1.5, 2.0, 2.5, 3.0):
        result = markov_clusters(g, inflation)
        assert result.converged
        assert result.clustering.n_clusters == 2
        assert result.clustering.labels[:5] == (0,) * 5
        assert result.clustering.labels[5:] == (1,) * 5


def test_mcl_single_edge():
    for inflation in (1.3, 2.0, 4.0, 6.0):
        result = markov_clusters(WeightedGraph(2, {(0, 1): 0.7}), inflation)
        assert result.clustering.n_clusters == 1


def test_mcl_scale_invariance():
    rng = random.Random(4)
    for _ in range(5):
        g = random_weighted_graph(rng)
        base = markov_clusters(g, 2.0).clustering
        for factor in (0.1, 0.5):
            assert markov_clusters(g.scaled(factor), 2.0).clustering == base


def test_mcl_non_convergence_flag():
    result = markov_clusters(two_cliques(), 2.0, max_iter=1)
    assert not result.converged
    assert result.n_iter == 1
    assert len(result.clustering) == 10


def test_mcl_parameter_validation():
    g = two_cliques()
    with pytest.raises(ValueError):
        markov_clusters(g, 1.0)
    with pytest.raises(ValueError):
        markov_clusters(g, 2.0, expansion=1)


def test_modularity_one_cluster_is_zero():
    rng = random.Random(5)
    for _ in range(10):
        g = random_weighted_graph(rng)
        q = modularity(g, Clustering([0] * g.n))
        assert abs(q) < 1e-12


def test_modularity_single_edge_one_cluster():
    g = WeightedGraph(2, {(0, 1): 1.0})
    assert abs(modularity(g, Clustering([0, 0]))) < 1e-12


def test_modularity_two_disjoint_edges():
    g = WeightedGraph(4, {(0, 1): 1.0, (2, 3): 1.0})
    q = modularity(g, Clustering([0, 0, 1, 1]))
    assert abs(q - 0.5) < 1e-12


def test_modularity_singletons_closed_form():
    rng = random.Random(6)
    for _ in range(10):
        g = random_weighted_graph(rng)
        q = modularity(g, Clustering(list(range(g.n))))
        m = 2.0 * g.total_weight()
        expected = -sum(float(k) ** 2 for k in g.degrees()) / m**2
        assert abs(q - expected) < 1e-12


def test_modularity_relabeling_invariance():
    rng = random.Random(7)
    g = random_weighted_graph(rng)
    labels = [rng.randint(0, 3) for _ in range(g.n)]
    permuted = [(5 - l) for l in labels]
    assert modularity(g, Clustering(labels)) == pytest.approx(
        modularity(g, Clustering(permuted)), abs=1e-15
    )


def test_modularity_bounds_randomized():
    rng = random.Random(8)
    g = random_weighted_graph(rng, n_min=10, n_max=10)
    for _ in range(2000):
        labels = [rng.randint(0, 4) for _ in range(g.n)]
        q = modularity(g, Clustering(labels))
        assert -1.0 - 1e-12 <= q <= 1.0 + 1e-12


def test_modularity_rejects_edgeless():
    g = WeightedGraph(3, {})
    with pytest.raises(ValueError, match="no edges"):
        modularity(g, Clustering([0, 1, 2]))


def test_dissimilarity_one_edges_weigh_nothing():
    g = WeightedGraph.from_dissimilarities(3, {(0, 1): 1.0, (1, 2): 1.0})
    assert g.total_weight() == 0.0
    assert threshold_clusters(g, 1.0).n_clusters == 1
    assert markov_clusters(g, 2.0).clustering.n_clusters == 3
    with pytest.raises(ValueError, match="no edge weight"):
        modularity(g, Clustering([0, 0, 0]))


def test_modularity_rejects_short_labels():
    g = two_cliques()
    with pytest.raises(ValueError, match="covers"):
        modularity(g, Clustering([0, 1]))


def test_clustering_labels_densified():
    c = Clustering([7, 7, 3, 9, 3])
    assert c.labels == (0, 0, 1, 2, 1)
    assert c.n_clusters == 3
    assert c.members(1) == (2, 4)
    assert c.sizes() == (2, 2, 1)


def test_sweep_singleton_grid_matches_direct_call():
    g = two_cliques()
    result = sweep(g, "threshold", [0.5])
    assert len(result.rows) == 1
    direct = threshold_clusters(g, 0.5)
    assert result.rows[0].q == modularity(g, direct)
    assert result.rows[0].n_clusters == direct.n_clusters
    assert result.best == result.rows[0]


def test_sweep_argmax_prefers_earliest_tie():
    g = two_cliques()
    result = sweep(g, "threshold", [0.5, 0.5, 0.5])
    assert result.best is result.rows[0]


def test_sweep_methods_and_validation():
    g = two_cliques()
    with pytest.raises(ValueError, match="non-empty"):
        sweep(g, "threshold", [])
    with pytest.raises(ValueError, match="unknown method"):
        sweep(g, "louvain", [0.5])
    mcl_rows = sweep(g, "mcl", [1.5, 2.0]).rows
    assert [r.param for r in mcl_rows] == [1.5, 2.0]
    assert all(r.n_clusters == 2 for r in mcl_rows)


def test_sweep_parallel_matches_sequential():
    g = two_cliques()
    grid = [0.1, 0.5, 0.9, 0.95, 1.0]
    seq = sweep(g, "threshold", grid)
    par = sweep(g, "threshold", grid, jobs=2)
    assert seq.rows == par.rows


@st.composite
def weighted_graphs(draw):
    """Small graphs whose weights often tie, so that equal dissimilarities
    and equal vertex births are common."""
    n = draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    weight = st.sampled_from((0.25, 0.5, 0.75, 1.0)) | st.floats(0.01, 1.0)
    return WeightedGraph(n, {e: draw(weight) for e in chosen})


def grids(graph, extra=()):
    """Unsorted grids with duplicates, mixing the graph's own events
    with the ends of the range and arbitrary values."""
    values = list(graph.dissimilarity_events()) + [0.0, 1.0, *extra]
    return st.lists(st.sampled_from(values) | st.floats(0.0, 1.0), min_size=1, max_size=12)


def per_point_rows(graph, method, grid, **params):
    rows = []
    for p in grid:
        c = cluster_by_method(graph, method, p, **params)
        rows.append(SweepRow(p, modularity(graph, c), c.n_clusters))
    return rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_sweep_rows_equal_per_point_route(data):
    g = data.draw(weighted_graphs())
    grid = data.draw(grids(g))
    assert list(sweep(g, "threshold", grid).rows) == per_point_rows(g, "threshold", grid)
    grid = data.draw(grids(g, extra=(math.inf, 1.5)))
    for mode in ("zero", "first-edge"):
        result = sweep(g, "persistence", grid, vertex_birth=mode)
        assert list(result.rows) == per_point_rows(g, "persistence", grid, vertex_birth=mode)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(weighted_graphs(), st.lists(st.sampled_from((1.5, 2.0, 3.0)), min_size=1, max_size=4))
def test_mcl_sweep_in_workers_equals_per_point_route(g, grid):
    result = sweep(g, "mcl", grid, jobs=2, max_iter=3)
    assert list(result.rows) == per_point_rows(g, "mcl", grid, max_iter=3)
    expected = tuple(p for p in grid if not markov_clusters(g, p, max_iter=3).converged)
    assert result.unconverged == expected


def test_threshold_and_modularity_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(9)
    for _ in range(20):
        g = random_weighted_graph(rng)
        full = nx.Graph()
        full.add_nodes_from(range(g.n))
        full.add_weighted_edges_from(g.edges())
        partitions = [Clustering([rng.randint(0, 3) for _ in range(g.n)])]
        for eps in (0.0, 0.3, 0.6, 1.0) + g.dissimilarity_events()[::3]:
            c = threshold_clusters(g, eps)
            kept = nx.Graph()
            kept.add_nodes_from(range(g.n))
            kept.add_edges_from((i, j) for i, j, w in g.edges() if 1.0 - w <= eps)
            groups = {frozenset(c.members(k)) for k in range(c.n_clusters)}
            assert groups == {frozenset(comp) for comp in nx.connected_components(kept)}
            partitions.append(c)
        for c in partitions:
            groups = [set(c.members(k)) for k in range(c.n_clusters)]
            expected = nx.community.modularity(full, groups, weight="weight")
            assert abs(modularity(g, c) - expected) < 1e-12


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wordhom.__file__)))
    code = "import sys, wordhom; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
