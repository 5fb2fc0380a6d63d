import io
import itertools
import math
import pickle
import random

import pytest

from wordhom import (
    Filtration,
    Simplex,
    SimplexBudgetError,
    WeightedGraph,
    build_vr_filtration,
    face_closure,
    persistence_clusters,
    sweep,
    validate_complex,
)
from conftest import random_dissimilarity_graph


def test_edge_membership_by_scale():
    # strength 0.4 -> dissimilarity 0.6: present at 0.7, absent at 0.5
    g = WeightedGraph(2, {(0, 1): 0.4})
    filt = build_vr_filtration(g, max_dim=1, max_eps=1.0)
    edge = Simplex((0, 1))
    assert edge in filt.complex_at(0.7)
    assert edge not in filt.complex_at(0.5)


def test_triangle_clique_rule():
    g = WeightedGraph.from_dissimilarities(3, {(0, 1): 0.3, (0, 2): 0.3, (1, 2): 0.3})
    filt = build_vr_filtration(g, max_dim=2, max_eps=1.0)
    births = {s: b for s, b in filt}
    assert births[Simplex((0, 1, 2))] == 0.3
    assert filt.complex_at(0.3) == set(births)


def test_mixed_triangle_birth_is_max_edge():
    g = WeightedGraph.from_dissimilarities(3, {(0, 1): 0.2, (0, 2): 0.5, (1, 2): 0.3})
    filt = build_vr_filtration(g, max_dim=2, max_eps=1.0)
    births = {s: b for s, b in filt}
    assert births[Simplex((0, 1, 2))] == 0.5


def test_no_edges_gives_vertices_only():
    g = WeightedGraph.from_dissimilarities(4, {})
    filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
    assert len(filt) == 4
    assert all(s.dim == 0 for s, _ in filt)


def test_complex_at_zero_is_vertex_set():
    rng = random.Random(5)
    g = random_dissimilarity_graph(rng)
    filt = build_vr_filtration(g, max_dim=2, max_eps=1.0, vertex_birth="zero")
    at_zero = filt.complex_at(0.0)
    expected = {Simplex((v,)) for v in range(g.n)}
    # edges with dissimilarity exactly 0 would join; generator avoids 0
    assert at_zero == expected


def test_complex_at_max_eps_is_everything():
    rng = random.Random(6)
    g = random_dissimilarity_graph(rng)
    filt = build_vr_filtration(g, max_dim=2, max_eps=1.0)
    assert filt.complex_at(1.0) == {s for s, _ in filt}


def test_nesting_over_grid():
    rng = random.Random(7)
    for _ in range(10):
        g = random_dissimilarity_graph(rng)
        filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
        grid = [i / 9 for i in range(10)]
        complexes = [filt.complex_at(e) for e in grid]
        for small, large in itertools.combinations(range(10), 2):
            assert complexes[small] <= complexes[large]


def test_every_complex_is_face_closed():
    rng = random.Random(8)
    for _ in range(10):
        g = random_dissimilarity_graph(rng)
        filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
        for eps in filt.event_values():
            assert validate_complex(filt.complex_at(eps)) == []
        assert filt.validate() == []


def test_birth_is_max_pairwise_dissimilarity_brute_force():
    rng = random.Random(9)
    for _ in range(10):
        g = random_dissimilarity_graph(rng, n_min=5, n_max=10)
        filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
        births = {s: b for s, b in filt}
        for s, b in births.items():
            if s.dim == 0:
                assert b == 0.0
            else:
                ds = [g.dissimilarity(i, j) for i, j in itertools.combinations(s.vertices, 2)]
                assert all(d is not None for d in ds)
                assert b == max(ds)


def test_determinism():
    rng = random.Random(10)
    g = random_dissimilarity_graph(rng)
    f1 = build_vr_filtration(g, max_dim=3, max_eps=1.0)
    f2 = build_vr_filtration(g, max_dim=3, max_eps=1.0)
    assert f1.entries == f2.entries


def test_max_eps_prunes():
    g = WeightedGraph.from_dissimilarities(3, {(0, 1): 0.2, (0, 2): 0.9, (1, 2): 0.3})
    filt = build_vr_filtration(g, max_dim=2, max_eps=0.5)
    sims = {s for s, _ in filt}
    assert Simplex((0, 2)) not in sims
    assert Simplex((0, 1, 2)) not in sims
    assert Simplex((0, 1)) in sims


def test_first_edge_vertex_births():
    g = WeightedGraph.from_dissimilarities(3, {(0, 1): 0.4, (1, 2): 0.7})
    filt = build_vr_filtration(g, max_dim=1, max_eps=1.0, vertex_birth="first-edge")
    births = {s: b for s, b in filt}
    assert births[Simplex((0,))] == 0.4
    assert births[Simplex((1,))] == 0.4
    assert births[Simplex((2,))] == 0.7
    assert filt.validate() == []
    assert g.vertex_births("first-edge") == [0.4, 0.4, 0.7]


def test_isolated_vertex_born_at_zero_in_first_edge_mode():
    g = WeightedGraph.from_dissimilarities(2, {})
    filt = build_vr_filtration(g, max_dim=1, max_eps=1.0, vertex_birth="first-edge")
    assert [b for _, b in filt] == [0.0, 0.0]


def test_simplex_budget():
    edges = {(i, j): 0.1 for i in range(8) for j in range(i + 1, 8)}
    g = WeightedGraph.from_dissimilarities(8, edges)
    with pytest.raises(SimplexBudgetError, match="budget"):
        build_vr_filtration(g, max_dim=3, max_eps=1.0, max_simplices=20)


def test_validate_complex_reports_missing_faces():
    assert validate_complex({Simplex((0,)), Simplex((1,)), Simplex((0, 1))}) == []
    violations = validate_complex({Simplex((0, 1))})
    missing = {f for _, f in violations}
    assert missing == {Simplex((0,)), Simplex((1,))}


def test_face_closure():
    closed = face_closure([Simplex((0, 1, 2))])
    assert len(closed) == 7
    assert validate_complex(closed) == []


def test_filtration_tsv_roundtrip_shape():
    g = WeightedGraph.from_dissimilarities(3, {(0, 1): 0.25, (1, 2): 0.5})
    filt = build_vr_filtration(g, max_dim=2, max_eps=1.0)
    buf = io.StringIO()
    filt.to_tsv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "0.0\t0"
    assert lines[-1] == "0.5\t1,2"
    assert len(lines) == len(filt)


def test_filtration_rejects_unsorted():
    with pytest.raises(ValueError, match="sorted"):
        Filtration([(Simplex((0, 1)), 0.5), (Simplex((0,)), 0.0)], 1, 1.0)


def test_filtration_rejects_repeated_simplex():
    entries = [(Simplex((0,)), 0.0), (Simplex((1,)), 0.0), (Simplex((0, 1)), 0.1), (Simplex((0, 1)), 0.5)]
    with pytest.raises(ValueError, match=r"Simplex\(\[0, 1\]\) appears more than once"):
        Filtration(entries, 1, 1.0)


def test_graph_validation():
    for bad in ({(0, 1): 1.5}, {(0, 1): -0.1}, {(0, 1): math.nan}, {(1, 0): 0.5}, {(0, 0): 0.5}, {(0, 2): 0.5}):
        with pytest.raises(ValueError):
            WeightedGraph(2, bad)
        with pytest.raises(ValueError):
            WeightedGraph.from_dissimilarities(2, bad)
    with pytest.raises(ValueError, match=r"weight 0.0 of edge \(0, 1\) outside \(0, 1\]"):
        WeightedGraph(2, {(0, 1): 0.0})
    assert WeightedGraph.from_dissimilarities(2, {(0, 1): 0.0}).edges() == [(0, 1, 1.0)]
    assert WeightedGraph.from_dissimilarities(2, {(0, 1): 1.0}).edges() == [(0, 1, 0.0)]
    with pytest.raises(ValueError):
        WeightedGraph(-1, {})
    with pytest.raises(AttributeError, match="immutable"):
        WeightedGraph(2, {}).n = 3


def test_graph_dissimilarity_view():
    g = WeightedGraph(3, {(1, 2): 0.1, (0, 1): 0.7})
    assert g.dissimilarity(1, 0) == 1.0 - 0.7 == 0.30000000000000004
    assert g.dissimilarity(0, 2) is None
    assert g.sorted_dissimilarities() == [(1.0 - 0.7, 0, 1), (1.0 - 0.1, 1, 2)]
    assert g.dissimilarity_events() == (1.0 - 0.7, 1.0 - 0.1)
    assert g.adjacency() == {0: {1: 1.0 - 0.7}, 1: {0: 1.0 - 0.7, 2: 1.0 - 0.1}, 2: {1: 1.0 - 0.1}}
    # given dissimilarities are kept exactly, strengths derived from them
    h = WeightedGraph.from_dissimilarities(2, {(0, 1): 0.3})
    assert h.dissimilarity(0, 1) == 0.3
    assert h.edges() == [(0, 1, 1.0 - 0.3)]
    # equal strengths, different dissimilarities: different graphs
    assert WeightedGraph(2, {(0, 1): 1.0 - 0.3}) != h


def test_graph_pickle_round_trip():
    for g in (
        WeightedGraph(4, {(2, 3): 0.25, (0, 1): 0.7, (1, 2): 0.1}),
        WeightedGraph.from_dissimilarities(3, {(0, 1): 0.3, (0, 2): 1.0}),
    ):
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g
        assert clone.degrees().tolist() == g.degrees().tolist()
        assert clone.total_weight() == g.total_weight()
        with pytest.raises(AttributeError):
            clone.n = 0


def test_unknown_vertex_birth_mode_same_error_everywhere():
    g = WeightedGraph(2, {(0, 1): 0.5})
    routes = (
        lambda: build_vr_filtration(g, vertex_birth="last-edge"),
        lambda: persistence_clusters(g, 0.1, vertex_birth="last-edge"),
        lambda: sweep(g, "persistence", [0.1], vertex_birth="last-edge"),
    )
    messages = set()
    for route in routes:
        with pytest.raises(ValueError, match="unknown vertex birth mode 'last-edge'") as info:
            route()
        messages.add(str(info.value))
    assert len(messages) == 1
