import io
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from wordhom import (
    Filtration,
    PrimeField,
    Simplex,
    SimplexBudgetError,
    WeightedGraph,
    build_vr_filtration,
    persistence_clusters,
    reduce_filtration,
    sweep,
)
from wordhom.exports import write_filtration_tsv
from oracle import complex_at, event_values, face_closure, validate_complex
from conftest import random_dissimilarity_graph


def test_edge_membership_by_scale():
    # strength 0.4 -> dissimilarity 0.6: present at 0.7, absent at 0.5
    g = WeightedGraph(2, {(0, 1): 0.4})
    filt = build_vr_filtration(g, max_dim=1, max_eps=1.0)
    edge = Simplex((0, 1))
    assert edge in complex_at(filt, 0.7)
    assert edge not in complex_at(filt, 0.5)


def test_triangle_clique_rule():
    g = WeightedGraph.from_dissimilarities(3, {(0, 1): 0.3, (0, 2): 0.3, (1, 2): 0.3})
    filt = build_vr_filtration(g, max_dim=2, max_eps=1.0)
    births = {s: b for s, b in filt}
    assert births[Simplex((0, 1, 2))] == 0.3
    assert complex_at(filt, 0.3) == set(births)


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
    at_zero = complex_at(filt, 0.0)
    expected = {Simplex((v,)) for v in range(g.n)}
    # edges with dissimilarity exactly 0 would join; generator avoids 0
    assert at_zero == expected


def test_complex_at_max_eps_is_everything():
    rng = random.Random(6)
    g = random_dissimilarity_graph(rng)
    filt = build_vr_filtration(g, max_dim=2, max_eps=1.0)
    assert complex_at(filt, 1.0) == {s for s, _ in filt}


def test_nesting_over_grid():
    rng = random.Random(7)
    for _ in range(10):
        g = random_dissimilarity_graph(rng)
        filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
        grid = [i / 9 for i in range(10)]
        complexes = [complex_at(filt, e) for e in grid]
        for small, large in itertools.combinations(range(10), 2):
            assert complexes[small] <= complexes[large]


def test_every_complex_is_face_closed():
    rng = random.Random(8)
    for _ in range(10):
        g = random_dissimilarity_graph(rng)
        filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
        for eps in event_values(filt):
            assert validate_complex(complex_at(filt, eps)) == []
        assert Filtration(filt.entries).entries == filt.entries


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
    assert Filtration(filt.entries).entries == filt.entries
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


def brute_force_vr(graph, max_dim, max_eps, vertex_birth):
    """Every vertex set of at most max_dim + 1 vertices whose pairs are all
    edges within max_eps, born at the largest of its pairwise
    dissimilarities and vertex births, as (vertices, births) in
    (birth, dim, vertices) order."""
    if vertex_birth == "zero":
        vertex = [0.0] * graph.n
    else:
        vertex = [
            min((d for u in range(graph.n) if (d := graph.dissimilarity(v, u)) is not None and u != v), default=0.0)
            for v in range(graph.n)
        ]
    rows = []
    for size in range(1, max_dim + 2):
        for vs in itertools.combinations(range(graph.n), size):
            ds = [graph.dissimilarity(a, b) for a, b in itertools.combinations(vs, 2)]
            if all(d is not None and d <= max_eps for d in ds) and all(vertex[v] <= max_eps for v in vs):
                rows.append((max(ds + [vertex[v] for v in vs]), size, vs))
    rows.sort()
    return tuple(vs for _, _, vs in rows), tuple(b for b, _, _ in rows)


@st.composite
def tied_graphs(draw):
    """Graphs on up to 7 vertices whose dissimilarities take three values, so births tie."""
    n = draw(st.integers(0, 7))
    values = st.one_of(st.none(), st.sampled_from((0.25, 0.5, 1.0)))
    edges = {}
    for e in itertools.combinations(range(n), 2):
        d = draw(values)
        if d is not None:
            edges[e] = d
    return WeightedGraph.from_dissimilarities(n, edges)


@settings(max_examples=150, deadline=None)
@given(
    tied_graphs(),
    st.integers(0, 4),
    st.sampled_from((0.5, 1.0)),
    st.sampled_from(("zero", "first-edge")),
)
def test_build_equals_brute_force_cliques(graph, max_dim, max_eps, vertex_birth):
    filt = build_vr_filtration(graph, max_dim=max_dim, max_eps=max_eps, vertex_birth=vertex_birth)
    assert (filt.vertices, filt.births) == brute_force_vr(graph, max_dim, max_eps, vertex_birth)


@pytest.mark.parametrize("max_dim", range(4))
def test_simplex_budget_edge(max_dim):
    g = random_dissimilarity_graph(random.Random(21), n_min=9, n_max=9, p_edge=0.7)
    count = len(build_vr_filtration(g, max_dim=max_dim))
    assert len(build_vr_filtration(g, max_dim=max_dim, max_simplices=count)) == count
    with pytest.raises(SimplexBudgetError, match=f"complex exceeds the {count - 1}-simplex budget"):
        build_vr_filtration(g, max_dim=max_dim, max_simplices=count - 1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tied_graphs(), st.integers(1, 4), st.sampled_from(("zero", "first-edge")))
def test_budget_trips_exactly_past_the_brute_force_count(graph, max_dim, vertex_birth):
    """Every budget from the count below the top dimension, where the
    top level's batches start, up to the full count: the build refuses
    exactly the budgets below the brute-force count."""
    vertices, births = brute_force_vr(graph, max_dim, 1.0, vertex_birth)
    below = sum(len(vs) <= max_dim for vs in vertices)
    for budget in range(below, len(vertices) + 1):
        if budget < len(vertices):
            with pytest.raises(SimplexBudgetError, match=f"complex exceeds the {budget}-simplex budget"):
                build_vr_filtration(graph, max_dim=max_dim, vertex_birth=vertex_birth, max_simplices=budget)
        else:
            filt = build_vr_filtration(graph, max_dim=max_dim, vertex_birth=vertex_birth, max_simplices=budget)
            assert (filt.vertices, filt.births) == (vertices, births)


def test_reduction_leaves_face_positions_unmade():
    filt = build_vr_filtration(random_dissimilarity_graph(random.Random(22)), max_dim=3)
    reduced = reduce_filtration(filt, PrimeField(2))
    reduce_filtration(filt, PrimeField(3))
    assert set(vars(filt)) == {"vertices", "births"}
    # cycles look their faces up one at a time, through the position index
    for interval in reduced.barcode().all_intervals():
        reduced.representative(interval)
    assert set(vars(filt)) == {"vertices", "births", "_position"}


def test_max_dim_must_be_a_non_negative_integer():
    g = WeightedGraph(3, {(0, 1): 0.5, (1, 2): 0.5})
    for bad in (2.5, True, -1, None):
        with pytest.raises(ValueError, match=f"max_dim must be an integer >= 0, got {bad!r}"):
            build_vr_filtration(g, max_dim=bad)


def test_max_eps_must_be_a_real_in_the_unit_interval():
    g = WeightedGraph(3, {(0, 1): 0.5, (1, 2): 0.5})
    for bad in (True, "1", None, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=rf"max_eps must lie in \[0, 1\], got {bad!r}"):
            build_vr_filtration(g, max_eps=bad)


def test_max_simplices_must_be_a_non_negative_integer():
    g = WeightedGraph(3, {(0, 1): 0.5, (1, 2): 0.5})
    for bad in (2.5, True, -1):
        with pytest.raises(ValueError, match=f"max_simplices must be an integer >= 0, got {bad!r}"):
            build_vr_filtration(g, max_simplices=bad)
    assert len(build_vr_filtration(WeightedGraph(0, {}), max_simplices=0)) == 0


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
    write_filtration_tsv(buf, filt)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "0.0\t0"
    assert lines[-1] == "0.5\t1,2"
    assert len(lines) == len(filt)


def test_filtration_sorts_its_entries():
    g = random_dissimilarity_graph(random.Random(11))
    filt = build_vr_filtration(g, max_dim=2, max_eps=1.0)
    shuffled = list(filt.entries)
    random.Random(3).shuffle(shuffled)
    assert Filtration(shuffled).entries == filt.entries
    assert Filtration(filt.entries).entries == filt.entries


def test_filtration_entries_are_made_once():
    filt = build_vr_filtration(random_dissimilarity_graph(random.Random(12)), max_dim=2, max_eps=1.0)
    assert filt.entries is filt.entries
    assert [s.vertices for s, _ in filt] == list(filt.vertices)
    assert [b for _, b in filt] == list(filt.births)


def test_filtration_rejects_repeated_simplex():
    entries = [(Simplex((0,)), 0.0), (Simplex((1,)), 0.0), (Simplex((0, 1)), 0.1), (Simplex((0, 1)), 0.5)]
    with pytest.raises(ValueError, match=r"Simplex\(\[0, 1\]\) appears more than once"):
        Filtration(entries)


def test_graph_validation():
    for bad in ({(0, 1): 1.5}, {(0, 1): -0.1}, {(0, 1): math.nan}, {(1, 0): 0.5}, {(0, 0): 0.5}, {(0, 2): 0.5}):
        with pytest.raises(ValueError):
            WeightedGraph(2, bad)
        with pytest.raises(ValueError):
            WeightedGraph.from_dissimilarities(2, bad)
    with pytest.raises(ValueError, match=r"weight 0.0 of edge \(0, 1\) outside \(0, 1\]"):
        WeightedGraph(2, {(0, 1): 0.0})
    assert WeightedGraph.from_dissimilarities(2, {(0, 1): 0.0}).pair_sorted_edges() == ((0, 1, 1.0),)
    assert WeightedGraph.from_dissimilarities(2, {(0, 1): 1.0}).pair_sorted_edges() == ((0, 1, 0.0),)
    with pytest.raises(ValueError):
        WeightedGraph(-1, {})
    with pytest.raises(AttributeError, match="immutable"):
        WeightedGraph(2, {}).n = 3


def test_graph_dissimilarity_view():
    g = WeightedGraph(3, {(1, 2): 0.1, (0, 1): 0.7})
    assert g.dissimilarity(1, 0) == 1.0 - 0.7 == 0.30000000000000004
    assert g.dissimilarity(0, 2) is None
    assert g.weight(1, 0) == 0.7 and g.weight(0, 2) is None
    assert g.merge_order() == ((1.0 - 0.7, 0, 1), (1.0 - 0.1, 1, 2))
    assert g.dissimilarity_events() == (1.0 - 0.7, 1.0 - 0.1)
    filt = build_vr_filtration(g, max_dim=2)  # the filtration reads d from the edge map
    assert filt.vertices[3:] == ((0, 1), (1, 2)) and filt.births[3:] == (1.0 - 0.7, 1.0 - 0.1)
    # given dissimilarities are kept exactly, strengths derived from them
    h = WeightedGraph.from_dissimilarities(2, {(0, 1): 0.3})
    assert h.dissimilarity(0, 1) == 0.3
    assert h.pair_sorted_edges() == ((0, 1, 1.0 - 0.3),)
    # equal strengths, different dissimilarities: different graphs
    assert WeightedGraph(2, {(0, 1): 1.0 - 0.3}) != h


def test_graph_pickle_round_trip():
    for g in (
        WeightedGraph(4, {(2, 3): 0.25, (0, 1): 0.7, (1, 2): 0.1}),
        WeightedGraph.from_dissimilarities(3, {(0, 1): 0.3, (0, 2): 1.0}),
    ):
        g.pair_sorted_edges()  # fills the pair-sorted cache, which is not pickled
        g.merge_order()  # and the merge-order cache, likewise
        assert g.__getstate__() == (g.n, g._w, g._d)
        clone = pickle.loads(pickle.dumps(g))
        assert clone._pair_sorted is None and clone._merge_order is None
        assert clone == g
        assert clone.pair_sorted_edges() == g.pair_sorted_edges()
        assert clone.merge_order() == g.merge_order()
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


def test_edge_orders_are_cached_tuples():
    g = WeightedGraph(4, {(2, 3): 0.25, (0, 1): 0.7, (1, 2): 0.1})
    assert g.pair_sorted_edges() == ((0, 1, 0.7), (1, 2, 0.1), (2, 3, 0.25))
    assert g.pair_sorted_edges() is g.pair_sorted_edges()
    assert g.merge_order() == ((1.0 - 0.7, 0, 1), (1.0 - 0.25, 2, 3), (1.0 - 0.1, 1, 2))
    assert g.merge_order() is g.merge_order()


BROKEN_ENTRIES = {
    "repeated-simplex": ([((0,), 0.0), ((0,), 0.5)], r"Simplex\(\[0\]\) appears more than once"),
    "negative-birth": ([((0,), -0.5)], r"birth -0.5 of Simplex\(\[0\]\) is not finite and >= 0"),
    "nan-birth": ([((0,), math.nan)], r"birth nan of Simplex\(\[0\]\) is not finite and >= 0"),
    "inf-birth": ([((0,), 0.0), ((1,), math.inf)], r"birth inf of Simplex\(\[1\]\) is not finite and >= 0"),
    "missing-face": ([((0,), 0.0), ((0, 1), 0.2)], r"Simplex\(\[0, 1\]\) present without its face Simplex\(\[1\]\)"),
    "later-born-face": (
        [((0,), 0.0), ((0, 1), 0.2), ((1,), 0.5)],
        r"face Simplex\(\[1\]\) born at 0.5 after Simplex\(\[0, 1\]\) at 0.2",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_ENTRIES))
def test_filtration_refuses_broken_entries(case):
    entries, message = BROKEN_ENTRIES[case]
    with pytest.raises(ValueError, match=f"^filtration violates its invariants: .*{message}"):
        Filtration([(Simplex(vs), b) for vs, b in entries])
