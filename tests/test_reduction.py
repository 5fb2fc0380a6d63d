import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import wordhom
from wordhom import (
    Barcode,
    Filtration,
    Interval,
    PrimeField,
    Simplex,
    boundary_chain,
    build_vr_filtration,
    reduce_filtration,
    threshold_clusters,
    WeightedGraph,
)
from oracle import betti_at, betti_numbers, betti_of_complex, complex_at, event_values, face_closure
from conftest import circle_filtration, random_dissimilarity_graph, vr60_graph

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_single_vertex():
    filt = Filtration([(Simplex((0,)), 0.0)])
    red = reduce_filtration(filt, F2)
    bc = red.barcode()
    assert [(iv.birth, iv.death) for iv in bc.intervals(0)] == [(0.0, math.inf)]


def test_two_vertices_one_edge_elder_rule():
    g = WeightedGraph.from_dissimilarities(2, {(0, 1): 0.4})
    red = reduce_filtration(build_vr_filtration(g, 1, 1.0), F2)
    bc = red.barcode()
    finite = [iv for iv in bc.intervals(0) if not iv.is_infinite]
    assert len(finite) == 1
    # younger of the tied vertices dies: the one later in filtration order
    assert finite[0].birth_index == 1
    assert {(iv.birth, iv.death) for iv in bc.intervals(0)} == {(0.0, 0.4), (0.0, math.inf)}


def test_shell_arm_essentials(shell_arm):
    filt = Filtration([(s, 0.0) for s in shell_arm])
    for field in (F2, F3, F5):
        bc = reduce_filtration(filt, field).barcode()
        essential = {k: sum(1 for iv in bc.intervals(k) if iv.is_infinite) for k in (0, 1)}
        assert essential == {0: 1, 1: 1}


def test_vertex_only_barcode():
    filt = Filtration([(Simplex((v,)), 0.0) for v in range(5)])
    bc = reduce_filtration(filt, F2).barcode()
    assert [(iv.birth, iv.death) for iv in bc.intervals(0)] == [(0.0, math.inf)] * 5


def test_circle_dim1_interval():
    bc = reduce_filtration(circle_filtration(), F2).barcode()
    assert [(iv.birth, iv.death) for iv in bc.intervals(1)] == [(0.5, math.inf)]


def test_circle_representative_is_the_four_cycle():
    red = reduce_filtration(circle_filtration(), F2)
    iv = red.barcode().intervals(1)[0]
    rep = red.representative(iv)
    assert {s.vertices for s in rep.support()} == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert boundary_chain(rep, F2).is_zero


def test_shell_arm_representative(shell_arm):
    filt = Filtration([(s, 0.0) for s in shell_arm])
    for field in (F2, F3, F5):
        red = reduce_filtration(filt, field)
        iv = [iv for iv in red.barcode().intervals(1) if iv.is_infinite][0]
        rep = red.representative(iv)
        assert {s.vertices for s in rep.support()} == {(0, 2), (2, 4), (0, 4)}
        assert boundary_chain(rep, field).is_zero


def test_dim0_representative_is_single_younger_vertex():
    g = WeightedGraph.from_dissimilarities(2, {(0, 1): 0.4})
    red = reduce_filtration(build_vr_filtration(g, 1, 1.0), F2)
    iv = [iv for iv in red.barcode().intervals(0) if not iv.is_infinite][0]
    rep = red.representative(iv)
    assert [s.vertices for s in rep.support()] == [(1,)]


def test_all_representatives_are_cycles():
    rng = random.Random(17)
    for _ in range(6):
        g = random_dissimilarity_graph(rng, n_max=9)
        filt = build_vr_filtration(g, max_dim=2, max_eps=1.0)
        for field in (F2, F5):
            red = reduce_filtration(filt, field)
            for iv in red.barcode().all_intervals():
                rep = red.representative(iv)
                assert boundary_chain(rep, field).is_zero
                assert not rep.is_zero


def test_representative_rejects_foreign_interval():
    red = reduce_filtration(circle_filtration(), F2)
    with pytest.raises(ValueError, match="belong"):
        red.representative(Interval(0, 0.0, 0.1, birth_index=2, death_index=3))
    with pytest.raises(ValueError, match="belong"):
        red.representative(Interval(1, 0.5, math.inf))
    with pytest.raises(ValueError, match="belong"):
        red.representative(Interval(1, 0.0, math.inf, birth_index=0))


def test_barcode_matches_rank_oracle_everywhere():
    rng = random.Random(18)
    for _ in range(12):
        g = random_dissimilarity_graph(rng, n_max=10)
        filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
        for field in (F2, F3):
            bc = reduce_filtration(filt, field).barcode()
            for eps in event_values(filt):
                for k in (0, 1, 2):
                    assert bc.alive_count(k, eps) == betti_at(filt, eps, k, field)


@st.composite
def small_filtrations(draw):
    """Face-closed complexes on at most 6 vertices, not necessarily
    clique complexes, with births from a coarse grid so that ties
    between simplices and dimensions are common."""
    tops = draw(
        st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=8,
        )
    )
    grid = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))
    birth: dict[Simplex, float] = {}
    for s in sorted(face_closure(Simplex(sorted(t)) for t in tops), key=Simplex.sort_key):
        birth[s] = max([draw(grid)] + [birth[f] for f in s.faces()])
    return Filtration(birth.items())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_filtrations())
def test_barcode_and_cycles_match_dense_oracle(filt):
    whole = {s for s, _ in filt}
    for field in (F2, F3, F5):
        red = reduce_filtration(filt, field)
        bc = red.barcode()
        for k in range(max(map(len, filt.vertices)) + 1):
            for eps in event_values(filt) + (-0.5, 2.0):
                expected = betti_at(filt, eps, k, field)
                assert bc.alive_count(k, eps) == expected
                assert wordhom.betti_at(filt, eps, k, field) == expected
            assert wordhom.betti_of_complex(whole, k, field) == betti_of_complex(whole, k, field)
        for iv in bc.all_intervals():
            rep = red.representative(iv)
            assert not rep.is_zero
            assert boundary_chain(rep, field).is_zero


def test_public_betti_matches_dense_oracle():
    # wordhom.betti_at counts the bars alive at eps; the oracle ranks the
    # boundary matrices of the complex at eps
    rng = random.Random(24)
    for _ in range(6):
        g = random_dissimilarity_graph(rng, n_max=9)
        max_dim, max_eps = rng.randint(1, 3), rng.choice((0.5, 1.0))
        filt = build_vr_filtration(g, max_dim=max_dim, max_eps=max_eps)
        whole = complex_at(filt, max_eps)
        for field in (F2, F3, F5):
            for k in range(max_dim + 2):
                for eps in event_values(filt) + (-0.5, max_eps + 0.5):
                    assert wordhom.betti_at(filt, eps, k, field) == betti_at(filt, eps, k, field)
                assert wordhom.betti_of_complex(whole, k, field) == betti_of_complex(whole, k, field)


def test_betti_refuses_a_complex_missing_a_face():
    with pytest.raises(ValueError, match=r"Simplex\(\[0, 1\]\) present without its face Simplex\(\[1\]\)"):
        wordhom.betti_of_complex([Simplex((0, 1))], 1, F2)
    no_edge_12 = face_closure([Simplex((0, 1, 2))]) - {Simplex((1, 2))}
    with pytest.raises(ValueError, match=r"Simplex\(\[0, 1, 2\]\) present without its face Simplex\(\[1, 2\]\)"):
        wordhom.betti_of_complex(no_edge_12, 1, F2)


def test_betti_refuses_a_scale_that_is_not_finite():
    filt = circle_filtration()
    for eps in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            wordhom.betti_at(filt, eps, 0, F2)
    with pytest.raises(ValueError, match="k must be >= 0"):
        wordhom.betti_at(filt, 0.5, -1, F2)
    with pytest.raises(ValueError, match="k must be >= 0"):
        wordhom.betti_of_complex(face_closure([Simplex((0, 1))]), -1, F2)
    barcode = reduce_filtration(filt, F2).barcode()
    for k, eps, name in ((True, "x", "k"), (0, "x", "scale"), (0, math.nan, "scale"), (-1, 0.5, "k"), (1.0, 0.5, "k")):
        with pytest.raises(ValueError, match=f"^{name} "):
            barcode.alive_count(k, eps)


def test_dim0_alive_matches_component_count():
    # one graph feeds both routes, so they see the same d = 1 - w
    rng = random.Random(19)
    for _ in range(10):
        n = rng.randint(5, 12)
        weights = {
            (i, j): round(rng.uniform(0.05, 0.95), 2)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.45
        }
        g = WeightedGraph(n, weights)
        filt = build_vr_filtration(g, max_dim=1, max_eps=1.0)
        bc = reduce_filtration(filt, F2).barcode()
        for eps in event_values(filt):
            assert bc.alive_count(0, eps) == threshold_clusters(g, eps).n_clusters


def test_euler_characteristic():
    rng = random.Random(20)
    for _ in range(8):
        g = random_dissimilarity_graph(rng, n_max=9)
        filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
        sims = complex_at(filt, 1.0)
        chi_cells = sum((-1) ** s.dim for s in sims)
        max_k = max(s.dim for s in sims)
        chi_betti = sum(
            (-1) ** k * b for k, b in enumerate(betti_numbers(sims, max_k, F2))
        )
        assert chi_cells == chi_betti


def test_elder_rule_on_pairs():
    rng = random.Random(22)
    for _ in range(8):
        g = random_dissimilarity_graph(rng)
        filt = build_vr_filtration(g, max_dim=2, max_eps=1.0)
        entries = filt.entries
        red = reduce_filtration(filt, F2)
        for i, j in red.pairs:
            assert i < j
            assert entries[i][1] <= entries[j][1]
            # the dying class at i is younger than any other class its
            # killer could have toppled: i is the largest row of column j
            assert entries[i][0].dim == entries[j][0].dim - 1


def test_every_simplex_paired_or_essential():
    rng = random.Random(23)
    for _ in range(6):
        g = random_dissimilarity_graph(rng)
        filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
        red = reduce_filtration(filt, F3)
        births = {i for i, _ in red.pairs}
        deaths = {j for _, j in red.pairs}
        essentials = set(red.essentials)
        assert births.isdisjoint(deaths)
        assert essentials.isdisjoint(births | deaths)
        assert births | deaths | essentials == set(range(len(filt)))


def test_zero_length_intervals_flagged_and_filterable():
    # vertex and its killing edge born together
    g = WeightedGraph.from_dissimilarities(2, {(0, 1): 0.0})
    filt = build_vr_filtration(g, 1, 1.0)
    bc = reduce_filtration(filt, F2).barcode()
    zero = [iv for iv in bc.intervals(0) if iv.death == iv.birth]
    assert len(zero) == 1
    assert bc.intervals(0, include_zero_length=False) == tuple(
        iv for iv in bc.intervals(0) if not iv.death == iv.birth
    )
    # alive at its own birth instant: never (half-open), so only the essential bar is
    assert bc.alive_count(0, 0.0) == 1


def test_field_independence_on_fixtures(shell_arm, octahedron, torus7):
    for cx in (shell_arm, octahedron, torus7):
        filt = Filtration([(s, 0.0) for s in cx])
        reference = None
        for field in (F2, F3, F5):
            bc = reduce_filtration(filt, field).barcode()
            counts = tuple(len(bc.intervals(k, include_zero_length=False)) for k in (0, 1, 2))
            if reference is None:
                reference = counts
            assert counts == reference


def test_reduce_rejects_broken_filtration():
    entries = [(Simplex((0, 1)), 0.0)]
    with pytest.raises(ValueError, match="invariant.*without its face Simplex"):
        Filtration(entries)
    late_face = [(Simplex((0,)), 0.0), (Simplex((0, 1)), 0.2), (Simplex((1,)), 0.5)]
    with pytest.raises(ValueError, match=r"face Simplex\(\[1\]\) born at 0.5 after"):
        Filtration(late_face)


def test_vr_pipeline_makes_no_simplex(monkeypatch):
    """Neither the pass nor the cycle export makes a Simplex or a Chain."""
    import io

    from wordhom.chains import Chain
    from wordhom.exports import write_cycles_tsv

    calls = []
    for cls in (Simplex, Chain):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=cls.__init__: calls.append(args) or init(self, *args))
    g = random_dissimilarity_graph(random.Random(13), n_min=12, n_max=12, p_edge=0.7)
    filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
    reduced = reduce_filtration(filt, F3)
    barcode = reduced.barcode()
    assert barcode.dims == (0, 1, 2, 3)
    buf = io.StringIO()
    write_cycles_tsv(buf, reduced, include_zero_length=True)
    assert buf.getvalue().count("# interval") == len(barcode.all_intervals())
    assert calls == []
    filt.entries  # the API edge does make them, once each
    filt.entries
    assert len(calls) == len(filt)


def test_a_pass_leaves_no_cyclic_garbage():
    import gc
    import io

    from wordhom import render_barcode_svg, sweep, synthetic_corpus
    from wordhom.exports import write_barcode_tsv

    graph = synthetic_corpus(100, seed=1).to_weighted_graph()

    def run():
        barcode = reduce_filtration(build_vr_filtration(graph, max_dim=2), F2).barcode()
        write_barcode_tsv(io.StringIO(), barcode)
        sweeps = [sweep(graph, method, [0.2, 0.5]) for method in ("threshold", "persistence")]
        return barcode, render_barcode_svg(barcode), sweeps, sweep(graph, "mcl", [2.0])

    run()  # first calls import modules, and imports make cycles
    gc.collect()
    # with the collector off, whatever gc.collect() finds next is a cycle the second run left
    gc.disable()
    try:
        results = run()
        del results
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reduction_holds_one_dimension_of_machine_int_state():
    """On the vr60 complex (max-dim 3, Z/2) the traced allocation peak of
    the reduction stays under 3.7 MiB; it reads 3.15 MiB, and the bound
    leaves 17% for other interpreters. With a list of int objects per
    simplex's cofaces, and each dimension's state held while the next
    one's was built, it read 4.19 MiB."""
    import tracemalloc

    filt = build_vr_filtration(vr60_graph(), max_dim=3)
    reduce_filtration(filt, F2)  # imports outside the trace
    tracemalloc.start()
    try:
        reduce_filtration(filt, F2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.7 * 2**20, peak / 2**20


def test_barcode_rejects_negative_length():
    with pytest.raises(ValueError):
        Barcode([Interval(0, 1.0, 0.5)])


@pytest.mark.parametrize(
    "interval",
    [
        Interval(0, math.nan, 1.0),
        Interval(1, 0.2, math.nan),
        Interval(-1, 0.0, 0.5),
        Interval(0, -0.1, 0.5),
        Interval(0, math.inf, math.inf),
    ],
)
def test_barcode_refuses_intervals_its_reader_refuses(interval):
    with pytest.raises(ValueError, match="interval needs dim >= 0"):
        Barcode([Interval(0, 0.0, math.inf), interval])


def test_reduced_barcode_is_built_unchecked_in_sort_key_order(monkeypatch):
    # two-decimal dissimilarities, so births tie and the birth index decides
    filt = build_vr_filtration(random_dissimilarity_graph(random.Random(31), n_min=12, n_max=12), max_dim=3)
    reduced = reduce_filtration(filt, F2)
    intervals = [Interval(len(filt.vertices[i]) - 1, filt.births[i], filt.births[j], i, j) for i, j in reduced.pairs]
    intervals += (Interval(len(filt.vertices[i]) - 1, filt.births[i], math.inf, i, None) for i in reduced.essentials)
    expected = Barcode(intervals).all_intervals()

    def refuse(self, intervals):
        raise AssertionError("barcode() ran the public Barcode check")

    monkeypatch.setattr(Barcode, "__init__", refuse)
    assert reduced.barcode().all_intervals() == expected
    assert len({iv[:3] for iv in expected}) < len(expected)
