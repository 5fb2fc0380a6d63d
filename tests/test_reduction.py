import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wordhom import (
    Barcode,
    Filtration,
    Interval,
    PrimeField,
    Simplex,
    betti_at,
    betti_numbers,
    boundary_chain,
    build_vr_filtration,
    face_closure,
    reduce_filtration,
    threshold_clusters,
    WeightedGraph,
)
from conftest import circle_filtration, random_dissimilarity_graph

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_single_vertex():
    filt = Filtration.from_complex({Simplex((0,))})
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
    filt = Filtration.from_complex(shell_arm)
    for field in (F2, F3, F5):
        bc = reduce_filtration(filt, field).barcode()
        essential = {k: sum(1 for iv in bc.intervals(k) if iv.is_infinite) for k in (0, 1)}
        assert essential == {0: 1, 1: 1}


def test_vertex_only_barcode():
    filt = Filtration.from_complex({Simplex((v,)) for v in range(5)})
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
    filt = Filtration.from_complex(shell_arm)
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
            for eps in filt.event_values():
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
    return Filtration.from_complex(birth, birth=birth)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_filtrations())
def test_barcode_and_cycles_match_dense_oracle(filt):
    for field in (F2, F3, F5):
        red = reduce_filtration(filt, field)
        bc = red.barcode()
        for eps in filt.event_values():
            for k in range(max(map(len, filt.vertices))):
                assert bc.alive_count(k, eps) == betti_at(filt, eps, k, field)
        for iv in bc.all_intervals():
            rep = red.representative(iv)
            assert not rep.is_zero
            assert boundary_chain(rep, field).is_zero


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
        for eps in filt.event_values():
            assert bc.alive_count(0, eps) == threshold_clusters(g, eps).n_clusters


def test_euler_characteristic():
    rng = random.Random(20)
    for _ in range(8):
        g = random_dissimilarity_graph(rng, n_max=9)
        filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
        sims = filt.complex_at(1.0)
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
    zero = [iv for iv in bc.intervals(0) if iv.is_zero_length]
    assert len(zero) == 1
    assert bc.intervals(0, include_zero_length=False) == tuple(
        iv for iv in bc.intervals(0) if not iv.is_zero_length
    )
    # alive at its own birth instant: never (half-open)
    assert not zero[0].alive_at(0.0)


def test_field_independence_on_fixtures(shell_arm, octahedron, torus7):
    for cx in (shell_arm, octahedron, torus7):
        filt = Filtration.from_complex(cx)
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
    calls = []
    init = Simplex.__init__

    def counting_init(self, vertices):
        calls.append(vertices)
        init(self, vertices)

    monkeypatch.setattr(Simplex, "__init__", counting_init)
    g = random_dissimilarity_graph(random.Random(13), n_min=12, n_max=12, p_edge=0.7)
    filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
    barcode = reduce_filtration(filt, F3).barcode()
    assert barcode.dims == (0, 1, 2, 3)
    assert calls == []
    filt.entries  # the API edge does make them, once each
    filt.entries
    assert len(calls) == len(filt)


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
