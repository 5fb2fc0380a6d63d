"""Acceptance suite: one test per criterion, each printing a
`criterion NN PASS/FAIL` line (run with -s to see them live) and
enforcing its stated time budget."""

import functools
import io
import itertools
import random
import time

from wordhom import (
    Chain,
    Clustering,
    PrimeField,
    Simplex,
    WeightedGraph,
    boundary_chain,
    build_vr_filtration,
    markov_clusters,
    modularity,
    parse_stimulus_counts,
    reduce_filtration,
    sweep,
    synthetic_corpus,
    threshold_clusters,
)
from wordhom.exports import write_sweep_tsv
from wordhom.cli import main as cli_main
from oracle import (
    CosetReducer,
    betti_at,
    betti_numbers,
    betti_of_complex,
    complex_at,
    event_values,
    face_closure,
    homology_basis,
)

from test_chains import random_chain

FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5))


def criterion(num, desc, budget=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            ok = False
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if budget is not None:
                    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                status = "PASS" if ok else "FAIL"
                print(f"criterion {num:02d} {status} ({elapsed:.2f}s) {desc}")

        return wrapper

    return decorate


@functools.lru_cache(maxsize=1)
def shell_arm_complex():
    return frozenset(
        face_closure(
            [
                Simplex((0, 1, 2)),
                Simplex((0, 1, 3)),
                Simplex((0, 2, 3)),
                Simplex((1, 2, 3)),
                Simplex((0, 4)),
                Simplex((2, 4)),
            ]
        )
    )


@functools.lru_cache(maxsize=1)
def random_graph_corpus():
    """50 seeded random association graphs (<= 12 vertices) with their
    filtrations and Z/2 barcodes. The clustering and filtration routes
    take the same graph, so they see the same dissimilarities."""
    rng = random.Random(90125)
    out = []
    for _ in range(50):
        n = rng.randint(5, 12)
        weights = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    weights[(i, j)] = round(rng.uniform(0.05, 0.95), 2)
        g = WeightedGraph(n, weights)
        filt = build_vr_filtration(g, max_dim=3, max_eps=1.0)
        barcode = reduce_filtration(filt, PrimeField(2)).barcode()
        out.append((g, filt, barcode))
    return out


@criterion(1, "worked-example homology: betti (1, 1) and the arm-loop generator", budget=1.0)
def test_criterion_01_worked_example():
    cx = shell_arm_complex()
    for field in FIELDS:
        assert betti_of_complex(cx, 0, field) == 1
        assert betti_of_complex(cx, 1, field) == 1
        basis = homology_basis(cx, 1, field)
        assert len(basis) == 1
        reducer = CosetReducer(cx, 1, field)
        arm = Chain.from_items(
            [(Simplex((0, 2)), 1), (Simplex((2, 4)), 1), (Simplex((0, 4)), -1)], field
        )
        rep = reducer.representative(basis[0])
        assert not rep.is_zero
        assert rep == reducer.representative(arm)


@criterion(2, "sphere (1,0,1) and torus (1,2,1) Betti numbers", budget=1.0)
def test_criterion_02_sphere_torus():
    octahedron = face_closure(
        Simplex(tuple(sorted((a, b, c))))
        for a in (0, 1)
        for b in (2, 3)
        for c in (4, 5)
    )
    torus = face_closure(
        Simplex(tuple(sorted(t)))
        for i in range(7)
        for t in ((i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7))
    )
    for field in FIELDS:
        assert betti_numbers(octahedron, 2, field) == (1, 0, 1)
        assert betti_numbers(torus, 2, field) == (1, 2, 1)


@criterion(3, "double boundary vanishes on 1000 random chains per field", budget=5.0)
def test_criterion_03_double_boundary():
    rng = random.Random(271828)
    for field in FIELDS:
        for _ in range(1000):
            c = random_chain(rng, field, rng.randint(0, 4))
            assert boundary_chain(boundary_chain(c, field), field).is_zero


@criterion(4, "barcode alive-counts equal rank-oracle Betti at every event", budget=30.0)
def test_criterion_04_barcode_vs_rank_oracle():
    field = PrimeField(2)
    for _, filt, barcode in random_graph_corpus():
        for eps in event_values(filt):
            for k in (0, 1, 2):
                assert barcode.alive_count(k, eps) == betti_at(filt, eps, k, field)


@criterion(5, "dim-0 intervals match union-find component counts", budget=30.0)
def test_criterion_05_dim0_union_find():
    for g, filt, barcode in random_graph_corpus():
        for eps in event_values(filt):
            assert barcode.alive_count(0, eps) == threshold_clusters(g, eps).n_clusters


@criterion(6, "Vietoris-Rips nesting over a 10-point grid", budget=10.0)
def test_criterion_06_nesting():
    for _, filt, _ in random_graph_corpus()[:15]:
        grid = [i / 9 for i in range(10)]
        complexes = [complex_at(filt, eps) for eps in grid]
        for a, b in itertools.combinations(range(10), 2):
            assert complexes[a] <= complexes[b]


@criterion(7, "modularity: one-cluster 0, paired-edges 0.5, bounds on 1e4 partitions", budget=30.0)
def test_criterion_07_modularity():
    rng = random.Random(1729)
    pairs = WeightedGraph(4, {(0, 1): 1.0, (2, 3): 1.0})
    assert abs(modularity(pairs, Clustering([0, 0, 1, 1])) - 0.5) < 1e-12
    graphs = [
        WeightedGraph(
            10,
            {
                (i, j): round(rng.uniform(0.05, 1.0), 3)
                for i in range(10)
                for j in range(i + 1, 10)
                if rng.random() < 0.5
            }
            or {(0, 1): 0.5},
        )
        for _ in range(5)
    ]
    for g in graphs:
        assert abs(modularity(g, Clustering([0] * g.n))) < 1e-12
    for trial in range(10_000):
        g = graphs[trial % len(graphs)]
        labels = [rng.randint(0, 4) for _ in range(g.n)]
        q = modularity(g, Clustering(labels))
        assert -1.0 - 1e-12 <= q <= 1.0 + 1e-12


@criterion(8, "two-clique graph splits in 2 for every tested inflation", budget=1.0)
def test_criterion_08_mcl_two_cliques():
    edges = {}
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges[(base + i, base + j)] = 1.0
    edges[(4, 5)] = 0.05
    g = WeightedGraph(10, edges)
    for inflation in (1.5, 2.0, 2.5, 3.0):
        result = markov_clusters(g, inflation)
        assert result.converged
        assert result.clustering.n_clusters == 2


@criterion(9, "CAT/DOG cluster membership flips between scales 0.5 and 0.7", budget=1.0)
def test_criterion_09_cat_dog():
    corpus = parse_stimulus_counts(
        io.StringIO("CAT\tDOG\t25\t100\nDOG\tCAT\t40\t100\n")
    )
    assert corpus.strength("CAT", "DOG") == 0.4
    g = corpus.to_weighted_graph()
    cat, dog = corpus.word_id("CAT"), corpus.word_id("DOG")
    at_07 = threshold_clusters(g, 0.7)
    at_05 = threshold_clusters(g, 0.5)
    assert at_07.labels[cat] == at_07.labels[dog]
    assert at_05.labels[cat] != at_05.labels[dog]


@criterion(10, "synthetic corpus: deterministic sweeps, lifetime beats threshold", budget=60.0)
def test_criterion_10_synthetic_sweeps():
    corpus = synthetic_corpus()
    g = corpus.to_weighted_graph()
    event_grid = list(g.dissimilarity_events())
    mcl_grid = [round(1.2 + 0.2 * i, 2) for i in range(8)]

    results = {}
    for method, grid in (
        ("threshold", event_grid),
        ("persistence", event_grid),
        ("mcl", mcl_grid),
    ):
        first = sweep(g, method, grid)
        second = sweep(g, method, grid)
        assert first.rows == second.rows  # (a) deterministic curves
        bufs = []
        for run in (first, second):
            buf = io.StringIO()
            write_sweep_tsv(buf, run, config={"method": method})
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]  # (c) byte-stable output
        results[method] = first

    assert results["persistence"].best.q > results["threshold"].best.q  # (b)


@criterion(11, "CLI sweep runs are byte-identical", budget=60.0)
def test_criterion_11_cli_determinism(tmp_path, capsys):
    corpus = synthetic_corpus()
    data = tmp_path / "corpus.tsv"
    with open(data, "w") as fh:
        corpus.write_edge_list(fh)
    out = tmp_path / "sweep.tsv"
    outputs = []
    for _ in range(2):
        code = cli_main(
            [
                "sweep",
                "--in",
                str(data),
                "--method",
                "threshold",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
