import itertools
import math
import pickle
import random
import re
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from wordhom import (
    Clustering,
    SweepResult,
    SweepRow,
    WeightedGraph,
    markov_clusters,
    modularity,
    persistence_clusters,
    sweep,
    synthetic_corpus,
    threshold_clusters,
)
from oracle import modularity_loop, scaled
from conftest import nan_flow_graph


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
    all_below_one = all(w < 1.0 for _, _, w in g.pair_sorted_edges())
    if all_below_one:
        assert threshold_clusters(g, 0.0).n_clusters == g.n
    # eps = 1 keeps every edge
    full = threshold_clusters(g, 1.0)
    from wordhom import UnionFind

    uf = UnionFind(g.n)
    for i, j, _ in g.pair_sorted_edges():
        uf.union(i, j)
    assert full.n_clusters == uf.n_components


def test_slots_equal_least_vertex_by_find():
    from wordhom import UnionFind

    rng = random.Random(2)
    for n in (1, 2, 7, 40):
        uf = UnionFind(n)
        for _ in range(rng.randint(0, 2 * n)):
            uf.union(rng.randrange(n), rng.randrange(n))
            parent = list(uf.parent)
            slots = uf.slots().tolist()
            assert uf.parent == parent  # no path compression on the forest
            least = {}
            for v in range(n):  # ascending, so the first vertex of a set is its least
                least.setdefault(uf.find(v), v)
            assert slots == [least[uf.find(v)] for v in range(n)]
            assert len(set(slots)) == uf.n_components
            # slots in increasing order are the clusters in Clustering's label order
            dense = {s: k for k, s in enumerate(sorted(set(slots)))}
            assert Clustering(map(uf.find, range(n))).labels == tuple(dense[s] for s in slots)


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
            assert markov_clusters(scaled(g, factor), 2.0).clustering == base


def test_mcl_non_convergence_flag():
    result = markov_clusters(two_cliques(), 2.0, max_iter=1)
    assert not result.converged
    assert result.n_iter == 1
    assert len(result.clustering) == 10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1e-5, 0.05, 0.3, 0.6]),
    st.sampled_from([1.5, 2.0, 3.0]),
)
def test_inflation_step_equals_normalize_route(n, seed, prune, inflation):
    np = pytest.importorskip("numpy")
    sparse = pytest.importorskip("scipy.sparse")
    from wordhom.markov import _normalize_columns, _rescale_prune_rescale

    rng = np.random.default_rng(seed)
    a = sparse.random(n, n, density=0.5, random_state=rng, format="csc")
    a.data = a.data ** 4  # spread the scale so prunes and underflows happen
    m = (a @ sparse.random(n, n, density=0.6, random_state=rng, format="csc")).tocsc()
    m.data = np.power(m.data, inflation)
    expected = as_csc(sparse, _normalize_columns(parts(m)), m.shape)
    expected.data[expected.data < prune] = 0.0
    expected.eliminate_zeros()
    expected = as_csc(sparse, _normalize_columns(parts(expected)), m.shape)
    arrays = parts(m)
    got = as_csc(sparse, _rescale_prune_rescale(arrays, prune), m.shape)
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    # the input is left as it was: the self-loop route reads it again
    for name, array in zip(("indptr", "indices", "data"), arrays):
        assert array.tobytes() == getattr(m, name).tobytes(), name


@pytest.mark.parametrize("prune", [0.0, 1e-5])
def test_inflation_step_keeps_what_the_normalize_route_keeps_when_a_sum_overflows(prune):
    """Column 0 sums to a subnormal, whose reciprocal is inf, so its
    stored zero (an underflowed power) becomes NaN. The normalize route
    keeps that entry, since NaN is not below ``prune``, and so must the
    fast path: array for array, NaN bytes included."""
    np = pytest.importorskip("numpy")
    from wordhom.markov import _normalize_columns, _rescale_prune_rescale, _sparsetools, _trimmed

    m = (np.array([0, 2, 3], dtype=np.int32), np.array([0, 1, 1], dtype=np.int32), np.array([1e-310, 0.0, 0.5]))
    with np.errstate(all="ignore"):
        indptr, indices, data = _normalize_columns(m)
        data[data < prune] = 0.0
        _sparsetools.csr_eliminate_zeros(2, 2, indptr, indices, data)
        expected = _normalize_columns(_trimmed(indptr, indices, data))
        got = _rescale_prune_rescale(m, prune)
    assert np.isnan(expected[2]).sum() == 2
    assert [x.tobytes() for x in got] == [x.tobytes() for x in expected]


@pytest.mark.parametrize("tol", [0.0, 1e-8, 1e-3, 1.0])
@pytest.mark.parametrize("prune", [0.0, 1e-5, 0.2])
def test_convergence_decisions_equal_the_full_difference(tol, prune):
    """Flow builds no difference when the supports differ and no stored
    entry is below tol; every round's decision must still be the one the
    minus kernel gives (the largest |m - prev| below tol), so the flow
    stops at the same round with the same partition."""
    np = pytest.importorskip("numpy")
    pytest.importorskip("scipy")
    from wordhom import markov

    graphs = [two_cliques(), synthetic_corpus(n_words=60, seed=2).to_weighted_graph()]
    graphs += [graph_of_components(random.Random(seed), [5, 7, 3], 2, zero) for seed, zero in ((1, 0.0), (2, 0.3))]
    product, rescale = markov._product, markov._rescale_prune_rescale
    skipped = 0
    for g in graphs:
        prevs, iterates = [], []

        def round_product(a, b, n_rows, cap=None):
            if a is b:  # a round's first product is prev @ prev
                prevs.append(b)
            return product(a, b, n_rows, cap)

        def round_end(m, p):
            iterates.append(rescale(m, p))
            return iterates[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(markov, "_product", round_product)
            mp.setattr(markov, "_rescale_prune_rescale", round_end)
            result = markov_clusters(g, 2.0, prune=prune, tol=tol, max_iter=25)
        full = [float(np.abs(markov._binop("minus", m, prev)[2]).max(initial=0.0)) < tol for m, prev in zip(iterates, prevs)]
        assert (len(full), len(prevs)) == (result.n_iter, result.n_iter)
        assert full == [False] * (result.n_iter - 1) + [result.converged]
        assert result.clustering == Clustering(markov._markov_labels(iterates[-1], g.n))
        skipped += sum(
            len(m[2]) != len(prev[2]) and min(m[2].min(), prev[2].min()) >= tol for m, prev in zip(iterates, prevs)
        )
    if tol <= prune:
        assert skipped  # the shortcut was taken


def test_result_types_are_value_tuples():
    row = SweepRow(0.5, 0.25, 3)
    result = SweepResult("threshold", (row, SweepRow(0.7, 0.5, 2)))
    for value in (row, result):
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value and hash(clone) == hash(value)
    mcl = markov_clusters(two_cliques(), 2.0)
    assert pickle.loads(pickle.dumps(mcl)) == mcl
    assert result.unconverged == ()
    assert result.best == SweepRow(0.7, 0.5, 2)
    assert repr(row) == "SweepRow(param=0.5, q=0.25, n_clusters=3)"
    with pytest.raises(AttributeError):
        row.q = 1.0


def test_mcl_parameter_validation():
    g = two_cliques()
    for inflation in (1.0, 0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="inflation"):
            markov_clusters(g, inflation)
        with pytest.raises(ValueError, match="inflation"):
            sweep(g, "mcl", [2.0, inflation])
    bad = [
        {"expansion": 1},
        {"expansion": 2.5},
        {"expansion": 2.0},
        {"expansion": "3"},
        {"expansion": True},
        {"max_iter": 0},
        {"max_iter": 2.5},
        {"max_iter": True},
        {"max_iter": "5"},
        {"tol": math.nan},
        {"tol": -1e-8},
        {"prune": -0.1},
        {"prune": 1.0},
        {"prune": math.nan},
        {"self_loop": math.nan},
        {"self_loop": math.inf},
        {"self_loop": -1.0},
    ]
    for params in bad:
        with pytest.raises(ValueError, match=next(iter(params))):
            markov_clusters(g, 2.0, **params)
        with pytest.raises(ValueError, match=next(iter(params))):
            sweep(g, "mcl", [2.0, 3.0], **params)
    edge = markov_clusters(g, 2.0, expansion=3, max_iter=1, tol=math.inf, prune=0.0, self_loop=0.0)
    assert edge.converged and edge.n_iter == 1


REAL_PARAMETERS = {
    "eps": lambda g, x: threshold_clusters(g, x),
    "tau": lambda g, x: persistence_clusters(g, x),
    "inflation": lambda g, x: markov_clusters(g, x),
    "prune": lambda g, x: markov_clusters(g, 2.0, prune=x),
    "tol": lambda g, x: markov_clusters(g, 2.0, tol=x),
    "self_loop": lambda g, x: markov_clusters(g, 2.0, self_loop=x),
}


@pytest.mark.parametrize("value", [True, False, "0.5", None, 1j])
@pytest.mark.parametrize("name", sorted(REAL_PARAMETERS))
def test_real_parameters_refuse_bools_and_non_reals(name, value):
    """A bool is not a number here (``True`` would cluster at 1) and a
    string fails with a ValueError naming the parameter, not a TypeError
    from a comparison."""
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
        REAL_PARAMETERS[name](two_cliques(), value)
    if name in ("prune", "tol", "self_loop"):
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            sweep(two_cliques(), "mcl", [2.0], **{name: value})


def test_a_flow_that_holds_nan_is_refused_with_its_inflation():
    """A column sum below 1/DBL_MAX has an infinite reciprocal, and the
    flow fills with NaN: it stops there with a ValueError naming the
    inflation, instead of running to max_iter and reading a partition off NaN."""
    g = nan_flow_graph()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the overflow in the reciprocal is expected, not warned
        with pytest.raises(ValueError, match=r"^the Markov flow at inflation 400\.0 holds NaN after round 1: "):
            markov_clusters(g, 400.0, prune=0.0, max_iter=30)
    assert markov_clusters(g, 2.0, prune=0.0, max_iter=30).converged


def test_mcl_sweep_checks_every_point_first(monkeypatch):
    from wordhom import clustering

    calls = []
    monkeypatch.setattr(clustering, "_mcl_point", lambda task: calls.append(task))
    with pytest.raises(ValueError):
        sweep(two_cliques(), "mcl", [2.0, 1.5, math.nan])
    assert calls == []


def csc_with_unsorted_indices(np, sparse, rng, shape, density, empty_cols):
    """A random CSC matrix whose entries are shuffled within each column,
    with ``empty_cols`` of its columns emptied."""
    m = sparse.random(*shape, density=density, random_state=rng, format="csc")
    m.data = m.data ** 3
    for j in rng.choice(shape[1], size=min(empty_cols, shape[1]), replace=False):
        m.data[m.indptr[j] : m.indptr[j + 1]] = 0.0
    m.eliminate_zeros()
    for j in range(shape[1]):
        lo, hi = m.indptr[j], m.indptr[j + 1]
        order = lo + rng.permutation(hi - lo)
        m.indices[lo:hi], m.data[lo:hi] = m.indices[order], m.data[order]
    m.has_sorted_indices = False
    return m


def parts(m):
    """A copy of a CSC matrix's ``(indptr, indices, data)``, the form in
    which Markov flow holds its matrices."""
    return m.indptr.copy(), m.indices.copy(), m.data.copy()


def as_csc(sparse, arrays, shape):
    """The CSC matrix of Markov flow's ``(indptr, indices, data)``."""
    indptr, indices, data = arrays
    return sparse.csc_matrix((data, indices, indptr), shape=shape)


def same_arrays(got, expected):
    return (
        got.shape == expected.shape
        and got.indptr.tolist() == expected.indptr.tolist()
        and got.indices.tolist() == expected.indices.tolist()
        and got.data.tobytes() == expected.data.tobytes()
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 14),
    st.integers(1, 14),
    st.integers(1, 14),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.1, 0.4, 1.0]),
    st.integers(0, 3),
)
def test_product_equals_matmul(n, k, m, seed, density, empty_cols):
    """The product helper calls scipy's private numeric kernel; this pins
    it to ``@`` array for array, index storage order included, so a scipy
    release that changes either side fails here."""
    np = pytest.importorskip("numpy")
    sparse = pytest.importorskip("scipy.sparse")
    from wordhom.markov import _product

    rng = np.random.default_rng(seed)
    a = csc_with_unsorted_indices(np, sparse, rng, (n, k), density, empty_cols)
    b = csc_with_unsorted_indices(np, sparse, rng, (k, m), density, empty_cols)
    assert same_arrays(as_csc(sparse, _product(parts(a), parts(b), n), (n, m)), (a @ b).tocsc())
    # a chained square product, as an expansion=3 round takes it
    s = csc_with_unsorted_indices(np, sparse, rng, (n, n), density, empty_cols)
    chained = _product(_product(parts(s), parts(s), n), parts(s), n)
    assert same_arrays(as_csc(sparse, chained, (n, n)), ((s @ s).tocsc() @ s).tocsc())
    # a diagonal right-hand side, as ``_normalize_columns`` scales by
    d = sparse.diags(1.0 / rng.uniform(0.01, 10.0, k), format="csc")
    assert same_arrays(as_csc(sparse, _product(parts(a), parts(d), n), (n, k)), (a @ d).tocsc())


def test_mcl_makes_no_symbolic_product_pass(monkeypatch):
    """Markov flow sizes its products by a bound, never by scipy's
    symbolic pass (which ``@`` runs before every sparse product): the
    kernel module Markov flow holds sees numeric products, fixes of
    empty columns and no symbolic pass."""
    pytest.importorskip("scipy")
    from wordhom import markov

    calls = {"csr_matmat_maxnnz": 0, "csr_matmat": 0, "csr_plus_csr": 0}
    for name in calls:
        kernel = getattr(markov._sparsetools, name)

        def counting(*args, name=name, kernel=kernel):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(markov._sparsetools, name, counting)
    g = random_weighted_graph(random.Random(3), n_min=30, n_max=30)
    for expansion in (2, 3):
        markov_clusters(g, 2.0, expansion=expansion)
        markov_clusters(g, 1.2, expansion=expansion, prune=0.3)  # columns emptied: self-loop route
    sweep(g, "mcl", [1.4, 2.0])
    assert calls["csr_matmat"] > 0 and calls["csr_plus_csr"] > 0  # the counters are live
    assert calls["csr_matmat_maxnnz"] == 0


def graph_of_components(rng, sizes, isolated, zero_share):
    """A graph whose connected components have the given sizes, plus
    ``isolated`` edgeless vertices, with vertex ids shuffled across
    components; each edge has dissimilarity 1 (weight 0) with
    probability ``zero_share``."""
    ids = list(range(sum(sizes) + isolated))
    rng.shuffle(ids)
    d, start = {}, 0
    for size in sizes:
        members = ids[start : start + size]
        start += size
        for k in range(1, size):  # a random spanning tree, then chords
            d[tuple(sorted((members[k], members[rng.randrange(k)])))] = 1.0
        for a, b in itertools.combinations(members, 2):
            if rng.random() < 0.3:
                d[tuple(sorted((a, b)))] = 1.0
    for pair in d:
        if rng.random() >= zero_share:
            d[pair] = round(rng.uniform(0.05, 0.95), 3)
    return WeightedGraph.from_dissimilarities(len(ids), d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(1, 7), min_size=1, max_size=4),
    st.integers(0, 3),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 2**32 - 1),
    st.integers(2, 3),
    st.sampled_from([1.2, 2.0, 3.0]),
    st.sampled_from([0.0, 1e-5, 0.3]),
)
def test_component_bound_covers_every_product(sizes, isolated, zero_share, seed, expansion, inflation, prune):
    """``csr_matmat`` writes without a bounds check, so every product of a
    flow must fit its bound: per column, min(reach, the size of the
    column's component, counted by union-find over every edge) is at
    least the nnz of ``a @ b`` by ``scipy.sparse``, and the product is
    ``a @ b`` array for array."""
    np = pytest.importorskip("numpy")
    sparse = pytest.importorskip("scipy.sparse")
    from wordhom import UnionFind, markov

    g = graph_of_components(random.Random(seed), sizes, isolated, zero_share)
    uf = UnionFind(g.n)
    for i, j, _ in g.pair_sorted_edges():
        uf.union(i, j)
    component_size = [uf.size[uf.find(v)] for v in range(g.n)]
    product, calls = markov._product, []

    def checked(a, b, n_rows, cap=None):
        n = len(b[0]) - 1
        ma, mb = as_csc(sparse, a, (n_rows, n)), as_csc(sparse, b, (n, n))
        expected = (ma @ mb).tocsc()
        pattern = as_csc(sparse, (b[0], b[1], np.ones(len(b[1]))), (n, n))  # explicit zeros count
        bound = np.minimum(np.diff(ma.indptr) @ pattern, n_rows if cap is None else cap)
        assert (bound >= np.diff(expected.indptr)).all()  # checked before the kernel writes
        got = product(a, b, n_rows, cap)
        assert same_arrays(as_csc(sparse, got, (n_rows, n)), expected)
        if cap is not None:
            calls.append(list(cap))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(markov, "_product", checked)
        markov_clusters(g, inflation, expansion=expansion, prune=prune)
    assert calls and all(cap == component_size for cap in calls)


def test_mcl_working_set_follows_the_largest_component():
    """Products are sized by component, not by n: on the 2,000-word
    corpus (largest component far below n) the traced allocation peak
    of a flow stays under 12 MiB; sized by n it was 28.5 MiB."""
    pytest.importorskip("scipy")
    import tracemalloc

    g = synthetic_corpus(n_words=2000, seed=1).to_weighted_graph()
    markov_clusters(two_cliques(), 2.0)  # imports outside the trace
    tracemalloc.start()
    try:
        markov_clusters(g, 1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, peak / 2**20


def scipy_normalize_columns(np, sparse, m):
    """Column normalization by scipy's operators, as Markov flow took it
    before it held raw arrays: ``m + fix`` gives each empty column a
    self-loop, then ``@`` a diagonal matrix divides by the column sums."""
    sums = np.asarray(m.sum(axis=0)).ravel()
    empty = np.nonzero(sums == 0)[0]
    if empty.size:
        fix = sparse.csc_matrix((np.ones(empty.size), (empty, empty)), shape=m.shape, dtype=np.float64)
        m = (m + fix).tocsc()
        sums = np.asarray(m.sum(axis=0)).ravel()
    return (m @ sparse.diags(1.0 / sums, format="csc")).tocsc()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.1, 0.4, 1.0]),
    st.integers(0, 3),
    st.sampled_from([0.0, 0.2, 1.0]),
)
def test_array_helpers_equal_the_scipy_operators(n, seed, density, empty_cols, zero_share):
    """Each array helper of Markov flow against the scipy.sparse operator
    it stands for, kept here as the oracle, array for array: assembly,
    column sums, the self-loop fix, scaling and the convergence delta.
    Inputs have unsorted indices, explicit zeros (as a weight-0 edge
    gives) and empty columns."""
    np = pytest.importorskip("numpy")
    sparse = pytest.importorskip("scipy.sparse")
    from wordhom.markov import _assemble, _binop, _column_sums, _normalize_columns

    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, 3 * n + 1))
    rows, cols = rng.integers(0, n, size), rng.integers(0, n, size)  # unsorted, with duplicates
    data = np.where(rng.random(size) < zero_share, 0.0, rng.uniform(0.0, 1.0, size))
    assembled = sparse.csc_matrix((data, (rows, cols)), shape=(n, n), dtype=np.float64)
    assert same_arrays(as_csc(sparse, _assemble(rows, cols, data, n), (n, n)), assembled)
    # a sorted column of duplicates, which scipy sums without sorting again
    rows, spread = np.sort(rng.integers(0, n, 40)), rng.uniform(0.0, 1.0, 40) * 10.0 ** rng.integers(-8, 8, 40)
    sorted_dups = sparse.csc_matrix((spread, (rows, np.zeros(40, dtype=int))), shape=(n, n), dtype=np.float64)
    assert same_arrays(as_csc(sparse, _assemble(rows, np.zeros(40), spread, n), (n, n)), sorted_dups)

    for m in (assembled, csc_with_unsorted_indices(np, sparse, rng, (n, n), density, empty_cols)):
        m.data[rng.random(m.nnz) < zero_share] = 0.0  # explicit zeros; a column may sum to 0
        sums = np.asarray(m.sum(axis=0)).ravel()
        assert _column_sums(parts(m)).tobytes() == sums.tobytes()
        empty = np.nonzero(sums == 0)[0]
        fix = sparse.csc_matrix((np.ones(empty.size), (empty, empty)), shape=(n, n), dtype=np.float64)
        assert same_arrays(as_csc(sparse, _binop("plus", parts(m), parts(fix)), (n, n)), (m + fix).tocsc())
        expected = scipy_normalize_columns(np, sparse, m)
        assert same_arrays(as_csc(sparse, _normalize_columns(parts(m)), (n, n)), expected)
        for a, b in ((expected, m), (m, expected), (expected, expected)):
            assert same_arrays(as_csc(sparse, _binop("minus", parts(a), parts(b)), (n, n)), (a - b).tocsc())


def plain_markov_labels(dense):
    """The reading of a flow matrix, by definition, on a dense matrix:
    attractors have a positive diagonal; two attractors share a system
    when either feeds the other; a system is labelled by its lowest
    attractor; a vertex takes the lowest label among the systems of the
    attractors feeding it, and a vertex fed by none the next free label
    from n."""
    n = len(dense)
    attractors = [a for a in range(n) if dense[a][a] > 0]
    system = {a: a for a in attractors}
    changed = True
    while changed:  # spread the lowest label through each system
        changed = False
        for a in attractors:
            for b in attractors:
                if (dense[a][b] or dense[b][a]) and system[b] < system[a]:
                    system[a], changed = system[b], True
    labels, next_free = [], n
    for v in range(n):
        owners = [system[r] for r in attractors if dense[r][v]]
        if owners:
            labels.append(min(owners))
        else:
            labels.append(next_free)
            next_free += 1
    return labels


def test_markov_labels_lowest_attractor_overlaps_and_singletons():
    """Attractors 1 and 3 form one system, joined by ``union(3, 1)``,
    which roots it at 3; it is labelled 1 all the same. Vertex 0 is fed
    by that system and by attractor 4's, and takes 1. Vertex 2 is fed
    only by a non-attractor and vertex 5 by nothing: they get 6 and 7."""
    np = pytest.importorskip("numpy")
    sparse = pytest.importorskip("scipy.sparse")
    from wordhom.markov import _markov_labels

    dense = np.zeros((6, 6))
    dense[1, 1] = dense[3, 1] = 0.5  # column 1: attractor 1, fed by 3
    dense[3, 3] = 1.0
    dense[4, 4] = 1.0
    dense[3, 0] = dense[4, 0] = 0.5  # vertex 0 fed by both systems
    dense[0, 2] = 1.0  # vertex 2 fed by vertex 0 only
    m = sparse.csc_matrix(dense)
    assert _markov_labels(parts(m), 6) == plain_markov_labels(dense.tolist()) == [1, 1, 6, 1, 4, 7]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 0.3, 0.6]), st.sampled_from([0.2, 0.5, 0.9]))
def test_markov_labels_match_plain_reference(n, seed, density, attractor_share):
    np = pytest.importorskip("numpy")
    sparse = pytest.importorskip("scipy.sparse")
    from wordhom.markov import _markov_labels

    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, n)) < density, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    np.fill_diagonal(dense, np.where(rng.random(n) < attractor_share, 1.0, 0.0))
    m = sparse.csc_matrix(dense)
    for j in range(n):  # store each column in a shuffled order
        lo, hi = m.indptr[j], m.indptr[j + 1]
        order = lo + rng.permutation(hi - lo)
        m.indices[lo:hi], m.data[lo:hi] = m.indices[order], m.data[order]
    assert _markov_labels(parts(m), n) == plain_markov_labels(dense.tolist())


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
    assert [v for v, label in enumerate(c.labels) if label == 1] == [2, 4]
    assert [c.labels.count(k) for k in range(c.n_clusters)] == [2, 2, 1]


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


def test_sweep_starts_no_more_workers_than_grid_points(monkeypatch):
    import concurrent.futures

    started = []

    class RecordingPool:
        """Runs the tasks in this process and records the pool size asked for."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    g = two_cliques()
    assert sweep(g, "mcl", [1.5, 2.0], jobs=5000).rows == sweep(g, "mcl", [1.5, 2.0]).rows
    sweep(g, "mcl", [1.5, 2.0, 3.0], jobs=2)
    sweep(g, "mcl", [2.0], jobs=4)
    assert started == [2, 2]


def test_sweep_refuses_fewer_than_one_job():
    for method in ("threshold", "persistence", "mcl"):
        for jobs in (0, -1):
            with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
                sweep(two_cliques(), method, [0.5, 2.0], jobs=jobs)


def test_sweep_refuses_a_job_count_that_is_not_an_integer():
    for method in ("threshold", "persistence", "mcl"):
        for jobs in (1.5, True, "2"):
            with pytest.raises(ValueError, match="jobs must be an integer"):
                sweep(two_cliques(), method, [1.5, 2.0, 2.5], jobs=jobs)


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


def per_point_rows(graph, grid, cluster):
    """Rows by the sweep's definition: ``cluster(p)`` scored at each point."""
    rows = []
    for p in grid:
        c = cluster(p)
        rows.append(SweepRow(p, modularity(graph, c), c.n_clusters))
    return rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_sweep_rows_equal_per_point_route(data):
    g = data.draw(weighted_graphs())
    grid = data.draw(grids(g))
    assert list(sweep(g, "threshold", grid).rows) == per_point_rows(g, grid, lambda eps: threshold_clusters(g, eps))
    grid = data.draw(grids(g, extra=(math.inf, 1.5)))
    for mode in ("zero", "first-edge"):
        result = sweep(g, "persistence", grid, vertex_birth=mode)
        assert list(result.rows) == per_point_rows(g, grid, lambda tau: persistence_clusters(g, tau, mode))


@settings(max_examples=5, deadline=None, derandomize=True)
@given(weighted_graphs(), st.lists(st.sampled_from((1.5, 2.0, 3.0)), min_size=1, max_size=4))
def test_mcl_sweep_in_workers_equals_per_point_route(g, grid):
    result = sweep(g, "mcl", grid, jobs=2, max_iter=3)
    assert list(result.rows) == per_point_rows(g, grid, lambda p: markov_clusters(g, p, max_iter=3).clustering)
    expected = tuple(p for p in grid if not markov_clusters(g, p, max_iter=3).converged)
    assert result.unconverged == expected


@st.composite
def graphs_with_idle_vertices(draw):
    """Graphs with zero-weight edges (dissimilarity 1) and isolated
    vertices, at least one edge of nonzero weight."""
    n = draw(st.integers(2, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    d = st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.0)) | st.floats(0.0, 1.0)
    graph = WeightedGraph.from_dissimilarities(n + draw(st.integers(0, 3)), {e: draw(d) for e in chosen})
    assume(graph.total_weight() > 0)
    return graph


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_sweep_scores_equal_the_loop_oracle(data):
    """Every threshold and persistence row (both birth modes) scores the
    per-point partition with exactly the loop form's float, and so does
    ``modularity`` on arbitrary labels."""
    g = data.draw(graphs_with_idle_vertices())
    grid = data.draw(grids(g))
    for row in sweep(g, "threshold", grid).rows:
        c = threshold_clusters(g, row.param)
        assert (repr(row.q), row.n_clusters) == (repr(modularity_loop(g, c.labels)), c.n_clusters)
    grid = data.draw(grids(g, extra=(math.inf, 1.5)))
    for mode in ("zero", "first-edge"):
        for row in sweep(g, "persistence", grid, vertex_birth=mode).rows:
            c = persistence_clusters(g, row.param, mode)
            assert (repr(row.q), row.n_clusters) == (repr(modularity_loop(g, c.labels)), c.n_clusters)
    labels = Clustering(data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))).labels
    assert repr(modularity(g, Clustering(labels))) == repr(modularity_loop(g, labels))


def test_threshold_and_modularity_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(9)
    for _ in range(20):
        g = random_weighted_graph(rng)
        full = nx.Graph()
        full.add_nodes_from(range(g.n))
        full.add_weighted_edges_from(g.pair_sorted_edges())
        partitions = [Clustering([rng.randint(0, 3) for _ in range(g.n)])]
        for eps in (0.0, 0.3, 0.6, 1.0) + g.dissimilarity_events()[::3]:
            c = threshold_clusters(g, eps)
            kept = nx.Graph()
            kept.add_nodes_from(range(g.n))
            kept.add_edges_from((i, j) for i, j, w in g.pair_sorted_edges() if 1.0 - w <= eps)
            groups = {frozenset(v for v, label in enumerate(c.labels) if label == k) for k in range(c.n_clusters)}
            assert groups == {frozenset(comp) for comp in nx.connected_components(kept)}
            partitions.append(c)
        for c in partitions:
            groups = [{v for v, label in enumerate(c.labels) if label == k} for k in range(c.n_clusters)]
            expected = nx.community.modularity(full, groups, weight="weight")
            assert abs(modularity(g, c) - expected) < 1e-12

