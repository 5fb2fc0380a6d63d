import inspect

import pytest

from wordhom import (
    AssociationCorpus,
    MarkovClustering,
    PersistenceClustering,
    PrimeField,
    ThresholdClustering,
    VietorisRipsPersistence,
    markov_clusters,
    modularity,
    persistence_clusters,
    reduce_filtration,
    build_vr_filtration,
    threshold_clusters,
)


@pytest.fixture
def corpus():
    return AssociationCorpus.from_pairs(
        [
            ("ANT", "BEE", 0.9),
            ("BEE", "CAT", 0.85),
            ("CAT", "ANT", 0.8),
            ("DOG", "EEL", 0.9),
            ("EEL", "FOX", 0.85),
            ("CAT", "DOG", 0.05),
        ]
    )


def test_get_set_params_roundtrip():
    est = MarkovClustering(inflation=2.5, prune=1e-4)
    params = est.get_params()
    assert params["inflation"] == 2.5 and params["prune"] == 1e-4
    est.set_params(inflation=1.5)
    assert est.inflation == 1.5
    with pytest.raises(ValueError, match="invalid parameter"):
        est.set_params(bogus=1)


def test_repr_shows_params():
    assert "eps=0.25" in repr(ThresholdClustering(eps=0.25))


def test_sklearn_clone_compatible():
    sklearn_base = pytest.importorskip("sklearn.base")
    est = PersistenceClustering(tau=0.3)
    cloned = sklearn_base.clone(est)
    assert cloned.get_params() == est.get_params()


def test_threshold_estimator_matches_function(corpus):
    g = corpus.to_weighted_graph()
    est = ThresholdClustering(eps=0.3).fit(g)
    assert est.labels_ == list(threshold_clusters(g, 0.3).labels)
    assert est.n_clusters_ == threshold_clusters(g, 0.3).n_clusters
    assert est.fit_predict(corpus) == est.labels_


def test_persistence_estimator_matches_function(corpus):
    g = corpus.to_weighted_graph()
    est = PersistenceClustering(tau=0.1).fit(corpus)
    assert est.labels_ == list(persistence_clusters(g, 0.1).labels)


def test_markov_estimator_matches_function(corpus):
    g = corpus.to_weighted_graph()
    est = MarkovClustering(inflation=2.0).fit(g)
    reference = markov_clusters(g, 2.0)
    assert est.labels_ == list(reference.clustering.labels)
    assert est.converged_ == reference.converged
    assert est.n_iter_ == reference.n_iter


def test_score_is_modularity(corpus):
    g = corpus.to_weighted_graph()
    est = ThresholdClustering(eps=0.2).fit(g)
    assert est.score() == modularity(g, threshold_clusters(g, 0.2))


def test_score_requires_fit():
    with pytest.raises(RuntimeError, match="not fitted"):
        ThresholdClustering().score()


def test_vr_persistence_transformer(corpus):
    g = corpus.to_dissimilarity()
    est = VietorisRipsPersistence(max_dim=2, field=3)
    barcode = est.fit_transform(corpus)
    reference = reduce_filtration(
        build_vr_filtration(g, max_dim=2, max_eps=1.0), PrimeField(3)
    ).barcode()
    assert barcode == reference
    assert est.barcode_ == reference
    assert est.filtration_.entries == build_vr_filtration(g, max_dim=2, max_eps=1.0).entries
    # stateless transform recomputes for new inputs
    assert est.transform(corpus) == reference


def test_estimator_rejects_bad_inputs(corpus):
    with pytest.raises(ValueError):
        VietorisRipsPersistence(field=4).fit(corpus)
    with pytest.raises(ValueError):
        ThresholdClustering(eps=1.5).fit(corpus)
    with pytest.raises(ValueError):
        PersistenceClustering(tau=-1.0).fit(corpus)
    with pytest.raises(ValueError, match="tau must be >= 0"):
        PersistenceClustering(tau=float("nan")).fit(corpus)
    with pytest.raises(ValueError, match="inflation"):
        MarkovClustering(inflation=float("nan")).fit(corpus)
    with pytest.raises(TypeError):
        ThresholdClustering().fit([[0, 1], [1, 0]])


@pytest.mark.parametrize(
    "estimator, fn, dropped",
    [
        (VietorisRipsPersistence, build_vr_filtration, {"field"}),
        (ThresholdClustering, threshold_clusters, set()),
        (PersistenceClustering, persistence_clusters, set()),
        (MarkovClustering, markov_clusters, set()),
    ],
)
def test_estimator_parameters_match_the_function_they_forward_to(corpus, estimator, fn, dropped):
    params = {k: v for k, v in estimator().get_params().items() if k not in dropped}
    signature = inspect.signature(fn)
    signature.bind(corpus.to_weighted_graph(), **params)
    defaults = inspect.signature(estimator).parameters
    for name, param in signature.parameters.items():
        if param.default is not inspect.Parameter.empty:
            assert defaults[name].default == param.default, name
