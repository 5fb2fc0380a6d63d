"""Estimator-style wrappers over the functional core.

These follow the fit/transform/predict idiom with get_params/set_params
so the toolkit composes with pipeline and model-selection machinery;
all the actual computation lives in the functional modules.
"""

from __future__ import annotations

from .base import ParamsMixin, check_fitted, check_in_interval, check_positive_int
from .clustering import (
    markov_clusters,
    modularity,
    persistence_clusters,
    threshold_clusters,
)
from .complexes import WeightedGraph, build_vr_filtration
from .corpus import AssociationCorpus
from .fields import PrimeField
from .reduction import Barcode, reduce_filtration


def _as_graph(x) -> WeightedGraph:
    if isinstance(x, WeightedGraph):
        return x
    if isinstance(x, AssociationCorpus):
        return x.to_weighted_graph()
    raise TypeError(f"expected a WeightedGraph or AssociationCorpus, got {type(x).__name__}")


class VietorisRipsPersistence(ParamsMixin):
    """Transformer from dissimilarity data to persistence barcodes.

    fit() builds the filtration and reduces it, exposing
    ``filtration_``, ``reduction_`` and ``barcode_``; transform()
    computes the barcode of new data with the fitted parameters.
    """

    def __init__(
        self,
        max_dim: int = 3,
        max_eps: float = 1.0,
        field: int = 2,
        vertex_birth: str = "zero",
        max_simplices: int | None = None,
    ):
        self.max_dim = max_dim
        self.max_eps = max_eps
        self.field = field
        self.vertex_birth = vertex_birth
        self.max_simplices = max_simplices

    def _validate(self) -> PrimeField:
        check_positive_int(self.max_dim, "max_dim", minimum=0)
        check_in_interval(self.max_eps, "max_eps", 0.0, 1.0)
        return PrimeField(self.field)

    def fit(self, X, y=None) -> "VietorisRipsPersistence":
        field = self._validate()
        graph = _as_graph(X)
        self.filtration_ = build_vr_filtration(
            graph,
            max_dim=self.max_dim,
            max_eps=self.max_eps,
            vertex_birth=self.vertex_birth,
            max_simplices=self.max_simplices,
        )
        self.reduction_ = reduce_filtration(self.filtration_, field)
        self.barcode_ = self.reduction_.barcode()
        return self

    def transform(self, X) -> Barcode:
        self._validate()
        return type(self)(**self.get_params()).fit(X).barcode_

    def fit_transform(self, X, y=None) -> Barcode:
        return self.fit(X).barcode_


class _BaseClustering(ParamsMixin):
    """Shared fit/predict/score plumbing for the clusterers."""

    def _cluster(self, graph: WeightedGraph):
        raise NotImplementedError

    def fit(self, X, y=None):
        graph = _as_graph(X)
        self.graph_ = graph
        self.clustering_ = self._cluster(graph)
        self.labels_ = list(self.clustering_.labels)
        self.n_clusters_ = self.clustering_.n_clusters
        return self

    def fit_predict(self, X, y=None) -> list[int]:
        return self.fit(X).labels_

    def score(self, X=None, y=None) -> float:
        """Modularity of the fitted partition (higher is better)."""
        check_fitted(self, "clustering_")
        graph = self.graph_ if X is None else _as_graph(X)
        return modularity(graph, self.clustering_)


class ThresholdClustering(_BaseClustering):
    """Connected components below a dissimilarity threshold."""

    def __init__(self, eps: float = 0.5):
        self.eps = eps

    def _cluster(self, graph):
        return threshold_clusters(graph, check_in_interval(self.eps, "eps", 0.0, 1.0))


class PersistenceClustering(_BaseClustering):
    """Single-linkage merging gated by component lifetime."""

    def __init__(self, tau: float = 0.2, vertex_birth: str = "first-edge"):
        self.tau = tau
        self.vertex_birth = vertex_birth

    def _cluster(self, graph):
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        return persistence_clusters(graph, self.tau, vertex_birth=self.vertex_birth)


class MarkovClustering(_BaseClustering):
    """Flow-based clustering by alternating expansion and inflation."""

    def __init__(
        self,
        inflation: float = 2.0,
        expansion: int = 2,
        prune: float = 1e-5,
        max_iter: int = 200,
        tol: float = 1e-8,
        self_loop: float = 1.0,
    ):
        self.inflation = inflation
        self.expansion = expansion
        self.prune = prune
        self.max_iter = max_iter
        self.tol = tol
        self.self_loop = self_loop

    def _cluster(self, graph):
        result = markov_clusters(
            graph,
            inflation=self.inflation,
            expansion=self.expansion,
            prune=self.prune,
            max_iter=self.max_iter,
            tol=self.tol,
            self_loop=self.self_loop,
        )
        self.converged_ = result.converged
        self.n_iter_ = result.n_iter
        return result.clustering
