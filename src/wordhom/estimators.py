"""Estimator-style wrappers over the functional core.

These follow the fit/transform/predict idiom with get_params/set_params
so the toolkit composes with pipeline and model-selection machinery,
without pulling in a dependency for it. All the computation, and every
parameter check, lives in the functional modules: an estimator forwards
its parameters by name to the function it wraps, so a bad one fails
there on fit.
"""

from __future__ import annotations

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


class ParamsMixin:
    """get_params/set_params backed by the __init__ signature.

    Subclasses keep every constructor argument as an attribute of the
    same name and do no work in __init__, so params can be swapped and
    the object refit.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        import inspect

        sig = inspect.signature(cls.__init__)
        return sorted(name for name in sig.parameters if name != "self")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "ParamsMixin":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


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

    def fit(self, X, y=None) -> "VietorisRipsPersistence":
        params = self.get_params()
        field = PrimeField(params.pop("field"))
        self.filtration_ = build_vr_filtration(_as_graph(X), **params)
        self.reduction_ = reduce_filtration(self.filtration_, field)
        self.barcode_ = self.reduction_.barcode()
        return self

    def transform(self, X) -> Barcode:
        return type(self)(**self.get_params()).fit(X).barcode_

    def fit_transform(self, X, y=None) -> Barcode:
        return self.fit(X).barcode_


class _BaseClustering(ParamsMixin):
    """Shared fit/predict/score plumbing; ``_function`` gets the graph and the parameters by name."""

    def _cluster(self, graph: WeightedGraph):
        return self._function(graph, **self.get_params())

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
        if not hasattr(self, "clustering_"):
            raise RuntimeError(f"this {type(self).__name__} instance is not fitted yet; call fit() first")
        graph = self.graph_ if X is None else _as_graph(X)
        return modularity(graph, self.clustering_)


class ThresholdClustering(_BaseClustering):
    """Connected components below a dissimilarity threshold."""

    _function = staticmethod(threshold_clusters)

    def __init__(self, eps: float = 0.5):
        self.eps = eps


class PersistenceClustering(_BaseClustering):
    """Single-linkage merging gated by component lifetime."""

    _function = staticmethod(persistence_clusters)

    def __init__(self, tau: float = 0.2, vertex_birth: str = "first-edge"):
        self.tau = tau
        self.vertex_birth = vertex_birth


class MarkovClustering(_BaseClustering):
    """Flow-based clustering by alternating expansion and inflation."""

    _function = staticmethod(markov_clusters)

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
        result = super()._cluster(graph)
        self.converged_ = result.converged
        self.n_iter_ = result.n_iter
        return result.clustering
