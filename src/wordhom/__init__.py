"""Persistent homology and clustering for weighted dissimilarity graphs
and word-association networks.

Every public name is listed once, in ``_EXPORTS``, under the submodule
that defines it, and that submodule is imported on first use of one of
its names (PEP 562). ``import wordhom`` therefore loads no submodule,
and neither numpy nor scipy: the functions that compute with them
import them when called.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "chains": (
        "Chain", "boundary_chain", "boundary_simplex", "chain_add", "chain_neg", "chain_scale", "zero_chain",
    ),
    "clustering": (
        "Clustering", "MarkovResult", "SweepResult", "SweepRow", "UnionFind",
        "markov_clusters", "modularity", "persistence_clusters", "sweep", "threshold_clusters",
    ),
    "complexes": (
        "Filtration", "SimplexBudgetError", "WeightedGraph",
        "build_vr_filtration", "face_closure", "validate_complex",
    ),
    "corpus": ("AssociationCorpus", "DataFormatError", "parse_edge_list", "parse_stimulus_counts"),
    "estimators": ("MarkovClustering", "PersistenceClustering", "ThresholdClustering", "VietorisRipsPersistence"),
    "fields": ("PrimeField",),
    "homology": ("CosetReducer", "betti_at", "betti_numbers", "betti_of_complex", "homology_basis", "rank_mod_p"),
    "reduction": ("Barcode", "Interval", "ReducedFiltration", "reduce_filtration"),
    "simplices": ("Simplex", "canonicalize"),
    "svg": ("render_barcode_svg",),
    "synthetic": ("synthetic_corpus",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
