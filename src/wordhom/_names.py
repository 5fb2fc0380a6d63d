"""The public names of :mod:`wordhom` and their resolution (PEP 562).

Every public name is listed once, in ``EXPORTS``, under the submodule
that defines it. The package's ``__getattr__`` and ``__dir__`` import
this module on their first call, so ``import wordhom`` compiles neither
the table nor the resolver.
"""

import importlib
import sys

EXPORTS = {
    "chains": ("Chain", "boundary_chain"),
    "clustering": (
        "Clustering", "MarkovResult", "SweepResult", "SweepRow", "UnionFind",
        "markov_clusters", "modularity", "persistence_clusters", "sweep", "threshold_clusters",
    ),
    "complexes": ("Filtration", "SimplexBudgetError", "WeightedGraph", "build_vr_filtration"),
    "corpus": ("AssociationCorpus", "DataFormatError", "parse_edge_list", "parse_stimulus_counts"),
    "estimators": ("MarkovClustering", "PersistenceClustering", "ThresholdClustering", "VietorisRipsPersistence"),
    "fields": ("PrimeField",),
    "reduction": ("Barcode", "Interval", "ReducedFiltration", "betti_at", "betti_of_complex", "reduce_filtration"),
    "simplices": ("Simplex",),
    "svg": ("render_barcode_svg",),
    "synthetic": ("synthetic_corpus",),
}
MODULE_OF = {name: module for module, names in EXPORTS.items() for name in names}
ALL = sorted(MODULE_OF)


def resolve(name: str):
    """The package attribute ``name``, imported and then stored on the
    package, so that later lookups find it without this call: a public
    name, a submodule, or ``__all__``."""
    if name in MODULE_OF:
        value = getattr(importlib.import_module(f".{MODULE_OF[name]}", __package__), name)
    elif name in EXPORTS:
        value = importlib.import_module(f".{name}", __package__)
    elif name == "__all__":
        value = list(ALL)
    else:
        raise AttributeError(f"module {__package__!r} has no attribute {name!r}")
    setattr(sys.modules[__package__], name, value)
    return value


def names() -> list[str]:
    """``dir()`` of the package: what it holds, ``__all__`` and every public name."""
    return sorted(set(vars(sys.modules[__package__])) | {"__all__", *ALL})
