"""Persistent homology and clustering for weighted dissimilarity graphs
and word-association networks."""

from .fields import PrimeField
from .simplices import Simplex, canonicalize
from .chains import (
    Chain,
    boundary_chain,
    boundary_simplex,
    chain_add,
    chain_neg,
    chain_scale,
    zero_chain,
)
from .complexes import (
    Filtration,
    SimplexBudgetError,
    WeightedGraph,
    build_vr_filtration,
    face_closure,
    validate_complex,
)
from .homology import (
    CosetReducer,
    betti_at,
    betti_numbers,
    betti_of_complex,
    homology_basis,
    rank_mod_p,
)
from .reduction import Barcode, Interval, ReducedFiltration, reduce_filtration
from .clustering import (
    Clustering,
    MarkovResult,
    SweepResult,
    SweepRow,
    UnionFind,
    markov_clusters,
    modularity,
    persistence_clusters,
    sweep,
    threshold_clusters,
)
from .corpus import (
    AssociationCorpus,
    DataFormatError,
    parse_edge_list,
    parse_stimulus_counts,
)
from .svg import render_barcode_svg
from .synthetic import synthetic_corpus
from .estimators import (
    MarkovClustering,
    PersistenceClustering,
    ThresholdClustering,
    VietorisRipsPersistence,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationCorpus",
    "Barcode",
    "Chain",
    "Clustering",
    "CosetReducer",
    "DataFormatError",
    "Filtration",
    "Interval",
    "MarkovClustering",
    "MarkovResult",
    "PersistenceClustering",
    "PrimeField",
    "ReducedFiltration",
    "Simplex",
    "SimplexBudgetError",
    "SweepResult",
    "SweepRow",
    "ThresholdClustering",
    "UnionFind",
    "VietorisRipsPersistence",
    "WeightedGraph",
    "betti_at",
    "betti_numbers",
    "betti_of_complex",
    "boundary_chain",
    "boundary_simplex",
    "build_vr_filtration",
    "canonicalize",
    "chain_add",
    "chain_neg",
    "chain_scale",
    "face_closure",
    "homology_basis",
    "markov_clusters",
    "modularity",
    "parse_edge_list",
    "parse_stimulus_counts",
    "persistence_clusters",
    "rank_mod_p",
    "reduce_filtration",
    "render_barcode_svg",
    "sweep",
    "synthetic_corpus",
    "threshold_clusters",
    "validate_complex",
    "zero_chain",
]
