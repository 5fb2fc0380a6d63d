"""Seeded synthetic word-association corpora with planted clusters.

The construction staggers group assembly scales so that no single
similarity threshold recovers the planted partition, while every
in-group merge is short-lived and every cross-group bridge is
long-lived. Lifetime-based clustering can therefore beat plain
thresholding on modularity, which is the qualitative behaviour the
clustering comparison is designed to exhibit.
"""

from __future__ import annotations

import random

from .corpus import AssociationCorpus

DEFAULT_SEED = 745021


def synthetic_corpus(
    n_words: int = 500,
    group_size: int = 20,
    seed: int = DEFAULT_SEED,
) -> AssociationCorpus:
    """Build a corpus of ``n_words`` words in planted groups.

    Each group is a chain of slowly increasing dissimilarities plus a
    few denser in-group shortcuts; group base scales are staggered
    across [0.10, 0.40]. Bridges connect only early-scale groups at
    dissimilarity well above their base, so their merge lifetimes are
    long. Deterministic for a fixed seed. Bridges need two early-scale
    groups, so there must be at least three groups, and a word enters
    the corpus only through a pair, so each group needs two words.
    """
    if group_size < 2:
        raise ValueError(f"group_size must be >= 2, got {group_size}")
    if n_words < 3 * group_size:
        raise ValueError(f"n_words must be at least 3 * group_size = {3 * group_size}, got {n_words}")
    if n_words % group_size:
        raise ValueError("n_words must be a multiple of group_size")
    rng = random.Random(seed)
    n_groups = n_words // group_size
    step = 0.01

    def word(g: int, i: int) -> str:
        return f"W{g * group_size + i:04d}"

    pairs: list[tuple[str, str, float]] = []
    bases = [0.10 + 0.30 * g / max(n_groups - 1, 1) for g in range(n_groups)]

    for g, base in enumerate(bases):
        # chain: vertex i+1 arrives at its own first edge, so each
        # in-group merge has (near) zero lifetime
        for i in range(group_size - 1):
            d = base + i * step
            pairs.append((word(g, i), word(g, i + 1), 1.0 - d))
        # shortcuts at or above the chain scale: density without new merges
        for _ in range(group_size // 2):
            i, j = rng.sample(range(group_size), 2)
            if abs(i - j) <= 1:
                continue
            lo = base + 0.02
            hi = base + step * (group_size - 1)
            d = rng.uniform(lo, hi)
            pairs.append((word(g, i), word(g, j), 1.0 - d))

    # bridges between early groups only: components there were born
    # long before d in [0.45, 0.55], so these merges are long-lived
    early = [g for g, base in enumerate(bases) if base <= 0.25]
    for _ in range(30):
        ga, gb = rng.sample(early, 2)
        d = rng.uniform(0.45, 0.55)
        pairs.append(
            (word(ga, rng.randrange(group_size)), word(gb, rng.randrange(group_size)), 1.0 - d)
        )

    return AssociationCorpus.from_pairs(pairs)


def planted_labels(n_words: int = 500, group_size: int = 20) -> list[int]:
    """Ground-truth group index per vertex id of :func:`synthetic_corpus`."""
    return [v // group_size for v in range(n_words)]
