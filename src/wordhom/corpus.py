"""Parsing word-association data into a corpus and its graph.

Two canonical TSV inputs are supported: raw stimulus/response counts
(`stimulus<TAB>response<TAB>count<TAB>total`) and pre-aggregated edge
lists (`word1<TAB>word2<TAB>strength`). Lines starting with ``#`` and
blank lines are skipped; words are upper-cased and stripped. Both
parsers validate their rows and hand (word, word, strength) triples to
:meth:`AssociationCorpus.from_pairs`, the one place word ids are
assigned. :meth:`AssociationCorpus.to_weighted_graph` gives the
:class:`~wordhom.complexes.WeightedGraph` that filtrations and
clustering both take.
"""

from __future__ import annotations

import math
from typing import Iterable, TextIO

from .complexes import WeightedGraph


class DataFormatError(ValueError):
    """Malformed input data; carries the offending line number."""

    def __init__(self, lineno: int | None, message: str):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class AssociationCorpus:
    """Words plus symmetric association strengths in (0, 1].

    Vertex ids are dense ints assigned in order of first appearance;
    the word<->id mapping lives here so the algebraic layers can stay
    free of strings. Corpus equality is by words and word-pair
    strengths, independent of id assignment.
    """

    __slots__ = ("_words", "_index", "_strengths")

    def __init__(self, words: Iterable[str], strengths: dict[tuple[int, int], float]):
        words = tuple(words)
        index = {w: i for i, w in enumerate(words)}
        if len(index) != len(words):
            raise ValueError("duplicate words in corpus")
        for (i, j), s in strengths.items():
            if not (0 <= i < j < len(words)):
                raise ValueError(f"strength pair ({i}, {j}) out of range")
            if not 0.0 < s <= 1.0:
                raise ValueError(f"strength {s} outside (0, 1]")
        object.__setattr__(self, "_words", words)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_strengths", dict(strengths))

    def __setattr__(self, name, value):
        raise AttributeError("AssociationCorpus is immutable")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str, float]]) -> "AssociationCorpus":
        """Build a corpus from (word, word, strength) triples, resolving
        duplicate pairs by maximum strength."""
        words: list[str] = []
        index: dict[str, int] = {}
        strengths: dict[tuple[int, int], float] = {}

        def wid(w: str) -> int:
            w = w.strip().upper()
            if w not in index:
                index[w] = len(words)
                words.append(w)
            return index[w]

        for a, b, s in pairs:
            ia, ib = wid(a), wid(b)
            if ia == ib:
                raise ValueError(f"self-association for {a!r}")
            key = (ia, ib) if ia < ib else (ib, ia)
            strengths[key] = max(strengths.get(key, 0.0), float(s))
        return cls(words, strengths)

    @property
    def n_words(self) -> int:
        return len(self._words)

    @property
    def n_associations(self) -> int:
        return len(self._strengths)

    @property
    def words(self) -> tuple[str, ...]:
        return self._words

    def word(self, i: int) -> str:
        return self._words[i]

    def word_id(self, w: str) -> int:
        return self._index[w.strip().upper()]

    def strength(self, a: str, b: str) -> float | None:
        ia, ib = self.word_id(a), self.word_id(b)
        if ia > ib:
            ia, ib = ib, ia
        return self._strengths.get((ia, ib))

    def items(self) -> list[tuple[int, int, float]]:
        return [(i, j, s) for (i, j), s in sorted(self._strengths.items())]

    def to_weighted_graph(self) -> WeightedGraph:
        """The association graph: strengths w, dissimilarities 1 - w;
        absent pairs stay absent."""
        return WeightedGraph(self.n_words, self._strengths)

    to_dissimilarity = to_weighted_graph  # one graph carries both views

    def write_edge_list(self, stream: TextIO) -> None:
        for i, j, s in self.items():
            stream.write(f"{self._words[i]}\t{self._words[j]}\t{s!r}\n")

    def __eq__(self, other) -> bool:
        if not isinstance(other, AssociationCorpus):
            return False
        mine = {
            frozenset((self._words[i], self._words[j])): s
            for (i, j), s in self._strengths.items()
        }
        theirs = {
            frozenset((other._words[i], other._words[j])): s
            for (i, j), s in other._strengths.items()
        }
        return set(self._words) == set(other._words) and mine == theirs

    def __repr__(self) -> str:
        return f"AssociationCorpus({self.n_words} words, {self.n_associations} associations)"


def _data_lines(stream: TextIO):
    for lineno, raw in enumerate(stream, 1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield lineno, line


def parse_stimulus_counts(stream: TextIO) -> AssociationCorpus:
    """Aggregate directed response counts into association strengths.

    Each row gives how often a response followed a stimulus out of a
    total number of presentations; the strength of an unordered word
    pair is the larger of its two directed proportions. Rows pairing a
    word with itself are ignored.
    """
    directed: dict[tuple[str, str], float] = {}
    for lineno, line in _data_lines(stream):
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataFormatError(lineno, f"expected 4 tab-separated fields, got {len(parts)}")
        stimulus = parts[0].strip().upper()
        response = parts[1].strip().upper()
        if not stimulus or not response:
            raise DataFormatError(lineno, "empty word")
        try:
            count = int(parts[2])
            total = int(parts[3])
        except ValueError:
            raise DataFormatError(lineno, f"count/total must be integers, got {parts[2]!r}/{parts[3]!r}")
        if count < 1:
            raise DataFormatError(lineno, f"count must be >= 1, got {count}")
        if count > total:
            raise DataFormatError(lineno, f"count {count} exceeds total {total}")
        if stimulus == response:
            continue
        if (stimulus, response) in directed:
            raise DataFormatError(lineno, f"duplicate directed pair {stimulus} -> {response}")
        directed[(stimulus, response)] = count / total
    return AssociationCorpus.from_pairs((a, b, prop) for (a, b), prop in directed.items())


def parse_edge_list(stream: TextIO) -> AssociationCorpus:
    """Read pre-aggregated `word1 word2 strength` rows.

    Duplicate unordered pairs resolve to the maximum strength;
    zero-strength rows are dropped (indistinguishable from no
    association); strengths outside [0, 1] and self-pairs are errors.
    """
    pairs: list[tuple[str, str, float]] = []
    for lineno, line in _data_lines(stream):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataFormatError(lineno, f"expected 3 tab-separated fields, got {len(parts)}")
        a = parts[0].strip().upper()
        b = parts[1].strip().upper()
        if not a or not b:
            raise DataFormatError(lineno, "empty word")
        try:
            s = float(parts[2])
        except ValueError:
            raise DataFormatError(lineno, f"strength must be a number, got {parts[2]!r}")
        if not math.isfinite(s):
            raise DataFormatError(lineno, f"strength must be finite, got {parts[2]!r}")
        if s < 0.0 or s > 1.0:
            raise DataFormatError(lineno, f"strength {s} outside (0, 1]")
        if a == b:
            raise DataFormatError(lineno, f"self-association for {a!r}")
        if s != 0.0:
            pairs.append((a, b, s))
    return AssociationCorpus.from_pairs(pairs)
