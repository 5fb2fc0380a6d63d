"""Parsing word-association data into a corpus and its graph.

Two canonical TSV inputs are supported: raw stimulus/response counts
(`stimulus<TAB>response<TAB>count<TAB>total`) and pre-aggregated edge
lists (`word1<TAB>word2<TAB>strength`). Lines starting with ``#`` and
blank lines are skipped; words are upper-cased and stripped. Both
parsers validate their rows, naming the line of a bad one, and hand
(word, word, strength) triples to :meth:`AssociationCorpus.from_pairs`,
the one place word ids are assigned. A corpus holds its words and one
:class:`~wordhom.complexes.WeightedGraph`, which checks and stores the
strengths; :meth:`AssociationCorpus.to_weighted_graph` returns that
graph, the one filtrations and clustering both take.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, TextIO

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
    free of strings. The strengths live in the corpus's
    :class:`~wordhom.complexes.WeightedGraph`, which rejects a pair out
    of range or a strength outside (0, 1] and keeps the pairs in the
    order given. Corpus equality is by words and word-pair strengths,
    independent of id assignment.
    """

    __slots__ = ("_words", "_index", "_graph")

    def __init__(self, words: Iterable[str], strengths: Mapping[tuple[int, int], float]):
        words = tuple(words)
        index = {w: i for i, w in enumerate(words)}
        if len(index) != len(words):
            raise ValueError("duplicate words in corpus")
        object.__setattr__(self, "_words", words)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_graph", WeightedGraph(len(words), strengths))

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
        return self._graph.n_edges

    @property
    def words(self) -> tuple[str, ...]:
        return self._words

    def word(self, i: int) -> str:
        return self._words[i]

    def word_id(self, w: str) -> int:
        return self._index[w.strip().upper()]

    def strength(self, a: str, b: str) -> float | None:
        return self._graph.weight(self.word_id(a), self.word_id(b))

    def to_weighted_graph(self) -> WeightedGraph:
        """The association graph the corpus holds: strengths w,
        dissimilarities 1 - w; absent pairs stay absent. The same graph
        is returned on every call, so its sorted edge lists are built once."""
        return self._graph

    to_dissimilarity = to_weighted_graph  # one graph carries both views

    def write_edge_list(self, stream: TextIO) -> None:
        for i, j, s in self._graph.pair_sorted_edges():
            stream.write(f"{self._words[i]}\t{self._words[j]}\t{s!r}\n")

    def _word_strengths(self) -> dict[frozenset[str], float]:
        return {
            frozenset((self._words[i], self._words[j])): s
            for i, j, s in self._graph.pair_sorted_edges()
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, AssociationCorpus):
            return False
        return set(self._words) == set(other._words) and self._word_strengths() == other._word_strengths()

    def __repr__(self) -> str:
        return f"AssociationCorpus({self.n_words} words, {self.n_associations} associations)"


def _data_lines(stream: TextIO, n_fields: int):
    """(line number, line, fields) of each row that is not blank or ``#``;
    a row without ``n_fields`` tab-separated fields is a DataFormatError."""
    for lineno, raw in enumerate(stream, 1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != n_fields:
            raise DataFormatError(lineno, f"expected {n_fields} tab-separated fields, got {len(parts)}")
        yield lineno, line, parts


def parse_stimulus_counts(stream: TextIO) -> AssociationCorpus:
    """Aggregate directed response counts into association strengths.

    Each row gives how often a response followed a stimulus out of a
    total number of presentations; the strength of an unordered word
    pair is the larger of its two directed proportions. Rows pairing a
    word with itself are ignored.
    """
    directed: dict[tuple[str, str], float] = {}
    for lineno, _, parts in _data_lines(stream, 4):
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
    for lineno, _, parts in _data_lines(stream, 3):
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
