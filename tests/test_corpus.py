import io

import pytest

from wordhom import (
    AssociationCorpus,
    DataFormatError,
    parse_edge_list,
    parse_stimulus_counts,
)


def stim(text):
    return parse_stimulus_counts(io.StringIO(text))


def edges(text):
    return parse_edge_list(io.StringIO(text))


def test_strength_is_max_of_directions():
    corpus = stim("CAT\tDOG\t25\t100\nDOG\tCAT\t40\t100\n")
    assert corpus.strength("CAT", "DOG") == 0.4
    assert corpus.n_words == 2


def test_single_direction():
    corpus = stim("A\tB\t10\t100\n")
    assert corpus.strength("A", "B") == 0.1


def test_count_exceeding_total_rejected():
    with pytest.raises(DataFormatError, match="line 1"):
        stim("A\tB\t120\t100\n")


def test_malformed_row_carries_line_number():
    with pytest.raises(DataFormatError, match="line 2"):
        stim("A\tB\t10\t100\nA\tB\t10\n")
    with pytest.raises(DataFormatError, match="line 1"):
        stim("A\tB\tten\t100\n")
    with pytest.raises(DataFormatError, match="count"):
        stim("A\tB\t0\t100\n")


def test_duplicate_directed_pair_rejected():
    with pytest.raises(DataFormatError, match="duplicate"):
        stim("A\tB\t10\t100\nA\tB\t20\t100\n")


def test_reverse_direction_is_not_a_duplicate():
    corpus = stim("A\tB\t10\t100\nB\tA\t20\t100\n")
    assert corpus.strength("A", "B") == 0.2


def test_stimulus_self_association_skipped():
    corpus = stim("A\tA\t10\t100\nA\tB\t10\t100\n")
    assert corpus.n_words == 2
    assert corpus.n_associations == 1


def test_direction_order_does_not_matter():
    forward = stim("A\tB\t25\t100\nB\tA\t40\t100\n")
    backward = stim("B\tA\t40\t100\nA\tB\t25\t100\n")
    assert forward == backward


def test_words_normalized():
    corpus = stim("  cat \tDog\t25\t100\n")
    assert corpus.words == ("CAT", "DOG")
    assert corpus.strength("cat", "dog") == 0.25


def test_comments_and_blank_lines_skipped():
    corpus = stim("# header\n\nA\tB\t5\t10\n")
    assert corpus.n_associations == 1


def test_edge_list_basic():
    corpus = edges("CAT\tDOG\t0.4\n")
    assert corpus.n_words == 2
    assert corpus.strength("CAT", "DOG") == 0.4


def test_edge_list_duplicates_resolve_to_max():
    corpus = edges("A\tB\t0.2\nB\tA\t0.3\n")
    assert corpus.strength("A", "B") == 0.3


def test_edge_list_self_pair_rejected():
    with pytest.raises(DataFormatError, match="self-association"):
        edges("CAT\tCAT\t0.5\n")


def test_edge_list_range_errors():
    with pytest.raises(DataFormatError, match="line 1"):
        edges("A\tB\t1.5\n")
    with pytest.raises(DataFormatError, match="line 2"):
        edges("A\tB\t0.5\nC\tD\t-0.1\n")


def test_edge_list_non_finite_strength_rejected():
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(DataFormatError, match="line 2: strength must be finite"):
            edges(f"A\tB\t0.5\nC\tD\t{bad}\n")


def test_edge_list_zero_strength_dropped():
    corpus = edges("A\tB\t0\nC\tD\t0.5\n")
    assert corpus.n_associations == 1
    assert set(corpus.words) == {"C", "D"}


def test_round_trip_through_edge_list():
    original = edges("B\tC\t0.25\nA\tC\t0.5\nA\tD\t0.125\n")
    buf = io.StringIO()
    original.write_edge_list(buf)
    buf.seek(0)
    assert parse_edge_list(buf) == original


def test_to_dissimilarity_values_and_counts():
    corpus = edges("CAT\tDOG\t0.4\nDOG\tEEL\t1.0\n")
    g = corpus.to_dissimilarity()
    assert g.n == corpus.n_words
    assert g.n_edges == corpus.n_associations
    assert g.get(corpus.word_id("CAT"), corpus.word_id("DOG")) == pytest.approx(0.6)
    assert g.get(corpus.word_id("DOG"), corpus.word_id("EEL")) == 0.0


def test_to_weighted_graph_preserves_strengths():
    corpus = edges("A\tB\t0.4\nB\tC\t0.9\n")
    g = corpus.to_weighted_graph()
    assert g.n_edges == 2
    assert dict(((i, j), w) for i, j, w in g.edges()) == {
        (0, 1): 0.4,
        (1, 2): 0.9,
    }


def test_empty_corpus_gives_empty_graph():
    corpus = edges("")
    assert corpus.to_dissimilarity().n == 0
    assert corpus.n_associations == 0


def test_from_pairs_rejects_self():
    with pytest.raises(ValueError, match="self"):
        AssociationCorpus.from_pairs([("A", "a", 0.5)])
