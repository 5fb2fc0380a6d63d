import io

import pytest

from wordhom import (
    AssociationCorpus,
    DataFormatError,
    ThresholdClustering,
    parse_edge_list,
    parse_stimulus_counts,
    synthetic_corpus,
)
from wordhom.synthetic import planted_labels


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


def test_ids_and_pair_order_follow_first_appearance():
    # the pair order sets the summation order of degrees and total weight
    for corpus in (
        stim("C\tA\t1\t4\nB\tD\t1\t2\nA\tC\t3\t4\nD\tA\t1\t8\n"),
        edges("C\tA\t0.25\nB\tD\t0.5\nA\tC\t0.75\nD\tA\t0.125\n"),
    ):
        assert corpus.words == ("C", "A", "B", "D")
        assert list(corpus.to_weighted_graph()._w) == [(0, 1), (2, 3), (1, 3)]
        assert corpus.strength("A", "C") == 0.75


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
    assert g == corpus.to_weighted_graph()
    assert g.n == corpus.n_words
    assert g.n_edges == corpus.n_associations
    cat, dog, eel = (corpus.word_id(w) for w in ("CAT", "DOG", "EEL"))
    assert g.dissimilarity(dog, cat) == 1.0 - 0.4  # bit for bit, not 0.6
    assert g.dissimilarity(dog, eel) == 0.0
    assert g.dissimilarity(cat, eel) is None


def test_to_weighted_graph_preserves_strengths():
    corpus = edges("A\tB\t0.4\nB\tC\t0.9\n")
    g = corpus.to_weighted_graph()
    assert g.n_edges == 2
    assert dict(((i, j), w) for i, j, w in g.pair_sorted_edges()) == {
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


def test_corpus_holds_one_graph():
    corpus = edges("A\tB\t0.4\nB\tC\t0.9\nC\tD\t0.1\n")
    g = corpus.to_weighted_graph()
    assert g is corpus.to_weighted_graph() is corpus.to_dissimilarity()
    order = g.merge_order()
    est = ThresholdClustering(eps=0.7).fit(corpus)
    est.score(corpus)
    assert est.graph_ is g and corpus.to_weighted_graph().merge_order() is order


def test_direct_corpus_rejects_bad_strengths():
    for bad in ({(0, 2): 0.5}, {(1, 0): 0.5}, {(0, 0): 0.5}, {(0, 1): 0.0}, {(0, 1): 1.5}, {(0, 1): float("nan")}):
        with pytest.raises(ValueError):
            AssociationCorpus(["A", "B"], bad)
    with pytest.raises(ValueError, match="duplicate"):
        AssociationCorpus(["A", "A"], {})
    strength = AssociationCorpus(["A", "B"], {(0, 1): 1}).strength("B", "A")
    assert strength == 1.0 and type(strength) is float


def test_synthetic_corpus_needs_three_groups():
    for kwargs in ({"n_words": 20}, {"n_words": 40}, {"n_words": 0}, {"n_words": 10, "group_size": 5}):
        with pytest.raises(ValueError, match="n_words must be at least 3 \\* group_size"):
            synthetic_corpus(**kwargs)
    for group_size in (1, 0, -20):
        with pytest.raises(ValueError, match="group_size must be >= 2"):
            synthetic_corpus(n_words=60, group_size=group_size)
    smallest = synthetic_corpus(n_words=60)
    assert smallest.n_words == 60 and smallest == synthetic_corpus(n_words=60)


def test_synthetic_corpus_names_every_planted_word():
    for group_size in (2, 3, 5):
        for n_words in (3 * group_size, 12 * group_size):
            corpus = synthetic_corpus(n_words=n_words, group_size=group_size)
            assert corpus.n_words == n_words == len(planted_labels(n_words, group_size))
