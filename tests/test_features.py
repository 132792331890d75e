import numpy as np
import pytest

from qdelnet.data import Question
from qdelnet.errors import ConfigError, ParseError
from qdelnet.features import (
    EmbeddingTable,
    featurize_batch,
    load_embeddings,
    save_embeddings,
    tokenize,
)


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_lowercase_and_punctuation(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_whitespace_variants(self):
        assert tokenize("a  b\tc") == ["a", "b", "c"]

    def test_forum_style_text(self):
        # boundary punctuation stripped, interior kept, bare punctuation dropped
        assert tokenize("hello emo family. :3 wassup?") == ["hello", "emo", "family", "3", "wassup"]
        assert tokenize("don't stop. . .") == ["don't", "stop"]


class TestEmbeddingTable:
    def test_oov_is_zero_vector(self):
        table = EmbeddingTable(3, {"cat": [1.0, 0.0, 0.0]})
        assert table.vector("dog").tolist() == [0.0, 0.0, 0.0]
        assert "dog" not in table and "cat" in table

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ConfigError):
            EmbeddingTable(3, {"cat": [1.0, 0.0]})


class TestLoadEmbeddings:
    def test_two_line_fixture(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
        table = load_embeddings(path, expected_dim=2)
        assert len(table) == 2
        assert table.vector("cat").tolist() == [1.0, 0.0]
        assert table.vector("dog").tolist() == [0.0, 1.0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        assert len(load_embeddings(path, expected_dim=4)) == 0

    def test_wrong_length_reports_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_embeddings(path, expected_dim=2)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\ndog 1.0 oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(path, expected_dim=2)

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\ncat 1.0 0.0\ndog 0.0 1.0\n")
        table = load_embeddings(path, expected_dim=2)
        assert len(table) == 2

    def test_duplicate_keeps_first(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 0.0\ncat 9.0 9.0\n")
        table = load_embeddings(path, expected_dim=2)
        assert table.vector("cat").tolist() == [1.0, 0.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_embeddings(tmp_path / "nope.txt", expected_dim=2)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(3, {f"w{i}": rng.normal(size=3) for i in range(5)})
        path = tmp_path / "emb.txt"
        save_embeddings(table, path)
        loaded = load_embeddings(path, expected_dim=3)
        assert len(loaded) == 5
        for word in table.words():
            np.testing.assert_array_equal(loaded.vector(word), table.vector(word))


class TestFeaturize:
    def test_paper_scale_dimension(self):
        table = EmbeddingTable(300, {})
        q = Question(id="q", text="", weak_annotation=0.0, label=0)
        assert featurize_batch([q], table, max_words=240).cols == 72_001

    def test_all_padding_case(self):
        table = EmbeddingTable(2, {})
        q = Question(id="q", text="", weak_annotation=0.7, label=0)
        vec = featurize_batch([q], table, max_words=3).array[0]
        assert vec.tolist() == [0, 0, 0, 0, 0, 0, 0.7]

    def test_hand_concatenation(self):
        table = EmbeddingTable(2, {"cat": [1.0, 0.0], "dog": [0.0, 1.0]})
        q = Question(id="q", text="cat dog", weak_annotation=1.0, label=1)
        vec = featurize_batch([q], table, max_words=3).array[0]
        assert vec.tolist() == [1, 0, 0, 1, 0, 0, 1]

    def test_length_invariant_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = int(rng.integers(1, 40))
            max_words = int(rng.integers(1, 60))
            table = EmbeddingTable(dim, {})
            q = Question(id="q", text="a b c", weak_annotation=0.5, label=0)
            assert featurize_batch([q], table, max_words).cols == max_words * dim + 1

    def test_truncation_prefix_property(self):
        table = EmbeddingTable(2, {f"w{i}": [float(i), 1.0] for i in range(10)})
        long_q = Question(id="a", text=" ".join(f"w{i}" for i in range(10)),
                          weak_annotation=0.3, label=0)
        prefix_q = Question(id="b", text=" ".join(f"w{i}" for i in range(4)),
                            weak_annotation=0.3, label=0)
        np.testing.assert_array_equal(
            featurize_batch([long_q], table, max_words=4).array[0],
            featurize_batch([prefix_q], table, max_words=4).array[0],
        )

    def test_padding_slots_are_exactly_zero(self):
        table = EmbeddingTable(3, {"x": [1.0, 2.0, 3.0]})
        q = Question(id="q", text="x", weak_annotation=0.2, label=0)
        vec = featurize_batch([q], table, max_words=5).array[0]
        assert not vec[3:-1].any()

    def test_annotation_slot_exact(self):
        table = EmbeddingTable(2, {})
        q = Question(id="q", text="hi", weak_annotation=0.123456789, label=0)
        assert featurize_batch([q], table, max_words=2).array[0, -1] == 0.123456789

    def test_oov_words_map_to_zero(self):
        table = EmbeddingTable(2, {"known": [1.0, 1.0]})
        q = Question(id="q", text="unknown known", weak_annotation=0.0, label=0)
        vec = featurize_batch([q], table, max_words=2).array[0]
        assert vec[:2].tolist() == [0.0, 0.0]
        assert vec[2:4].tolist() == [1.0, 1.0]

    def test_batch_matches_single(self):
        table = EmbeddingTable(2, {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        qs = [
            Question(id="1", text="a b", weak_annotation=0.1, label=0),
            Question(id="2", text="b", weak_annotation=0.9, label=1),
        ]
        batch = featurize_batch(qs, table, max_words=3)
        for row, q in zip(batch.to_lists(), qs):
            assert row == featurize_batch([q], table, max_words=3).array[0].tolist()

    def test_max_words_must_be_positive(self):
        table = EmbeddingTable(2, {})
        q = Question(id="q", text="", weak_annotation=0.0, label=0)
        with pytest.raises(ConfigError):
            featurize_batch([q], table, max_words=0)


class TestEmbeddingTableMatrix:
    def test_vector_is_a_read_only_row_view(self):
        table = EmbeddingTable(2, {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        a, b = table.vector("a"), table.vector("b")
        assert np.shares_memory(a, b.base) and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 9.0

    def test_words_keep_insertion_order(self):
        table = EmbeddingTable(1, {"b": [2.0], "a": [1.0], "c": [3.0]})
        assert list(table.words()) == ["b", "a", "c"] and len(table) == 3
        assert [table.vector(w)[0] for w in table.words()] == [2.0, 1.0, 3.0]

    def test_caller_entries_are_copied(self):
        vec = np.array([1.0, 2.0])
        table = EmbeddingTable(2, {"a": vec})
        vec[0] = 9.0
        assert table.vector("a").tolist() == [1.0, 2.0]


def reference_featurize(questions, table, max_words):
    """The per-word featurizer that featurize_batch replaced: one slice
    assignment per token, kept here as its oracle."""
    dim = table.dim
    out = np.zeros((len(questions), max_words * dim + 1))
    for row, q in zip(out, questions):
        for slot, word in enumerate(q.tokens[:max_words]):
            row[slot * dim : (slot + 1) * dim] = table.vector(word)
        row[-1] = q.weak_annotation
    return out


def random_corpus(rng, n, vocab, known, dim, max_len):
    """n questions over `vocab` words, of which only the first `known` are in
    the table; lengths run from 0 to max_len, and the last of several
    questions has empty text."""
    table = EmbeddingTable(dim, {f"w{i}": rng.normal(size=dim) for i in range(known)})
    questions = []
    for i in range(n):
        length = 0 if i == n - 1 > 0 else int(rng.integers(0, max_len + 1))
        words = [f"w{j}" for j in rng.integers(0, vocab, size=length)]
        questions.append(
            Question(id=str(i), text=" ".join(words), weak_annotation=float(rng.random()), label=0)
        )
    return questions, table


class TestFeaturizeBatchReference:
    @pytest.mark.parametrize(
        "n, dim, max_words, max_len",
        [
            (1, 4, 5, 8),  # one row, truncated or padded
            (513, 3, 6, 10),  # one row past a 512-row chunk
            (40, 1, 7, 12),  # dim 1
            (50, 5, 3, 3),  # never truncated
            (30, 2, 1, 6),  # one slot
        ],
    )
    def test_bit_equal_to_the_per_word_loop(self, n, dim, max_words, max_len):
        rng = np.random.default_rng(n * 100 + dim)
        questions, table = random_corpus(rng, n, vocab=30, known=20, dim=dim, max_len=max_len)
        got = featurize_batch(questions, table, max_words).array
        expected = reference_featurize(questions, table, max_words)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_all_words_missing_and_all_empty(self):
        table = EmbeddingTable(2, {"known": [1.0, -1.0]})
        questions = [
            Question(id="a", text="nope never", weak_annotation=0.5, label=0),
            Question(id="b", text="", weak_annotation=0.25, label=1),
            Question(id="c", text="!!", weak_annotation=1.0, label=0),
        ]
        got = featurize_batch(questions, table, max_words=3).array
        assert got.tobytes() == reference_featurize(questions, table, 3).tobytes()
        assert not got[:, :-1].any()

    def test_negative_zero_and_extremes_survive(self):
        table = EmbeddingTable(3, {"a": [-0.0, 1e-308, -1.7976931348623157e308]})
        q = Question(id="q", text="a b a", weak_annotation=0.0, label=0)
        got = featurize_batch([q], table, max_words=4).array
        assert got.tobytes() == reference_featurize([q], table, 4).tobytes()


class TestNotUtf8:
    def test_load_embeddings_names_the_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"cat 1.0 0.0\ndog 0.0 1.0\nb\xffd 1.0 1.0\n")
        with pytest.raises(ParseError, match="line 3: not UTF-8"):
            load_embeddings(path, expected_dim=2)

    def test_lines_are_counted_as_text_mode_counts_them(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"cat 1.0 0.0\r\ndog 0.0 1.0\rcow 1.0 1.0\n\nb\xc3 1.0 1.0\n")
        with pytest.raises(ParseError) as info:
            load_embeddings(path, expected_dim=2)
        assert info.value.line == 5
