import os
import string
import threading
from typing import Callable, NamedTuple

import numpy as np
import pytest

import qdelnet.data
import qdelnet.features
import qdelnet.nn
from qdelnet.data import Question, load_dataset
from qdelnet.errors import ConfigError, ParseError, ShapeError
from qdelnet.features import (
    EmbeddingTable,
    featurize_batch,
    load_embeddings,
    save_embeddings,
    tokenize,
)
from qdelnet.nn import load_model


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

    def test_values_match_the_uninterned_reference(self):
        texts = ["", "Hello, World!", "a  b\tc", "don't stop. . .", "...", "Ünïcode ÉCOLE, ß!",
                 "x-ray (x-ray) X-RAY", "mixed\nlines\r\nand\u00a0nbsp"]
        for text in texts:
            expected = [w.strip(string.punctuation) for w in text.lower().split()]
            assert tokenize(text) == [w for w in expected if w]

    def test_equal_tokens_are_one_object(self):
        first, second = tokenize("Shared words"), tokenize("the SHARED, words!")
        assert first[0] is second[1] and first[1] is second[2]


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

    @pytest.mark.parametrize("comps", ["1_0 2 3", "\u0661 2 3", "1 2 \uff13", "1\u20032 3",
                                       "1 2 3\u00a0"],
                             ids=["underscore", "arabic-indic", "fullwidth", "em-space", "nbsp"])
    def test_numbers_word2vec_does_not_write_are_rejected(self, tmp_path, comps):
        # float() takes all of these; "1\u20032" splits on a non-ASCII space.
        path = tmp_path / "emb.txt"
        path.write_text(f"cat 1 2 3\nw {comps}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="^line 2: non-numeric component in entry 'w'$"):
            load_embeddings(path, expected_dim=3)

    def test_words_may_hold_underscores_and_non_ascii(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("new_york 1 2 3\ncafé 4 5 6\n\u0661 7 8 9\n", encoding="utf-8")
        table = load_embeddings(path, expected_dim=3)
        assert list(table.words()) == ["new_york", "café", "\u0661"]
        assert table.vector("café").tolist() == [4.0, 5.0, 6.0]

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


def reference_load_embeddings(path, dim):
    """The per-line loader that load_embeddings replaced: one array per
    entry, copied into the table's matrix at the end, kept here as its
    oracle, with the rule that the text after the word is ASCII and holds
    no underscore. Returns (matrix, word -> row)."""

    def is_int(s):
        try:
            int(s)
        except ValueError:
            return False
        return True

    entries = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and is_int(parts[0]) and is_int(parts[1]):
                continue
            word, comps = parts[0], parts[1:]
            if len(comps) != dim:
                raise ParseError(
                    f"expected {dim} components for {word!r}, got {len(comps)}", line=lineno
                )
            rest = line.split(None, 1)[1]
            try:
                if "_" in rest or not rest.isascii():  # word2vec writes neither
                    raise ValueError(rest)
                vec = np.array([float(c) for c in comps])
            except ValueError:
                raise ParseError(f"non-numeric component in entry {word!r}", line=lineno) from None
            if not np.isfinite(vec).all():
                raise ParseError(f"non-finite component in entry {word!r}", line=lineno)
            if word not in entries:
                entries[word] = vec
    matrix = np.zeros((len(entries) + 1, dim))
    rows = {}
    for row, (word, vec) in enumerate(entries.items(), start=1):
        matrix[row] = vec
        rows[word] = row
    return matrix, rows


def cache_of(path):
    return path.with_name(path.name + ".qdelnet-cache.npz")


def cached_arrays(path):
    with np.load(cache_of(path)) as npz:
        return dict(npz)


def entry_lines(rng, words, dim):
    return [f"{w} " + " ".join(repr(v) for v in rng.normal(size=dim).tolist()) for w in words]


def assert_loads_like_the_reference(path, dim):
    """load_embeddings and the oracle agree bit for bit, or raise the same
    ParseError for the same line, on the first load (a parse) and on the
    second (a cache hit, or a second parse of a table that is not cached)."""
    try:
        matrix, rows = reference_load_embeddings(path, dim)
    except ParseError as expected:
        cached = cache_of(path).read_bytes() if cache_of(path).exists() else None
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                load_embeddings(path, dim)
            assert (str(info.value), info.value.line) == (str(expected), expected.line)
        assert (cache_of(path).read_bytes() if cache_of(path).exists() else None) == cached
        return
    for _ in range(2):
        table = load_embeddings(path, dim)
        assert table.dim == dim
        assert table._matrix.shape == matrix.shape
        assert table._matrix.tobytes() == matrix.tobytes()
        assert list(table._rows.items()) == list(rows.items())
        assert not table._matrix.flags.writeable
        assert cache_of(path).exists()


class TestLoadEmbeddingsReference:
    @pytest.mark.parametrize("header", ["present", "absent", "count too high", "count too low"])
    def test_header(self, tmp_path, header):
        rng = np.random.default_rng(1)
        lines = entry_lines(rng, [f"w{i}" for i in range(6)], 3)
        head = {"present": ["6 3"], "absent": [], "count too high": ["60 3"],
                "count too low": ["2 3"]}[header]
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(head + lines) + "\n")
        assert_loads_like_the_reference(path, 3)
        assert len(load_embeddings(path, 3)) == 6

    def test_blank_lines_and_a_header_shape_past_line_1(self, tmp_path):
        rng = np.random.default_rng(2)
        a, b = entry_lines(rng, ["alpha", "beta"], 1)
        path = tmp_path / "emb.txt"
        # line 1 is blank, so "2 1" on line 2 is the entry of the word "2"
        path.write_text(f"\n2 1\n{a}\n   \n\t\n{b}\n\n")
        assert_loads_like_the_reference(path, 1)
        assert list(load_embeddings(path, 1).words()) == ["2", "alpha", "beta"]

    @pytest.mark.parametrize(
        "duplicate, line",
        [
            ("a 5.0 6.0", None),  # a good duplicate is dropped
            ("a 5.0", 3),  # wrong component count
            ("a 5.0 x", 3),  # non-numeric
            ("a inf 6.0", 3),  # non-finite
        ],
    )
    def test_duplicates_keep_the_first_and_are_checked(self, tmp_path, duplicate, line):
        path = tmp_path / "emb.txt"
        path.write_text(f"a 1.0 2.0\nb 3.0 4.0\n{duplicate}\nc 7.0 8.0\n")
        assert_loads_like_the_reference(path, 2)
        if line is None:
            table = load_embeddings(path, 2)
            assert table.vector("a").tolist() == [1.0, 2.0]
            assert table.vector("c").tolist() == [7.0, 8.0]
        else:
            with pytest.raises(ParseError) as info:
                load_embeddings(path, 2)
            assert info.value.line == line

    @pytest.mark.parametrize("words", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17])
    @pytest.mark.parametrize("trailing_duplicate", [False, True])
    def test_sizes_around_the_growth_points(self, tmp_path, monkeypatch, words,
                                            trailing_duplicate):
        """A 4-row first buffer holds 3 words (row 0 is the zero row), so it
        grows at the 4th, 8th and 16th word."""
        monkeypatch.setattr(qdelnet.features, "_FIRST_ROWS", 4)
        rng = np.random.default_rng(words)
        lines = entry_lines(rng, [f"w{i}" for i in range(words)], 2)
        if trailing_duplicate:
            lines += entry_lines(rng, ["w0"], 2)
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n")
        assert_loads_like_the_reference(path, 2)

    @pytest.mark.parametrize("words", [1022, 1023, 1024, 1025])
    def test_sizes_around_the_default_first_buffer(self, tmp_path, words):
        rng = np.random.default_rng(words)
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(entry_lines(rng, [f"w{i}" for i in range(words)], 1)) + "\n")
        assert_loads_like_the_reference(path, 1)

    def test_a_parsed_matrix_owns_exactly_its_rows(self, tmp_path):
        """1,500 words overflow the 1,024-row first buffer, which grows to
        2,048 rows: the table keeps 1,501 rows and no view of a larger buffer."""
        rng = np.random.default_rng(1500)
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(entry_lines(rng, [f"w{i}" for i in range(1500)], 3)) + "\n")
        matrix = load_embeddings(path, 3)._matrix
        buffer = matrix if matrix.base is None else matrix.base
        assert (matrix.shape, buffer.nbytes) == ((1501, 3), 1501 * 3 * 8)

    def test_dim_1_and_extreme_values(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("z -0.0\ntiny 5e-324\nbig -1.7976931348623157e308\nint 7\n")
        assert_loads_like_the_reference(path, 1)
        assert load_embeddings(path, 1).vector("int").tolist() == [7.0]
        path.write_text("z -0.0\ntiny 5e-324\nbig -1.7976931348623157e308\nsep 1_0\nint 7\n")
        assert_loads_like_the_reference(path, 1)  # both refuse line 4

    @pytest.mark.parametrize(
        "first, second",
        [
            ("c nan 1.0", "d 1.0"),  # non-finite before a wrong count
            ("c 1.0", "d 1.0 nope"),  # wrong count before non-numeric
            ("c 1.0 nope", "d -inf 1.0"),  # non-numeric before non-finite
            ("c 1.0 2.0 3.0", "d 1.0 NaN"),  # too many components before non-finite
        ],
    )
    def test_the_first_bad_line_wins(self, tmp_path, first, second):
        path = tmp_path / "emb.txt"
        path.write_text(f"2 2\na 1.0 2.0\n{first}\nb 3.0 4.0\n{second}\n")
        assert_loads_like_the_reference(path, 2)
        with pytest.raises(ParseError) as info:
            load_embeddings(path, 2)
        assert info.value.line == 3

    def test_table_keys_are_the_corpus_tokens(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("shared 1.0\nwords 2.0\n")
        parsed = load_embeddings(path, 1)
        cached = load_embeddings(path, 1)  # a cache hit
        tokens = tokenize("SHARED words!")
        for table in (parsed, cached):
            keys = {w: w for w in table.words()}
            assert keys["shared"] is tokens[0] and keys["words"] is tokens[1]
        assert cached._matrix.tobytes() == parsed._matrix.tobytes()
        assert list(cached.words()) == list(parsed.words()) == ["shared", "words"]
        built = EmbeddingTable(1, {"".join(["sha", "red"]): [1.0]})
        assert next(iter(built.words())) is tokens[0]


class TestCache:
    """What load_embeddings keeps in its cache: TestParseOnce covers the protocol."""

    def write_table(self, tmp_path, words=4, dim=3, seed=0):
        path = tmp_path / "emb.txt"
        rng = np.random.default_rng(seed)
        path.write_text("\n".join(entry_lines(rng, [f"w{i}" for i in range(words)], dim)) + "\n")
        return path

    @pytest.mark.parametrize("cache", ["npy", "object-array", "wrong-shape", "wrong-dtype",
                                       "nonzero-row-0", "non-finite", "duplicate-word",
                                       "missing-word"])
    def test_a_bad_cache_is_ignored_and_replaced(self, tmp_path, cache):
        path = self.write_table(tmp_path)
        expected = load_embeddings(path, 3)
        arrays = cached_arrays(path)
        matrix, words = arrays["matrix"], arrays["words"].tobytes()
        edits = {
            "object-array": {"words": np.array(["w0", "w1", "w2", "w3"], dtype=object)},
            "wrong-shape": {"matrix": matrix[:, :2]},
            "wrong-dtype": {"matrix": matrix.astype(np.float32)},
            "nonzero-row-0": {"matrix": np.vstack([np.full((1, 3), -0.0), matrix[1:]])},
            "non-finite": {"matrix": np.vstack([matrix[:-1], np.full((1, 3), np.inf)])},
            "duplicate-word": {"words": np.frombuffer(words.replace(b"w1", b"w0"), np.uint8)},
            "missing-word": {"words": np.frombuffer(words.rsplit(b"\n", 1)[0], np.uint8)},
        }
        with open(cache_of(path), "wb") as fh:
            if cache == "npy":
                np.save(fh, matrix)
            else:
                np.savez(fh, **{**arrays, **edits[cache]})
        table = load_embeddings(path, 3)
        assert table._matrix.tobytes() == expected._matrix.tobytes()
        assert list(table.words()) == list(expected.words())
        replaced = cached_arrays(path)
        assert {k: v.tobytes() for k, v in replaced.items()} == {
            k: v.tobytes() for k, v in arrays.items()}

    def test_a_non_finite_value_past_the_first_block_is_found(self, tmp_path, monkeypatch):
        """The finite check runs block by block: with 1-row blocks, the inf in
        the last row sits in the fifth block."""
        monkeypatch.setattr(qdelnet.features, "_FINITE_CHECK_ROWS", 1)
        self.test_a_bad_cache_is_ignored_and_replaced(tmp_path, "non-finite")

    def test_a_malformed_table_is_not_cached(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0\n")
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                load_embeddings(path, 2)
            assert (str(info.value), info.value.line) == (
                "line 2: expected 2 components for 'dog', got 1", 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]

    def test_another_dim_parses_and_raises_as_before(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 2.0\ndog 3.0 4.0\n")
        load_embeddings(path, 2)
        with pytest.raises(ParseError, match="^line 1: expected 3 components for 'cat', got 2$"):
            load_embeddings(path, 3)
        assert load_embeddings(path, 2).vector("cat").tolist() == [1.0, 2.0]

    def test_an_empty_table_is_cached(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        for _ in range(2):
            table = load_embeddings(path, 4)
            assert len(table) == 0 and table._matrix.shape == (1, 4)
        assert cache_of(path).is_file()


class Loader(NamedTuple):
    """One loader as TestParseOnce drives it: the name of its file, a file it
    parses that holds "cat" on line 1, the module attribute it parses with,
    and whether two of its results are equal."""

    file: str
    text: str
    load: Callable
    module: object
    parser: str
    equal: Callable


LOADERS = [
    pytest.param(Loader(
        "emb.txt", "cat 1.0 2.0\ndog 3.0 -4.5\nbird 0.0 1e-300\n",
        lambda path: load_embeddings(path, 2), qdelnet.features, "_parse_table",
        lambda a, b: (a._matrix.tobytes(), list(a.words())) == (b._matrix.tobytes(),
                                                                list(b.words()))),
        id="load_embeddings"),
    pytest.param(Loader(
        "c.jsonl", '{"id":"a","text":"cat","label":0}\n'
                   '{"id":"b","text":"Dog, bird!","weak_annotation":0.5,"label":1}\n',
        load_dataset, qdelnet.data, "_parse_corpus",
        lambda a, b: (a.name, a.questions) == (b.name, b.questions)),
        id="load_dataset"),
    pytest.param(Loader(
        "model.json", '{"format":"qdelnet-mlp","version":1,"note":"cat","config":{"input_dim":2,'
                      '"hidden_widths":[1],"dropout_rate":0.05,"seed":3},"layers":[{"activation":'
                      '"relu","rows":1,"cols":2,"weights":[0.5,-1.25],"bias":[-0.0]},{"activation"'
                      ':"sigmoid","rows":1,"cols":1,"weights":[2.0],"bias":[5e-324]}]}\n',
        load_model, qdelnet.nn, "_parse_checkpoint",
        lambda a, b: (a.config, a.params.dtype, a.params.tobytes()) == (
            b.config, b.params.dtype, b.params.tobytes())),
        id="load_model"),
]


def refuse_to_parse(*args, **kwargs):
    raise AssertionError("the file was parsed")


@pytest.mark.parametrize("loader", LOADERS)
class TestParseOnce:
    """Every loader keeps what it parses beside the file, keyed by the SHA-256 of
    the file's bytes, through features._parse_once."""

    def write(self, tmp_path, loader, text=None, where="a"):
        (tmp_path / where).mkdir(exist_ok=True)
        path = tmp_path / where / loader.file
        path.write_text(loader.text if text is None else text, encoding="utf-8")
        return path

    def parse(self, tmp_path, loader, text):
        """What a parse of `text` returns: a load of a file of its own, with no cache."""
        return loader.load(self.write(tmp_path, loader, text, where="parsed"))

    def test_a_hit_does_not_parse(self, tmp_path, monkeypatch, loader):
        path = self.write(tmp_path, loader)
        parsed = loader.load(path)
        assert cache_of(path).is_file()
        monkeypatch.setattr(loader.module, loader.parser, refuse_to_parse)
        assert loader.equal(loader.load(path), parsed)

    def test_an_edit_of_the_same_size_and_mtime_is_parsed_again(self, tmp_path, monkeypatch,
                                                                 loader):
        path = self.write(tmp_path, loader)
        loader.load(path)
        before = path.stat()
        edited = loader.text.replace("cat", "cow")
        self.write(tmp_path, loader, edited)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size
        expected = self.parse(tmp_path, loader, edited)
        assert loader.equal(loader.load(path), expected)
        monkeypatch.setattr(loader.module, loader.parser, refuse_to_parse)
        assert loader.equal(loader.load(path), expected)  # the new cache

    @pytest.mark.parametrize("cache", ["truncated", "garbage", "empty", "other-version"])
    def test_a_bad_cache_is_ignored_and_replaced(self, tmp_path, loader, cache):
        path = self.write(tmp_path, loader)
        expected = loader.load(path)
        good, arrays = cache_of(path).read_bytes(), cached_arrays(path)
        with open(cache_of(path), "wb") as fh:
            if cache == "other-version":
                np.savez(fh, **{**arrays, "version": arrays["version"] + 1})
            else:
                fh.write({"truncated": good[: len(good) // 2], "garbage": b"not a cache\n",
                          "empty": b""}[cache])
        assert loader.equal(loader.load(path), expected)
        assert {k: v.tobytes() for k, v in cached_arrays(path).items()} == {
            k: v.tobytes() for k, v in arrays.items()}

    def test_a_stale_cache_is_not_read_past_its_key(self, tmp_path, monkeypatch, loader):
        path = self.write(tmp_path, loader)
        loader.load(path)
        self.write(tmp_path, loader, loader.text.replace("cat", "cow"))
        expected = self.parse(tmp_path, loader, loader.text.replace("cat", "cow"))
        read = []
        get = np.lib.npyio.NpzFile.__getitem__
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                            lambda npz, key: read.append(key) or get(npz, key))
        assert loader.equal(loader.load(path), expected)
        assert read == ["version", "sha256"]

    @pytest.mark.parametrize("mode", [0o644, 0o600, 0o664], ids=oct)
    def test_the_cache_takes_the_file_permissions(self, tmp_path, loader, mode):
        path = self.write(tmp_path, loader)
        path.chmod(mode)
        loader.load(path)
        assert cache_of(path).stat().st_mode & 0o777 == mode

    def test_a_failed_write_returns_the_result_and_leaves_no_file(self, tmp_path, monkeypatch,
                                                                  loader):
        path = self.write(tmp_path, loader)
        expected = self.parse(tmp_path, loader, loader.text)
        refused = []

        def refuse(src, dst):
            refused.append(dst)
            raise OSError("refused")

        monkeypatch.setattr(qdelnet.features.os, "replace", refuse)
        assert loader.equal(loader.load(path), expected)
        assert refused == [str(cache_of(path))]
        assert sorted(p.name for p in path.parent.iterdir()) == [loader.file]

    def test_a_pipe_is_parsed_and_never_cached(self, tmp_path, loader):
        regular, pipe = self.write(tmp_path, loader), tmp_path / "pipe" / loader.file
        pipe.parent.mkdir()
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(regular.read_bytes(),),
                                  daemon=True)
        writer.start()
        loaded = loader.load(pipe)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert loader.equal(loaded, loader.load(regular))
        assert sorted(p.name for p in pipe.parent.iterdir()) == [loader.file]

    def test_a_file_that_is_not_utf8_leaves_no_cache(self, tmp_path, loader):
        path = self.write(tmp_path, loader)
        path.write_bytes(path.read_bytes().replace(b"cat", b"c\xfft"))
        for _ in range(2):
            with pytest.raises(ParseError, match="^line 1: not UTF-8: invalid start byte"):
                loader.load(path)
        assert sorted(p.name for p in path.parent.iterdir()) == [loader.file]


class TestFeaturize:
    def test_paper_scale_dimension(self):
        table = EmbeddingTable(300, {})
        q = Question(id="q", text="", weak_annotation=0.0, label=0)
        assert featurize_batch([q], table, max_words=240).shape[1] == 72_001

    def test_all_padding_case(self):
        table = EmbeddingTable(2, {})
        q = Question(id="q", text="", weak_annotation=0.7, label=0)
        vec = featurize_batch([q], table, max_words=3)[0]
        assert vec.tolist() == [0, 0, 0, 0, 0, 0, 0.7]

    def test_hand_concatenation(self):
        table = EmbeddingTable(2, {"cat": [1.0, 0.0], "dog": [0.0, 1.0]})
        q = Question(id="q", text="cat dog", weak_annotation=1.0, label=1)
        vec = featurize_batch([q], table, max_words=3)[0]
        assert vec.tolist() == [1, 0, 0, 1, 0, 0, 1]

    def test_length_invariant_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = int(rng.integers(1, 40))
            max_words = int(rng.integers(1, 60))
            table = EmbeddingTable(dim, {})
            q = Question(id="q", text="a b c", weak_annotation=0.5, label=0)
            assert featurize_batch([q], table, max_words).shape[1] == max_words * dim + 1

    def test_truncation_prefix_property(self):
        table = EmbeddingTable(2, {f"w{i}": [float(i), 1.0] for i in range(10)})
        long_q = Question(id="a", text=" ".join(f"w{i}" for i in range(10)),
                          weak_annotation=0.3, label=0)
        prefix_q = Question(id="b", text=" ".join(f"w{i}" for i in range(4)),
                            weak_annotation=0.3, label=0)
        np.testing.assert_array_equal(
            featurize_batch([long_q], table, max_words=4)[0],
            featurize_batch([prefix_q], table, max_words=4)[0],
        )

    def test_padding_slots_are_exactly_zero(self):
        table = EmbeddingTable(3, {"x": [1.0, 2.0, 3.0]})
        q = Question(id="q", text="x", weak_annotation=0.2, label=0)
        vec = featurize_batch([q], table, max_words=5)[0]
        assert not vec[3:-1].any()

    def test_annotation_slot_exact(self):
        table = EmbeddingTable(2, {})
        q = Question(id="q", text="hi", weak_annotation=0.123456789, label=0)
        assert featurize_batch([q], table, max_words=2)[0, -1] == 0.123456789

    def test_oov_words_map_to_zero(self):
        table = EmbeddingTable(2, {"known": [1.0, 1.0]})
        q = Question(id="q", text="unknown known", weak_annotation=0.0, label=0)
        vec = featurize_batch([q], table, max_words=2)[0]
        assert vec[:2].tolist() == [0.0, 0.0]
        assert vec[2:4].tolist() == [1.0, 1.0]

    def test_batch_matches_single(self):
        table = EmbeddingTable(2, {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        qs = [
            Question(id="1", text="a b", weak_annotation=0.1, label=0),
            Question(id="2", text="b", weak_annotation=0.9, label=1),
        ]
        batch = featurize_batch(qs, table, max_words=3)
        for row, q in zip(batch.tolist(), qs):
            assert row == featurize_batch([q], table, max_words=3)[0].tolist()

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
        got = featurize_batch(questions, table, max_words)
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
        got = featurize_batch(questions, table, max_words=3)
        assert got.tobytes() == reference_featurize(questions, table, 3).tobytes()
        assert not got[:, :-1].any()

    def test_negative_zero_and_extremes_survive(self):
        table = EmbeddingTable(3, {"a": [-0.0, 1e-308, -1.7976931348623157e308]})
        q = Question(id="q", text="a b a", weak_annotation=0.0, label=0)
        got = featurize_batch([q], table, max_words=4)
        assert got.tobytes() == reference_featurize([q], table, 4).tobytes()

    def test_out_prefilled_with_nan_is_written_everywhere(self):
        rng = np.random.default_rng(61)
        questions, table = random_corpus(rng, 40, vocab=30, known=20, dim=3, max_len=10)
        buffer = np.full((40, 6 * 3 + 1), np.nan)
        got = featurize_batch(questions, table, 6, out=buffer)
        assert np.shares_memory(got, buffer)
        assert got.tobytes() == reference_featurize(questions, table, 6).tobytes()

    def test_short_chunk_after_long_chunk_in_one_buffer(self):
        """Slots the long chunk filled must read zero for the short one."""
        rng = np.random.default_rng(62)
        dim, max_words = 4, 6
        table = EmbeddingTable(dim, {f"w{i}": rng.normal(size=dim) for i in range(20)})

        def chunk(n, lengths, tag):
            return [
                Question(
                    id=f"{tag}{i}",
                    text=" ".join(f"w{j}" for j in rng.integers(0, 25, size=int(rng.integers(*lengths)))),
                    weak_annotation=float(rng.random()),
                    label=i % 2,
                )
                for i in range(n)
            ]

        long_qs, short_qs = chunk(12, (6, 10), "long"), chunk(7, (0, 2), "short")
        buffer = np.empty((12, max_words * dim + 1))
        got = featurize_batch(long_qs, table, max_words, out=buffer)
        assert got.tobytes() == reference_featurize(long_qs, table, max_words).tobytes()
        got = featurize_batch(short_qs, table, max_words, out=buffer)
        assert got.shape == (7, max_words * dim + 1)
        assert got.tobytes() == reference_featurize(short_qs, table, max_words).tobytes()

    def test_out_with_more_rows_than_the_batch(self):
        rng = np.random.default_rng(63)
        questions, table = random_corpus(rng, 13, vocab=30, known=20, dim=2, max_len=8)
        buffer = np.full((50, 5 * 2 + 1), np.nan)
        got = featurize_batch(questions, table, 5, out=buffer)
        assert got.shape == (13, 11)
        assert got.tobytes() == reference_featurize(questions, table, 5).tobytes()
        assert np.isnan(buffer[13:]).all()

    def test_features_are_read_only_and_out_stays_writable(self):
        rng = np.random.default_rng(65)
        questions, table = random_corpus(rng, 6, vocab=10, known=8, dim=2, max_len=4)
        buffer = np.empty((8, 3 * 2 + 1))
        for got in (featurize_batch(questions, table, 3),
                    featurize_batch(questions, table, 3, out=buffer)):
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = 1.0
        assert buffer.flags.writeable

    @pytest.mark.parametrize(
        "buffer",
        [
            np.zeros((10, 3 * 2 + 2)),  # one column too many
            np.zeros((10, 3 * 2)),  # one column too few
            np.zeros((10, 3 * 2 + 1), dtype=np.float32),
            np.zeros((9, 3 * 2 + 1)),  # one row short
            np.zeros((10, 3 * 2 + 1), order="F"),
        ],
        ids=["wide", "narrow", "float32", "short", "fortran"],
    )
    def test_out_that_does_not_fit_is_rejected(self, buffer):
        rng = np.random.default_rng(64)
        questions, table = random_corpus(rng, 10, vocab=10, known=8, dim=2, max_len=4)
        with pytest.raises(ShapeError, match="featurize_batch: out"):
            featurize_batch(questions, table, 3, out=buffer)


def slot_loop_featurize(questions, table, max_words):
    """The slot-by-slot featurizer that the lookup and gather stages
    replaced, kept here as their oracle: each token's row is looked up into
    an intp array, then each slot's live rows are copied into a zeroed
    output."""
    dim, n = table.dim, len(questions)
    out = np.zeros((n, max_words * dim + 1))
    token_rows = [table._rows.get(word, 0) for q in questions for word in q.tokens[:max_words]]
    lengths = np.minimum([len(q.tokens) for q in questions], max_words)
    slot_rows = np.zeros((n, max_words), dtype=np.intp)
    slot_rows[np.arange(max_words) < lengths[:, None]] = token_rows
    slots = out[:, :-1].reshape(n, max_words, dim)
    for slot in range(int(lengths.max(initial=0))):
        live = np.flatnonzero(lengths > slot)
        slots[live, slot] = table._matrix[slot_rows[live, slot]]
    out[:, -1] = [q.weak_annotation for q in questions]
    return out


def question(i, words, annotation=0.5):
    return Question(id=str(i), text=" ".join(words), weak_annotation=annotation, label=i % 2)


class TestFeaturizeEdgeCases:
    """featurize_batch against slot_loop_featurize, byte for byte, fresh and
    into a NaN-filled buffer, so that every element it returns is written."""

    @staticmethod
    def check(questions, table, max_words):
        expected = slot_loop_featurize(questions, table, max_words).tobytes()
        assert featurize_batch(questions, table, max_words).tobytes() == expected
        buffer = np.full((len(questions) + 2, max_words * table.dim + 1), np.nan)
        assert featurize_batch(questions, table, max_words, out=buffer).tobytes() == expected

    @pytest.mark.parametrize("words, dtype", [
        (255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32)])
    def test_index_dtype_boundaries(self, words, dtype):
        """A table of `words` rows past row 0: the lookup's indices take the
        smallest unsigned type that holds the last row, which the questions
        use, beside the first row, unknown words and padding."""
        rng = np.random.default_rng(words)
        table = EmbeddingTable(2, {f"w{i}": rng.normal(size=2) for i in range(words)})
        last = f"w{words - 1}"
        questions = [question(0, [last, "w0", "unknown", last]), question(1, []),
                     question(2, ["w1", last])]
        rows = qdelnet.features._lookup(questions, table, 5)
        assert rows.dtype == dtype
        assert rows.tolist() == [[words, 1, 0, words, 0], [0] * 5, [2, words, 0, 0, 0]]
        self.check(questions, table, 5)

    def test_long_empty_and_unknown_questions(self):
        rng = np.random.default_rng(71)
        table = EmbeddingTable(3, {f"w{i}": rng.normal(size=3) for i in range(10)})
        questions = [
            question(0, [f"w{i}" for i in range(10)] * 2, 0.25),  # 20 tokens for 4 slots
            question(1, [], 1.0),  # no tokens
            question(2, ["nope", "w3", "never", "!!"], 0.0),  # unknown words; "!!" is no token
            question(3, ["nope"] * 7, 0.75),  # unknown words only, past max_words
        ]
        self.check(questions, table, 4)
        self.check(questions[1:2], table, 4)  # a batch of one empty question

    def test_batch_that_crosses_gather_groups(self):
        """Two full groups of the gather's scratch buffer and three
        questions of a third."""
        dim, max_words = 4, 8
        group = qdelnet.features._GATHER_BYTES // (max_words * dim * 8)
        rng = np.random.default_rng(72)
        questions, table = random_corpus(rng, 2 * group + 3, vocab=40, known=30, dim=dim,
                                         max_len=12)
        self.check(questions, table, max_words)

    def test_paper_width_rows_exceed_the_scratch_buffer(self):
        """At 240 words x 300 dims one question's slots (576,000 bytes) are
        larger than the scratch budget, so each question is gathered alone."""
        assert 240 * 300 * 8 > qdelnet.features._GATHER_BYTES
        rng = np.random.default_rng(73)
        table = EmbeddingTable(300, {f"w{i}": rng.normal(size=300) for i in range(40)})
        questions = [
            question(0, [f"w{j}" for j in rng.integers(0, 50, size=300)]),  # truncated
            question(1, []),
            question(2, ["w39", "unknown", "w0"], 0.125),
        ]
        self.check(questions, table, 240)


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
