import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdelnet.data import (
    Dataset,
    Question,
    gen_synthetic,
    load_dataset,
    save_dataset,
    split_train_test,
)
import qdelnet.data
from qdelnet.errors import ConfigError, ParseError, ValidationError
from qdelnet.features import tokenize
from qdelnet.nn import ModelConfig
from qdelnet.train import TrainConfig, evaluate, train
from qdelnet import build_model


# Texts with mixed case, punctuation-only tokens, interior apostrophes,
# repeated words and Unicode whitespace, or any text at all.
TEXTS = st.lists(
    st.tuples(
        st.sampled_from(["Hello", "hello", "HELLO,", "don't", "DON'T!", "x-ray", "...", "?!",
                         "'quoted'", "Ünïcode", "ÉCOLE", "ß", "a", "(a)", "'", "3", ":3"]),
        st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u2003", "\u3000",
                         "\u2028"]),
    ).map("".join),
    max_size=8,
).map("".join) | st.text(max_size=12)


def balanced_dataset(n):
    qs = tuple(
        Question(id=f"q{i}", text=f"word{i}", weak_annotation=0.5, label=i % 2)
        for i in range(n)
    )
    return Dataset(qs, name=f"bal{n}")


def check_balance(dataset: Dataset) -> tuple[int, int, bool]:
    """Counts of (deleted, kept) questions and whether they differ by <= 1."""
    deleted = sum(1 for q in dataset.questions if q.label == 1)
    kept = len(dataset.questions) - deleted
    return deleted, kept, abs(deleted - kept) <= 1


class TestQuestion:
    def test_tokens_derived_from_text(self):
        q = Question(id="a", text="Hello, World!", weak_annotation=0.1, label=1)
        assert q.tokens == ("hello", "world")

    def test_slotted_and_frozen(self):
        q = Question(id="a", text="b", weak_annotation=0.5, label=1)
        assert not hasattr(q, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.label = 0
        with pytest.raises((AttributeError, TypeError)):
            q.extra = 1
        assert q == Question(id="a", text="b", weak_annotation=0.5, label=1)
        assert hash(q) == hash(Question(id="a", text="b", weak_annotation=0.5, label=1))

    def test_label_validated(self):
        with pytest.raises(ValidationError):
            Question(id="a", text="x", weak_annotation=0.0, label=2)

    @pytest.mark.parametrize("label", [True, False], ids=repr)
    def test_a_bool_label_is_refused_as_load_dataset_refuses_it(self, label):
        with pytest.raises(ValidationError, match="^question 'a': label must be 0 or 1, got "):
            Question(id="a", text="x", label=label)

    @pytest.mark.parametrize("label", [np.int64(1), np.uint8(0), 1.0], ids=repr)
    def test_a_label_equal_to_0_or_1_is_stored_as_an_int_and_round_trips(self, tmp_path, label):
        q = Question(id="a", text="x", label=label)
        assert type(q.label) is int and q.label == label
        save_dataset(Dataset((q,)), tmp_path / "c.jsonl")
        assert load_dataset(tmp_path / "c.jsonl").questions == (q,)

    def test_annotation_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            q = Question(id="a", text="x", weak_annotation=1.7, label=0)
        assert q.weak_annotation == 1.0
        with pytest.warns(UserWarning, match="clamped"):
            q = Question(id="b", text="x", weak_annotation=-0.2, label=0)
        assert q.weak_annotation == 0.0

    @pytest.mark.parametrize(
        "value",
        [10**400, -(10**400), float("nan"), float("inf")],
        ids=["10**400", "-10**400", "nan", "inf"],
    )
    def test_annotation_out_of_float_range_is_a_validation_error(self, value):
        with pytest.raises(ValidationError, match="^question 'a': weak_annotation must be finite$"):
            Question(id="a", text="x", weak_annotation=value, label=0)

    @pytest.mark.parametrize(
        "field, given, stored",
        [
            ("weak_annotation", np.float64(0.25), 0.25),
            ("weak_annotation", 1, 1.0),
            ("label", np.int64(1), 1),
            ("tokens", ["hello", "x"], ("hello", "x")),
            ("tokens", None, ("hello", "world")),
        ],
        ids=["np.float64-annotation", "int-annotation", "np.int64-label", "list-tokens",
             "no-tokens"],
    )
    def test_a_field_that_is_not_normalized_is_normalized(self, field, given, stored):
        q = Question(id="a", text="Hello, world!", **{field: given})
        assert (type(getattr(q, field)), getattr(q, field)) == (type(stored), stored)

    def test_a_normalized_field_keeps_its_own_object(self):
        toks, annotation, label = ("hello", "x"), float("0.75"), int("1")
        q = Question(id="a", text="Hello, world!", weak_annotation=annotation, label=label,
                     tokens=toks)
        assert q.tokens is toks and q.weak_annotation is annotation and q.label is label
        assert q.weak_annotation == 0.75 and q.label == 1


class TestDataset:
    def test_a_duplicate_id_is_named(self):
        qs = [Question(id=qid, text="x") for qid in ("a", "b", "c", "b", "a")]
        with pytest.raises(ValidationError, match="^duplicate question id 'b' in dataset 'd'$"):
            Dataset(tuple(qs), name="d")

    def test_questions_become_a_tuple_and_a_tuple_is_kept(self):
        qs = tuple(Question(id=qid, text="x") for qid in ("a", "b"))
        assert Dataset(list(qs)).questions == qs
        assert Dataset(qs).questions is qs


class TestLoadDataset:
    def test_deleted_question_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"q1","text":"hello emo family. :3 wassup?","weak_annotation":0.9,"label":1}\n'
        )
        ds = load_dataset(path)
        assert len(ds) == 1
        q = ds.questions[0]
        assert q.label == 1
        assert q.weak_annotation == 0.9
        assert q.tokens == ("hello", "emo", "family", "3", "wassup")

    def test_empty_file_is_valid_empty_dataset(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        ds = load_dataset(path)
        assert len(ds) == 0
        assert check_balance(ds) == (0, 0, True)

    def test_missing_label_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"q1","text":"ok","label":0}\n{"id":"q2","text":"bad"}\n')
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"q1","text":"ok","label":0}\nnot json\n')
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_not_utf8_reports_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        good = b'{"id":"q1","text":"ok","label":0}\n'
        path.write_bytes(good * 3 + b'{"id":"q4","text":"\xff","label":1}\n' + good)
        with pytest.raises(ParseError, match="line 4: not UTF-8"):
            load_dataset(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"q1","text":"a","label":0}\n{"id":"q1","text":"b","label":1}\n')
        with pytest.raises(ValidationError, match="duplicate"):
            load_dataset(path)

    def test_label_outside_binary_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"q1","text":"a","label":3}\n')
        with pytest.raises(ValidationError):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400", str(10**400)])
    def test_annotation_out_of_float_range_names_the_line(self, tmp_path, value):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"q1","text":"ok","label":0}\n'
            f'{{"id":"q2","text":"bad","weak_annotation":{value},"label":1}}\n'
        )
        with pytest.raises(ValidationError, match="^line 2: weak_annotation must be finite$"):
            load_dataset(path)

    def test_a_word_shared_by_two_questions_is_one_object(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"q1","text":"Shared words here","label":0}\n'
            '{"id":"q2","text":"the SHARED, words!","label":1}\n'
        )
        first, second = load_dataset(path).questions
        assert first.tokens == ("shared", "words", "here")
        assert second.tokens == ("the", "shared", "words")
        assert first.tokens[0] is second.tokens[1]
        assert first.tokens[1] is second.tokens[2]

    def test_missing_annotation_defaults_to_zero(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"q1","text":"a","label":0}\n')
        assert load_dataset(path).questions[0].weak_annotation == 0.0

    def test_round_trip_lossless(self, tmp_path):
        ds, _ = gen_synthetic(40, 10, 3, 4, 0.2, seed=3)
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(ds)
        for a, b in zip(ds.questions, loaded.questions):
            assert (a.id, a.text, a.weak_annotation, a.label, a.tokens) == (
                b.id, b.text, b.weak_annotation, b.label, b.tokens
            )

    def test_writer_emits_keys_in_schema_order(self, tmp_path):
        ds = Dataset((Question(id="q", text="a", weak_annotation=0.5, label=1),))
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        keys = list(json.loads(path.read_text()).keys())
        assert keys == ["id", "text", "weak_annotation", "label"]


RECORDS = st.lists(
    st.tuples(TEXTS, st.none() | st.floats(0, 1) | st.integers(0, 1), st.sampled_from([0, 1]),
              st.booleans(), st.sampled_from(["", " ", "\t"])),
    max_size=8,
)


def reference_questions(path):
    """What load_dataset gives on a valid file: a Question built from
    json.loads of each nonblank line, tokenized by the constructor."""
    questions = []
    with open(path, encoding="utf-8") as fh:  # lines split as load_dataset splits them
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                questions.append(Question(obj["id"], obj["text"],
                                          obj.get("weak_annotation", 0.0), obj["label"]))
    return questions


class TestLoadDatasetFastPath:
    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(records=RECORDS)
    def test_equals_json_loads_and_tokenize(self, tmp_path_factory, records):
        lines = []
        for i, (text, annotation, label, ascii_only, pad) in enumerate(records):
            obj = {"id": f"q{i}", "text": text, "label": label}
            if annotation is not None:
                obj["weak_annotation"] = annotation
            lines.append(pad + json.dumps(obj, ensure_ascii=ascii_only) + pad)
        path = tmp_path_factory.mktemp("fast-path") / "d.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_dataset(path).questions
        assert list(loaded) == reference_questions(path)
        for q in loaded:
            assert type(q.tokens) is tuple
            assert all(a is b for a, b in zip(q.tokens, tokenize(q.text), strict=True))

    @pytest.mark.parametrize("bad", [
        '\ufeff{"id":"b","text":"t","label":0}',
        '{"id":"b","text":"t","label":0} {"id":"c"}',
        '{"id":"b","text":"t","label":0}x',
        '{"id":"b","text":"t","label":0}\u00a0',
        '"just a string" 1',
        ' {"id":"b","text":"t","label":0',
        '\u3000{"id":"b","text":"t","label":0}',
    ], ids=["bom", "two-objects", "trailing-letter", "trailing-nbsp", "trailing-value",
            "unterminated-after-space", "leading-ideographic-space"])
    def test_bad_line_fails_as_json_loads_does(self, tmp_path, bad):
        try:
            json.loads(bad)
        except json.JSONDecodeError as exc:
            expected = f"line 2: invalid JSON ({exc.msg})"
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a","text":"t","label":0}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert (str(info.value), info.value.line) == (expected, 2)

    @pytest.mark.parametrize("first", [True, False])
    def test_bom_on_the_first_line_fails_as_json_loads_does(self, tmp_path, first):
        good = '{"id":"a","text":"t","label":0}'
        path = tmp_path / "d.jsonl"
        path.write_text("\ufeff" + good + "\n" if first else good + "\n\ufeff" + good + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert str(info.value) == (f"line {1 if first else 2}: invalid JSON "
                                   "(Unexpected UTF-8 BOM (decode using utf-8-sig))")

    def test_deep_nesting_is_parse_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a","text":"t","label":0}\n' + '{"a":' * 100_000 + "\n")
        with pytest.raises(ParseError, match="^line 2: invalid JSON \\(nested too deeply\\)$"):
            load_dataset(path)

    def test_whitespace_around_and_between_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(' \t{"id":"a","text":"A b","label":0} \n \t \n\n'
                        '{"id":"b","text":"b a","label":1}\r\n\u00a0\n'
                        '{"id":"c","text":"","label":1}', encoding="utf-8")
        loaded = load_dataset(path).questions
        assert [(q.id, q.tokens) for q in loaded] == [("a", ("a", "b")), ("b", ("b", "a")),
                                                      ("c", ())]


def cache_of(path):
    return path.with_name(path.name + ".qdelnet-cache.npz")


def cached_arrays(path):
    with np.load(cache_of(path)) as npz:
        return dict(npz)


def assert_same_dataset(loaded: Dataset, parsed: Dataset):
    """Equal name and questions, in order, with the very same token strings
    and a float annotation and int label in each question."""
    assert loaded.name == parsed.name
    assert loaded.questions == parsed.questions
    for a, b in zip(loaded.questions, parsed.questions):
        assert all(x is y for x, y in zip(a.tokens, b.tokens))
        assert type(a.weak_annotation) is float and type(a.label) is int


# Ids and texts that survive only if lengths count code points and surrogates
# pass: line breaks, NULs, spaces, lone surrogates (also a high one ending an id
# before a low one starting its text), and a question with no tokens at all.
CORPUS = [
    {"id": "q1", "text": "plain words here", "weak_annotation": 0.25, "label": 0},
    {"id": "q2", "text": "Mixed CASE, with punctuation!", "label": 1},
    {"id": "q\n3", "text": "?! ...", "weak_annotation": 1, "label": 0},
    {"id": " q 4\x00", "text": "", "weak_annotation": 0.0, "label": 1},
    {"id": "\ud800", "text": "lone \ud800 surrogate \udfff", "weak_annotation": 0.5, "label": 0},
    {"id": "q\ud83d", "text": "\ude00 split pair", "weak_annotation": 0.75, "label": 1},
    {"id": "\u00fc", "text": "\u00dcn\u00efcode \u00c9COLE \u00df\u2028x\x00y", "label": 1},
]


def write_corpus(tmp_path, records=CORPUS, name="c.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


class TestCache:
    """What load_dataset keeps in its cache: test_features.TestParseOnce covers
    the protocol."""

    @pytest.mark.parametrize("chunk_chars", [1, 1 << 16])
    def test_a_hit_does_not_scan_or_tokenize(self, tmp_path, monkeypatch, chunk_chars):
        monkeypatch.setattr(qdelnet.data, "_CHUNK_CHARS", chunk_chars)
        path = write_corpus(tmp_path)
        parsed = load_dataset(path)
        assert cache_of(path).is_file()

        def fail(*args, **kwargs):
            raise AssertionError("the corpus was parsed")

        monkeypatch.setattr(qdelnet.data, "tokenize", fail)
        monkeypatch.setattr(qdelnet.data.json, "JSONDecoder", fail)
        monkeypatch.setattr(qdelnet.data.json, "loads", fail)
        assert_same_dataset(load_dataset(path), parsed)
        assert [q.id for q in parsed] == [r["id"] for r in CORPUS]
        assert [q.text for q in parsed] == [r["text"] for r in CORPUS]

    def test_a_hit_still_validates_through_question_and_dataset(self, tmp_path, monkeypatch):
        path = write_corpus(tmp_path)
        load_dataset(path)
        assert cache_of(path).is_file()
        built, checked = [], []
        post, dataset_post = Question.__post_init__, Dataset.__post_init__
        monkeypatch.setattr(Question, "__post_init__", lambda q: built.append(q) or post(q))
        monkeypatch.setattr(Dataset, "__post_init__",
                            lambda d: checked.append(d) or dataset_post(d))
        dataset = load_dataset(path)
        assert built == list(dataset.questions) and checked == [dataset]

    @pytest.mark.parametrize("cache", [
        "object-array", "missing-member", "extra-member", "wrong-dtype", "fewer-chunks",
        "inconsistent-lengths", "huge-length", "token-count", "fewer-tokens", "label-2",
        "annotation-nan", "annotation-1.5", "duplicate-id"])
    def test_a_bad_cache_is_ignored_and_replaced(self, tmp_path, cache):
        path = write_corpus(tmp_path)
        expected = load_dataset(path)
        arrays = cached_arrays(path)
        strings, records = arrays["s0"], arrays["r0"].copy()
        fields = {"inconsistent-lengths": ("id", 0, 1), "huge-length": ("text", 3, 2**64 - 1),
                  "token-count": ("tokens", 0, 1), "label-2": ("label", 0, 2),
                  "annotation-nan": ("annotation", 0, np.nan),
                  "annotation-1.5": ("annotation", 0, 1.5)}
        if cache in fields:
            field, row, value = fields[cache]
            records[field][row] = (records[field][row] + value if field in ("id", "tokens")
                                   else value)
        edits = {
            "object-array": {"s0": np.array(["q1"], dtype=object)},
            "extra-member": {"x": np.zeros(1)},
            "wrong-dtype": {"s0": strings.astype(np.int16)},
            "fewer-chunks": {"chunks": arrays["chunks"] - 1},
            "fewer-tokens": {"t0": np.frombuffer(arrays["t0"].tobytes().rsplit(b" ", 1)[0],
                                                 np.uint8)},
            "duplicate-id": {"s0": np.frombuffer(strings.tobytes().replace(b"q2", b"q1", 1),
                                                 np.uint8)},
            **{name: {"r0": records} for name in fields},
        }
        with open(cache_of(path), "wb") as fh:
            if cache == "missing-member":
                np.savez(fh, **{k: v for k, v in arrays.items() if k != "r0"})
            else:
                np.savez(fh, **{**arrays, **edits[cache]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a cached annotation of 1.5 is not clamped
            assert_same_dataset(load_dataset(path), expected)
        replaced = cached_arrays(path)
        assert {k: v.tobytes() for k, v in replaced.items()} == {
            k: v.tobytes() for k, v in arrays.items()}

    @pytest.mark.parametrize("text, error, message", [
        ('{"id":"a","text":"b","label":0}\nnot json\n', ParseError,
         "line 2: invalid JSON (Expecting value)"),
        ('{"id":"a","text":"b","label":0}\n{"id":"a","text":"c","label":1}\n',
         ValidationError, "line 2: duplicate question id 'a'"),
    ])
    def test_a_file_that_fails_is_never_cached(self, tmp_path, text, error, message):
        path = tmp_path / "c.jsonl"
        path.write_text(text)
        good = write_corpus(tmp_path, name="good.jsonl")
        load_dataset(good)
        for _ in range(2):
            with pytest.raises(error) as info:
                load_dataset(path)
            assert str(info.value) == message
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.jsonl", "good.jsonl", "good.jsonl.qdelnet-cache.npz"]

    def test_a_clamping_file_warns_on_every_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","text":"b","weak_annotation":1.5,"label":0}\n')
        good = write_corpus(tmp_path, name="good.jsonl")
        load_dataset(good)
        for _ in range(2):
            with pytest.warns(UserWarning, match="clamped to 1.0"):
                assert load_dataset(path).questions[0].weak_annotation == 1.0
        assert not cache_of(path).exists() and cache_of(good).is_file()


class TestCheckBalance:
    def test_large_balanced(self):
        assert check_balance(balanced_dataset(6000)) == (3000, 3000, True)

    def test_vacuous_empty(self):
        assert check_balance(Dataset(())) == (0, 0, True)

    def test_unbalanced(self):
        qs = tuple(
            Question(id=f"q{i}", text="x", weak_annotation=0.0, label=1 if i < 10 else 0)
            for i in range(17)
        )
        assert check_balance(Dataset(qs)) == (10, 7, False)

    def test_off_by_one_counts_as_balanced(self):
        qs = tuple(
            Question(id=f"q{i}", text="x", weak_annotation=0.0, label=i % 2)
            for i in range(11)
        )
        deleted, kept, balanced = check_balance(Dataset(qs))
        assert abs(deleted - kept) == 1 and balanced


class TestGenSynthetic:
    def test_exactly_balanced(self):
        ds, _ = gen_synthetic(100, 20, 4, 5, 0.1, seed=0)
        deleted, kept, balanced = check_balance(ds)
        assert (deleted, kept, balanced) == (50, 50, True)

    def test_deterministic(self):
        a, ta = gen_synthetic(200, 30, 4, 6, 0.2, seed=42)
        b, tb = gen_synthetic(200, 30, 4, 6, 0.2, seed=42)
        assert [q.id for q in a] == [q.id for q in b]
        assert [q.tokens for q in a] == [q.tokens for q in b]
        assert [q.weak_annotation for q in a] == [q.weak_annotation for q in b]
        for w in ta.words():
            np.testing.assert_array_equal(ta.vector(w), tb.vector(w))

    def test_different_seeds_differ(self):
        a, _ = gen_synthetic(200, 30, 4, 6, 0.2, seed=1)
        b, _ = gen_synthetic(200, 30, 4, 6, 0.2, seed=2)
        assert [q.tokens for q in a] != [q.tokens for q in b]

    def test_no_oov_tokens(self):
        ds, table = gen_synthetic(120, 16, 4, 5, 0.3, seed=5)
        for q in ds:
            for tok in q.tokens:
                assert tok in table

    def test_embeddings_unit_norm(self):
        _, table = gen_synthetic(10, 30, 8, 3, 0.0, seed=1)
        for w in table.words():
            assert np.linalg.norm(table.vector(w)) == pytest.approx(1.0, abs=1e-12)

    def test_odd_n_rejected(self):
        with pytest.raises(ConfigError):
            gen_synthetic(7, 10, 4, 3, 0.1, seed=0)

    def test_tiny_vocab_rejected(self):
        with pytest.raises(ConfigError):
            gen_synthetic(10, 1, 4, 3, 0.1, seed=0)

    def test_noise_zero_is_perfectly_separable(self):
        """With no corruption a depth-1 model drives training accuracy to 100%."""
        ds, table = gen_synthetic(200, 40, 8, 6, 0.0, seed=5)
        config = ModelConfig(input_dim=6 * 8 + 1, hidden_widths=(256,), dropout_rate=0.0, seed=5)
        model, report = train(build_model(config), ds, TrainConfig(epochs=60, seed=5), table)
        assert report.final_train_accuracy == 100.0

    def test_noise_half_is_chance_level(self):
        """At noise=0.5 the corpus carries no signal; held-out accuracy sits
        at chance (mean within 3 points of 50 over 5 seeds)."""
        accs = []
        for seed in range(5):
            ds, table = gen_synthetic(1000, 40, 8, 6, 0.5, seed=seed)
            tr, te = split_train_test(ds, 600, 400, seed=seed)
            config = ModelConfig(input_dim=6 * 8 + 1, hidden_widths=(16,), dropout_rate=0.05, seed=seed)
            model, _ = train(build_model(config), tr, TrainConfig(epochs=10, seed=seed), table)
            accs.append(evaluate(model, te, table))
        assert abs(sum(accs) / len(accs) - 50.0) <= 3.0


class TestSplitTrainTest:
    def test_stratified_counts(self):
        ds, _ = gen_synthetic(600, 20, 4, 5, 0.1, seed=2)
        tr, te = split_train_test(ds, 500, 100, seed=2)
        assert len(tr) == 500 and len(te) == 100
        assert check_balance(tr)[2] and check_balance(te)[2]
        assert {q.id for q in tr}.isdisjoint({q.id for q in te})

    def test_paper_regime_shape(self):
        ds = balanced_dataset(6000)
        tr, te = split_train_test(ds, 5000, 1000, seed=0)
        assert (len(tr), len(te)) == (5000, 1000)
        assert check_balance(tr) == (2500, 2500, True)
        assert check_balance(te) == (500, 500, True)

    def test_whole_corpus_split_never_overdraws_a_class(self):
        """33 + 7 of 20 + 20: rounding gives class 0 the odd question of both
        shares; the test set takes what the training set left instead."""
        tr, te = split_train_test(balanced_dataset(40), 33, 7, seed=0)
        assert (len(tr), len(te)) == (33, 7)
        assert check_balance(tr)[2] and check_balance(te)[2]
        assert {q.id for q in tr} | {q.id for q in te} == {f"q{i}" for i in range(40)}

    def test_insufficient_data_rejected(self):
        with pytest.raises(ConfigError):
            split_train_test(balanced_dataset(10), 8, 4, seed=0)
