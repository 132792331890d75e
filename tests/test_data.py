import json

import numpy as np
import pytest

from qdelnet.data import (
    Dataset,
    Question,
    gen_synthetic,
    load_dataset,
    save_dataset,
    split_train_test,
)
from qdelnet.errors import ConfigError, ParseError, ValidationError
from qdelnet.nn import ModelConfig
from qdelnet.train import TrainConfig, evaluate, train
from qdelnet import build_model


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

    def test_label_validated(self):
        with pytest.raises(ValidationError):
            Question(id="a", text="x", weak_annotation=0.0, label=2)

    def test_annotation_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            q = Question(id="a", text="x", weak_annotation=1.7, label=0)
        assert q.weak_annotation == 1.0
        with pytest.warns(UserWarning, match="clamped"):
            q = Question(id="b", text="x", weak_annotation=-0.2, label=0)
        assert q.weak_annotation == 0.0


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
