import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from qdelnet.data import Dataset, Question, gen_synthetic, split_train_test
from qdelnet.errors import ConfigError, InputError
from qdelnet.features import EmbeddingTable, featurize_batch
from qdelnet.linalg import Matrix
from qdelnet.nn import (
    Layer,
    MlpModel,
    ModelConfig,
    backward,
    bce_loss,
    build_model,
    forward,
    gradient_layer_norms,
    sgd_step,
    taper_widths,
)
from qdelnet.seeding import DROPOUT, PROFILE, SHUFFLE, stream_rng
from qdelnet.train import (
    TrainConfig,
    TrainReport,
    evaluate,
    initial_gradient_profile,
    split_train_val,
    train,
)
from qdelnet import build_model as build


def balanced_dataset(n, name="bal"):
    qs = tuple(
        Question(id=f"q{i}", text=f"t{i}", weak_annotation=0.5, label=i % 2) for i in range(n)
    )
    return Dataset(qs, name=name)


def param_bytes(model):
    return [(layer.weights.array.tobytes(), layer.bias.array.tobytes()) for layer in model.layers]


def hand_loop(model, dataset, config, table, max_words):
    """The training protocol spelled out over the public nn functions: every
    step allocates fresh gradients and a fresh model. Returns the final
    model, the loss curve and the per-epoch mean gradient norms."""
    fit_set, _ = split_train_val(dataset, config.validation_fraction, config.seed)
    questions = fit_set.questions
    x = featurize_batch(questions, table, max_words).array
    y = np.array([[float(q.label)] for q in questions])
    shuffle_rng = stream_rng(config.seed, SHUFFLE)
    dropout_rng = stream_rng(config.seed, DROPOUT)
    curve, norms = [], []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(questions))
        loss_sum, norm_sums, batches = 0.0, np.zeros(len(model.layers)), 0
        for start in range(0, len(questions), config.batch_size):
            idx = order[start : start + config.batch_size]
            yb = Matrix(y[idx])
            preds, trace = forward(model, Matrix(x[idx]), mode="train", rng=dropout_rng)
            loss = bce_loss(preds, yb)
            grads = backward(model, trace, yb)
            norm_sums += gradient_layer_norms(grads)
            model = sgd_step(model, grads, config.learning_rate)
            loss_sum += loss * len(idx)
            batches += 1
        curve.append(loss_sum / len(questions))
        norms.append((norm_sums / batches).tolist())
    return model, curve, norms


def separable_toy(points=200, seed=42):
    """Linearly separable 2-D toy: one (unique) token per question, embeddings
    split into two half-planes with a margin. A hand-built linear rule
    (sign of the first coordinate) already classifies it perfectly."""
    rng = np.random.default_rng(seed)
    questions, entries = [], {}
    for i in range(points):
        label = i % 2
        vec = rng.normal(size=2)
        vec[0] = abs(vec[0]) + 0.3 if label == 1 else -abs(vec[0]) - 0.3
        word = f"tok{i}"
        entries[word] = vec
        questions.append(Question(id=f"q{i}", text=word, weak_annotation=0.5, label=label))
    return Dataset(tuple(questions), name="toy"), EmbeddingTable(2, entries)


class TestSplitTrainVal:
    def test_paper_regime_sizes(self):
        ds = balanced_dataset(5000)
        tr, val = split_train_val(ds, 0.10, seed=0)
        assert (len(tr), len(val)) == (4500, 500)

    def test_small_balanced_split(self):
        tr, val = split_train_val(balanced_dataset(10), 0.5, seed=1)
        assert len(tr) == 5 and len(val) == 5
        assert abs(sum(q.label for q in val) - 2.5) <= 0.5

    def test_same_seed_identical(self):
        ds = balanced_dataset(40)
        a = split_train_val(ds, 0.25, seed=7)
        b = split_train_val(ds, 0.25, seed=7)
        assert [q.id for q in a[0]] == [q.id for q in b[0]]
        assert [q.id for q in a[1]] == [q.id for q in b[1]]

    def test_different_seeds_differ(self):
        ds = balanced_dataset(40)
        a = split_train_val(ds, 0.25, seed=7)
        b = split_train_val(ds, 0.25, seed=8)
        assert [q.id for q in a[1]] != [q.id for q in b[1]]

    def test_stratification_within_one_example(self):
        rng = np.random.default_rng(0)
        qs = tuple(
            Question(id=f"q{i}", text="x", weak_annotation=0.0, label=int(rng.random() < 0.3))
            for i in range(200)
        )
        ds = Dataset(qs)
        tr, val = split_train_val(ds, 0.10, seed=3)
        total_pos = sum(q.label for q in ds)
        val_pos = sum(q.label for q in val)
        assert abs(val_pos - 0.10 * total_pos) <= 1.0

    def test_splits_are_disjoint_and_complete(self):
        ds = balanced_dataset(30)
        tr, val = split_train_val(ds, 0.2, seed=2)
        ids = {q.id for q in tr} | {q.id for q in val}
        assert len(ids) == 30 and len(tr) + len(val) == 30

    def test_degenerate_fractions_rejected(self):
        ds = balanced_dataset(10)
        with pytest.raises(ConfigError):
            split_train_val(ds, 0.99999, seed=0)  # train side would be empty
        with pytest.raises(ConfigError):
            split_train_val(ds, 0.001, seed=0)  # validation side would be empty
        with pytest.raises(InputError):
            split_train_val(Dataset(()), 0.5, seed=0)


class TestTrain:
    def test_zero_epochs_returns_model_unchanged(self):
        ds, table = gen_synthetic(60, 10, 3, 4, 0.1, seed=1)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8,), dropout_rate=0.0, seed=1)
        model = build(config)
        out, report = train(model, ds, TrainConfig(epochs=0, seed=1), table)
        assert report.loss_curve == []
        for before, after in zip(model.layers, out.layers):
            assert before.weights == after.weights
        assert not report.diverged

    def test_separable_toy_reaches_99_percent(self):
        ds, table = separable_toy()
        config = ModelConfig(input_dim=3, hidden_widths=(8,), dropout_rate=0.0, seed=1)
        _, report = train(build(config), ds, TrainConfig(epochs=50, seed=1), table)
        assert report.final_train_accuracy >= 99.0

    def test_loss_curve_finite_and_sized(self):
        ds, table = gen_synthetic(200, 20, 4, 5, 0.15, seed=2)
        config = ModelConfig(input_dim=5 * 4 + 1, hidden_widths=(16, 8), dropout_rate=0.05, seed=2)
        _, report = train(build(config), ds, TrainConfig(epochs=12, seed=2), table)
        assert len(report.loss_curve) == 12
        assert all(math.isfinite(v) for v in report.loss_curve)

    def test_loss_trend_on_separable_toy(self):
        """Per-epoch monotonicity is not required, but the last 10 epochs must
        average below the first 10."""
        ds, table = separable_toy()
        config = ModelConfig(input_dim=3, hidden_widths=(8,), dropout_rate=0.0, seed=1)
        _, report = train(build(config), ds, TrainConfig(epochs=50, seed=1), table)
        assert np.mean(report.loss_curve[-10:]) < np.mean(report.loss_curve[:10])

    def test_bitwise_reproducible(self):
        ds, table = gen_synthetic(120, 16, 4, 5, 0.2, seed=4)
        config = ModelConfig(input_dim=5 * 4 + 1, hidden_widths=(8, 4), dropout_rate=0.05, seed=4)
        m1, r1 = train(build(config), ds, TrainConfig(epochs=8, seed=4), table)
        m2, r2 = train(build(config), ds, TrainConfig(epochs=8, seed=4), table)
        assert r1.loss_curve == r2.loss_curve
        assert r1.final_train_accuracy == r2.final_train_accuracy
        assert r1.final_validation_accuracy == r2.final_validation_accuracy
        for l1, l2 in zip(m1.layers, m2.layers):
            assert l1.weights == l2.weights and l1.bias == l2.bias

    def test_streaming_and_cached_paths_identical(self):
        ds, table = gen_synthetic(100, 12, 3, 4, 0.2, seed=6)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8,), dropout_rate=0.05, seed=6)
        m1, r1 = train(build(config), ds, TrainConfig(epochs=6, seed=6), table, cache_features=True)
        m2, r2 = train(build(config), ds, TrainConfig(epochs=6, seed=6), table, cache_features=False)
        assert r1.loss_curve == r2.loss_curve
        for l1, l2 in zip(m1.layers, m2.layers):
            assert l1.weights == l2.weights

    def test_divergence_aborts_and_flags(self):
        """A model poised at the float ceiling overflows in its first forward
        pass; training must stop immediately, keep the last finite parameters
        and mark the report as diverged at that epoch."""
        from qdelnet.nn import Layer, MlpModel

        ds, table = gen_synthetic(80, 10, 3, 4, 0.1, seed=3)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(16, 8), dropout_rate=0.0, seed=3)
        base = build(config)
        poisoned = MlpModel(
            config=config,
            layers=tuple(
                Layer(Matrix(layer.weights.array * 1e160), layer.bias, layer.activation)
                for layer in base.layers
            ),
        )
        model, report = train(poisoned, ds, TrainConfig(epochs=10, seed=3), table)
        assert report.diverged
        assert report.diverged_epoch == 0
        assert report.loss_curve == []
        for layer in model.layers:
            assert np.isfinite(layer.weights.array).all()
        assert 0.0 <= report.final_train_accuracy <= 100.0

    def test_divergence_in_the_update_keeps_the_last_finite_model(self):
        """Large first-layer weights give output-layer gradients far above 1
        while the forward pass stays finite; at a learning rate of 1e308 the
        first update overflows. Training must stop at epoch 0 and return
        parameters bit-equal to those before the step."""
        ds, table = gen_synthetic(80, 10, 3, 4, 0.1, seed=3)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8,), dropout_rate=0.0, seed=3)
        base = build(config)
        first = base.layers[0]
        model = MlpModel(
            config=config,
            layers=(Layer(Matrix(first.weights.array * 1e3), first.bias, "relu"), base.layers[1]),
        )
        evaluate(model, ds, table)  # raises NumericError if the forward pass overflowed
        before = param_bytes(model)
        out, report = train(model, ds, TrainConfig(epochs=3, learning_rate=1e308, seed=3), table)
        assert report.diverged
        assert report.diverged_epoch == 0
        assert report.loss_curve == []
        assert param_bytes(out) == before

    def test_callers_model_arrays_unchanged(self):
        ds, table = gen_synthetic(100, 12, 3, 4, 0.2, seed=9)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8, 4), dropout_rate=0.05, seed=9)
        model = build(config)
        before = param_bytes(model)
        trained, _ = train(model, ds, TrainConfig(epochs=3, seed=9), table)
        assert param_bytes(model) == before
        assert param_bytes(trained) != before

    @pytest.mark.parametrize("learning_rate", [0.1, 1e308])
    def test_callers_parameter_vector_never_written(self, learning_rate):
        """Neither a finished nor a diverged run writes the caller's vector;
        the returned model views a vector of its own."""
        ds, table = gen_synthetic(80, 10, 3, 4, 0.1, seed=3)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8,), dropout_rate=0.1, seed=3)
        base = build(config)
        first = base.layers[0]
        model = MlpModel(
            config=config,
            layers=(Layer(Matrix(first.weights.array * 1e3), first.bias, "relu"), base.layers[1]),
        )
        before = model.params.tobytes()
        out, report = train(model, ds, TrainConfig(epochs=2, learning_rate=learning_rate, seed=3), table)
        assert report.diverged == (learning_rate > 1.0)
        assert model.params.tobytes() == before
        if not report.diverged:
            assert not np.shares_memory(out.params, model.params)

    def test_step_objects_are_built_before_the_loop(self, monkeypatch):
        """No Layer, model or Gradients is built per step: one epoch and
        five build the same number."""
        import qdelnet.nn as nn

        built = {"Layer": 0, "MlpModel": 0, "Gradients": 0}
        for name in built:
            cls = getattr(nn, name)

            def counting(*args, _cls=cls, _name=name, **kwargs):
                built[_name] += 1
                return _cls(*args, **kwargs)

            monkeypatch.setattr(nn, name, counting)
        ds, table = gen_synthetic(120, 12, 3, 4, 0.2, seed=7)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8, 4), dropout_rate=0.1, seed=7)
        counts = []
        for epochs in (1, 5):
            model = build(config)
            for name in built:
                built[name] = 0
            train(model, ds, TrainConfig(epochs=epochs, batch_size=8, seed=7), table)
            counts.append(dict(built))
        assert counts[0] == counts[1]
        assert counts[0]["Gradients"] == 2

    def test_streamed_batches_share_one_feature_buffer(self, monkeypatch):
        # The package binds the name qdelnet.train to the function; fetch the module.
        train_module = importlib.import_module("qdelnet.train")

        outs = []

        def counting(*args, **kwargs):
            outs.append(kwargs.get("out"))
            return featurize_batch(*args, **kwargs)

        monkeypatch.setattr(train_module, "featurize_batch", counting)
        ds, table = gen_synthetic(40, 12, 3, 4, 0.2, seed=9)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(6,), dropout_rate=0.1, seed=9)
        train(build(config), ds, TrainConfig(epochs=3, batch_size=10, seed=9), table, cache_features=False)
        steps = 3 * 4  # 36 fit rows in batches of 10
        assert len(outs) > steps  # the final evaluates come after the steps
        assert outs[0] is not None
        assert all(out is outs[0] for out in outs[:steps])
        assert all(out is not outs[0] for out in outs[steps:])

    @pytest.mark.parametrize("record_grad_norms", [False, True])
    def test_matches_hand_loop_over_public_functions(self, record_grad_norms):
        """train() updates in buffers it owns; its loss curve, gradient norms
        and final parameters must equal, bit for bit, those of the same
        protocol run over the allocating public functions."""
        ds, table = gen_synthetic(150, 16, 4, 5, 0.2, seed=11)
        config = ModelConfig(input_dim=5 * 4 + 1, hidden_widths=(12, 6, 3), dropout_rate=0.1, seed=11)
        train_config = TrainConfig(epochs=4, batch_size=16, learning_rate=0.2, seed=11,
                                   record_grad_norms=record_grad_norms)
        model, report = train(build(config), ds, train_config, table)
        expected_model, curve, norms = hand_loop(build(config), ds, train_config, table, 5)
        assert report.loss_curve == curve
        assert report.grad_norm_history == (norms if record_grad_norms else None)
        assert param_bytes(model) == param_bytes(expected_model)

    def test_grad_norm_history_recorded(self):
        ds, table = gen_synthetic(64, 10, 3, 4, 0.1, seed=5)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8, 4), dropout_rate=0.0, seed=5)
        _, report = train(
            build(config), ds, TrainConfig(epochs=3, seed=5, record_grad_norms=True), table
        )
        assert report.grad_norm_history is not None
        assert len(report.grad_norm_history) == 3
        assert all(len(epoch) == 3 for epoch in report.grad_norm_history)
        assert all(norm >= 0 for epoch in report.grad_norm_history for norm in epoch)

    def test_wall_time_scales_with_epochs(self):
        """Twice the epochs must cost at least 1.5x the wall time."""
        ds, table = gen_synthetic(1200, 60, 8, 8, 0.15, seed=3)
        config = ModelConfig(input_dim=8 * 8 + 1, hidden_widths=(128, 64), dropout_rate=0.05, seed=3)
        train(build(config), ds, TrainConfig(epochs=2, seed=3), table)  # warm-up
        t_short = train(build(config), ds, TrainConfig(epochs=10, seed=3), table)[1].wall_time_seconds
        t_long = train(build(config), ds, TrainConfig(epochs=20, seed=3), table)[1].wall_time_seconds
        assert t_short > 0
        assert t_long >= 1.5 * t_short

    def test_report_json_round_trip(self):
        report = TrainReport(
            final_train_accuracy=91.5,
            final_validation_accuracy=88.25,
            wall_time_seconds=1.25,
            loss_curve=[0.7, 0.6, 0.5],
            grad_norm_history=[[1.0, 2.0], [0.5, 1.0], [0.25, 0.5]],
            diverged=False,
            diverged_epoch=None,
        )
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert TrainReport.from_json_dict(doc) == report


class TestEvaluate:
    def test_all_correct_is_100(self):
        ds, table = separable_toy()
        config = ModelConfig(input_dim=3, hidden_widths=(8,), dropout_rate=0.0, seed=1)
        model, _ = train(build(config), ds, TrainConfig(epochs=80, seed=1), table)
        assert evaluate(model, ds, table) in (99.5, 100.0)

    def test_constant_half_output_scores_50_on_balanced(self):
        """All-zero parameters predict exactly 0.5; the tie rule counts those
        as the positive class, so a balanced set scores exactly 50%."""
        from qdelnet.nn import Layer, MlpModel

        ds = balanced_dataset(40)
        table = EmbeddingTable(2, {})
        config = ModelConfig(input_dim=2 * 2 + 1, hidden_widths=(), dropout_rate=0.0, seed=0)
        model = MlpModel(
            config=config,
            layers=(Layer(Matrix.zeros(1, 5), Matrix.zeros(1, 1), "sigmoid"),),
        )
        assert evaluate(model, ds, table) == 50.0

    def test_matches_per_example_loop_oracle(self):
        ds, table = gen_synthetic(90, 12, 3, 4, 0.2, seed=8)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(6,), dropout_rate=0.0, seed=8)
        model = build(config)
        correct = 0
        for q in ds:
            x = featurize_batch([q], table, 4)
            pred, _ = forward(model, x, mode="eval")
            correct += int((pred[0, 0] >= 0.5) == (q.label == 1))
        expected = 100.0 * correct / len(ds)
        assert evaluate(model, ds, table) == pytest.approx(expected, abs=1e-12)

    def test_matches_a_fresh_forward_per_chunk(self):
        """1,025 rows are two full 512-row chunks and a 1-row chunk through one
        workspace; the count equals a per-chunk loop over forward() into
        fresh arrays."""
        corpus, table = gen_synthetic(1026, 30, 3, 5, 0.3, seed=11)
        ds = Dataset(corpus.questions[:1025])
        config = ModelConfig(input_dim=5 * 3 + 1, hidden_widths=(8, 4), dropout_rate=0.0, seed=2)
        model, _ = train(build(config), ds, TrainConfig(epochs=2, seed=2), table)
        correct, predicted_classes = 0, set()
        for start in range(0, len(ds), 512):
            chunk = ds.questions[start : start + 512]
            preds, _ = forward(model, featurize_batch(chunk, table, 5), mode="eval")
            predicted = preds.array[:, 0] >= 0.5
            predicted_classes.update(predicted.tolist())
            correct += int(np.sum(predicted == np.array([q.label == 1 for q in chunk])))
        assert predicted_classes == {True, False}
        assert evaluate(model, ds, table) == 100.0 * correct / len(ds)

    def test_empty_dataset_rejected(self):
        _, table = gen_synthetic(10, 8, 3, 4, 0.1, seed=0)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(), dropout_rate=0.0, seed=0)
        with pytest.raises(InputError):
            evaluate(build(config), Dataset(()), table)

    def test_features_of_one_chunk_at_a_time(self):
        """4 chunks of a 4,801-wide input: the memory traced during evaluate
        stays below 1.5 chunk feature matrices, so one chunk's features are
        never alive beside the next one's."""
        ds, table = gen_synthetic(50, 40, 50, 96, 0.1, seed=5)
        config = ModelConfig(input_dim=96 * 50 + 1, hidden_widths=(8,), dropout_rate=0.0, seed=5)
        model = build(config)
        chunk_size = 16
        chunk_bytes = chunk_size * config.input_dim * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            evaluate(model, ds, table, chunk_size=chunk_size)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * chunk_bytes


class TestInitialGradientProfile:
    @staticmethod
    def _sample(depth_dim=13, batch=16, seed=0):
        ds, table = gen_synthetic(64, 12, 3, 4, 0.15, seed=seed)
        x = featurize_batch(ds.questions[:batch], table, 4)
        y = Matrix([[float(q.label)] for q in ds.questions[:batch]])
        return x, y

    def test_profile_length_is_layer_count(self):
        x, y = self._sample()
        config = ModelConfig(input_dim=13, hidden_widths=(8,), dropout_rate=0.05, seed=1)
        assert len(initial_gradient_profile(config, x, y, repeats=2)) == 2

    def test_single_repeat_equals_one_backward(self):
        x, y = self._sample()
        config = ModelConfig(input_dim=13, hidden_widths=(8, 4), dropout_rate=0.05, seed=3)
        profile = initial_gradient_profile(config, x, y, repeats=1)
        model = build_model(config)
        _, trace = forward(model, x, mode="train", rng=stream_rng(config.seed, PROFILE))
        expected = gradient_layer_norms(backward(model, trace, y))
        assert profile == expected

    def test_deep_models_have_smaller_first_layer_norms(self):
        """First-layer gradient signal at initialization shrinks by orders of
        magnitude between depth 5 and depth 50, for every seed."""
        ds, table = gen_synthetic(200, 40, 8, 6, 0.15, seed=0)
        x = featurize_batch(ds.questions[:32], table, 6)
        y = Matrix([[float(q.label)] for q in ds.questions[:32]])
        for seed in range(5):
            norms = {}
            for depth in (5, 50):
                config = ModelConfig(
                    input_dim=6 * 8 + 1,
                    hidden_widths=tuple(taper_widths(depth)),
                    dropout_rate=0.05,
                    seed=seed,
                )
                norms[depth] = initial_gradient_profile(config, x, y, repeats=1)[0]
            assert norms[50] < norms[5]

    def test_repeats_must_be_positive(self):
        x, y = self._sample()
        config = ModelConfig(input_dim=13, hidden_widths=(4,), dropout_rate=0.0, seed=0)
        with pytest.raises(ConfigError):
            initial_gradient_profile(config, x, y, repeats=0)
