import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from qdelnet.data import Dataset, Question, gen_synthetic, split_train_test
from qdelnet.errors import ConfigError, InputError, NumericError
from qdelnet.features import EmbeddingTable, featurize_batch
from qdelnet.nn import (
    MlpModel,
    ModelConfig,
    activation_buffers,
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
    return [(w.tobytes(), b.tobytes()) for w, b in zip(model.weights, model.biases)]


def hand_loop(model, dataset, config, table, max_words):
    """The training protocol spelled out over the public nn functions: every
    step allocates fresh gradients and a fresh model. Returns the final
    model, the loss curve and the per-epoch mean gradient norms."""
    fit_set, _ = split_train_val(dataset, config.validation_fraction, config.seed)
    questions = fit_set.questions
    x = featurize_batch(questions, table, max_words)
    y = np.array([[float(q.label)] for q in questions])
    shuffle_rng = stream_rng(config.seed, SHUFFLE)
    dropout_rng = stream_rng(config.seed, DROPOUT)
    curve, norms = [], []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(questions))
        loss_sum, norm_sums, batches = 0.0, np.zeros(len(model.weights)), 0
        for start in range(0, len(questions), config.batch_size):
            idx = order[start : start + config.batch_size]
            yb = y[idx]
            preds, trace = forward(model, x[idx], mode="train", rng=dropout_rng)
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
        assert param_bytes(out) == param_bytes(model)
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
        assert param_bytes(m1) == param_bytes(m2)

    def test_streaming_and_cached_paths_identical(self, monkeypatch):
        ds, table = gen_synthetic(100, 12, 3, 4, 0.2, seed=6)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8,), dropout_rate=0.05, seed=6)
        m1, r1 = train(build(config), ds, TrainConfig(epochs=6, seed=6), table)
        # No feature matrix fits a zero-byte limit, so every batch is featurized in the loop.
        monkeypatch.setattr(importlib.import_module("qdelnet.train"), "_CACHE_LIMIT_BYTES", 0)
        m2, r2 = train(build(config), ds, TrainConfig(epochs=6, seed=6), table)
        assert r1.loss_curve == r2.loss_curve
        assert param_bytes(m1) == param_bytes(m2)

    def test_divergence_aborts_and_flags(self):
        """A model poised at the float ceiling overflows in its first forward
        pass; training must stop immediately, keep the last finite parameters
        and mark the report as diverged at that epoch."""
        ds, table = gen_synthetic(80, 10, 3, 4, 0.1, seed=3)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(16, 8), dropout_rate=0.0, seed=3)
        base = build(config)
        poisoned = MlpModel.from_arrays(config, [w * 1e160 for w in base.weights], base.biases)
        model, report = train(poisoned, ds, TrainConfig(epochs=10, seed=3), table)
        assert report.diverged
        assert report.diverged_epoch == 0
        assert report.loss_curve == []
        assert np.isfinite(model.params).all()
        assert 0.0 <= report.final_train_accuracy <= 100.0

    def test_a_profile_that_raises_reports_no_norms(self):
        """A model poised at the float ceiling overflows in the initial
        profile's forward pass as well: the report holds None, not norms."""
        ds, table = gen_synthetic(80, 10, 3, 4, 0.1, seed=3)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(16, 8), dropout_rate=0.0, seed=3)
        base = build(config)
        poisoned = MlpModel.from_arrays(config, [w * 1e160 for w in base.weights], base.biases)
        _, report = train(poisoned, ds, TrainConfig(epochs=1, seed=3), table)
        assert report.initial_grad_norms is None
        _, report = train(base, ds, TrainConfig(epochs=1, seed=3), table)
        assert len(report.initial_grad_norms) == 3

    def test_divergence_in_the_update_keeps_the_last_finite_model(self):
        """Large first-layer weights give output-layer gradients far above 1
        while the forward pass stays finite; at a learning rate of 1e308 the
        first update overflows. Training must stop at epoch 0 and return
        parameters bit-equal to those before the step."""
        ds, table = gen_synthetic(80, 10, 3, 4, 0.1, seed=3)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8,), dropout_rate=0.0, seed=3)
        base = build(config)
        model = MlpModel.from_arrays(config, [base.weights[0] * 1e3, base.weights[1]], base.biases)
        evaluate(model, ds, table)  # raises NumericError if the forward pass overflowed
        before = param_bytes(model)
        out, report = train(model, ds, TrainConfig(epochs=3, learning_rate=1e308, seed=3), table)
        assert report.diverged
        assert report.diverged_epoch == 0
        assert report.loss_curve == []
        assert param_bytes(out) == before

    def test_trains_the_callers_model_in_place(self):
        """The returned model is the caller's object, and its vector holds
        hand_loop's final parameters bit for bit (9 steps: an odd count)."""
        ds, table = gen_synthetic(100, 12, 3, 4, 0.2, seed=9)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8, 4), dropout_rate=0.05, seed=9)
        model = build(config)
        train_config = TrainConfig(epochs=3, seed=9)
        trained, _ = train(model, ds, train_config, table)
        expected, _, _ = hand_loop(build(config), ds, train_config, table, 4)
        assert trained is model
        assert model.params.tobytes() == expected.params.tobytes()

    @pytest.mark.parametrize("learning_rate", [0.1, 1e308])
    def test_callers_vector_holds_the_last_finite_parameters(self, learning_rate):
        """A finished run leaves hand_loop's final parameters in the caller's
        vector; a run that diverges at its first update leaves the vector
        bit-unchanged. Either way the returned model is the caller's."""
        ds, table = gen_synthetic(80, 10, 3, 4, 0.1, seed=3)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8,), dropout_rate=0.1, seed=3)
        base = build(config)
        weights = [base.weights[0] * 1e3, base.weights[1]]
        model = MlpModel.from_arrays(config, weights, base.biases)
        before = model.params.tobytes()
        train_config = TrainConfig(epochs=2, learning_rate=learning_rate, seed=3)
        out, report = train(model, ds, train_config, table)
        assert out is model
        assert report.diverged == (learning_rate > 1.0)
        if report.diverged:
            assert model.params.tobytes() == before
        else:
            initial = MlpModel.from_arrays(config, weights, base.biases)
            expected, _, _ = hand_loop(initial, ds, train_config, table, 4)
            assert model.params.tobytes() == expected.params.tobytes()

    def test_step_objects_are_built_before_the_loop(self, monkeypatch):
        """No parameter set is built per step: one epoch and five build the
        same one, train()'s step buffer, which the initial profile's
        gradients go into as well."""
        import qdelnet.nn as nn

        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return MlpModel(*args, **kwargs)

        monkeypatch.setattr(nn, "MlpModel", counting)
        ds, table = gen_synthetic(120, 12, 3, 4, 0.2, seed=7)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(8, 4), dropout_rate=0.1, seed=7)
        counts = []
        for epochs in (1, 5):
            model = build(config)
            built.clear()
            train(model, ds, TrainConfig(epochs=epochs, batch_size=8, seed=7), table)
            counts.append(len(built))
        assert counts == [1, 1]

    def test_streamed_batches_share_one_feature_buffer(self, monkeypatch):
        # The package binds the name qdelnet.train to the function; fetch the module.
        train_module = importlib.import_module("qdelnet.train")

        outs = []

        def counting(*args, **kwargs):
            outs.append(kwargs.get("out"))
            return featurize_batch(*args, **kwargs)

        monkeypatch.setattr(train_module, "featurize_batch", counting)
        monkeypatch.setattr(train_module, "_CACHE_LIMIT_BYTES", 0)  # stream every batch
        ds, table = gen_synthetic(40, 12, 3, 4, 0.2, seed=9)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(6,), dropout_rate=0.1, seed=9)
        train(build(config), ds, TrainConfig(epochs=3, batch_size=10, seed=9), table)
        steps = 3 * 4  # 36 fit rows in batches of 10
        assert len(outs) > 1 + steps  # the final evaluates come after the steps
        assert outs[0] is not None  # the initial profile's sample comes before the steps
        assert all(out is outs[0] for out in outs[: 1 + steps])
        assert all(out is not outs[0] for out in outs[1 + steps :])

    @pytest.mark.parametrize("below, epochs", [(0, 2), (1, 2), (0, 0)],
                             ids=["at-limit", "one-byte-below", "zero-epochs"])
    def test_features_are_cached_up_to_the_limit(self, monkeypatch, below, epochs):
        """36 fit rows x 13 inputs of 8 bytes: a limit of exactly that size
        caches them (one featurize of the whole fit set), one byte less
        streams them (one featurize per batch), and at 0 epochs no step reads
        them, so they are not featurized before the evaluates. Either way the
        initial profile's sample of batch_size questions is featurized first."""
        train_module = importlib.import_module("qdelnet.train")
        sizes = []

        def counting(questions, *args, **kwargs):
            sizes.append(len(questions))
            return featurize_batch(questions, *args, **kwargs)

        monkeypatch.setattr(train_module, "featurize_batch", counting)
        monkeypatch.setattr(train_module, "_CACHE_LIMIT_BYTES", 36 * 13 * 8 - below)
        ds, table = gen_synthetic(40, 12, 3, 4, 0.2, seed=9)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(6,), dropout_rate=0.1, seed=9)
        train(build(config), ds, TrainConfig(epochs=epochs, batch_size=10, seed=9), table)
        before_evaluates = [] if epochs == 0 else [36] if below == 0 else [10, 10, 10, 6] * 2
        assert sizes == [10] + before_evaluates + [36, 4]  # then the fit and validation sets

    @pytest.mark.parametrize("record_grad_norms, epochs", [
        pytest.param(False, 4, id="False"),
        pytest.param(True, 4, id="True"),
        pytest.param(False, 3, id="odd-steps"),
    ])
    def test_matches_hand_loop_over_public_functions(self, record_grad_norms, epochs):
        """train() updates in buffers it owns; its loss curve, gradient norms
        and final parameters must equal, bit for bit, those of the same
        protocol run over the allocating public functions. 4 epochs of 9
        steps end with the live set in the caller's vector; 3 epochs end in
        the other set, which train() copies back."""
        ds, table = gen_synthetic(150, 16, 4, 5, 0.2, seed=11)
        config = ModelConfig(input_dim=5 * 4 + 1, hidden_widths=(12, 6, 3), dropout_rate=0.1, seed=11)
        train_config = TrainConfig(epochs=epochs, batch_size=16, learning_rate=0.2, seed=11,
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

    def test_holds_one_parameter_set_beside_the_callers(self):
        """At 5,001 inputs and widths (256,) a parameter set is 10.2 MB; the
        54 fit rows' cached features and the evaluate buffer stay under a
        quarter of that. With the caller holding its model through the call,
        as a timing wrapper does, the memory traced during train() peaks
        below 1.5 sets: the profile's gradient set and then the one step
        buffer, never two sets at once."""
        ds, table = gen_synthetic(60, 50, 25, 200, 0.15, seed=3)
        model = build(ModelConfig(input_dim=200 * 25 + 1, hidden_widths=(256,), seed=3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, report = train(model, ds, TrainConfig(epochs=1, seed=3), table)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert not report.diverged
        assert peak < 1.5 * model.params.nbytes

    def test_profile_runs_in_the_step_buffers(self, monkeypatch):
        """At 5,001 inputs and widths (256,), with every batch streamed, the
        memory traced during train() peaks below one parameter set (10.2 MB),
        one batch feature buffer (1.3 MB) and a sixteenth of layer 0: the
        initial profile featurizes into the batch buffer and writes its
        gradients into the step set. A gradient set of its own, or a
        finite-value temporary of layer 0 (1.3 MB of bools), goes past that.
        The 36 fit rows' evaluate buffer is smaller than the set."""
        monkeypatch.setattr(importlib.import_module("qdelnet.train"), "_CACHE_LIMIT_BYTES", 0)
        ds, table = gen_synthetic(40, 50, 25, 200, 0.15, seed=3)
        model = build(ModelConfig(input_dim=200 * 25 + 1, hidden_widths=(256,), seed=3))
        config = TrainConfig(epochs=1, seed=3)
        batch_bytes = config.batch_size * model.input_dim * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, report = train(model, ds, config, table)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert not report.diverged
        assert report.initial_grad_norms is not None
        assert peak < model.params.nbytes + batch_bytes + model.weights[0].nbytes // 16

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
        ds = balanced_dataset(40)
        table = EmbeddingTable(2, {})
        config = ModelConfig(input_dim=2 * 2 + 1, hidden_widths=(), dropout_rate=0.0, seed=0)
        model = MlpModel.from_arrays(config, [np.zeros((1, 5))], [np.zeros((1, 1))])
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
            predicted = preds[:, 0] >= 0.5
            predicted_classes.update(predicted.tolist())
            correct += int(np.sum(predicted == np.array([q.label == 1 for q in chunk])))
        assert predicted_classes == {True, False}
        assert evaluate(model, ds, table) == 100.0 * correct / len(ds)

    def test_empty_dataset_rejected(self):
        _, table = gen_synthetic(10, 8, 3, 4, 0.1, seed=0)
        config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(), dropout_rate=0.0, seed=0)
        with pytest.raises(InputError):
            evaluate(build(config), Dataset(()), table)

    def test_features_of_one_chunk_at_a_time(self, monkeypatch):
        """4 chunks of a 4,801-wide input: the memory traced during evaluate
        stays below 1.5 chunk feature matrices, so one chunk's features are
        never alive beside the next one's."""
        ds, table = gen_synthetic(50, 40, 50, 96, 0.1, seed=5)
        config = ModelConfig(input_dim=96 * 50 + 1, hidden_widths=(8,), dropout_rate=0.0, seed=5)
        model = build(config)
        chunk_size = 16
        chunk_bytes = chunk_size * config.input_dim * 8
        monkeypatch.setattr(importlib.import_module("qdelnet.train"), "_EVAL_CHUNK_ROWS", chunk_size)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            evaluate(model, ds, table)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * chunk_bytes

    @staticmethod
    def _record_chunks(monkeypatch, ds):
        """Wrap the featurize_batch and forward that evaluate looks up; record
        each chunk's start, length and buffer size, and a copy of its
        predictions."""
        train_module = importlib.import_module("qdelnet.train")
        start_of = {id(q): i for i, q in enumerate(ds.questions)}
        chunks, preds = [], []

        def featurize(questions, table, max_words, out=None):
            chunks.append((start_of[id(questions[0])], len(questions), out.nbytes))
            return featurize_batch(questions, table, max_words, out=out)

        def forward_copy(*args, **kwargs):
            result = forward(*args, **kwargs)
            preds.append(result[0][:, 0].copy())
            return result

        monkeypatch.setattr(train_module, "featurize_batch", featurize)
        monkeypatch.setattr(train_module, "forward", forward_copy)
        return chunks, preds

    def test_over_budget_chunks_are_halved(self, monkeypatch):
        """1,025 questions of a 4,801-wide input under a cap that 256-row
        chunks fit and 512-row chunks do not."""
        corpus, table = gen_synthetic(1026, 40, 50, 96, 0.1, seed=6)
        ds = Dataset(corpus.questions[:1025])
        config = ModelConfig(input_dim=96 * 50 + 1, hidden_widths=(8,), dropout_rate=0.0, seed=6)
        model = build(config)
        cap = 300 * config.input_dim * 8
        monkeypatch.setattr(importlib.import_module("qdelnet.train"), "_EVAL_CHUNK_BYTES", cap)
        chunks, preds = self._record_chunks(monkeypatch, ds)
        accuracy = evaluate(model, ds, table)

        assert [(start, n) for start, n, _ in chunks] == [
            (0, 256), (256, 256), (512, 256), (768, 256), (1024, 1)
        ]
        assert all(nbytes <= cap for _, _, nbytes in chunks)
        correct = 0
        for start in range(0, len(ds), 256):
            chunk = ds.questions[start : start + 256]
            out, _ = forward(model, featurize_batch(chunk, table, 96), mode="eval")
            actual = np.array([q.label == 1 for q in chunk])
            correct += int(np.sum((out[:, 0] >= 0.5) == actual))
        assert accuracy == 100.0 * correct / len(ds)
        # The full chunks predict bit for bit what 512-row chunks predict.
        for start in (0, 512):
            x = featurize_batch(ds.questions[start : start + 512], table, 96)
            out, _ = forward(model, x, mode="eval")
            halves = np.concatenate(preds[start // 256 : start // 256 + 2])
            assert halves.tobytes() == out[:, 0].tobytes()

    def test_narrow_input_keeps_512_row_chunks_at_the_default_cap(self, monkeypatch):
        corpus, table = gen_synthetic(1026, 200, 16, 12, 0.15, seed=3)
        ds = Dataset(corpus.questions[:1025])
        config = ModelConfig(input_dim=12 * 16 + 1, hidden_widths=(8,), dropout_rate=0.0, seed=3)
        chunks, _ = self._record_chunks(monkeypatch, ds)
        evaluate(build(config), ds, table)
        assert [(start, n) for start, n, _ in chunks] == [(0, 512), (512, 512), (1024, 1)]


class TestEvalMemory:
    @staticmethod
    def _traced_peak(depth, ds, table):
        widths = tuple(taper_widths(depth))
        model = build(ModelConfig(input_dim=12 * 16 + 1, hidden_widths=widths, seed=7))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            accuracy = evaluate(model, ds, table)
            return tracemalloc.get_traced_memory()[1] - before, accuracy
        finally:
            tracemalloc.stop()

    def test_scoring_memory_does_not_grow_with_depth(self):
        """Two 512-row chunks of the sweep-narrow geometry: at depth 50 the
        memory traced during evaluate stays within one eval workspace (two
        buffers of 512 rows x the 256-wide first layer) of that at depth 1;
        a train-layout workspace, every layer's activations and room for
        the dropout masks, would be 53.8 MB."""
        ds, table = gen_synthetic(1024, 200, 16, 12, 0.15, seed=7)
        peak_1, _ = self._traced_peak(1, ds, table)
        peak_50, accuracy = self._traced_peak(50, ds, table)
        assert peak_50 < peak_1 + 2 * 512 * 256 * 8
        assert 0.0 <= accuracy <= 100.0

    def test_train_releases_cached_features_before_its_evaluates(self, monkeypatch):
        """A 5,001-wide fit set whose cached feature matrix (180 rows, 7.2 MB)
        dwarfs the model: at the entry of train()'s fit and validation
        evaluates, the memory traced since train() began is below that
        matrix, so it is no longer alive."""
        train_module = importlib.import_module("qdelnet.train")
        ds, table = gen_synthetic(200, 50, 25, 200, 0.15, seed=3)
        model = build(ModelConfig(input_dim=200 * 25 + 1, hidden_widths=(4,), seed=3))
        config = TrainConfig(epochs=1, seed=3)
        cached_bytes = (len(ds) - round(config.validation_fraction * len(ds))) * model.input_dim * 8
        at_entry = []
        real = train_module.evaluate

        def traced(*args):
            at_entry.append(tracemalloc.get_traced_memory()[0])
            return real(*args)

        monkeypatch.setattr(train_module, "evaluate", traced)
        tracemalloc.start()
        try:
            train(model, ds, config, table)
        finally:
            tracemalloc.stop()
        assert len(at_entry) == 2
        assert max(at_entry) < cached_bytes


class TestInitialGradientProfile:
    @staticmethod
    def _sample(depth_dim=13, batch=16, seed=0):
        ds, table = gen_synthetic(64, 12, 3, 4, 0.15, seed=seed)
        x = featurize_batch(ds.questions[:batch], table, 4)
        y = np.array([[float(q.label)] for q in ds.questions[:batch]])
        return x, y

    @staticmethod
    def _buffers(model, rows, given):
        """No buffers, or a workspace with room for more rows than the sample
        and a gradient set full of NaN, as train() passes its step buffers."""
        if not given:
            return {}
        grads = MlpModel(model.config, np.full_like(model.params, np.nan))
        return {"workspace": activation_buffers(model, rows + 3), "grads": grads}

    @staticmethod
    def _overflowing_gradient():
        """A model, a sample and labels whose forward pass is finite but whose
        layer-0 weight gradient overflows: every question's one token embeds
        as 1e308, which layer 0 weighs by zero, while the output weights of
        1,000 make each label-0 row's backpropagated delta about 1,000 / rows."""
        ds = balanced_dataset(40)
        table = EmbeddingTable(1, {q.tokens[0]: [1e308] for q in ds.questions})
        config = ModelConfig(input_dim=1 * 1 + 1, hidden_widths=(4,), dropout_rate=0.0, seed=0)
        model = MlpModel.from_arrays(config, [np.array([[0.0, 1.0]] * 4), np.full((1, 4), 1e3)],
                                     [np.zeros((1, 4)), np.zeros((1, 1))])
        x = featurize_batch(ds.questions[:16], table, 1)
        y = ds.labels()[:16, None]
        return ds, table, model, x, y

    def test_profile_length_is_layer_count(self):
        x, y = self._sample()
        config = ModelConfig(input_dim=13, hidden_widths=(8,), dropout_rate=0.05, seed=1)
        assert len(initial_gradient_profile(build_model(config), x, y)) == 2

    @pytest.mark.parametrize("given", [False, True], ids=["fresh", "given-buffers"])
    @pytest.mark.parametrize("widths", [(), (8, 4), *(tuple(taper_widths(d)) for d in (1, 3, 50))])
    def test_norms_equal_one_backwards_bit_for_bit(self, widths, given):
        """The profile squares its gradient set in place; its norms are those
        of gradient_layer_norms on one checked backward's gradients, bit for
        bit, at every layer shape and offset of a depth-0 to depth-50 model,
        whether it allocates its buffers or is given larger ones."""
        x, y = self._sample()
        config = ModelConfig(input_dim=13, hidden_widths=widths, dropout_rate=0.05, seed=3)
        model = build_model(config)
        profile = initial_gradient_profile(model, x, y, **self._buffers(model, len(x), given))
        _, trace = forward(model, x, mode="train", rng=stream_rng(config.seed, PROFILE))
        expected = gradient_layer_norms(backward(model, trace, y))
        assert [v.hex() for v in profile] == [v.hex() for v in expected]

    @pytest.mark.parametrize("given", [False, True], ids=["fresh", "given-buffers"])
    def test_a_non_finite_gradient_raises(self, given):
        """The forward pass is finite, so only the check of the gradient set
        can raise; numpy's own overflow warning is silenced, as train()
        silences it."""
        _, _, model, x, y = self._overflowing_gradient()
        buffers = self._buffers(model, len(x), given)
        with np.errstate(over="ignore"):
            forward(model, x, mode="eval")
            with pytest.raises(NumericError, match="non-finite gradient in layer 0$"):
                initial_gradient_profile(model, x, y, **buffers)

    def test_train_reports_no_norms_for_a_non_finite_gradient(self):
        ds, table, model, _, _ = self._overflowing_gradient()
        _, report = train(model, ds, TrainConfig(epochs=1, seed=0), table)
        assert report.initial_grad_norms is None
        assert report.diverged

    def test_deep_models_have_smaller_first_layer_norms(self):
        """First-layer gradient signal at initialization shrinks by orders of
        magnitude between depth 5 and depth 50, for every seed."""
        ds, table = gen_synthetic(200, 40, 8, 6, 0.15, seed=0)
        x = featurize_batch(ds.questions[:32], table, 6)
        y = np.array([[float(q.label)] for q in ds.questions[:32]])
        for seed in range(5):
            norms = {}
            for depth in (5, 50):
                config = ModelConfig(
                    input_dim=6 * 8 + 1,
                    hidden_widths=tuple(taper_widths(depth)),
                    dropout_rate=0.05,
                    seed=seed,
                )
                norms[depth] = initial_gradient_profile(build_model(config), x, y)[0]
            assert norms[50] < norms[5]

    def test_squares_no_copy_of_a_layer(self):
        """At 5,001 inputs and widths (4,), layer 0 holds nearly every
        parameter. The memory traced during a profile stays below one
        gradient set plus half of layer 0: a dW * dW temporary would add all
        of layer 0."""
        ds, table = gen_synthetic(200, 50, 25, 200, 0.15, seed=3)
        x = featurize_batch(ds.questions[:32], table, 200)
        y = np.array([[float(q.label)] for q in ds.questions[:32]])
        model = build(ModelConfig(input_dim=200 * 25 + 1, hidden_widths=(4,), seed=3))
        layer_0 = model.weights[0].nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            initial_gradient_profile(model, x, y)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < model.params.nbytes + layer_0 // 2
