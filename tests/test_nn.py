import json
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from fdcheck import random_case, worst_relative_error
from qdelnet.errors import ConfigError, NumericError, ParseError, ShapeError, ValidationError
from qdelnet.linalg import Matrix
from qdelnet.nn import (
    ForwardTrace,
    Gradients,
    Layer,
    MlpModel,
    ModelConfig,
    _sigmoid_array,
    backward,
    bce_loss,
    build_model,
    forward,
    gradient_layer_norms,
    load_model,
    param_buffers,
    save_model,
    sgd_step,
    taper_widths,
)
from qdelnet.seeding import stream_rng


def ones_model(input_dim, width):
    """One hidden layer, every weight 1.0, zero biases."""
    config = ModelConfig(input_dim=input_dim, hidden_widths=(width,), dropout_rate=0.0, seed=0)
    return MlpModel(
        config=config,
        layers=(
            Layer(Matrix(np.ones((width, input_dim))), Matrix(np.zeros((1, width))), "relu"),
            Layer(Matrix(np.ones((1, width))), Matrix(np.zeros((1, 1))), "sigmoid"),
        ),
    )


class TestModelConfig:
    def test_increasing_widths_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(input_dim=10, hidden_widths=(4, 8))

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(input_dim=10, hidden_widths=(8, 0))

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(input_dim=4, hidden_widths=(2,), dropout_rate=1.0)


class TestBuildModel:
    def test_logistic_regression_degenerate(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=()))
        assert len(model.layers) == 1
        assert model.layers[0].weights.shape == (1, 4)
        assert model.layers[0].activation == "sigmoid"

    def test_layer_shapes_chain(self):
        model = build_model(ModelConfig(input_dim=10, hidden_widths=(8, 4)))
        shapes = [layer.weights.shape for layer in model.layers]
        assert shapes == [(8, 10), (4, 8), (1, 4)]
        assert [l.activation for l in model.layers] == ["relu", "relu", "sigmoid"]

    def test_biases_start_at_zero(self):
        model = build_model(ModelConfig(input_dim=5, hidden_widths=(3,), seed=2))
        for layer in model.layers:
            assert not layer.bias.array.any()

    def test_equal_configs_give_identical_models(self):
        a = build_model(ModelConfig(input_dim=6, hidden_widths=(4, 2), seed=9))
        b = build_model(ModelConfig(input_dim=6, hidden_widths=(4, 2), seed=9))
        for la, lb in zip(a.layers, b.layers):
            assert la.weights == lb.weights and la.bias == lb.bias

    def test_parameter_layer_count_is_depth_plus_one(self):
        for depth in range(6):
            widths = tuple(taper_widths(depth, 16, 4))
            model = build_model(ModelConfig(input_dim=5, hidden_widths=widths))
            assert len(model.layers) == depth + 1


class TestTaperWidths:
    def test_single_layer_uses_width_max(self):
        assert taper_widths(1, 256, 16) == [256]

    def test_endpoints(self):
        widths = taper_widths(10, 256, 16)
        assert widths[0] == 256 and widths[-1] == 16

    def test_non_increasing_for_all_depths(self):
        for depth in (1, 2, 3, 5, 10, 25, 50, 100):
            widths = taper_widths(depth, 256, 16)
            assert len(widths) == depth
            assert all(a >= b for a, b in zip(widths, widths[1:]))
            assert all(w >= 1 for w in widths)

    def test_depth_zero(self):
        assert taper_widths(0) == []


def sigmoid(x: float) -> float:
    """The output layer's logistic function, at one point."""
    return float(_sigmoid_array(np.array([[x]]))[0, 0])


class TestActivations:
    def test_relu_basics(self):
        """Hidden layers apply ReLU: with identity weights the hidden
        activations are relu of the inputs."""
        config = ModelConfig(input_dim=3, hidden_widths=(3,), dropout_rate=0.0, seed=0)
        model = MlpModel(
            config=config,
            layers=(
                Layer(Matrix(np.eye(3)), Matrix.zeros(1, 3), "relu"),
                Layer(Matrix.zeros(1, 3), Matrix.zeros(1, 1), "sigmoid"),
            ),
        )
        _, trace = forward(model, Matrix([[-3.0, 5.0, 0.0]]), mode="eval")
        assert trace.post_activations[0].tolist() == [[0.0, 5.0, 0.0]]

    def test_sigmoid_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_symmetric(self):
        for x in (0.5, 2.0, 10.0):
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-15)

    def test_sigmoid_deep_negative_matches_arbitrary_precision(self):
        getcontext().prec = 60
        expected = 1 / (1 + Decimal(710).exp())
        got = sigmoid(-710.0)
        assert 0.0 < got <= 1e-300
        assert got == pytest.approx(float(expected), rel=1e-9)

    def test_sigmoid_never_overflows(self):
        for x in (-745.0, -710.0, 710.0, 745.0):
            value = sigmoid(x)
            assert math.isfinite(value)


class TestForward:
    def test_dropout_zero_train_equals_eval(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), dropout_rate=0.0, seed=1))
        x = Matrix(np.random.default_rng(0).normal(size=(5, 4)))
        train_preds, _ = forward(model, x, mode="train")
        eval_preds, _ = forward(model, x, mode="eval")
        assert train_preds == eval_preds

    def test_zero_parameters_give_half(self):
        config = ModelConfig(input_dim=3, hidden_widths=(2,), dropout_rate=0.0, seed=0)
        model = MlpModel(
            config=config,
            layers=(
                Layer(Matrix.zeros(2, 3), Matrix.zeros(1, 2), "relu"),
                Layer(Matrix.zeros(1, 2), Matrix.zeros(1, 1), "sigmoid"),
            ),
        )
        preds, _ = forward(model, Matrix(np.ones((4, 3))), mode="eval")
        assert preds.to_lists() == [[0.5]] * 4

    def test_hand_computed_single_hidden_layer(self):
        model = ones_model(input_dim=2, width=2)
        preds, _ = forward(model, Matrix([[1.0, 1.0]]), mode="eval")
        assert preds[0, 0] == pytest.approx(sigmoid(4.0), abs=1e-15)
        assert preds[0, 0] == pytest.approx(0.9820137900379085, abs=1e-12)

    def test_column_mismatch_is_shape_error(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(2,)))
        with pytest.raises(ShapeError):
            forward(model, Matrix(np.ones((3, 5))), mode="eval")

    def test_predictions_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(8)
        model = build_model(ModelConfig(input_dim=6, hidden_widths=(5, 4), seed=8))
        preds, _ = forward(model, Matrix(rng.normal(size=(64, 6), scale=50)), mode="eval")
        assert np.all(preds.array > 0.0) and np.all(preds.array < 1.0)

    def test_bitwise_deterministic_with_same_rng_seed(self):
        model = build_model(ModelConfig(input_dim=5, hidden_widths=(4,), dropout_rate=0.3, seed=3))
        x = Matrix(np.random.default_rng(1).normal(size=(6, 5)))
        p1, t1 = forward(model, x, mode="train", rng=stream_rng(7, 99))
        p2, t2 = forward(model, x, mode="train", rng=stream_rng(7, 99))
        assert p1 == p2
        for m1, m2 in zip(t1.dropout_masks, t2.dropout_masks):
            np.testing.assert_array_equal(m1, m2)

    def test_train_mode_with_dropout_requires_rng(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), dropout_rate=0.5))
        with pytest.raises(ConfigError):
            forward(model, Matrix(np.ones((2, 4))), mode="train")


class TestDropout:
    def test_masks_contain_only_zero_and_inverse_keep(self):
        rate = 0.25
        model = build_model(ModelConfig(input_dim=6, hidden_widths=(16, 8), dropout_rate=rate, seed=4))
        x = Matrix(np.random.default_rng(2).normal(size=(10, 6)))
        _, trace = forward(model, x, mode="train", rng=stream_rng(0, 1))
        for mask in trace.dropout_masks:
            assert set(np.unique(mask)) <= {0.0, 1.0 / (1.0 - rate)}

    def test_no_mask_on_output_layer(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3, 2), dropout_rate=0.5, seed=0))
        _, trace = forward(model, Matrix(np.ones((2, 4))), mode="train", rng=stream_rng(0, 1))
        assert len(trace.dropout_masks) == len(model.layers) - 1

    def test_eval_mode_applies_no_masks(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), dropout_rate=0.5, seed=0))
        _, trace = forward(model, Matrix(np.ones((2, 4))), mode="eval")
        assert trace.dropout_masks == [None]

    def test_train_mode_expectation_matches_eval(self):
        """Inverted dropout: hidden activations averaged over many mask draws
        converge to the eval-mode activations (within 2% relative)."""
        rate = 0.3
        model = build_model(ModelConfig(input_dim=5, hidden_widths=(8,), dropout_rate=rate, seed=6))
        x = Matrix(np.abs(np.random.default_rng(3).normal(size=(4, 5))) + 0.5)
        _, eval_trace = forward(model, x, mode="eval")
        eval_hidden = eval_trace.post_activations[0]
        rng = stream_rng(123, 1)
        draws = 50_000
        total = np.zeros_like(eval_hidden)
        for _ in range(draws):
            _, trace = forward(model, x, mode="train", rng=rng)
            total += trace.post_activations[0]
        mean_hidden = total / draws
        active = eval_hidden > 1e-9
        np.testing.assert_allclose(mean_hidden[active], eval_hidden[active], rtol=0.02)


class TestBceLoss:
    def test_uniform_ignorance_is_ln2(self):
        preds = Matrix([[0.5]] * 4)
        labels = Matrix([[1.0], [0.0], [1.0], [0.0]])
        assert bce_loss(preds, labels) == pytest.approx(math.log(2), abs=1e-15)

    def test_perfect_predictions_clamp_to_near_zero(self):
        preds = Matrix([[1.0], [0.0]])
        labels = Matrix([[1.0], [0.0]])
        loss = bce_loss(preds, labels)
        assert 0.0 <= loss <= 1.1e-12

    def test_hand_value(self):
        assert bce_loss(Matrix([[0.9]]), Matrix([[1.0]])) == pytest.approx(-math.log(0.9), abs=1e-15)
        assert bce_loss(Matrix([[0.9]]), Matrix([[1.0]])) == pytest.approx(0.10536051565782628, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            bce_loss(Matrix([[0.5], [0.5]]), Matrix([[1.0]]))


class TestBackward:
    def test_zero_gradient_when_predictions_equal_labels(self):
        model = ones_model(input_dim=2, width=2)
        labels = Matrix([[0.25], [0.75]])
        trace = ForwardTrace(
            inputs=np.array([[1.0, 0.0], [0.0, 1.0]]),
            pre_activations=[np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[2.0], [2.0]])],
            post_activations=[np.array([[1.0, 1.0], [1.0, 1.0]]), labels.array.copy()],
            dropout_masks=[None],
            mode="train",
        )
        grads = backward(model, trace, labels)
        for dw, db in zip(grads.d_weights, grads.d_biases):
            assert np.max(np.abs(dw.array)) < 1e-9
            assert np.max(np.abs(db.array)) < 1e-9

    def test_matches_finite_differences_on_random_nets(self):
        """Keystone property: analytic gradients agree with central
        differences (h=1e-5) within 1e-4 relative error."""
        for seed in (4, 15, 22, 34, 39):
            config, x, y = random_case(seed)
            worst, margin = worst_relative_error(config, x, y)
            assert margin > 1e-3, f"seed {seed} sits too close to a ReLU kink"
            assert worst < 1e-4, f"seed {seed}: worst relative error {worst}"

    def test_logistic_regression_closed_form(self):
        """With no hidden layers the weight gradient is X^T (p - y) / b."""
        rng = np.random.default_rng(12)
        config = ModelConfig(input_dim=5, hidden_widths=(), dropout_rate=0.0, seed=12)
        model = build_model(config)
        x = Matrix(rng.normal(size=(9, 5)))
        y = Matrix(rng.integers(0, 2, size=(9, 1)).astype(float))
        preds, trace = forward(model, x, mode="train")
        grads = backward(model, trace, y)
        expected_dw = x.array.T @ (preds.array - y.array) / 9
        np.testing.assert_allclose(grads.d_weights[0].array, expected_dw.T, atol=1e-12)

    def test_respects_dropout_masks(self):
        """Zeroed units must contribute exactly zero gradient to their
        incoming weights."""
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(6,), dropout_rate=0.5, seed=5))
        x = Matrix(np.abs(np.random.default_rng(4).normal(size=(1, 4))) + 0.1)
        y = Matrix([[1.0]])
        _, trace = forward(model, x, mode="train", rng=stream_rng(2, 2))
        grads = backward(model, trace, y)
        dropped = trace.dropout_masks[0][0] == 0.0
        assert dropped.any()
        assert not grads.d_weights[0].array[dropped, :].any()

    def test_non_finite_gradient_raises_unless_out_is_given(self):
        """Public callers get NumericError; a caller that passes its own
        buffers gets the gradients unchecked and relies on sgd_step."""
        model = build_model(ModelConfig(input_dim=2, hidden_widths=(), seed=0))
        trace = ForwardTrace(
            inputs=np.array([[np.inf, 1.0]]),
            pre_activations=[np.array([[1.0]])],
            post_activations=[np.array([[0.75]])],
            dropout_masks=[],
            mode="train",
        )
        labels = Matrix([[0.0]])
        with pytest.raises(NumericError, match="layer 0"):
            backward(model, trace, labels)
        grads = backward(model, trace, labels, out=param_buffers(model))
        assert grads.d_weights[0].array[0, 0] == np.inf
        with pytest.raises(NumericError):
            sgd_step(model, grads, 0.1)

    def test_out_buffers_give_identical_gradients(self):
        model = build_model(ModelConfig(input_dim=5, hidden_widths=(4, 3), dropout_rate=0.2, seed=6))
        x = Matrix(np.random.default_rng(6).normal(size=(7, 5)))
        y = Matrix([[1.0], [0.0]] * 3 + [[1.0]])
        _, trace = forward(model, x, mode="train", rng=stream_rng(6, 1))
        fresh = backward(model, trace, y)
        buffers = param_buffers(model)
        owned = backward(model, trace, y, out=buffers)
        for a, b, (dw, db) in zip(fresh.d_weights, owned.d_weights, buffers):
            assert a.array.tobytes() == b.array.tobytes() == dw.tobytes()
        for a, b, (dw, db) in zip(fresh.d_biases, owned.d_biases, buffers):
            assert a.array.tobytes() == b.array.tobytes() == db.tobytes()

    def test_trace_mismatch_is_error(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,)))
        other = build_model(ModelConfig(input_dim=4, hidden_widths=(3, 2)))
        _, trace = forward(other, Matrix(np.ones((2, 4))), mode="eval")
        with pytest.raises(ShapeError):
            backward(model, trace, Matrix([[1.0], [0.0]]))


class TestSgdStep:
    def test_zero_learning_rate_is_identity(self):
        model = build_model(ModelConfig(input_dim=3, hidden_widths=(2,), dropout_rate=0.0, seed=1))
        x = Matrix(np.ones((2, 3)))
        y = Matrix([[1.0], [0.0]])
        _, trace = forward(model, x, mode="train")
        grads = backward(model, trace, y)
        stepped = sgd_step(model, grads, 0.0)
        for before, after in zip(model.layers, stepped.layers):
            assert before.weights == after.weights and before.bias == after.bias

    def test_scalar_arithmetic(self):
        config = ModelConfig(input_dim=1, hidden_widths=(), dropout_rate=0.0, seed=0)
        model = MlpModel(
            config=config,
            layers=(Layer(Matrix([[1.0]]), Matrix([[0.0]]), "sigmoid"),),
        )
        grads = Gradients((Matrix([[0.5]]),), (Matrix([[0.0]]),))
        stepped = sgd_step(model, grads, 0.1)
        assert stepped.layers[0].weights[0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_one_step_decreases_loss_on_logistic_toy(self):
        rng = np.random.default_rng(3)
        config = ModelConfig(input_dim=1, hidden_widths=(), dropout_rate=0.0, seed=3)
        model = build_model(config)
        x = Matrix(np.concatenate([rng.normal(-2, 0.5, (20, 1)), rng.normal(2, 0.5, (20, 1))]))
        y = Matrix([[0.0]] * 20 + [[1.0]] * 20)
        preds, trace = forward(model, x, mode="train")
        before = bce_loss(preds, y)
        stepped = sgd_step(model, backward(model, trace, y), 0.5)
        after_preds, _ = forward(stepped, x, mode="eval")
        assert bce_loss(after_preds, y) < before

    def test_non_finite_gradient_rejected(self):
        model = build_model(ModelConfig(input_dim=2, hidden_widths=(), seed=0))
        bad = Gradients((Matrix._wrap(np.array([[np.inf, 1.0]])),), (Matrix([[0.0]]),))
        with pytest.raises(NumericError):
            sgd_step(model, bad, 0.1)

    def test_original_model_untouched(self):
        model = build_model(ModelConfig(input_dim=2, hidden_widths=(2,), dropout_rate=0.0, seed=7))
        snapshot = [layer.weights.to_lists() for layer in model.layers]
        _, trace = forward(model, Matrix(np.ones((3, 2))), mode="train")
        grads = backward(model, trace, Matrix([[1.0], [0.0], [1.0]]))
        sgd_step(model, grads, 0.5)
        assert [layer.weights.to_lists() for layer in model.layers] == snapshot


    def test_update_into_the_gradient_buffers_is_bit_identical(self):
        """sgd_step may write the update over the arrays its gradients view,
        which is how train() uses it."""
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), dropout_rate=0.0, seed=2))
        x = Matrix(np.random.default_rng(2).normal(size=(5, 4)))
        y = Matrix([[1.0], [0.0], [1.0], [1.0], [0.0]])
        _, trace = forward(model, x, mode="train")
        expected = sgd_step(model, backward(model, trace, y), 0.3)
        buffers = param_buffers(model)
        stepped = sgd_step(model, backward(model, trace, y, out=buffers), 0.3, out=buffers)
        for want, got, (w, b) in zip(expected.layers, stepped.layers, buffers):
            assert got.weights.array.tobytes() == want.weights.array.tobytes() == w.tobytes()
            assert got.bias.array.tobytes() == want.bias.array.tobytes() == b.tobytes()

    def test_out_length_must_match_layers(self):
        model = build_model(ModelConfig(input_dim=2, hidden_widths=(2,), seed=0))
        grads = Gradients(
            tuple(Matrix.zeros(*l.weights.shape) for l in model.layers),
            tuple(Matrix.zeros(*l.bias.shape) for l in model.layers),
        )
        with pytest.raises(ShapeError):
            sgd_step(model, grads, 0.1, out=param_buffers(model)[:1])


class TestGradientLayerNorms:
    def test_zero_gradients(self):
        grads = Gradients((Matrix.zeros(2, 3),), (Matrix.zeros(1, 2),))
        assert gradient_layer_norms(grads) == [0.0]

    def test_three_four_five(self):
        grads = Gradients((Matrix([[3.0, 4.0]]),), (Matrix([[0.0]]),))
        assert gradient_layer_norms(grads) == [5.0]

    def test_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(10)
        arrays = [rng.normal(size=(4, 3)), rng.normal(size=(2, 4))]
        grads = Gradients(
            tuple(Matrix(a) for a in arrays),
            (Matrix.zeros(1, 4), Matrix.zeros(1, 2)),
        )
        expected = [math.sqrt(sum(v * v for v in a.ravel())) for a in arrays]
        np.testing.assert_allclose(gradient_layer_norms(grads), expected, rtol=1e-12)


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = build_model(ModelConfig(input_dim=7, hidden_widths=(5, 3), dropout_rate=0.05, seed=21))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_behavior(self, tmp_path):
        model = build_model(ModelConfig(input_dim=6, hidden_widths=(4,), dropout_rate=0.05, seed=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        x = Matrix(np.random.default_rng(0).normal(size=(5, 6)))
        assert forward(model, x)[0] == forward(loaded, x)[0]

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_model(path)

    @staticmethod
    def _checkpoint(tmp_path, corrupt):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3, 2), seed=5))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda doc: doc.pop("config"), ParseError),
            (lambda doc: doc["layers"][0].update(activation="tanh"), ValidationError),
            (lambda doc: doc["layers"][2].update(activation="relu"), ValidationError),
            (lambda doc: doc["layers"].pop(), ValidationError),
            (lambda doc: doc["config"].update(input_dim=5), ValidationError),
            (lambda doc: doc["config"].update(hidden_widths=[3, 1]), ValidationError),
            (lambda doc: doc["layers"][1].pop("weights"), ParseError),
        ],
        ids=[
            "missing-config",
            "unknown-activation",
            "misplaced-activation",
            "wrong-layer-count",
            "input-dim-mismatch",
            "hidden-width-mismatch",
            "missing-weights",
        ],
    )
    def test_malformed_checkpoint_rejected(self, tmp_path, corrupt, error):
        with pytest.raises(error):
            load_model(self._checkpoint(tmp_path, corrupt))
