import dataclasses
import json
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from fdcheck import random_case, worst_relative_error
from qdelnet import nn
from qdelnet.errors import ConfigError, NumericError, ParseError, ShapeError, ValidationError
from qdelnet.nn import (
    ForwardTrace,
    Gradients,
    Layer,
    MlpModel,
    ModelConfig,
    _sigmoid_array,
    activation_buffers,
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
            Layer(np.ones((width, input_dim)), np.zeros((1, width)), "relu"),
            Layer(np.ones((1, width)), np.zeros((1, 1)), "sigmoid"),
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
            assert not layer.bias.any()

    def test_equal_configs_give_identical_models(self):
        a = build_model(ModelConfig(input_dim=6, hidden_widths=(4, 2), seed=9))
        b = build_model(ModelConfig(input_dim=6, hidden_widths=(4, 2), seed=9))
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)

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
                Layer(np.eye(3), np.zeros((1, 3)), "relu"),
                Layer(np.zeros((1, 3)), np.zeros((1, 1)), "sigmoid"),
            ),
        )
        _, trace = forward(model, np.array([[-3.0, 5.0, 0.0]]), mode="eval")
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
        x = np.random.default_rng(0).normal(size=(5, 4))
        train_preds, _ = forward(model, x, mode="train")
        eval_preds, _ = forward(model, x, mode="eval")
        assert np.array_equal(train_preds, eval_preds)

    def test_zero_parameters_give_half(self):
        config = ModelConfig(input_dim=3, hidden_widths=(2,), dropout_rate=0.0, seed=0)
        model = MlpModel(
            config=config,
            layers=(
                Layer(np.zeros((2, 3)), np.zeros((1, 2)), "relu"),
                Layer(np.zeros((1, 2)), np.zeros((1, 1)), "sigmoid"),
            ),
        )
        preds, _ = forward(model, np.ones((4, 3)), mode="eval")
        assert preds.tolist() == [[0.5]] * 4

    def test_hand_computed_single_hidden_layer(self):
        model = ones_model(input_dim=2, width=2)
        preds, _ = forward(model, np.array([[1.0, 1.0]]), mode="eval")
        assert preds[0, 0] == pytest.approx(sigmoid(4.0), abs=1e-15)
        assert preds[0, 0] == pytest.approx(0.9820137900379085, abs=1e-12)

    @pytest.mark.parametrize("shape", [(3, 5), (4,), (2, 3, 4)], ids=["columns", "1-D", "3-D"])
    def test_column_mismatch_is_shape_error(self, shape):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(2,)))
        with pytest.raises(ShapeError):
            forward(model, np.ones(shape), mode="eval")

    def test_predictions_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(8)
        model = build_model(ModelConfig(input_dim=6, hidden_widths=(5, 4), seed=8))
        preds, _ = forward(model, rng.normal(size=(64, 6), scale=50), mode="eval")
        assert np.all(preds > 0.0) and np.all(preds < 1.0)

    def test_bitwise_deterministic_with_same_rng_seed(self):
        model = build_model(ModelConfig(input_dim=5, hidden_widths=(4,), dropout_rate=0.3, seed=3))
        x = np.random.default_rng(1).normal(size=(6, 5))
        p1, t1 = forward(model, x, mode="train", rng=stream_rng(7, 99))
        p2, t2 = forward(model, x, mode="train", rng=stream_rng(7, 99))
        assert np.array_equal(p1, p2)
        for m1, m2 in zip(t1.dropout_masks, t2.dropout_masks):
            np.testing.assert_array_equal(m1, m2)

    def test_train_mode_with_dropout_requires_rng(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), dropout_rate=0.5))
        with pytest.raises(ConfigError):
            forward(model, np.ones((2, 4)), mode="train")


def trace_arrays(trace):
    masks = [m for m in trace.dropout_masks if m is not None]
    return [trace.inputs, *trace.pre_activations, *trace.post_activations, *masks]


def assert_same_forward(got, expected):
    (got_preds, got_trace), (exp_preds, exp_trace) = got, expected
    assert got_preds.tobytes() == exp_preds.tobytes()
    assert got_trace.mode == exp_trace.mode
    assert [m is None for m in got_trace.dropout_masks] == [
        m is None for m in exp_trace.dropout_masks
    ]
    got_arrays, exp_arrays = trace_arrays(got_trace), trace_arrays(exp_trace)
    assert len(got_arrays) == len(exp_arrays)
    for g, e in zip(got_arrays, exp_arrays):
        assert g.shape == e.shape and g.tobytes() == e.tobytes()


class TestForwardOut:
    MODEL = ModelConfig(input_dim=7, hidden_widths=(9, 6, 6, 3), dropout_rate=0.3, seed=5)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_bit_identical_to_fresh_arrays(self, mode):
        model = build_model(self.MODEL)
        x = np.random.default_rng(1).normal(size=(11, 7))
        expected = forward(model, x, mode=mode, rng=stream_rng(4, 1))
        got = forward(model, x, mode=mode, rng=stream_rng(4, 1), out=activation_buffers(model, 11))
        assert_same_forward(got, expected)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_reused_buffers_and_a_short_last_chunk(self, mode):
        """One workspace serves chunks of 8, 8 and 3 rows, as evaluate()
        uses it; every call matches a forward pass into fresh arrays."""
        model = build_model(self.MODEL)
        x = np.random.default_rng(2).normal(size=(19, 7))
        workspace = activation_buffers(model, 8)
        fresh_rng, out_rng = stream_rng(6, 2), stream_rng(6, 2)
        for start in range(0, 19, 8):
            chunk = np.array(x[start : start + 8])
            expected = forward(model, chunk, mode=mode, rng=fresh_rng)
            got = forward(model, chunk, mode=mode, rng=out_rng, out=workspace)
            assert_same_forward(got, expected)
            _, trace = got
            for act, (pre_buf, post_buf) in zip(trace.pre_activations, workspace):
                assert np.shares_memory(act, pre_buf)
            assert not np.shares_memory(got[0], workspace[-1][1])

    def test_out_that_does_not_fit_is_shape_error(self):
        model = build_model(self.MODEL)
        x = np.ones((5, 7))
        too_short = activation_buffers(model, 4)
        other = build_model(dataclasses.replace(self.MODEL, hidden_widths=(9, 6, 5, 3)))
        wrong_width = activation_buffers(other, 5)
        for out in (too_short, wrong_width, activation_buffers(model, 5)[:-1]):
            with pytest.raises(ShapeError):
                forward(model, x, mode="eval", out=out)

    def test_activation_buffers_shapes(self):
        model = build_model(self.MODEL)
        shapes = [(pre.shape, post.shape) for pre, post in activation_buffers(model, 4)]
        assert shapes == [((4, w), (4, w)) for w in (9, 6, 6, 3, 1)]


def eval_predictions(model, x, out=None):
    preds, _ = forward(model, np.array(x), mode="eval", out=out)
    return preds.tobytes()


class TestEvalWorkspace:
    @pytest.mark.parametrize("depth", [0, 1, 3, 50])
    def test_predictions_bit_equal_to_train_layout_and_fresh_arrays(self, depth):
        config = ModelConfig(input_dim=13, hidden_widths=tuple(taper_widths(depth)), seed=depth)
        model = build_model(config)
        x = np.random.default_rng(depth).normal(size=(512, 13))
        fresh = eval_predictions(model, x)
        assert eval_predictions(model, x, activation_buffers(model, 512)) == fresh
        assert eval_predictions(model, x, activation_buffers(model, 512, mode="eval")) == fresh

    def test_widest_layer_that_is_not_the_first(self):
        """Widths 3, 9, 5, 1: the buffers are sized by the widest layer, the
        second. MlpModel does not check its layers against its config."""
        rng = np.random.default_rng(3)
        dims = [4, 3, 9, 5, 1]
        layers = tuple(
            Layer(
                rng.normal(size=(out_dim, in_dim)),
                rng.normal(size=(1, out_dim)),
                "relu" if out_dim > 1 else "sigmoid",
            )
            for in_dim, out_dim in zip(dims, dims[1:])
        )
        config = ModelConfig(input_dim=4, hidden_widths=(9, 5, 3), dropout_rate=0.0)
        model = MlpModel(config, layers)
        x = rng.normal(size=(6, 4))
        workspace = activation_buffers(model, 6, mode="eval")
        assert eval_predictions(model, x, workspace) == eval_predictions(model, x)
        bases = [workspace[0][0].base, workspace[1][0].base]
        assert bases[0] is not bases[1] and bases[0].size == bases[1].size == 6 * 9
        for k, (pre, post) in enumerate(workspace):
            assert pre is post and pre.shape == (6, dims[k + 1]) and pre.base is bases[k % 2]
        assert workspace.masks is None

    def test_one_workspace_for_chunks_of_512_512_and_1_rows(self):
        config = ModelConfig(input_dim=13, hidden_widths=tuple(taper_widths(10)), seed=4)
        model = build_model(config)
        x = np.random.default_rng(4).normal(size=(1025, 13))
        workspace = activation_buffers(model, 512, mode="eval")
        train_layout = activation_buffers(model, 512)
        for start in (0, 512, 1024):
            chunk = x[start : start + 512]
            expected = eval_predictions(model, chunk)
            assert eval_predictions(model, chunk, workspace) == expected
            assert eval_predictions(model, chunk, train_layout) == expected

    def test_trace_has_no_activations_and_backward_rejects_it(self):
        model = build_model(ModelConfig(input_dim=5, hidden_widths=(4, 3), seed=1))
        x = np.ones((2, 5))
        _, trace = forward(model, x, mode="eval", out=activation_buffers(model, 2, mode="eval"))
        assert trace.pre_activations == [] and trace.post_activations == []
        with pytest.raises(ShapeError):
            backward(model, trace, np.ones((2, 1)))

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_train_mode_with_an_eval_workspace_is_config_error(self, rate):
        model = build_model(ModelConfig(input_dim=5, hidden_widths=(4,), dropout_rate=rate, seed=1))
        workspace = activation_buffers(model, 2, mode="eval")
        x = np.ones((2, 5))
        with pytest.raises(ConfigError, match="eval workspace"):
            forward(model, x, mode="train", rng=stream_rng(0, 1), out=workspace)

    def test_unknown_workspace_mode_is_config_error(self):
        model = build_model(ModelConfig(input_dim=5, hidden_widths=(4,), seed=1))
        with pytest.raises(ConfigError):
            activation_buffers(model, 2, mode="predict")


class TestDropout:
    def test_masks_contain_only_zero_and_inverse_keep(self):
        rate = 0.25
        model = build_model(ModelConfig(input_dim=6, hidden_widths=(16, 8), dropout_rate=rate, seed=4))
        x = np.random.default_rng(2).normal(size=(10, 6))
        _, trace = forward(model, x, mode="train", rng=stream_rng(0, 1))
        for mask in trace.dropout_masks:
            assert set(np.unique(mask)) <= {0.0, 1.0 / (1.0 - rate)}

    def test_no_mask_on_output_layer(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3, 2), dropout_rate=0.5, seed=0))
        _, trace = forward(model, np.ones((2, 4)), mode="train", rng=stream_rng(0, 1))
        assert len(trace.dropout_masks) == len(model.layers) - 1

    def test_eval_mode_applies_no_masks(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), dropout_rate=0.5, seed=0))
        _, trace = forward(model, np.ones((2, 4)), mode="eval")
        assert trace.dropout_masks == [None]

    def test_train_mode_expectation_matches_eval(self):
        """Inverted dropout: hidden activations averaged over many mask draws
        converge to the eval-mode activations (within 2% relative)."""
        rate = 0.3
        model = build_model(ModelConfig(input_dim=5, hidden_widths=(8,), dropout_rate=rate, seed=6))
        x = np.abs(np.random.default_rng(3).normal(size=(4, 5))) + 0.5
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
        preds = np.array([[0.5]] * 4)
        labels = np.array([[1.0], [0.0], [1.0], [0.0]])
        assert bce_loss(preds, labels) == pytest.approx(math.log(2), abs=1e-15)

    def test_perfect_predictions_clamp_to_near_zero(self):
        preds = np.array([[1.0], [0.0]])
        labels = np.array([[1.0], [0.0]])
        loss = bce_loss(preds, labels)
        assert 0.0 <= loss <= 1.1e-12

    def test_hand_value(self):
        assert bce_loss(np.array([[0.9]]), np.array([[1.0]])) == pytest.approx(-math.log(0.9), abs=1e-15)
        assert bce_loss(np.array([[0.9]]), np.array([[1.0]])) == pytest.approx(0.10536051565782628, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            bce_loss(np.array([[0.5], [0.5]]), np.array([[1.0]]))


class TestBackward:
    def test_zero_gradient_when_predictions_equal_labels(self):
        model = ones_model(input_dim=2, width=2)
        labels = np.array([[0.25], [0.75]])
        trace = ForwardTrace(
            inputs=np.array([[1.0, 0.0], [0.0, 1.0]]),
            pre_activations=[np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[2.0], [2.0]])],
            post_activations=[np.array([[1.0, 1.0], [1.0, 1.0]]), labels.copy()],
            dropout_masks=[None],
            mode="train",
        )
        grads = backward(model, trace, labels)
        for dw, db in zip(grads.d_weights, grads.d_biases):
            assert np.max(np.abs(dw)) < 1e-9
            assert np.max(np.abs(db)) < 1e-9

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
        x = rng.normal(size=(9, 5))
        y = rng.integers(0, 2, size=(9, 1)).astype(float)
        preds, trace = forward(model, x, mode="train")
        grads = backward(model, trace, y)
        expected_dw = x.T @ (preds - y) / 9
        np.testing.assert_allclose(grads.d_weights[0], expected_dw.T, atol=1e-12)

    def test_respects_dropout_masks(self):
        """Zeroed units must contribute exactly zero gradient to their
        incoming weights."""
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(6,), dropout_rate=0.5, seed=5))
        x = np.abs(np.random.default_rng(4).normal(size=(1, 4))) + 0.1
        y = np.array([[1.0]])
        _, trace = forward(model, x, mode="train", rng=stream_rng(2, 2))
        grads = backward(model, trace, y)
        dropped = trace.dropout_masks[0][0] == 0.0
        assert dropped.any()
        assert not grads.d_weights[0][dropped, :].any()

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
        labels = np.array([[0.0]])
        with pytest.raises(NumericError, match="layer 0"):
            backward(model, trace, labels)
        grads = backward(model, trace, labels, out=param_buffers(model))
        assert grads.d_weights[0][0, 0] == np.inf
        with pytest.raises(NumericError):
            sgd_step(model, grads, 0.1)

    def test_out_buffers_give_identical_gradients(self):
        model = build_model(ModelConfig(input_dim=5, hidden_widths=(4, 3), dropout_rate=0.2, seed=6))
        x = np.random.default_rng(6).normal(size=(7, 5))
        y = np.array([[1.0], [0.0]] * 3 + [[1.0]])
        _, trace = forward(model, x, mode="train", rng=stream_rng(6, 1))
        fresh = backward(model, trace, y)
        buffers = param_buffers(model)
        owned = backward(model, trace, y, out=buffers)
        assert owned is buffers
        for a, b in zip(fresh.d_weights + fresh.d_biases, owned.d_weights + owned.d_biases):
            assert a.tobytes() == b.tobytes()
        assert fresh.flat.tobytes() == buffers.flat.tobytes()

    def test_trace_mismatch_is_error(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,)))
        other = build_model(ModelConfig(input_dim=4, hidden_widths=(3, 2)))
        _, trace = forward(other, np.ones((2, 4)), mode="eval")
        with pytest.raises(ShapeError):
            backward(model, trace, np.array([[1.0], [0.0]]))


class TestSgdStep:
    def test_zero_learning_rate_is_identity(self):
        model = build_model(ModelConfig(input_dim=3, hidden_widths=(2,), dropout_rate=0.0, seed=1))
        x = np.ones((2, 3))
        y = np.array([[1.0], [0.0]])
        _, trace = forward(model, x, mode="train")
        grads = backward(model, trace, y)
        stepped = sgd_step(model, grads, 0.0)
        for before, after in zip(model.layers, stepped.layers):
            assert np.array_equal(before.weights, after.weights)
            assert np.array_equal(before.bias, after.bias)

    def test_scalar_arithmetic(self):
        config = ModelConfig(input_dim=1, hidden_widths=(), dropout_rate=0.0, seed=0)
        model = MlpModel(
            config=config,
            layers=(Layer(np.array([[1.0]]), np.array([[0.0]]), "sigmoid"),),
        )
        grads = Gradients((np.array([[0.5]]),), (np.array([[0.0]]),))
        stepped = sgd_step(model, grads, 0.1)
        assert stepped.layers[0].weights[0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_one_step_decreases_loss_on_logistic_toy(self):
        rng = np.random.default_rng(3)
        config = ModelConfig(input_dim=1, hidden_widths=(), dropout_rate=0.0, seed=3)
        model = build_model(config)
        x = np.concatenate([rng.normal(-2, 0.5, (20, 1)), rng.normal(2, 0.5, (20, 1))])
        y = np.array([[0.0]] * 20 + [[1.0]] * 20)
        preds, trace = forward(model, x, mode="train")
        before = bce_loss(preds, y)
        stepped = sgd_step(model, backward(model, trace, y), 0.5)
        after_preds, _ = forward(stepped, x, mode="eval")
        assert bce_loss(after_preds, y) < before

    def test_non_finite_gradient_rejected(self):
        model = build_model(ModelConfig(input_dim=2, hidden_widths=(), seed=0))
        bad = Gradients((np.array([[np.inf, 1.0]]),), (np.array([[0.0]]),))
        with pytest.raises(NumericError):
            sgd_step(model, bad, 0.1)

    def test_original_model_untouched(self):
        model = build_model(ModelConfig(input_dim=2, hidden_widths=(2,), dropout_rate=0.0, seed=7))
        snapshot = [layer.weights.tolist() for layer in model.layers]
        _, trace = forward(model, np.ones((3, 2)), mode="train")
        grads = backward(model, trace, np.array([[1.0], [0.0], [1.0]]))
        sgd_step(model, grads, 0.5)
        assert [layer.weights.tolist() for layer in model.layers] == snapshot


    def test_update_into_the_gradient_buffers_is_bit_identical(self):
        """sgd_step may write the update over the arrays its gradients view,
        which is how train() uses it."""
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), dropout_rate=0.0, seed=2))
        x = np.random.default_rng(2).normal(size=(5, 4))
        y = np.array([[1.0], [0.0], [1.0], [1.0], [0.0]])
        _, trace = forward(model, x, mode="train")
        expected = sgd_step(model, backward(model, trace, y), 0.3)
        buffers = param_buffers(model)
        target = model.over(buffers.flat)
        stepped = sgd_step(model, backward(model, trace, y, out=buffers), 0.3, out=target)
        assert stepped is target
        assert stepped.params.tobytes() == expected.params.tobytes() == buffers.flat.tobytes()
        for want, got in zip(expected.layers, stepped.layers):
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.bias.tobytes() == want.bias.tobytes()

    def test_out_length_must_match_layers(self):
        model = build_model(ModelConfig(input_dim=2, hidden_widths=(2,), seed=0))
        grads = Gradients(
            tuple(np.zeros(l.weights.shape) for l in model.layers),
            tuple(np.zeros(l.bias.shape) for l in model.layers),
        )
        deeper = build_model(ModelConfig(input_dim=2, hidden_widths=(2, 2), seed=0))
        with pytest.raises(ShapeError):
            sgd_step(model, grads, 0.1, out=deeper)


class TestGradientLayerNorms:
    def test_zero_gradients(self):
        grads = Gradients((np.zeros((2, 3)),), (np.zeros((1, 2)),))
        assert gradient_layer_norms(grads) == [0.0]

    def test_three_four_five(self):
        grads = Gradients((np.array([[3.0, 4.0]]),), (np.array([[0.0]]),))
        assert gradient_layer_norms(grads) == [5.0]

    def test_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(10)
        arrays = [rng.normal(size=(4, 3)), rng.normal(size=(2, 4))]
        grads = Gradients(
            tuple(arrays),
            (np.zeros((1, 4)), np.zeros((1, 2))),
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
        x = np.random.default_rng(0).normal(size=(5, 6))
        assert np.array_equal(forward(model, x)[0], forward(loaded, x)[0])

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


def layer_param_count(shapes):
    return sum(rows * (cols + 1) for rows, cols in shapes)


class TestFlatParameters:
    """Every model and Gradients keeps its parameters in one vector: each
    layer's weights (row-major), then its bias, first layer first."""

    @staticmethod
    def assert_views_vector(model):
        shapes = [layer.weights.shape for layer in model.layers]
        assert model.params.shape == (layer_param_count(shapes),)
        assert model.params.dtype == np.float64 and model.params.flags.c_contiguous
        expected = np.concatenate([a for l in model.layers for a in (l.weights.ravel(), l.bias.ravel())])
        assert model.params.tobytes() == expected.tobytes()
        for layer in model.layers:
            assert np.shares_memory(layer.weights, model.params)
            assert np.shares_memory(layer.bias, model.params)

    def test_build_model(self):
        self.assert_views_vector(build_model(ModelConfig(input_dim=6, hidden_widths=(5, 3), seed=1)))

    def test_load_model(self, tmp_path):
        save_model(build_model(ModelConfig(input_dim=6, hidden_widths=(5, 3), seed=1)), tmp_path / "m")
        self.assert_views_vector(load_model(tmp_path / "m"))

    def test_sgd_step_returns_a_model_over_a_fresh_vector(self):
        model = build_model(ModelConfig(input_dim=6, hidden_widths=(5, 3), seed=1))
        _, trace = forward(model, np.ones((2, 6)), mode="eval")
        stepped = sgd_step(model, backward(model, trace, np.array([[1.0], [0.0]])), 0.1)
        self.assert_views_vector(stepped)
        assert not np.shares_memory(stepped.params, model.params)

    def test_hand_built_model_is_packed_into_a_copy(self):
        weights = np.arange(6.0).reshape(2, 3)
        model = ones_model(3, 2)
        built = MlpModel(
            config=model.config,
            layers=(Layer(np.array(weights), np.array([[7.0, 8.0]]), "relu"), model.layers[1]),
        )
        self.assert_views_vector(built)
        assert built.params.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0, 1.0, 1.0, 0.0]
        assert not np.shares_memory(built.params, weights)

    def test_gradients_from_backward_and_by_hand_view_one_vector(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), seed=2))
        _, trace = forward(model, np.ones((2, 4)), mode="eval")
        by_hand = Gradients((np.ones((3, 4)), np.array([[2.0, 2.0, 2.0]])),
                            (np.array([[3.0, 3.0, 3.0]]), np.array([[4.0]])))
        assert by_hand.flat.tolist() == [1.0] * 12 + [3.0] * 3 + [2.0] * 3 + [4.0]
        for grads in (backward(model, trace, np.array([[1.0], [0.0]])), by_hand):
            assert grads.flat.shape == model.params.shape
            for m in grads.d_weights + grads.d_biases:
                assert np.shares_memory(m, grads.flat)

    def test_param_buffers_is_a_fresh_set_of_the_models_layout(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), seed=2))
        buffers = param_buffers(model)
        assert isinstance(buffers, Gradients)
        assert buffers.flat.shape == model.params.shape
        assert not np.shares_memory(buffers.flat, model.params)
        assert [m.shape for m in buffers.d_weights] == [l.weights.shape for l in model.layers]
        view = model.over(buffers.flat)
        assert view.params is buffers.flat and view.config == model.config

    def test_hand_built_non_finite_parameter_names_its_layer(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3, 2), seed=2))
        bias = np.array(model.layers[1].bias)
        bias[0, 1] = np.nan
        layers = (model.layers[0], Layer(model.layers[1].weights, bias, "relu"), model.layers[2])
        with pytest.raises(NumericError, match=r"^layer 1: non-finite parameter nan$"):
            MlpModel(config=model.config, layers=layers)

    def test_parameters_and_outputs_are_read_only(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), seed=2))
        preds, trace = forward(model, np.ones((2, 4)), mode="eval")
        grads = backward(model, trace, np.array([[1.0], [0.0]]))
        for array in (model.layers[0].weights, model.layers[1].bias, grads.d_weights[0], preds):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    def test_rewriting_the_viewed_vector_is_seen_through_the_layers(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), seed=2))
        buffer = np.zeros_like(model.params)
        view = model.over(buffer)
        buffer[:] = np.arange(buffer.size)
        assert view.layers[0].weights[0].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert view.layers[1].bias.tolist() == [[buffer.size - 1.0]]

    def test_over_rejects_a_vector_of_another_size(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), seed=2))
        with pytest.raises(ShapeError):
            model.over(np.zeros(model.params.size + 1))


BLOCK = nn._UPDATE_BLOCK


def random_model_and_gradients(config, seed):
    """A model and gradients with normal-random entries, built by hand."""
    rng = np.random.default_rng(seed)
    base = build_model(config)
    shapes = [(l.weights.shape, l.bias.shape) for l in base.layers]
    layers = tuple(
        Layer(rng.normal(size=ws), rng.normal(size=bs), l.activation)
        for (ws, bs), l in zip(shapes, base.layers)
    )
    grads = Gradients(
        tuple(rng.normal(size=ws) for ws, _ in shapes),
        tuple(rng.normal(size=bs) for _, bs in shapes),
    )
    return MlpModel(config=config, layers=layers), grads


# Parameter counts below, equal to and above one block; the last two have
# blocks that hold the end of one layer and the start of the next.
BLOCK_CONFIGS = {
    "below-one-block": ModelConfig(input_dim=30, hidden_widths=(20, 7)),
    "exactly-one-block": ModelConfig(input_dim=BLOCK - 1),
    "one-past-a-block": ModelConfig(input_dim=BLOCK),
    "straddling-layers": ModelConfig(input_dim=300, hidden_widths=(128, 16)),
    "three-blocks": ModelConfig(input_dim=1000, hidden_widths=(64, 32, 8)),
}


class TestBlockedUpdate:
    def test_block_configs_cover_the_boundaries(self):
        counts = {k: build_model(c).params.size for k, c in BLOCK_CONFIGS.items()}
        assert counts["below-one-block"] < BLOCK
        assert counts["exactly-one-block"] == BLOCK
        assert counts["one-past-a-block"] == BLOCK + 1
        assert counts["three-blocks"] > 2 * BLOCK
        straddle = build_model(BLOCK_CONFIGS["straddling-layers"])
        first_end = layer_param_count([straddle.layers[0].weights.shape])
        assert BLOCK < first_end < straddle.params.size < 2 * BLOCK

    @pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
    @pytest.mark.parametrize("into_gradients", [False, True])
    def test_bit_equal_to_the_per_layer_expression(self, name, into_gradients):
        model, grads = random_model_and_gradients(BLOCK_CONFIGS[name], seed=len(name))
        lr = 0.037
        expected = [
            (l.weights - lr * dw, l.bias - lr * db)
            for l, dw, db in zip(model.layers, grads.d_weights, grads.d_biases)
        ]
        before = model.params.tobytes()
        out = model.over(grads.flat) if into_gradients else None
        stepped = sgd_step(model, grads, lr, out=out)
        for layer, (w, b) in zip(stepped.layers, expected):
            assert layer.weights.tobytes() == w.tobytes()
            assert layer.bias.tobytes() == b.tobytes()
        assert model.params.tobytes() == before

    @pytest.mark.parametrize("name", ["straddling-layers", "three-blocks"])
    def test_non_finite_parameter_names_its_layer(self, name):
        """A NaN at the first and last weight and bias of each layer; in these
        layouts layers 1 and up start inside a block that the layer before
        them ends in."""
        model, grads = random_model_and_gradients(BLOCK_CONFIGS[name], seed=3)
        start = 0
        for k, layer in enumerate(model.layers):
            rows, cols = layer.weights.shape
            bias_start, end = start + rows * cols, start + rows * (cols + 1)
            for index in (start, bias_start - 1, bias_start, end - 1):
                poisoned = model.over(model.params.copy())
                poisoned.params[index] = np.nan
                before = poisoned.params.tobytes()
                with pytest.raises(NumericError, match=rf"non-finite in layer {k}$"):
                    sgd_step(poisoned, grads, 0.01)
                assert poisoned.params.tobytes() == before
            start = end

    def test_first_non_finite_element_wins(self):
        model, grads = random_model_and_gradients(BLOCK_CONFIGS["three-blocks"], seed=4)
        flat = grads.flat.copy()
        flat[-1] = np.inf  # output layer, last block
        first_end = layer_param_count([model.layers[0].weights.shape])
        flat[first_end + 5] = -np.inf  # layer 1, in the block layer 0 ends in
        bad = Gradients(grads.d_weights, grads.d_biases, flat)
        with pytest.raises(NumericError, match="layer 1$"):
            sgd_step(model, bad, 0.5)

    def test_update_is_one_pass_without_a_per_layer_loop(self, monkeypatch):
        """A depth-50 update makes one multiply per block, not per layer."""
        model = build_model(ModelConfig(input_dim=20, hidden_widths=tuple(taper_widths(50, 16, 4))))
        grads = Gradients(tuple(l.weights for l in model.layers), tuple(l.bias for l in model.layers))
        calls = []
        real = np.multiply
        monkeypatch.setattr(nn.np, "multiply", lambda *a, **k: calls.append(1) or real(*a, **k))
        sgd_step(model, grads, 0.1)
        assert len(calls) == -(-model.params.size // BLOCK) == 1


class TestOneDrawMasks:
    """forward(..., out=) draws every mask of a batch at once; the numbers
    equal one draw per layer, in layer order, from the same generator."""

    CONFIG = ModelConfig(input_dim=6, hidden_widths=(9, 7, 7, 2), dropout_rate=0.3, seed=8)

    @pytest.mark.parametrize("rows", [10, 4])
    def test_equal_to_per_layer_draws(self, rows):
        model = build_model(self.CONFIG)
        workspace = activation_buffers(model, 10)
        x = np.random.default_rng(5).normal(size=(rows, 6))
        one_draw, per_layer = stream_rng(9, 1), stream_rng(9, 1)
        for _ in range(2):  # reuses the workspace
            _, trace = forward(model, x, mode="train", rng=one_draw, out=workspace)
            for mask, layer in zip(trace.dropout_masks, model.layers):
                expected = (per_layer.random((rows, layer.weights.shape[0])) >= 0.3) / (1.0 - 0.3)
                assert mask.tobytes() == expected.tobytes()
                assert np.shares_memory(mask, workspace.masks)
        assert one_draw.random() == per_layer.random()

    def test_eval_mode_leaves_the_generator_alone(self):
        model = build_model(self.CONFIG)
        rng = stream_rng(9, 1)
        forward(model, np.ones((3, 6)), mode="eval", rng=rng, out=activation_buffers(model, 3))
        assert rng.random() == stream_rng(9, 1).random()
