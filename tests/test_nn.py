import dataclasses
import json
import math
import re
from decimal import Decimal, getcontext

import numpy as np
import pytest

from fdcheck import random_case, worst_relative_error
from qdelnet import nn
from qdelnet.data import gen_synthetic
from qdelnet.errors import ConfigError, NumericError, ParseError, ShapeError, ValidationError
from qdelnet.nn import (
    ForwardTrace,
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
    save_model,
    sgd_step,
    taper_widths,
)
from qdelnet.seeding import stream_rng
from qdelnet.train import TrainConfig, train


def ones_model(input_dim, width):
    """One hidden layer, every weight 1.0, zero biases."""
    config = ModelConfig(input_dim=input_dim, hidden_widths=(width,), dropout_rate=0.0, seed=0)
    return MlpModel.from_arrays(
        config,
        [np.ones((width, input_dim)), np.ones((1, width))],
        [np.zeros((1, width)), np.zeros((1, 1))],
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

    def test_dropout_rate_is_kept_as_a_float(self):
        rate = ModelConfig(input_dim=4, dropout_rate=0).dropout_rate
        assert (rate, type(rate)) == (0.0, float)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be non-negative, got -1"),
        (2**63, "seed must be below 2**63, got 9223372036854775808"),
    ])
    def test_seed_must_fit_an_int64(self, seed, message):
        assert ModelConfig(input_dim=4, seed=2**63 - 1).seed == 2**63 - 1
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ModelConfig(input_dim=4, seed=seed)


class TestBuildModel:
    def test_logistic_regression_degenerate(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=()))
        assert len(model.weights) == len(model.biases) == 1
        assert model.weights[0].shape == (1, 4) and model.biases[0].shape == (1, 1)
        assert model.hidden_count == 0

    def test_layer_shapes_chain(self):
        model = build_model(ModelConfig(input_dim=10, hidden_widths=(8, 4)))
        assert [w.shape for w in model.weights] == [(8, 10), (4, 8), (1, 4)]
        assert [b.shape for b in model.biases] == [(1, 8), (1, 4), (1, 1)]

    def test_biases_start_at_zero(self):
        model = build_model(ModelConfig(input_dim=5, hidden_widths=(3,), seed=2))
        for bias in model.biases:
            assert not bias.any()

    def test_equal_configs_give_identical_models(self):
        a = build_model(ModelConfig(input_dim=6, hidden_widths=(4, 2), seed=9))
        b = build_model(ModelConfig(input_dim=6, hidden_widths=(4, 2), seed=9))
        assert a.params.tobytes() == b.params.tobytes()

    def test_parameter_layer_count_is_depth_plus_one(self):
        for depth in range(6):
            widths = tuple(taper_widths(depth, 16, 4))
            model = build_model(ModelConfig(input_dim=5, hidden_widths=widths))
            assert len(model.weights) == depth + 1 and model.hidden_count == depth


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
        model = MlpModel.from_arrays(
            config, [np.eye(3), np.zeros((1, 3))], [np.zeros((1, 3)), np.zeros((1, 1))]
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
        model = MlpModel(config, np.zeros(11))
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

    def test_two_alternating_buffers_of_the_widest_layer(self):
        """Widths 9, 5, 3, 1: layer k writes into buffer k % 2, each sized
        for the widest layer."""
        rng = np.random.default_rng(3)
        dims = [4, 9, 5, 3, 1]
        config = ModelConfig(input_dim=4, hidden_widths=(9, 5, 3), dropout_rate=0.0)
        model = MlpModel(config, rng.normal(size=build_model(config).params.size))
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
        assert len(trace.dropout_masks) == model.hidden_count

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
        )
        grads = backward(model, trace, labels)
        for dw, db in zip(grads.weights, grads.biases):
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
        np.testing.assert_allclose(grads.weights[0], expected_dw.T, atol=1e-12)

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
        assert not grads.weights[0][dropped, :].any()

    def test_non_finite_gradient_raises_unless_out_is_given(self):
        """Public callers get NumericError; a caller that passes its own
        buffers gets the gradients unchecked and relies on sgd_step."""
        model = build_model(ModelConfig(input_dim=2, hidden_widths=(), seed=0))
        trace = ForwardTrace(
            inputs=np.array([[np.inf, 1.0]]),
            pre_activations=[np.array([[1.0]])],
            post_activations=[np.array([[0.75]])],
            dropout_masks=[],
        )
        labels = np.array([[0.0]])
        with pytest.raises(NumericError, match="layer 0"):
            backward(model, trace, labels)
        grads = backward(model, trace, labels, out=model.like())
        assert grads.weights[0][0, 0] == np.inf
        with pytest.raises(NumericError):
            sgd_step(model, grads, 0.1)

    def test_out_buffers_give_identical_gradients(self):
        model = build_model(ModelConfig(input_dim=5, hidden_widths=(4, 3), dropout_rate=0.2, seed=6))
        x = np.random.default_rng(6).normal(size=(7, 5))
        y = np.array([[1.0], [0.0]] * 3 + [[1.0]])
        _, trace = forward(model, x, mode="train", rng=stream_rng(6, 1))
        fresh = backward(model, trace, y)
        buffers = model.like()
        owned = backward(model, trace, y, out=buffers)
        assert owned is buffers
        for a, b in zip(fresh.weights + fresh.biases, owned.weights + owned.biases):
            assert a.tobytes() == b.tobytes()
        assert fresh.params.tobytes() == buffers.params.tobytes()

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
        assert stepped.params.tobytes() == model.params.tobytes()

    def test_scalar_arithmetic(self):
        config = ModelConfig(input_dim=1, hidden_widths=(), dropout_rate=0.0, seed=0)
        model = MlpModel.from_arrays(config, [[[1.0]]], [[[0.0]]])
        grads = MlpModel.from_arrays(config, [[[0.5]]], [[[0.0]]])
        stepped = sgd_step(model, grads, 0.1)
        assert stepped.weights[0][0, 0] == pytest.approx(0.95, abs=1e-15)

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
        bad = MlpModel(model.config, np.array([np.inf, 1.0, 0.0]))
        with pytest.raises(NumericError):
            sgd_step(model, bad, 0.1)

    def test_original_model_untouched(self):
        model = build_model(ModelConfig(input_dim=2, hidden_widths=(2,), dropout_rate=0.0, seed=7))
        snapshot = model.params.tobytes()
        _, trace = forward(model, np.ones((3, 2)), mode="train")
        grads = backward(model, trace, np.array([[1.0], [0.0], [1.0]]))
        sgd_step(model, grads, 0.5)
        assert model.params.tobytes() == snapshot

    def test_update_into_the_gradient_set_is_bit_identical(self):
        """sgd_step may write the update over its gradients' own set, which
        is how train() uses it."""
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), dropout_rate=0.0, seed=2))
        x = np.random.default_rng(2).normal(size=(5, 4))
        y = np.array([[1.0], [0.0], [1.0], [1.0], [0.0]])
        _, trace = forward(model, x, mode="train")
        expected = sgd_step(model, backward(model, trace, y), 0.3)
        buffers = model.like()
        stepped = sgd_step(model, backward(model, trace, y, out=buffers), 0.3, out=buffers)
        assert stepped is buffers
        assert stepped.params.tobytes() == expected.params.tobytes()
        for want, got in zip(expected.weights + expected.biases, stepped.weights + stepped.biases):
            assert got.tobytes() == want.tobytes()

    def test_out_length_must_match_layers(self):
        model = build_model(ModelConfig(input_dim=2, hidden_widths=(2,), seed=0))
        grads = MlpModel(model.config, np.zeros_like(model.params))
        deeper = build_model(ModelConfig(input_dim=2, hidden_widths=(2, 2), seed=0))
        with pytest.raises(ShapeError):
            sgd_step(model, grads, 0.1, out=deeper)


class TestGradientLayerNorms:
    def test_zero_gradients(self):
        grads = MlpModel(ModelConfig(input_dim=3, hidden_widths=(2,)), np.zeros(11))
        assert gradient_layer_norms(grads) == [0.0, 0.0]

    def test_three_four_five(self):
        grads = MlpModel.from_arrays(ModelConfig(input_dim=2), [[[3.0, 4.0]]], [[[0.0]]])
        assert gradient_layer_norms(grads) == [5.0]

    def test_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(10)
        arrays = [rng.normal(size=(4, 3)), rng.normal(size=(2, 4)), rng.normal(size=(1, 2))]
        grads = MlpModel.from_arrays(
            ModelConfig(input_dim=3, hidden_widths=(4, 2)),
            arrays,
            (np.zeros((1, 4)), np.zeros((1, 2)), np.zeros((1, 1))),
        )
        expected = [math.sqrt(sum(v * v for v in a.ravel())) for a in arrays]
        np.testing.assert_allclose(gradient_layer_norms(grads), expected, rtol=1e-12)


def reachable_model(source):
    """A depth-2 parameter set as `source` makes it."""
    config = ModelConfig(input_dim=4 * 3 + 1, hidden_widths=(5, 3), dropout_rate=0.1, seed=4)
    model = build_model(config)
    if source == "build_model":
        return model
    if source == "from_arrays":
        return MlpModel.from_arrays(config, model.weights, model.biases)
    if source == "train":
        ds, table = gen_synthetic(60, 10, 3, 4, 0.1, seed=4)
        return train(model, ds, TrainConfig(epochs=2, seed=4), table)[0]
    x = np.random.default_rng(4).normal(size=(6, 13))
    _, trace = forward(model, x, mode="train", rng=stream_rng(4, 1))
    grads = backward(model, trace, np.array([[1.0], [0.0]] * 3))
    return grads if source == "backward" else sgd_step(model, grads, 0.1)


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = build_model(ModelConfig(input_dim=7, hidden_widths=(5, 3), dropout_rate=0.05, seed=21))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("source", ["build_model", "from_arrays", "sgd_step", "backward", "train"])
    def test_every_reachable_model_round_trips(self, tmp_path, monkeypatch, source):
        """Cold (a parse) and warm (a hit on the cache the parse wrote)."""
        model = reachable_model(source)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        for _ in range(2):
            loaded = load_model(p1)
            save_model(loaded, p2)
            assert p1.read_bytes() == p2.read_bytes()
            assert loaded.config == model.config
            assert loaded.params.tobytes() == model.params.tobytes()
            monkeypatch.setattr(nn, "_parse_checkpoint", None)  # the next load is a hit

    def test_activations_are_written_by_position(self, tmp_path):
        save_model(build_model(ModelConfig(input_dim=4, hidden_widths=(3, 2))), tmp_path / "m")
        doc = json.loads((tmp_path / "m").read_text())
        assert [layer["activation"] for layer in doc["layers"]] == ["relu", "relu", "sigmoid"]

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


def cache_of(path):
    return path.with_name(path.name + ".qdelnet-cache.npz")


def cached_arrays(path):
    with np.load(cache_of(path)) as npz:
        return dict(npz)


def assert_same_model(a, b):
    assert (a.config, type(a.config.dropout_rate)) == (b.config, type(b.config.dropout_rate))
    assert (a.params.dtype, a.params.tobytes()) == (b.params.dtype, b.params.tobytes())


class TestCheckpointCache:
    """What load_model keeps in its cache: test_features.TestParseOnce covers
    the protocol."""

    @staticmethod
    def save(tmp_path, model=None):
        path = tmp_path / "model.json"
        save_model(model or build_model(ModelConfig(input_dim=4, hidden_widths=(3, 2), seed=5)),
                   path)
        return path

    @pytest.mark.parametrize("cache", ["wrong-length", "nan-parameter", "float32-parameters",
                                       "refused-config", "float-config", "float32-dropout",
                                       "missing-member"])
    def test_a_bad_cache_is_ignored_and_replaced(self, tmp_path, cache):
        path = self.save(tmp_path)
        expected = load_model(path)
        arrays = cached_arrays(path)
        params, config = arrays["params"], arrays["config"]
        edits = {
            "wrong-length": {"params": params[:-1]},
            "nan-parameter": {"params": np.concatenate([params[:-1], [np.nan]])},
            "float32-parameters": {"params": params.astype(np.float32)},
            "refused-config": {"config": config[[0, 1, 3, 2]]},  # widths 2, 3 increase
            "float-config": {"config": config.astype(np.float64)},
            "float32-dropout": {"dropout": arrays["dropout"].astype(np.float32)},
        }
        kept = {k: v for k, v in arrays.items() if (k, cache) != ("params", "missing-member")}
        with open(cache_of(path), "wb") as fh:
            np.savez(fh, **{**kept, **edits.get(cache, {})})
        assert_same_model(load_model(path), expected)
        assert {k: v.tobytes() for k, v in cached_arrays(path).items()} == {
            k: v.tobytes() for k, v in arrays.items()}

    def test_a_nan_past_the_first_block_is_found(self, tmp_path, monkeypatch):
        """The finite check runs block by block: with 4-element blocks, the
        NaN in the last of 26 parameters sits in the seventh block."""
        monkeypatch.setattr(nn, "_UPDATE_BLOCK", 4)
        self.test_a_bad_cache_is_ignored_and_replaced(tmp_path, "nan-parameter")

    def test_an_integer_dropout_rate_loads_as_a_float_and_is_cached(self, tmp_path,
                                                                     monkeypatch):
        path = self.save(tmp_path)
        doc = json.loads(path.read_text())
        doc["config"]["dropout_rate"] = 0
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        parsed = load_model(path)
        assert (parsed.config.dropout_rate, type(parsed.config.dropout_rate)) == (0.0, float)
        assert cached_arrays(path)["dropout"].dtype == np.float64
        monkeypatch.setattr(nn, "_parse_checkpoint", None)  # the next load is a hit
        assert_same_model(load_model(path), parsed)


def layer_param_count(shapes):
    return sum(rows * (cols + 1) for rows, cols in shapes)


class TestFlatParameters:
    """Every parameter set keeps its parameters in one vector: each layer's
    weights (row-major), then its bias, first layer first."""

    @staticmethod
    def assert_views_vector(model):
        shapes = [w.shape for w in model.weights]
        assert shapes == [(rows, cols) for rows, cols in model._shapes]
        assert model.params.shape == (layer_param_count(shapes),)
        assert model.params.dtype == np.float64 and model.params.flags.c_contiguous
        expected = np.concatenate(
            [a.ravel() for w, b in zip(model.weights, model.biases) for a in (w, b)]
        )
        assert model.params.tobytes() == expected.tobytes()
        for array in model.weights + model.biases:
            assert np.shares_memory(array, model.params)

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

    def test_from_arrays_packs_into_a_copy(self):
        weights = np.arange(6.0).reshape(2, 3)
        model = ones_model(3, 2)
        built = MlpModel.from_arrays(
            model.config, [np.array(weights), model.weights[1]], [[[7.0, 8.0]], model.biases[1]]
        )
        self.assert_views_vector(built)
        assert built.params.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0, 1.0, 1.0, 0.0]
        assert not np.shares_memory(built.params, weights)

    def test_gradients_are_a_parameter_set_of_the_models_layout(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), seed=2))
        _, trace = forward(model, np.ones((2, 4)), mode="eval")
        grads = backward(model, trace, np.array([[1.0], [0.0]]))
        assert isinstance(grads, MlpModel) and grads.config == model.config
        self.assert_views_vector(grads)
        assert not np.shares_memory(grads.params, model.params)

    def test_like_is_a_fresh_set_of_the_models_layout(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), seed=2))
        fresh = model.like()
        assert isinstance(fresh, MlpModel) and fresh.config == model.config
        assert fresh.params.shape == model.params.shape
        assert not np.shares_memory(fresh.params, model.params)
        assert [w.shape for w in fresh.weights] == [w.shape for w in model.weights]

    def test_hand_built_non_finite_parameter_names_its_layer(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3, 2), seed=2))
        biases = list(model.biases)
        biases[1] = np.array(biases[1])
        biases[1][0, 1] = np.nan
        with pytest.raises(NumericError, match=r"^layer 1: non-finite parameter nan$"):
            MlpModel.from_arrays(model.config, model.weights, biases)

    def test_parameters_and_outputs_are_read_only(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), seed=2))
        preds, trace = forward(model, np.ones((2, 4)), mode="eval")
        grads = backward(model, trace, np.array([[1.0], [0.0]]))
        for array in (model.weights[0], model.biases[1], grads.weights[0], preds):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    def test_rewriting_the_viewed_vector_is_seen_through_the_layers(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), seed=2))
        buffer = np.zeros_like(model.params)
        view = MlpModel(model.config, buffer)
        buffer[:] = np.arange(buffer.size)
        assert view.weights[0][0].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert view.biases[1].tolist() == [[buffer.size - 1.0]]

    def test_a_vector_of_another_size_is_shape_error(self):
        model = build_model(ModelConfig(input_dim=4, hidden_widths=(3,), seed=2))
        for size in (model.params.size - 1, model.params.size + 1):
            with pytest.raises(ShapeError):
                MlpModel(model.config, np.zeros(size))

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_a_vector_of_another_dtype_is_shape_error(self, dtype):
        config = ModelConfig(input_dim=3, hidden_widths=(2,), dropout_rate=0.0)
        with pytest.raises(ShapeError, match=f"^{np.dtype(dtype).name} parameter vector "):
            MlpModel(config, np.arange(11, dtype=dtype))

    def test_a_list_is_shape_error(self):
        config = ModelConfig(input_dim=3, hidden_widths=(2,), dropout_rate=0.0)
        with pytest.raises(ShapeError, match="^list parameter vector "):
            MlpModel(config, [0.0] * 11)

    @pytest.mark.parametrize(
        "input_dim, weight_shapes, bias_shapes",
        [
            (3, [(2, 4), (1, 2)], [(1, 2), (1, 1)]),
            (4, [(4, 2), (1, 2)], [(1, 2), (1, 1)]),
            (3, [(2, 3)], [(1, 2), (1, 1)]),
            (3, [(2, 3), (1, 2)], [(1, 2)]),
            (3, [(2, 3), (1, 2)], [(2,), (1, 1)]),
        ],
        ids=["wider-than-the-input", "transposed", "weight-missing", "bias-missing", "flat-bias"],
    )
    def test_from_arrays_of_other_shapes_is_shape_error(self, input_dim, weight_shapes, bias_shapes):
        """Layer shapes come from the config, [input_dim, 2, 1]: arrays of
        any other shape are rejected, even when the element counts add up."""
        config = ModelConfig(input_dim=input_dim, hidden_widths=(2,))
        with pytest.raises(ShapeError):
            MlpModel.from_arrays(
                config, [np.ones(s) for s in weight_shapes], [np.zeros(s) for s in bias_shapes]
            )


BLOCK = nn._UPDATE_BLOCK


def random_model_and_gradients(config, seed):
    """A model and gradients with normal-random entries, built by hand."""
    rng = np.random.default_rng(seed)
    size = build_model(config).params.size
    return MlpModel(config, rng.normal(size=size)), MlpModel(config, rng.normal(size=size))


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
        first_end = layer_param_count([straddle.weights[0].shape])
        assert BLOCK < first_end < straddle.params.size < 2 * BLOCK

    @pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
    @pytest.mark.parametrize("into_gradients", [False, True])
    def test_bit_equal_to_the_per_layer_expression(self, name, into_gradients):
        model, grads = random_model_and_gradients(BLOCK_CONFIGS[name], seed=len(name))
        lr = 0.037
        expected = [
            theta - lr * d
            for theta, d in zip(model.weights + model.biases, grads.weights + grads.biases)
        ]
        before = model.params.tobytes()
        out = grads if into_gradients else None
        stepped = sgd_step(model, grads, lr, out=out)
        assert (stepped is grads) == into_gradients
        for got, want in zip(stepped.weights + stepped.biases, expected):
            assert got.tobytes() == want.tobytes()
        assert model.params.tobytes() == before

    @pytest.mark.parametrize("name", ["straddling-layers", "three-blocks"])
    def test_non_finite_parameter_names_its_layer(self, name):
        """A NaN at the first and last weight and bias of each layer; in these
        layouts layers 1 and up start inside a block that the layer before
        them ends in."""
        model, grads = random_model_and_gradients(BLOCK_CONFIGS[name], seed=3)
        start = 0
        for k, w in enumerate(model.weights):
            rows, cols = w.shape
            bias_start, end = start + rows * cols, start + rows * (cols + 1)
            for index in (start, bias_start - 1, bias_start, end - 1):
                poisoned = MlpModel(model.config, model.params.copy())
                poisoned.params[index] = np.nan
                before = poisoned.params.tobytes()
                with pytest.raises(NumericError, match=rf"non-finite in layer {k}$"):
                    sgd_step(poisoned, grads, 0.01)
                assert poisoned.params.tobytes() == before
            start = end

    def test_first_non_finite_element_wins(self):
        model, grads = random_model_and_gradients(BLOCK_CONFIGS["three-blocks"], seed=4)
        flat = grads.params.copy()
        flat[-1] = np.inf  # output layer, last block
        first_end = layer_param_count([model.weights[0].shape])
        flat[first_end + 5] = -np.inf  # layer 1, in the block layer 0 ends in
        bad = MlpModel(model.config, flat)
        with pytest.raises(NumericError, match="layer 1$"):
            sgd_step(model, bad, 0.5)

    def test_update_is_one_pass_without_a_per_layer_loop(self, monkeypatch):
        """A depth-50 update makes one multiply per block, not per layer."""
        model = build_model(ModelConfig(input_dim=20, hidden_widths=tuple(taper_widths(50, 16, 4))))
        calls = []
        real = np.multiply
        monkeypatch.setattr(nn.np, "multiply", lambda *a, **k: calls.append(1) or real(*a, **k))
        sgd_step(model, model, 0.1)
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
            for mask, w in zip(trace.dropout_masks, model.weights):
                expected = (per_layer.random((rows, w.shape[0])) >= 0.3) / (1.0 - 0.3)
                assert mask.tobytes() == expected.tobytes()
                assert np.shares_memory(mask, workspace.masks)
        assert one_draw.random() == per_layer.random()

    def test_eval_mode_leaves_the_generator_alone(self):
        model = build_model(self.CONFIG)
        rng = stream_rng(9, 1)
        forward(model, np.ones((3, 6)), mode="eval", rng=rng, out=activation_buffers(model, 3))
        assert rng.random() == stream_rng(9, 1).random()
