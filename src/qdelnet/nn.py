"""Dense feed-forward binary classifier: model family, forward pass with
inverted dropout, binary cross-entropy and exact backpropagation.

Architecture: input -> N hidden ReLU layers with non-increasing widths ->
single sigmoid output unit. Dropout applies to hidden activations only,
scaled at train time so that evaluation needs no adjustment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, ParseError, ShapeError, ValidationError
from .linalg import Matrix
from .seeding import INIT, stream_rng

__all__ = [
    "ModelConfig",
    "Layer",
    "MlpModel",
    "ForwardTrace",
    "Gradients",
    "taper_widths",
    "build_model",
    "param_buffers",
    "forward",
    "bce_loss",
    "backward",
    "sgd_step",
    "gradient_layer_norms",
    "save_model",
    "load_model",
]

BCE_EPS = 1e-12

# Predictions are kept strictly inside the open interval (0, 1).
_PRED_LO = float(np.nextafter(0.0, 1.0))
_PRED_HI = float(np.nextafter(1.0, 0.0))

_CHECKPOINT_FORMAT = "qdelnet-mlp"
_CHECKPOINT_VERSION = 1

# One writable (weights, bias) array pair per layer, first layer first.
Buffers = Sequence[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ModelConfig:
    """Shape and initialization recipe for one model.

    hidden_widths must be non-increasing; an empty list degenerates to
    logistic regression (input -> sigmoid), used only for testing.
    """

    input_dim: int
    hidden_widths: tuple[int, ...] = ()
    dropout_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        widths = tuple(int(w) for w in self.hidden_widths)
        object.__setattr__(self, "hidden_widths", widths)
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be positive, got {self.input_dim}")
        for w in widths:
            if w < 1:
                raise ConfigError(f"hidden widths must be positive, got {widths}")
        for a, b in zip(widths, widths[1:]):
            if b > a:
                raise ConfigError(f"hidden widths must be non-increasing, got {widths}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Layer:
    weights: Matrix  # out x in
    bias: Matrix  # 1 x out
    activation: str  # "relu" or "sigmoid"


@dataclass(frozen=True)
class MlpModel:
    """Read-only stack of dense layers; sgd_step returns a new value. Its
    arrays may view buffers that their owner rewrites, as train() does."""

    config: ModelConfig
    layers: tuple[Layer, ...]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.cols

    @property
    def hidden_count(self) -> int:
        return len(self.layers) - 1


@dataclass
class ForwardTrace:
    """Per-layer cache from one forward pass, consumed by backward().

    post_activations holds what the next layer actually consumed, i.e.
    activations after dropout masking in train mode. Masks contain only
    0 and 1/(1 - dropout_rate); None means no mask was applied.
    """

    inputs: np.ndarray
    pre_activations: list[np.ndarray]
    post_activations: list[np.ndarray]
    dropout_masks: list[np.ndarray | None]
    mode: str


@dataclass(frozen=True)
class Gradients:
    """Loss gradients, one (dW, db) pair per layer, first layer first."""

    d_weights: tuple[Matrix, ...]
    d_biases: tuple[Matrix, ...]


def taper_widths(depth: int, width_max: int = 256, width_min: int = 16) -> list[int]:
    """Non-increasing hidden width schedule for a requested depth: a geometric
    taper from width_max down to width_min, rounded to integers."""
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    if width_min < 1 or width_max < width_min:
        raise ConfigError(f"need width_max >= width_min >= 1, got {width_max}, {width_min}")
    if depth == 0:
        return []
    if depth == 1:
        return [width_max]
    raw = np.geomspace(width_max, width_min, depth)
    widths = [max(1, int(round(v))) for v in raw]
    for i in range(1, depth):
        widths[i] = min(widths[i], widths[i - 1])
    return widths


def build_model(config: ModelConfig) -> MlpModel:
    """Initialize a model from its config; equal configs give identical models.

    Every layer draws weights from N(0, 1/fan_in); biases start at zero.
    He scaling (2/fan_in) is deliberately not used: it preserves gradient
    magnitude through arbitrarily deep ReLU stacks, which would suppress the
    depth-driven gradient decay this model family is built to study.
    """
    rng = stream_rng(config.seed, INIT)
    dims = [config.input_dim, *config.hidden_widths, 1]
    layers = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        is_output = k == len(dims) - 2
        std = math.sqrt(1.0 / fan_in)
        w = rng.normal(0.0, std, size=(fan_out, fan_in))
        b = np.zeros((1, fan_out))
        layers.append(Layer(Matrix._wrap(w), Matrix._wrap(b), "sigmoid" if is_output else "relu"))
    return MlpModel(config=config, layers=tuple(layers))


def param_buffers(model: MlpModel) -> Buffers:
    """Uninitialized buffers shaped like the model's parameters, for the
    `out` of backward and sgd_step."""
    return [(np.empty(layer.weights.shape), np.empty(layer.bias.shape)) for layer in model.layers]


def _sigmoid_array(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function; never overflows for finite z."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def forward(
    model: MlpModel,
    batch: Matrix,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[Matrix, ForwardTrace]:
    """Run a batch through the model.

    In train mode, inverted-dropout masks drawn from `rng` are applied to
    every hidden activation and recorded in the trace; in eval mode there is
    no masking and no rescaling. Predictions are strictly inside (0, 1).
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    if batch.cols != model.input_dim:
        raise ShapeError(
            f"forward: batch is {batch.rows}x{batch.cols} but the model expects "
            f"{model.input_dim} input columns"
        )
    rate = model.config.dropout_rate
    use_dropout = mode == "train" and rate > 0.0
    if use_dropout and rng is None:
        raise ConfigError("train-mode forward with dropout_rate > 0 requires an rng")

    a = batch.array
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    last = len(model.layers) - 1
    for k, layer in enumerate(model.layers):
        z = a @ layer.weights.array.T + layer.bias.array
        pre.append(z)
        if k < last:
            h = np.maximum(z, 0.0)
            if use_dropout:
                mask = (rng.random(z.shape) >= rate) / (1.0 - rate)
                h = h * mask
                masks.append(mask)
            else:
                masks.append(None)
        else:
            h = np.clip(_sigmoid_array(z), _PRED_LO, _PRED_HI)
        post.append(h)
        a = h
    if not np.isfinite(a).all():
        raise NumericError("forward: predictions are non-finite (model state has diverged)")
    trace = ForwardTrace(
        inputs=batch.array,
        pre_activations=pre,
        post_activations=post,
        dropout_masks=masks,
        mode=mode,
    )
    return Matrix._wrap(a.copy()), trace


def bce_loss(predictions: Matrix, labels: Matrix) -> float:
    """Mean binary cross-entropy -[y ln p + (1-y) ln(1-p)] over the batch,
    with p clamped to [BCE_EPS, 1 - BCE_EPS]."""
    if predictions.shape != labels.shape:
        raise ShapeError(
            f"bce_loss: predictions {predictions.rows}x{predictions.cols} vs "
            f"labels {labels.rows}x{labels.cols}"
        )
    p = np.clip(predictions.array, BCE_EPS, 1.0 - BCE_EPS)
    y = labels.array
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))


def backward(
    model: MlpModel, trace: ForwardTrace, labels: Matrix, out: Buffers | None = None
) -> Gradients:
    """Exact gradients of bce_loss w.r.t. every weight and bias, honoring the
    dropout masks recorded in the trace.

    Without `out` the gradients go into fresh arrays, and a non-finite one
    raises NumericError naming its layer. With `out`, buffers owned by the
    caller, they are written there unchecked: sgd_step checks the parameters
    it computes from them, which covers them.
    """
    depth = len(model.layers)
    if (
        len(trace.pre_activations) != depth
        or len(trace.post_activations) != depth
        or len(trace.dropout_masks) != depth - 1
    ):
        raise ShapeError("backward: trace does not match the model's layer structure")
    preds = trace.post_activations[-1]
    if labels.shape != preds.shape:
        raise ShapeError(
            f"backward: labels {labels.rows}x{labels.cols} vs predictions "
            f"{preds.shape[0]}x{preds.shape[1]}"
        )
    if trace.inputs.shape[1] != model.input_dim:
        raise ShapeError("backward: trace inputs do not match the model input width")
    checked = out is None
    if out is None:
        out = param_buffers(model)

    b = trace.inputs.shape[0]
    # d(mean BCE)/dz at the sigmoid output.
    delta = (preds - labels.array) / b
    for k in range(depth - 1, -1, -1):
        a_prev = trace.post_activations[k - 1] if k > 0 else trace.inputs
        dw, db = out[k]
        np.matmul(delta.T, a_prev, out=dw)
        np.sum(delta, axis=0, keepdims=True, out=db)
        if checked and not (np.isfinite(dw).all() and np.isfinite(db).all()):
            raise NumericError(f"backward: non-finite gradient in layer {k}")
        if k > 0:
            grad_h = delta @ model.layers[k].weights.array
            mask = trace.dropout_masks[k - 1]
            if mask is not None:
                grad_h = grad_h * mask
            delta = grad_h * (trace.pre_activations[k - 1] > 0.0)
    return Gradients(
        tuple(Matrix._wrap(dw.view()) for dw, _ in out),
        tuple(Matrix._wrap(db.view()) for _, db in out),
    )


def sgd_step(
    model: MlpModel, grads: Gradients, learning_rate: float, out: Buffers | None = None
) -> MlpModel:
    """One plain gradient-descent update: theta <- theta - lr * dtheta.

    Returns a new model over fresh arrays or, with `out`, over the caller's
    buffers, which may be the ones the gradients view; `model` is never
    modified. Raises NumericError if any updated parameter is non-finite (as
    lr >= 0, a non-finite gradient always gives one); `out` is then garbage.
    """
    if learning_rate < 0.0:
        raise ConfigError(f"learning_rate must be >= 0, got {learning_rate}")
    if out is None:
        out = param_buffers(model)
    if not len(grads.d_weights) == len(grads.d_biases) == len(out) == len(model.layers):
        raise ShapeError("sgd_step: gradient or out layer count does not match the model")
    for k, (layer, dw, db, (w, b)) in enumerate(
        zip(model.layers, grads.d_weights, grads.d_biases, out)
    ):
        if dw.shape != layer.weights.shape or db.shape != layer.bias.shape:
            raise ShapeError(f"sgd_step: gradient shapes do not match layer {k}")
        np.multiply(dw.array, learning_rate, out=w)
        np.subtract(layer.weights.array, w, out=w)
        np.multiply(db.array, learning_rate, out=b)
        np.subtract(layer.bias.array, b, out=b)
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise NumericError(f"sgd_step: parameter update is non-finite in layer {k}")
    return MlpModel(
        config=model.config,
        layers=tuple(
            Layer(Matrix._wrap(w.view()), Matrix._wrap(b.view()), layer.activation)
            for layer, (w, b) in zip(model.layers, out)
        ),
    )


def gradient_layer_norms(grads: Gradients) -> list[float]:
    """L2 norm of each layer's weight gradient, first layer first."""
    return [float(np.sqrt(np.sum(dw.array * dw.array))) for dw in grads.d_weights]


def save_model(model: MlpModel, path) -> None:
    """Write a checkpoint (versioned JSON). Floats round-trip exactly, so
    save -> load -> save is byte-identical."""
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "config": {
            "input_dim": model.config.input_dim,
            "hidden_widths": list(model.config.hidden_widths),
            "dropout_rate": model.config.dropout_rate,
            "seed": model.config.seed,
        },
        "layers": [
            {
                "activation": layer.activation,
                "rows": layer.weights.rows,
                "cols": layer.weights.cols,
                "weights": layer.weights.data.tolist(),
                "bias": layer.bias.data.tolist(),
            }
            for layer in model.layers
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def load_model(path) -> MlpModel:
    """Read a checkpoint written by save_model.

    Raises ParseError if the file is not a checkpoint or lacks a field, and
    ValidationError if its layers contradict its config: layer count, weight
    shapes or activations (relu on hidden layers, sigmoid on the output).
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid checkpoint JSON: {exc.msg}") from None
    fmt = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
    if fmt != _CHECKPOINT_FORMAT:
        raise ParseError(f"not a model checkpoint (format {fmt!r})")
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {doc.get('version')!r}")
    try:
        cfg = doc["config"]
        config = ModelConfig(
            cfg["input_dim"], tuple(cfg["hidden_widths"]), cfg["dropout_rate"], cfg["seed"]
        )
        dims = [config.input_dim, *config.hidden_widths, 1]
        activations = ["relu"] * (len(dims) - 2) + ["sigmoid"]
        implied = list(zip(activations, dims[1:], dims[:-1]))
        found = [(e["activation"], e["rows"], e["cols"]) for e in doc["layers"]]
        for k, (got, want) in enumerate(zip_longest(found, implied)):
            if got != want:
                raise ValidationError(f"layer {k}: (activation, rows, cols) {got}, config {want}")
        layers = [
            Layer(Matrix.from_flat(r, c, e["weights"]), Matrix.from_flat(1, r, e["bias"]), act)
            for (act, r, c), e in zip(found, doc["layers"])
        ]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed checkpoint: {type(exc).__name__}: {exc}") from None
    return MlpModel(config=config, layers=tuple(layers))
