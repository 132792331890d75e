"""Dense feed-forward binary classifier: model family, forward pass with
inverted dropout, binary cross-entropy and exact backpropagation.

Architecture: input -> N hidden ReLU layers with non-increasing widths ->
single sigmoid output unit. Dropout applies to hidden activations only,
scaled at train time so that evaluation needs no adjustment.

A parameter set is an MlpModel: one contiguous float64 vector holding each
layer's weights (row-major), then its bias, first layer first, with layer
shapes taken from the config. Gradients are a parameter set of the model's
layout, as a JAX gradient is a pytree shaped like the parameters, so an
update is one pass over three vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .errors import (
    ConfigError,
    NumericError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .features import _parse_once
from .seeding import INIT, stream_rng

__all__ = [
    "ModelConfig",
    "MlpModel",
    "ForwardTrace",
    "Activations",
    "taper_widths",
    "build_model",
    "activation_buffers",
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

# Elements per block of sgd_step's single pass: 32k float64 (256 KiB) of each
# of its three vectors, so that a block is still in cache when it is scaled,
# subtracted and checked.
_UPDATE_BLOCK = 1 << 15

# Weight shape (out, in) of every layer, first layer first.
Shapes = tuple[tuple[int, int], ...]


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


def _layer_shapes(config: ModelConfig) -> Shapes:
    """Weight shape (out, in) of every layer of a config's models."""
    dims = (config.input_dim, *config.hidden_widths, 1)
    return tuple(zip(dims[1:], dims[:-1]))


def _layer_views(flat: np.ndarray, shapes: Shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, bias) views of a float64 parameter vector laid out for
    `shapes`, one pair per layer, first layer first."""
    dtype = getattr(flat, "dtype", type(flat).__name__)
    if dtype != np.float64 or flat.shape != (sum(rows * (cols + 1) for rows, cols in shapes),):
        raise ShapeError(f"{dtype} parameter vector {np.shape(flat)} does not fit layers {shapes}")
    views, start = [], 0
    for rows, cols in shapes:
        mid = start + rows * cols
        views.append((flat[start:mid].reshape(rows, cols), flat[mid : mid + rows].reshape(1, rows)))
        start = mid + rows
    return views


def _layer_of(index: int, shapes: Shapes) -> int:
    """The layer whose weights or bias hold element `index` of a parameter
    vector laid out for `shapes`."""
    ends = np.cumsum([rows * (cols + 1) for rows, cols in shapes])
    return int(np.searchsorted(ends, index, side="right"))


@dataclass(frozen=True, eq=False)
class MlpModel:
    """A parameter set: the weights and biases of one model, or their
    gradients, in `params`, one float64 vector laid out for `config`.

    Layer k maps [input_dim, *hidden_widths, 1][k] inputs to the next
    width; hidden layers are ReLU and the last is the sigmoid, by position.
    `weights[k]` (out x in) and `biases[k]` (1 x out) are read-only views of
    `params`, whose owner may still rewrite it (train() rewrites the model it
    is given) and the views see that. Anything but a float64 vector of this
    size raises ShapeError.
    Parameters come from build_model, from_arrays, like, sgd_step and backward.
    """

    config: ModelConfig
    params: np.ndarray = field(repr=False)
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _shapes: Shapes = field(init=False, repr=False)
    # Writable (weights, bias) views of `params`, which build_model and
    # backward(..., out=) fill.
    _arrays: list = field(init=False, repr=False)

    def __post_init__(self):
        shapes = _layer_shapes(self.config)
        arrays = _layer_views(self.params, shapes)
        frozen = self.params.view()
        frozen.flags.writeable = False
        weights, biases = zip(*_layer_views(frozen, shapes))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "_shapes", shapes)
        object.__setattr__(self, "_arrays", arrays)

    @classmethod
    def from_arrays(cls, config: ModelConfig, weights, biases) -> "MlpModel":
        """A model holding per-layer weight and bias arrays, packed into a
        fresh vector. Raises ShapeError unless every array has the shape
        the config implies, and NumericError naming the layer of the first
        non-finite value."""
        shapes = _layer_shapes(config)
        arrays = [a for pair in zip_longest(weights, biases) for a in pair]
        given = [np.shape(a) for a in arrays]
        expected = [shape for rows, cols in shapes for shape in ((rows, cols), (1, rows))]
        if given != expected:
            raise ShapeError(f"arrays of shapes {given} do not fit config shapes {expected}")
        params = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(params))
        if bad.size:
            layer = _layer_of(bad[0], shapes)
            raise NumericError(f"layer {layer}: non-finite parameter {params[bad[0]]}")
        return cls(config, params)

    def like(self) -> "MlpModel":
        """A fresh, uninitialized parameter set of this model's layout."""
        return MlpModel(self.config, np.empty_like(self.params))

    @property
    def input_dim(self) -> int:
        return self.config.input_dim

    @property
    def hidden_count(self) -> int:
        return len(self.config.hidden_widths)


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


class Activations(list):
    """Workspace for forward(..., out=): one writable (pre-activation,
    post-activation) array pair per layer with room for `rows` rows, and
    `masks`, one vector with room for every dropout mask of a batch of
    that many rows, or None in an eval workspace, whose pairs are one array
    each. Made by activation_buffers for one model layout."""

    __slots__ = ("rows", "masks", "_shapes")


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
    shapes = _layer_shapes(config)
    model = MlpModel(config, np.zeros(sum(rows * (cols + 1) for rows, cols in shapes)))
    for w, _ in model._arrays:
        # The numbers rng.normal(0, std, w.shape) draws, drawn in place.
        rng.standard_normal(out=w)
        w *= math.sqrt(1.0 / w.shape[1])
    return model


def activation_buffers(model: MlpModel, rows: int, mode: str = "train") -> Activations:
    """An uninitialized activation workspace for batches of up to `rows`
    rows, for the `out` of forward in `mode`.

    A train workspace keeps every layer's pre- and post-activations, which
    backward reads, and room for the dropout masks. An eval workspace is two
    flat buffers of rows x the widest layer, and `masks` is None: layer k
    writes its pre-activation into buffer k % 2 and its activation over it,
    so its size does not grow with depth.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    widths = [rows for rows, _ in model._shapes]
    if mode == "eval":
        flats = [np.empty(rows * max(widths)) for _ in range(2)]
        views = [flats[k % 2][: rows * w].reshape(rows, w) for k, w in enumerate(widths)]
        out = Activations((v, v) for v in views)
        out.masks = None
    else:
        out = Activations((np.empty((rows, w)), np.empty((rows, w))) for w in widths)
        out.masks = np.empty(rows * sum(widths[:-1]))
    out.rows = rows
    out._shapes = model._shapes
    return out


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
    batch: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    out: Activations | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Run a batch, a 2-D float64 array of rows x model.input_dim, through
    the model and return (predictions, trace): the predictions are a
    read-only rows x 1 float64 array.

    In train mode, inverted-dropout masks drawn from `rng` are applied to
    every hidden activation and recorded in the trace; in eval mode there is
    no masking and no rescaling. Predictions are strictly inside (0, 1).

    Without `out` every activation goes into a fresh workspace. With `out`,
    a workspace owned by the caller (activation_buffers) with room for at
    least as many rows as the batch, each layer's activations are written
    into the leading rows of its buffers, and the trace's arrays view them
    until the next call that writes them. In train mode every mask of the
    batch comes from one draw into out.masks, layer after layer, the same
    numbers in the same order as one draw per layer. An eval workspace
    (activation_buffers(..., mode="eval")) overwrites each layer's
    activations two layers on, so the trace it gives has empty activation
    lists, which backward rejects, and a train-mode call with one raises
    ConfigError. The predictions are always a fresh copy.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    if batch.ndim != 2:
        raise ShapeError(f"forward: expected a 2-D batch, got {batch.ndim}-D")
    rows, cols = batch.shape
    if cols != model.input_dim:
        raise ShapeError(
            f"forward: batch is {rows}x{cols} but the model expects "
            f"{model.input_dim} input columns"
        )
    rate = model.config.dropout_rate
    use_dropout = mode == "train" and rate > 0.0
    if use_dropout and rng is None:
        raise ConfigError("train-mode forward with dropout_rate > 0 requires an rng")
    if out is None:
        out = activation_buffers(model, rows)
    elif not isinstance(out, Activations) or out.rows < rows or out._shapes != model._shapes:
        raise ShapeError(f"forward: out does not hold {rows} rows of every layer's activations")
    elif mode == "train" and out.masks is None:
        raise ConfigError("train-mode forward needs a train workspace, got an eval workspace")
    if use_dropout:
        draws = out.masks[: rows * (out.masks.size // out.rows)]
        rng.random(out=draws)
        np.greater_equal(draws, rate, out=draws)
        np.divide(draws, 1.0 - rate, out=draws)
        start = 0

    a = batch
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = []
    masks: list[np.ndarray | None] = []
    last = model.hidden_count
    for k, (w, b, (z_buf, h_buf)) in enumerate(zip(model.weights, model.biases, out)):
        z, h = z_buf[:rows], h_buf[:rows]
        np.matmul(a, w.T, out=z)
        np.add(z, b, out=z)
        pre.append(z)
        if k < last:
            np.maximum(z, 0.0, out=h)
            if use_dropout:
                mask = draws[start : start + z.size].reshape(z.shape)
                start += z.size
                np.multiply(h, mask, out=h)
                masks.append(mask)
            else:
                masks.append(None)
        else:
            np.clip(_sigmoid_array(z), _PRED_LO, _PRED_HI, out=h)
        post.append(h)
        a = h
    if not np.isfinite(a).all():
        raise NumericError("forward: predictions are non-finite (model state has diverged)")
    if out.masks is None:  # later layers overwrote what these arrays view
        pre, post = [], []
    trace = ForwardTrace(
        inputs=batch,
        pre_activations=pre,
        post_activations=post,
        dropout_masks=masks,
    )
    predictions = a.copy()
    predictions.flags.writeable = False
    return predictions, trace


def bce_loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy -[y ln p + (1-y) ln(1-p)] over the batch,
    with p clamped to [BCE_EPS, 1 - BCE_EPS]; both arrays are rows x 1."""
    if predictions.shape != labels.shape:
        raise ShapeError(f"bce_loss: predictions {predictions.shape} vs labels {labels.shape}")
    p, y = np.clip(predictions, BCE_EPS, 1.0 - BCE_EPS), labels
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))


def backward(
    model: MlpModel, trace: ForwardTrace, labels: np.ndarray, out: MlpModel | None = None
) -> MlpModel:
    """Exact gradients of bce_loss w.r.t. every weight and bias, honoring the
    dropout masks recorded in the trace, as a parameter set of the model's
    layout: its `weights` and `biases` hold dW and db.

    Without `out` the gradients go into a fresh set (model.like()), and a
    non-finite one raises NumericError naming its layer; each layer is
    checked as it is written, in blocks, as sgd_step checks its update. With
    `out`, a set of the model's layout owned by the caller, they are written
    there unchecked and `out` is returned: sgd_step checks the parameters it
    computes from them, which covers them.
    """
    depth = len(model.weights)
    if (
        len(trace.pre_activations) != depth
        or len(trace.post_activations) != depth
        or len(trace.dropout_masks) != depth - 1
    ):
        raise ShapeError("backward: trace does not match the model's layer structure")
    preds = trace.post_activations[-1]
    if labels.shape != preds.shape:
        raise ShapeError(f"backward: labels {labels.shape} vs predictions {preds.shape}")
    if trace.inputs.shape[1] != model.input_dim:
        raise ShapeError("backward: trace inputs do not match the model input width")
    checked = out is None
    if out is None:
        out = model.like()
    elif out._shapes != model._shapes:
        raise ShapeError("backward: out does not have the model's layer shapes")

    # d(mean BCE)/dz at the sigmoid output.
    delta = np.subtract(preds, labels)
    np.divide(delta, trace.inputs.shape[0], out=delta)
    stop = out.params.size  # layer k's weights and bias are out.params[start:stop]
    for k in range(depth - 1, -1, -1):
        a_prev = trace.post_activations[k - 1] if k > 0 else trace.inputs
        dw, db = out._arrays[k]
        np.matmul(delta.T, a_prev, out=dw)
        np.add.reduce(delta, axis=0, keepdims=True, out=db)
        start = stop - dw.size - db.size
        if checked:
            _require_finite(out, "backward: non-finite gradient", start, stop)
        stop = start
        if k > 0:
            grad_h = np.matmul(delta, model.weights[k])
            mask = trace.dropout_masks[k - 1]
            if mask is not None:
                np.multiply(grad_h, mask, out=grad_h)
            np.multiply(grad_h, trace.pre_activations[k - 1] > 0.0, out=grad_h)
            delta = grad_h
    return out


def sgd_step(
    model: MlpModel, grads: MlpModel, learning_rate: float, out: MlpModel | None = None
) -> MlpModel:
    """One plain gradient-descent update: theta <- theta - lr * dtheta.

    Returns a new model over a fresh vector or, with `out`, writes the
    update into out.params and returns `out`; `out` may be `grads` itself,
    as in train(). `model` is never modified. The update is one pass over
    the three vectors in blocks of _UPDATE_BLOCK elements: each block is
    scaled, subtracted and checked while it is in cache. A non-finite
    updated parameter (as lr >= 0, a non-finite gradient always gives one)
    raises NumericError naming the layer of the first one; the vector of
    `out` is then garbage.
    """
    if learning_rate < 0.0:
        raise ConfigError(f"learning_rate must be >= 0, got {learning_rate}")
    if out is None:
        out = model.like()
    if not grads._shapes == out._shapes == model._shapes:
        raise ShapeError("sgd_step: gradient or out layer shapes do not match the model")
    theta, step, updated = model.params, grads.params, out.params
    for start in range(0, theta.size, _UPDATE_BLOCK):
        stop = start + _UPDATE_BLOCK
        block = updated[start:stop]
        np.multiply(step[start:stop], learning_rate, out=block)
        np.subtract(theta[start:stop], block, out=block)
        _require_finite(out, "sgd_step: parameter update is non-finite", start, stop)
    return out


def _require_finite(params: MlpModel, what: str, start: int = 0, stop: int | None = None) -> None:
    """Raise NumericError, "{what} in layer K", naming the layer of the
    first non-finite element of params.params[start:stop] (the whole vector
    by default). The slice is tested _UPDATE_BLOCK elements at a time, so
    no temporary is larger than a block whatever the width of a layer."""
    flat = params.params[start:stop]
    for offset in range(0, flat.size, _UPDATE_BLOCK):
        finite = np.isfinite(flat[offset : offset + _UPDATE_BLOCK])
        if not finite.all():
            layer = _layer_of(start + offset + int(np.argmin(finite)), params._shapes)
            raise NumericError(f"{what} in layer {layer}")


def gradient_layer_norms(grads: MlpModel) -> list[float]:
    """L2 norm of each layer's weight gradient, first layer first."""
    return [float(np.sqrt(np.sum(dw * dw))) for dw in grads.weights]


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
                "activation": "relu" if k < model.hidden_count else "sigmoid",
                "rows": w.shape[0],
                "cols": w.shape[1],
                "weights": w.ravel().tolist(),
                "bias": b.ravel().tolist(),
            }
            for k, (w, b) in enumerate(zip(model.weights, model.biases))
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def _json_int(value, where: str) -> int:
    """A checkpoint integer. Types are compared exactly: JSON true and false
    load as bool, a subclass of int, and a bool is never a number."""
    if type(value) is not int:
        raise ParseError(
            f"malformed checkpoint: {where} must be an integer, got {type(value).__name__}"
        )
    return value


def _json_matrix(values, rows: int, cols: int, where: str) -> np.ndarray:
    """The rows x cols float64 array of a checkpoint's flat list of numbers;
    a bool is never a number, as in _json_int."""
    if type(values) is not list or not {*map(type, values)} <= {int, float}:
        raise ParseError(f"malformed checkpoint: {where} must be a list of numbers")
    try:
        data = np.fromiter(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        raise ParseError(
            f"malformed checkpoint: {where} holds a number beyond the float range"
        ) from None
    if data.size != rows * cols:
        raise ShapeError(f"{where}: expected {rows * cols} values, got {data.size}")
    return data.reshape(rows, cols)


def load_model(path) -> MlpModel:
    """Read a checkpoint written by save_model.

    Raises ParseError if the file is not UTF-8 (naming the first bad line),
    is not a checkpoint, lacks a field or holds a value of the wrong type
    (naming the layer and field; a bool is never a number), and
    ValidationError if its config breaks a ModelConfig constraint or its
    layers contradict its config: layer count, weight shapes or activations
    (relu on hidden layers, sigmoid on the output).

    load_model is the third loader behind features._parse_once: a regular
    file's model is cached beside it as the features module docstring says,
    as its parameter vector, its config's integers and its dropout rate.
    """
    return _parse_once(path, _cached_model, _parse_checkpoint)


def _parse_checkpoint(fh):
    """load_model's parse of the text of `fh`: the model and its cache members, or None
    for a config they cannot hold exactly (an integer dropout rate, or an integer beyond
    int64)."""
    try:
        doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid checkpoint JSON: {exc.msg}") from None
    except RecursionError:
        raise ParseError("invalid checkpoint JSON: nested too deeply") from None
    fmt = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
    if fmt != _CHECKPOINT_FORMAT:
        raise ParseError(f"not a model checkpoint (format {fmt!r})")
    version = doc.get("version")
    if type(version) is not int or version != _CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version!r}")
    try:
        cfg = doc["config"]
        widths = cfg["hidden_widths"]
        if type(widths) is not list:
            raise ParseError("malformed checkpoint: config: hidden_widths must be a list")
        rate = cfg["dropout_rate"]
        if type(rate) not in (int, float):
            raise ParseError("malformed checkpoint: config: dropout_rate must be a number")
        config = ModelConfig(
            _json_int(cfg["input_dim"], "config: input_dim"),
            tuple(_json_int(w, f"config: hidden_widths[{i}]") for i, w in enumerate(widths)),
            rate,
            _json_int(cfg["seed"], "config: seed"),
        )
        shapes = _layer_shapes(config)
        activations = ["relu"] * (len(shapes) - 1) + ["sigmoid"]
        implied = [(act, *shape) for act, shape in zip(activations, shapes)]
        found = [
            (
                e["activation"],
                _json_int(e["rows"], f"layer {k}: rows"),
                _json_int(e["cols"], f"layer {k}: cols"),
            )
            for k, e in enumerate(doc["layers"])
        ]
        for k, (got, want) in enumerate(zip_longest(found, implied)):
            if got != want:
                raise ValidationError(f"layer {k}: (activation, rows, cols) {got}, config {want}")
        weights, biases = [], []
        for k, ((rows, cols), e) in enumerate(zip(shapes, doc["layers"])):
            weights.append(_json_matrix(e["weights"], rows, cols, f"layer {k}: weights"))
            biases.append(_json_matrix(e["bias"], 1, rows, f"layer {k}: bias"))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed checkpoint: {type(exc).__name__}: {exc}") from None
    except ConfigError as exc:
        raise ValidationError(f"checkpoint config: {exc}") from None
    model = MlpModel.from_arrays(config, weights, biases)
    if type(rate) is not float:  # a JSON 0 would come back from the cache as 0.0
        return model, None
    try:
        ints = np.array([config.input_dim, config.seed, *config.hidden_widths], np.int64)
    except OverflowError:
        return model, None
    return model, [("params", model.params), ("config", ints), ("dropout", np.float64(rate))]


def _cached_model(npz) -> MlpModel | None:
    """The model of a cache whose key matched, or None if it fails its check: an int64
    config that ModelConfig takes, a float64 dropout rate and a finite float64 vector of
    the config's size, tested _UPDATE_BLOCK elements at a time."""
    params, ints, rate = npz["params"], npz["config"], npz["dropout"]
    if not (ints.dtype == np.int64 and ints.ndim == 1 and ints.size >= 2
            and rate.dtype == np.float64 and rate.ndim == 0):
        return None
    input_dim, seed, *widths = ints.tolist()
    try:
        config = ModelConfig(input_dim, tuple(widths), rate.item(), seed)
    except ConfigError:
        return None
    size = sum(rows * (cols + 1) for rows, cols in _layer_shapes(config))
    if not (params.dtype == np.float64 and params.shape == (size,)
            and all(np.isfinite(params[i : i + _UPDATE_BLOCK]).all()
                    for i in range(0, size, _UPDATE_BLOCK))):
        return None
    return MlpModel(config, params)
