"""Training protocol: stratified validation split, mini-batch SGD epoch loop,
accuracy metrics, wall-clock timing and gradient-flow diagnostics.

train() profiles the initial gradients of the model it is given, then
trains that model in place. Wall time covers the epoch loop only; corpus
loading, the fit set's lookup, the step buffers and the profile happen off
the clock. The lookup maps the fit set's tokens to table rows once, a small
integer a word slot: no feature matrix is cached. train() owns the step
buffers and allocates them next: an activation workspace, which also holds
the dropout masks, one parameter set (MlpModel.like()) that takes turns
with the given vector, and one batch feature buffer. The profile runs in
them: its sample is featurized into the batch buffer, its forward pass runs
in the workspace and its gradients go into the parameter set, so it holds
no buffer the loop does not. Each batch is gathered from the looked-up
rows into the batch buffer. Each step writes its gradients, then the
updated parameters over them, into the set that is not the live model;
that set becomes the live model only if every parameter is finite, so no
parameter set is built per step. A run that produces a non-finite loss,
gradient or parameter thus aborts with the last finite model kept, and the
report is flagged as diverged at that epoch (overflow is reported there,
not warned).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, _stratified_split
from .errors import ConfigError, InputError, NumericError, ShapeError
from .features import EmbeddingTable, _gather, _lookup, featurize_batch
from .nn import (
    Activations,
    MlpModel,
    _require_finite,
    activation_buffers,
    backward,
    bce_loss,
    forward,
    gradient_layer_norms,
    sgd_step,
)
from .seeding import DROPOUT, PROFILE, SHUFFLE, SPLIT, stream_rng

__all__ = [
    "TrainConfig",
    "TrainReport",
    "split_train_val",
    "train",
    "evaluate",
    "initial_gradient_profile",
]

# evaluate() scores this many questions at a time, halving the chunk while
# one chunk's features would be larger than _EVAL_CHUNK_BYTES.
_EVAL_CHUNK_ROWS = 512
_EVAL_CHUNK_BYTES = 1 << 28


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 32
    learning_rate: float = 0.01
    validation_fraction: float = 0.10
    seed: int = 0
    record_grad_norms: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError(
                f"validation_fraction must lie in (0, 1), got {self.validation_fraction}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainReport:
    """Outcome of one training run; serializes to a flat JSON document."""

    final_train_accuracy: float
    final_validation_accuracy: float
    wall_time_seconds: float
    loss_curve: list[float]
    grad_norm_history: list[list[float]] | None = None
    diverged: bool = False
    diverged_epoch: int | None = None
    # initial_gradient_profile of the given model, run in train()'s step buffers
    # (the same norms as in fresh ones), or None if it raised NumericError.
    initial_grad_norms: list[float] | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainReport":
        return cls(**doc)


def split_train_val(dataset: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded, stratified split: |val| = round(fraction * |dataset|), and each
    side's class balance matches the whole within one example per class."""
    if len(dataset) == 0:
        raise InputError("cannot split an empty dataset")
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"fraction must lie in (0, 1), got {fraction}")
    n = len(dataset)
    n_val = int(round(fraction * n))
    if n_val >= n:
        raise ConfigError(f"fraction {fraction} leaves no training data (n={n})")
    if n_val == 0:
        raise ConfigError(f"fraction {fraction} yields an empty validation split (n={n})")
    return _stratified_split(dataset, None, n_val, stream_rng(seed, SPLIT), "val")


def _derive_max_words(model: MlpModel, table: EmbeddingTable) -> int:
    feature_dim = model.input_dim - 1
    if feature_dim <= 0 or feature_dim % table.dim != 0:
        raise ShapeError(
            f"model input width {model.input_dim} is not max_words * {table.dim} + 1"
        )
    return feature_dim // table.dim


@np.errstate(over="ignore", invalid="ignore")
def train(
    model: MlpModel,
    train_set: Dataset,
    config: TrainConfig,
    table: EmbeddingTable,
) -> tuple[MlpModel, TrainReport]:
    """Run the full training protocol on `model`, in place, and return
    (model, report); the model ends with its last finite parameters.

    A validation split of config.validation_fraction is carved out of
    train_set, and the remaining fit set's tokens are looked up once (at 0
    epochs, never). The step buffers come next, sized for batch_size rows or
    all of train_set if it is smaller. Then the initial gradients are
    profiled in those buffers, on train_set's first batch_size questions,
    into report.initial_grad_norms. Each epoch reshuffles the fit set with
    a seeded generator and applies one SGD step per mini-batch, whose
    features are gathered from the looked-up rows into the batch buffer:
    the same bytes featurize_batch makes of those questions.
    """
    if len(train_set) == 0:
        raise InputError("cannot train on an empty dataset")
    max_words = _derive_max_words(model, table)
    fit_set, val_set = split_train_val(train_set, config.validation_fraction, config.seed)
    if config.epochs:  # before the step buffers: the lookup's temporaries are freed by then
        fit_rows = _lookup(fit_set.questions, table, max_words)
        annotations = np.array([q.weak_annotation for q in fit_set.questions])
    # Each step writes its gradients, then the update over them, into sets[0];
    # the sets swap roles after a finite update. The caller's vector is one of them.
    # The initial profile runs in these buffers too; its sample is never
    # smaller than a fit batch.
    owner = model
    sets = [model.like(), owner]
    workspace = activation_buffers(model, min(config.batch_size, len(train_set)))
    batch_features = np.empty((workspace.rows, model.input_dim))
    sample = featurize_batch(train_set.questions[: config.batch_size], table, max_words,
                             out=batch_features)
    try:  # before the first step overwrites the initial parameters
        initial_norms = initial_gradient_profile(model, sample,
                                                 train_set.labels()[: config.batch_size, None],
                                                 workspace=workspace, grads=sets[0])
    except NumericError:
        initial_norms = None

    n = len(fit_set)
    labels = fit_set.labels()[:, None]

    shuffle_rng = stream_rng(config.seed, SHUFFLE)
    dropout_rng = stream_rng(config.seed, DROPOUT)

    loss_curve: list[float] = []
    grad_history: list[list[float]] | None = [] if config.record_grad_norms else None
    diverged_epoch: int | None = None

    t0 = time.perf_counter()
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        norm_sums = np.zeros(len(model.weights)) if grad_history is not None else None
        batch_count = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb = _gather(fit_rows[idx], annotations[idx], table, batch_features)
            yb = labels[idx]
            try:
                preds, trace = forward(model, xb, mode="train", rng=dropout_rng, out=workspace)
                loss = bce_loss(preds, yb)
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}")
                grads = backward(model, trace, yb, out=sets[0])
                if norm_sums is not None:
                    norm_sums += gradient_layer_norms(grads)
                model = sgd_step(model, grads, config.learning_rate, out=sets[0])
            except NumericError:
                diverged_epoch = epoch
                break
            sets.reverse()
            loss_sum += loss * len(idx)
            batch_count += 1
        if diverged_epoch is not None:
            break
        loss_curve.append(loss_sum / n)
        if grad_history is not None:
            grad_history.append((norm_sums / max(batch_count, 1)).tolist())
    wall_time = time.perf_counter() - t0
    if model is not owner:  # an odd number of finite steps: the live set is the fresh one
        np.copyto(owner.params, model.params)
        model = owner
    # Release the step buffers and looked-up rows; the evaluates need only the live model.
    sets = workspace = batch_features = sample = fit_rows = xb = grads = trace = preds = None

    def final_accuracy(dataset: Dataset) -> float:
        # A run that diverged can leave a model too saturated to evaluate;
        # report 0.0 rather than crash (the diverged flag tells the story).
        try:
            return evaluate(model, dataset, table)
        except NumericError:
            return 0.0

    report = TrainReport(
        final_train_accuracy=final_accuracy(fit_set),
        final_validation_accuracy=final_accuracy(val_set),
        wall_time_seconds=wall_time,
        loss_curve=loss_curve,
        grad_norm_history=grad_history,
        diverged=diverged_epoch is not None,
        diverged_epoch=diverged_epoch,
        initial_grad_norms=initial_norms,
    )
    return model, report


def evaluate(model: MlpModel, dataset: Dataset, table: EmbeddingTable) -> float:
    """Accuracy (percent) under the 0.5 threshold; a prediction of exactly
    0.5 counts as the positive (deleted) class. Eval-mode forward: no dropout.

    The dataset is featurized and scored a chunk of questions at a time. The
    chunk is _EVAL_CHUNK_ROWS (512) questions, halved while one chunk's
    features would take more than 256 MiB (_EVAL_CHUNK_BYTES): 256 rows at
    the paper's 72,001 inputs. Halving the power-of-two chunk keeps every
    boundary of the full-size chunks. One feature buffer and one eval
    activation workspace, both sized for the first chunk, are allocated per
    call and reused by every chunk, so the features of at most one chunk are
    ever alive. The workspace is two buffers of a chunk's rows x the widest
    layer, so scoring memory does not grow with depth.
    """
    if len(dataset) == 0:
        raise InputError("cannot evaluate on an empty dataset")
    max_words = _derive_max_words(model, table)
    questions = dataset.questions
    actual = dataset.labels() == 1.0
    chunk = _EVAL_CHUNK_ROWS
    rows = min(chunk, len(questions))
    while rows > 1 and rows * model.input_dim * 8 > _EVAL_CHUNK_BYTES:
        chunk //= 2
        rows = min(chunk, len(questions))
    features = np.empty((rows, model.input_dim))
    workspace = activation_buffers(model, rows, mode="eval")
    correct = 0
    for start in range(0, len(questions), chunk):
        x = featurize_batch(questions[start : start + chunk], table, max_words, out=features)
        preds, _ = forward(model, x, mode="eval", out=workspace)
        predicted = preds[:, 0] >= 0.5
        correct += int(np.sum(predicted == actual[start : start + chunk]))
    return 100.0 * correct / len(questions)


def initial_gradient_profile(
    model: MlpModel,
    sample: np.ndarray,
    labels: np.ndarray,
    *,
    workspace: Activations | None = None,
    grads: MlpModel | None = None,
) -> list[float]:
    """Per-layer weight-gradient norms of one model on one batch, first layer
    first, from one train-mode forward (dropout from the PROFILE stream of
    the model's seed) and backward. At initialization this is the diagnostic
    that shows backpropagated signal shrinking in early layers as depth grows.

    The forward runs in `workspace` (activation_buffers of at least the
    sample's rows) and the gradients go into `grads` (a parameter set of
    the model's layout), both owned by the caller, as train() passes its
    step buffers; each one not given is allocated fresh. The norms are the
    same to the bit either way. A non-finite gradient raises NumericError
    naming the first layer that holds one: the set is checked in blocks, as
    sgd_step checks its update, with no temporary the size of a layer. On
    return `grads` holds the squared gradients."""
    rng = stream_rng(model.config.seed, PROFILE)
    _, trace = forward(model, sample, mode="train", rng=rng, out=workspace)
    grads = backward(model, trace, labels, out=model.like() if grads is None else grads)
    _require_finite(grads, "initial_gradient_profile: non-finite gradient")
    # gradient_layer_norms to the bit, with no dW * dW copy: the dW views see the squares.
    np.multiply(grads.params, grads.params, out=grads.params)
    return [float(np.sqrt(np.sum(squared))) for squared in grads.weights]
