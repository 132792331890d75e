"""Training protocol: stratified validation split, mini-batch SGD epoch loop,
accuracy metrics, wall-clock timing and gradient-flow diagnostics.

Wall time covers the epoch loop only; corpus loading, any up-front feature
caching and the step buffers happen off the clock. train() owns those
buffers: an activation workspace, which also holds the dropout masks, two
parameter sets, each one flat vector viewed as a model and as Gradients, and,
when features are not cached, one batch feature buffer that every batch is
featurized into. Each step writes its gradients, then the updated
parameters, into the set that is not the live model; that set becomes the
live model only if every parameter is finite, so no model, layer or
Gradients object is built per step. A run that produces a non-finite loss,
gradient or parameter thus aborts with the last finite model kept, and the
report is flagged as diverged at that epoch (overflow is reported there, not
warned).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import Dataset, _stratified_split
from .errors import ConfigError, InputError, NumericError, ShapeError
from .features import EmbeddingTable, featurize_batch
from .linalg import Matrix
from .nn import (
    MlpModel,
    ModelConfig,
    activation_buffers,
    backward,
    bce_loss,
    build_model,
    forward,
    gradient_layer_norms,
    param_buffers,
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

# Feature matrices smaller than this are precomputed once; larger corpora are
# featurized batch-by-batch inside the epoch loop.
_CACHE_LIMIT_BYTES = 1 << 30


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
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
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
    cache_features: bool | None = None,
) -> tuple[MlpModel, TrainReport]:
    """Run the full training protocol and return (final model, report).

    A validation split of config.validation_fraction is carved out of
    train_set first. Each epoch reshuffles the remaining examples with a
    seeded generator and applies one SGD step per mini-batch. When
    cache_features is None, the feature matrix is precomputed only if it
    fits comfortably in memory; both paths produce identical results.
    """
    if len(train_set) == 0:
        raise InputError("cannot train on an empty dataset")
    max_words = _derive_max_words(model, table)
    fit_set, val_set = split_train_val(train_set, config.validation_fraction, config.seed)

    n = len(fit_set)
    questions = fit_set.questions
    labels = np.array([[float(q.label)] for q in questions])
    if cache_features is None:
        cache_features = n * model.input_dim * 8 <= _CACHE_LIMIT_BYTES
    cached = featurize_batch(questions, table, max_words).array if cache_features else None

    shuffle_rng = stream_rng(config.seed, SHUFFLE)
    dropout_rng = stream_rng(config.seed, DROPOUT)

    loss_curve: list[float] = []
    grad_history: list[list[float]] | None = [] if config.record_grad_norms else None
    diverged_epoch: int | None = None
    # Each step fills sets[0], (model view, Gradients view) of one vector; the
    # sets swap roles after a finite update. The caller's model is only read.
    sets = [(model.over(g.flat), g) for g in (param_buffers(model), param_buffers(model))]
    workspace = activation_buffers(model, min(config.batch_size, n))
    batch_features = None if cached is not None else np.empty((workspace.rows, model.input_dim))

    t0 = time.perf_counter()
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        norm_sums = np.zeros(len(model.layers))
        batch_count = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if cached is not None:
                xb = Matrix._wrap(cached[idx])
            else:
                xb = featurize_batch(
                    [questions[i] for i in idx], table, max_words, out=batch_features
                )
            yb = Matrix._wrap(labels[idx])
            try:
                preds, trace = forward(model, xb, mode="train", rng=dropout_rng, out=workspace)
                loss = bce_loss(preds, yb)
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}")
                grads = backward(model, trace, yb, out=sets[0][1])
                if grad_history is not None:
                    norm_sums += gradient_layer_norms(grads)
                model = sgd_step(model, grads, config.learning_rate, out=sets[0][0])
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
    # Release every step buffer but the live model's vector before evaluating.
    sets = workspace = batch_features = xb = grads = trace = preds = None

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
    )
    return model, report


def evaluate(model: MlpModel, dataset: Dataset, table: EmbeddingTable, chunk_size: int = 512) -> float:
    """Accuracy (percent) under the 0.5 threshold; a prediction of exactly
    0.5 counts as the positive (deleted) class. Eval-mode forward: no dropout.

    The dataset is featurized and scored chunk_size questions at a time.
    One feature buffer and one activation workspace, both sized for the
    first chunk, are allocated per call and reused by every chunk, so the
    features of at most one chunk are ever alive.
    """
    if len(dataset) == 0:
        raise InputError("cannot evaluate on an empty dataset")
    max_words = _derive_max_words(model, table)
    questions = dataset.questions
    actual = dataset.labels() == 1.0
    rows = min(chunk_size, len(questions))
    features = np.empty((rows, model.input_dim))
    workspace = activation_buffers(model, rows)
    correct = 0
    for start in range(0, len(questions), chunk_size):
        x = featurize_batch(questions[start : start + chunk_size], table, max_words, out=features)
        preds, _ = forward(model, x, mode="eval", out=workspace)
        predicted = preds.array[:, 0] >= 0.5
        correct += int(np.sum(predicted == actual[start : start + chunk_size]))
    return 100.0 * correct / len(questions)


def initial_gradient_profile(
    config: ModelConfig,
    sample: Matrix,
    labels: Matrix,
    repeats: int,
) -> list[float]:
    """Mean per-layer gradient norms at initialization.

    Builds `repeats` fresh models (seeds config.seed + i), runs one
    forward/backward on the sample batch each, and averages the per-layer
    weight-gradient norms. This is the diagnostic that shows backpropagated
    signal shrinking in early layers as depth grows.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    totals = np.zeros(len(config.hidden_widths) + 1)
    for i in range(repeats):
        cfg = replace(config, seed=config.seed + i)
        model = build_model(cfg)
        rng = stream_rng(cfg.seed, PROFILE)
        _, trace = forward(model, sample, mode="train", rng=rng)
        grads = backward(model, trace, labels)
        totals += gradient_layer_norms(grads)
    return (totals / repeats).tolist()
