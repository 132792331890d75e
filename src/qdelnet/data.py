"""Dataset records, JSONL ingestion, stratified splits and the synthetic
corpus generator used for desk-scale experiments.

JSONL schema (one object per line, UTF-8):
    id               string, required, unique within a file
    text             string, required
    weak_annotation  number in [0,1], optional, default 0.0 (clamped if outside)
    label            0 (kept) or 1 (deleted), required
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ValidationError, not_utf8
from .features import EmbeddingTable, tokenize
from .seeding import SYNTH, stream_rng

__all__ = [
    "Question",
    "Dataset",
    "load_dataset",
    "save_dataset",
    "gen_synthetic",
    "split_train_test",
    "allocate_proportional",
]


@dataclass(frozen=True)
class Question:
    """One question: raw text, derived tokens, weak annotation and deletion label."""

    id: str
    text: str
    weak_annotation: float = 0.0
    label: int = 0
    tokens: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValidationError(f"question {self.id!r}: label must be 0 or 1, got {self.label!r}")
        a = float(self.weak_annotation)
        if not math.isfinite(a):
            raise ValidationError(f"question {self.id!r}: weak_annotation must be finite")
        if a < 0.0 or a > 1.0:
            clamped = min(max(a, 0.0), 1.0)
            warnings.warn(
                f"question {self.id!r}: weak_annotation {a} outside [0, 1], clamped to {clamped}",
                stacklevel=2,
            )
            a = clamped
        object.__setattr__(self, "weak_annotation", a)
        toks = tokenize(self.text) if self.tokens is None else self.tokens
        object.__setattr__(self, "tokens", tuple(toks))


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of questions with unique ids."""

    questions: tuple[Question, ...]
    name: str = ""

    def __post_init__(self):
        qs = tuple(self.questions)
        object.__setattr__(self, "questions", qs)
        seen = set()
        for q in qs:
            if q.id in seen:
                raise ValidationError(f"duplicate question id {q.id!r} in dataset {self.name!r}")
            seen.add(q.id)

    def __len__(self) -> int:
        return len(self.questions)

    def __iter__(self):
        return iter(self.questions)

    def labels(self) -> np.ndarray:
        return np.array([q.label for q in self.questions], dtype=np.float64)


def load_dataset(path) -> Dataset:
    """Read a JSONL corpus file into a Dataset.

    Malformed lines, and lines that are not UTF-8, raise ParseError with the
    1-based line number; schema violations (bad label, duplicate id, an
    annotation that is NaN, infinite or beyond the float range) raise
    ValidationError naming the line.
    """
    questions = []
    seen: set[str] = set()
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from None
                if not isinstance(obj, dict):
                    raise ParseError("expected a JSON object", line=lineno)
                for key in ("id", "text", "label"):
                    if key not in obj:
                        raise ParseError(f"missing required field {key!r}", line=lineno)
                qid, text, label = obj["id"], obj["text"], obj["label"]
                if not isinstance(qid, str) or not isinstance(text, str):
                    raise ParseError("fields 'id' and 'text' must be strings", line=lineno)
                if isinstance(label, bool) or label not in (0, 1):
                    raise ValidationError(f"line {lineno}: label must be 0 or 1, got {label!r}")
                annotation = obj.get("weak_annotation", 0.0)
                if isinstance(annotation, bool) or not isinstance(annotation, (int, float)):
                    raise ParseError("field 'weak_annotation' must be a number", line=lineno)
                try:
                    annotation = float(annotation)
                except OverflowError:  # an integer beyond the float range
                    annotation = math.inf
                if not math.isfinite(annotation):
                    raise ValidationError(f"line {lineno}: weak_annotation must be finite")
                if qid in seen:
                    raise ValidationError(f"line {lineno}: duplicate question id {qid!r}")
                seen.add(qid)
                questions.append(
                    Question(id=qid, text=text, weak_annotation=annotation, label=int(label))
                )
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    return Dataset(tuple(questions), name=Path(path).stem)


def save_dataset(dataset: Dataset, path) -> None:
    """Write a Dataset as JSONL; keys emitted in schema order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for q in dataset.questions:
            obj = {
                "id": q.id,
                "text": q.text,
                "weak_annotation": q.weak_annotation,
                "label": q.label,
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


# Fraction of each vocabulary half that actually carries class signal. Like a
# Zipfian corpus, a frequent core does the discriminating; the remaining tail
# words exist in the vocabulary (and the embedding table) but never surface.
# A core this size keeps the word -> class lookup statistically learnable at
# desk scale without making it trivial for the shallowest models.
_CORE_FRACTION = 0.3


def gen_synthetic(
    n: int,
    vocab_size: int,
    dim: int,
    max_words: int,
    noise: float,
    seed: int,
) -> tuple[Dataset, EmbeddingTable]:
    """Generate a balanced synthetic corpus plus a matching embedding table.

    The vocabulary is split into two disjoint halves, one per class, and each
    class's token distribution is uniform over the frequent core of its half.
    Each question draws a uniform length in [1, max_words] and picks every
    token from its own class's distribution with probability (1 - noise),
    from the other class's otherwise. The weak annotation is the label
    flipped with probability `noise`, so it correlates with the truth but is
    not trustworthy. At noise = 0 the classes are perfectly separable; at
    noise = 0.5 the corpus carries no signal at all.
    """
    if n <= 0 or n % 2 != 0:
        raise ConfigError(f"n must be a positive even integer, got {n}")
    if vocab_size < 2:
        raise ConfigError(f"vocab_size must be >= 2, got {vocab_size}")
    if dim < 1 or max_words < 1:
        raise ConfigError(f"dim and max_words must be >= 1, got dim={dim}, max_words={max_words}")
    if not 0.0 <= noise <= 1.0:
        raise ConfigError(f"noise must lie in [0, 1], got {noise}")

    rng = stream_rng(seed, SYNTH)
    words = [f"w{i}" for i in range(vocab_size)]
    vecs = rng.normal(size=(vocab_size, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    table = EmbeddingTable(dim, dict(zip(words, vecs)))

    half = vocab_size // 2
    core = max(1, round(_CORE_FRACTION * half))
    pools = {0: words[:core], 1: words[half : half + core]}

    questions = []
    for label in (0, 1):
        for j in range(n // 2):
            length = int(rng.integers(1, max_words + 1))
            toks = []
            for _ in range(length):
                pool = pools[label] if rng.random() >= noise else pools[1 - label]
                toks.append(pool[int(rng.integers(0, len(pool)))])
            flipped = rng.random() < noise
            annotation = float(1 - label if flipped else label)
            questions.append(
                Question(
                    id=f"syn-{label}-{j:05d}",
                    text=" ".join(toks),
                    weak_annotation=annotation,
                    label=label,
                    tokens=tuple(toks),
                )
            )
    order = rng.permutation(len(questions))
    shuffled = tuple(questions[i] for i in order)
    name = f"synthetic-n{n}-noise{noise}-seed{seed}"
    return Dataset(shuffled, name=name), table


def allocate_proportional(total: int, sizes: list[int]) -> list[int]:
    """Split `total` across groups proportionally to `sizes` (largest-remainder
    rounding), keeping every group within one of its exact share."""
    n = sum(sizes)
    if total < 0 or total > n:
        raise ConfigError(f"cannot allocate {total} items across groups totalling {n}")
    if n == 0:
        return [0 for _ in sizes]
    exact = [total * s / n for s in sizes]
    counts = [int(e) for e in exact]
    remainders = [e - c for e, c in zip(exact, counts)]
    short = total - sum(counts)
    for idx in sorted(range(len(sizes)), key=lambda i: (-remainders[i], i))[:short]:
        counts[idx] += 1
    return counts


def split_train_test(
    dataset: Dataset, train_count: int, test_count: int, seed: int
) -> tuple[Dataset, Dataset]:
    """Slice a corpus into disjoint train/test sets of the given sizes,
    stratified by label so both preserve the corpus class ratio."""
    if train_count < 1 or test_count < 1:
        raise ConfigError("train_count and test_count must be >= 1")
    if train_count + test_count > len(dataset):
        raise ConfigError(
            f"requested {train_count}+{test_count} questions from a dataset of {len(dataset)}"
        )
    return _stratified_split(dataset, train_count, test_count, stream_rng(seed, SYNTH), "test")


def _stratified_split(
    dataset: Dataset,
    train_count: int | None,
    held_count: int,
    rng: np.random.Generator,
    held_name: str,
) -> tuple[Dataset, Dataset]:
    """The stratified core of split_train_test and train.split_train_val.

    Each class is shuffled with `rng` and cut into a training part and a
    held-out part sized in proportion to the class, then the training set and
    the held-out set are shuffled, in that order. train_count None means all
    but the held-out part, which is then cut first. When the parts take the
    whole dataset, the part cut second is the rest of each class, so rounding
    never asks a class for more questions than it has.
    """
    by_class = {c: [q for q in dataset.questions if q.label == c] for c in (0, 1)}
    sizes = [len(by_class[0]), len(by_class[1])]
    held_first = train_count is None
    first = allocate_proportional(held_count if held_first else train_count, sizes)
    if held_first or train_count + held_count == len(dataset):
        second = [size - f for size, f in zip(sizes, first)]
    else:
        second = allocate_proportional(held_count, sizes)
    for c in (0, 1):
        if first[c] + second[c] > sizes[c]:
            raise ConfigError(
                f"class {c} has {sizes[c]} questions; cannot take "
                f"{first[c]} train + {second[c]} {held_name}"
            )
    firsts: list[Question] = []
    seconds: list[Question] = []
    for c in (0, 1):
        shuffled = [by_class[c][i] for i in rng.permutation(sizes[c])]
        firsts.extend(shuffled[: first[c]])
        seconds.extend(shuffled[first[c] : first[c] + second[c]])
    train_qs, held_qs = (seconds, firsts) if held_first else (firsts, seconds)
    train_qs = [train_qs[i] for i in rng.permutation(len(train_qs))]
    held_qs = [held_qs[i] for i in rng.permutation(len(held_qs))]
    return (
        Dataset(tuple(train_qs), name=f"{dataset.name}-train"),
        Dataset(tuple(held_qs), name=f"{dataset.name}-{held_name}"),
    )
