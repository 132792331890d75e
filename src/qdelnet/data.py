"""Dataset records, JSONL ingestion, stratified splits and the synthetic
corpus generator used for desk-scale experiments.

JSONL schema (one object per line, UTF-8):
    id               string, required, unique within a file
    text             string, required
    weak_annotation  number in [0,1], optional, default 0.0 (clamped if outside)
    label            0 (kept) or 1 (deleted), required

load_dataset caches each corpus it parses, as the features module docstring says.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .features import EmbeddingTable, _parse_once, tokenize
from .seeding import SYNTH, stream_rng

__all__ = [
    "Question",
    "Dataset",
    "load_dataset",
    "save_dataset",
    "gen_synthetic",
    "split_train_test",
]

_CHUNK_CHARS = 1 << 16  # text per cache chunk, so that a hit's temporaries stay this small
_RECORD = np.dtype([("id", "<u8"), ("text", "<u8"), ("tokens", "<u8"), ("label", "u1"),
                    ("annotation", "<f8")])


@dataclass(frozen=True, slots=True)
class Question:
    """One question: raw text, derived tokens, weak annotation and deletion label.
    Slotted: no per-instance __dict__. Without tokens, it tokenizes the text."""

    id: str
    text: str
    weak_annotation: float = 0.0
    label: int = 0
    tokens: tuple[str, ...] | None = None

    def __post_init__(self):
        if type(self.label) is bool or self.label not in (0, 1):  # as load_dataset refuses true
            raise ValidationError(f"question {self.id!r}: label must be 0 or 1, got {self.label!r}")
        if type(self.label) is not int:  # e.g. np.int64(1), which save_dataset cannot write
            object.__setattr__(self, "label", int(self.label))
        a = self.weak_annotation
        if type(a) is not float or not 0.0 <= a <= 1.0:  # a field is written only to change it
            try:
                a = float(a)
            except OverflowError:  # an integer beyond the float range
                a = math.inf
            if not math.isfinite(a):
                raise ValidationError(f"question {self.id!r}: weak_annotation must be finite")
            if a < 0.0 or a > 1.0:
                clamped = min(max(a, 0.0), 1.0)
                warnings.warn(f"question {self.id!r}: weak_annotation {a} outside [0, 1], "
                              f"clamped to {clamped}", stacklevel=2)
                a = clamped
            object.__setattr__(self, "weak_annotation", a)
        if type(self.tokens) is not tuple:
            toks = tokenize(self.text) if self.tokens is None else self.tokens
            object.__setattr__(self, "tokens", tuple(toks))


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of questions with unique ids."""

    questions: tuple[Question, ...]
    name: str = ""

    def __post_init__(self):
        if type(self.questions) is not tuple:
            object.__setattr__(self, "questions", tuple(self.questions))
        qs = self.questions
        if len(set(map(attrgetter("id"), qs))) < len(qs):  # walk them only to name the duplicate
            seen = set()
            for q in qs:
                if q.id in seen:
                    raise ValidationError(
                        f"duplicate question id {q.id!r} in dataset {self.name!r}")
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

    Each line is scanned once by json.loads' scanner; a line it cannot take
    whole goes through json.loads, so errors keep json's text.

    A regular file's corpus is cached as the features module docstring says;
    a file that clamps an annotation, and so warns, is never cached.
    """
    name = Path(path).stem
    return _parse_once(path, lambda npz: _cached_dataset(npz, name),
                       lambda fh: _parse_corpus(fh, name))


def _parse_corpus(fh, name: str):
    """load_dataset's parse of the lines of `fh`: the Dataset, and its cache members
    unless an annotation was clamped."""
    questions = []
    seen, clamped = set(), False
    scan = json.JSONDecoder().scan_once  # json.loads' settings
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            try:
                obj, end = scan(line, 0)
            except StopIteration:  # no value at the start of the line
                end = 0
            if line[end:] not in ("\n", ""):  # not one whole value: ask json.loads
                obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from None
        except RecursionError:
            raise ParseError("invalid JSON (nested too deeply)", line=lineno) from None
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
        clamped = clamped or not 0.0 <= annotation <= 1.0  # warns: never cache it
        if qid in seen:
            raise ValidationError(f"line {lineno}: duplicate question id {qid!r}")
        seen.add(qid)
        questions.append(
            Question(id=qid, text=text, weak_annotation=annotation, label=label)
        )
    del seen  # Dataset checks the ids again; do not hold two id sets at once
    dataset = Dataset(tuple(questions), name=name)
    return dataset, None if clamped else _cache_members(dataset.questions)


def _cache_members(questions: tuple[Question, ...]):
    """A corpus cache's (name, array) pairs, a chunk at a time: `s{k}` holds chunk k's ids,
    then its texts, and `t{k}` a line per question of its tokens joined by spaces, both in
    UTF-8 (surrogates passed); `r{k}` a _RECORD per question: id and text lengths in code
    points, token count, label and annotation."""
    n, ids, texts = len(questions), [q.id for q in questions], [q.text for q in questions]
    tokens = [q.tokens for q in questions]
    records = np.empty(n, _RECORD)
    for field, values in (("id", ids), ("text", texts), ("tokens", tokens)):
        records[field] = np.fromiter(map(len, values), np.int64, n)
    records["label"] = np.fromiter([q.label for q in questions], np.uint8, n)
    records["annotation"] = np.fromiter([q.weak_annotation for q in questions], np.float64, n)
    ends, start, k = np.cumsum(records["text"]), 0, 0
    while start < n:
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] + _CHUNK_CHARS, "right")))
        strings = "".join(ids[start:stop] + texts[start:stop])
        joined = "\n".join(map(" ".join, tokens[start:stop]))  # a token holds no whitespace
        for name, value in (("s", strings), ("t", joined)):
            yield f"{name}{k}", np.frombuffer(value.encode("utf-8", "surrogatepass"), np.uint8)
        yield f"r{k}", records[start:stop]
        start, k = stop, k + 1
    yield "chunks", np.int64(k)


def _cached_dataset(npz, name: str) -> Dataset | None:
    """The Dataset of a cache whose key matched, or None if it is bad; a duplicate id raises
    ValidationError. As in a parse, tokens are interned a question at a time, into tuples of
    lists (which keep no spare slots)."""
    if len(npz.files) != 3 + 3 * (chunks := npz["chunks"].tolist()):
        return None
    questions: list[Question] = []
    for k in range(chunks):
        strings, joined, records = npz[f"s{k}"], npz[f"t{k}"], npz[f"r{k}"]
        text, n = str(strings.data, "utf-8", "surrogatepass"), len(records)
        tokens = [tuple(list(map(sys.intern, line.split())))
                  for line in str(joined.data, "utf-8", "surrogatepass").split("\n")]
        bounds = list(accumulate(records["id"].tolist() + records["text"].tolist(), initial=0))
        if not (strings.dtype == joined.dtype == np.uint8 and records.dtype == _RECORD
                and records.ndim == 1 and bounds[-1] == len(text)
                and list(map(len, tokens)) == records["tokens"].tolist()
                and records["label"].max(initial=0) <= 1
                and ((records["annotation"] >= 0.0) & (records["annotation"] <= 1.0)).all()):
            return None
        questions.extend(map(Question, *([text[a:b] for a, b in pairwise(bounds[i : i + n + 1])]
                                         for i in (0, n)),
                             records["annotation"].tolist(), records["label"].tolist(), tokens))
        del strings, joined, records, text, tokens, bounds
    return Dataset(tuple(questions), name=name)


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


def _allocate_proportional(total: int, sizes: list[int]) -> list[int]:
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
    first = _allocate_proportional(held_count if held_first else train_count, sizes)
    if held_first or train_count + held_count == len(dataset):
        second = [size - f for size, f in zip(sizes, first)]
    else:
        second = _allocate_proportional(held_count, sizes)
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
