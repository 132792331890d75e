"""Text featurization: tokenizer, embedding lookup table and the fixed-width
concatenation featurizer.

A question with tokens w1..wn becomes the concatenation of the per-word
embedding vectors in order, zero-padded out to `max_words` slots, with the
question's weak annotation appended as the final element. The table holds
every vector as a row of one matrix; row 0 is the zero vector, shared by
words missing from the table and by padding, so the two are
indistinguishable. featurize_batch builds the features by copying rows of
that matrix, into a fresh matrix or into a buffer its caller reuses.
"""

from __future__ import annotations

import string
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ParseError, ShapeError, not_utf8
from .linalg import Matrix

if TYPE_CHECKING:  # pragma: no cover
    from .data import Question

__all__ = [
    "EmbeddingTable",
    "tokenize",
    "load_embeddings",
    "save_embeddings",
    "featurize_batch",
]

_PUNCT = string.punctuation


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation at token boundaries.

    Tokens that are nothing but punctuation are dropped; interior punctuation
    (e.g. the apostrophe in "don't") survives.
    """
    out = []
    for raw in text.lower().split():
        word = raw.strip(_PUNCT)
        if word:
            out.append(word)
    return out


class EmbeddingTable:
    """Word -> fixed-dimension vector map, stored as one read-only
    (len + 1) x dim matrix and a word -> row dict. Row 0 is the zero vector,
    shared by unknown words and padding, so lookups never fail."""

    def __init__(self, dim: int, entries: Mapping[str, Sequence[float]]):
        if dim < 1:
            raise ConfigError(f"embedding dimension must be positive, got {dim}")
        self._dim = dim
        matrix = np.zeros((len(entries) + 1, dim))
        rows: dict[str, int] = {}
        for row, (word, vec) in enumerate(entries.items(), start=1):
            v = np.asarray(vec, dtype=np.float64)
            if v.shape != (dim,):
                raise ConfigError(
                    f"embedding for {word!r} has length {v.size}, expected {dim}"
                )
            matrix[row] = v
            rows[word] = row
        matrix.flags.writeable = False
        self._matrix = matrix
        self._rows = rows

    @property
    def dim(self) -> int:
        return self._dim

    def vector(self, word: str) -> np.ndarray:
        """Embedding for `word`, a view of its matrix row; the zero vector
        when the word is unknown."""
        return self._matrix[self._rows.get(word, 0)]

    def __contains__(self, word: str) -> bool:
        return word in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def words(self) -> Iterable[str]:
        return self._rows.keys()


def load_embeddings(path, expected_dim: int) -> EmbeddingTable:
    """Read a word2vec-style text file: one `word v1 .. v_dim` entry per line.

    An optional first line holding exactly two integer fields (`count dim`)
    is recognized as a header and skipped. Duplicate words keep their first
    occurrence. Malformed lines, and lines that are not UTF-8, raise
    ParseError with the line number.
    """
    entries: dict[str, np.ndarray] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if lineno == 1 and len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
                    continue
                word, comps = parts[0], parts[1:]
                if len(comps) != expected_dim:
                    raise ParseError(
                        f"expected {expected_dim} components for {word!r}, got {len(comps)}",
                        line=lineno,
                    )
                try:
                    vec = np.array([float(c) for c in comps])
                except ValueError:
                    raise ParseError(
                        f"non-numeric component in entry {word!r}", line=lineno
                    ) from None
                if not np.isfinite(vec).all():
                    raise ParseError(f"non-finite component in entry {word!r}", line=lineno)
                if word not in entries:
                    entries[word] = vec
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    return EmbeddingTable(expected_dim, entries)


def _is_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write the table in word2vec text format with a `count dim` header.
    Components use shortest-roundtrip decimals, so load_embeddings recovers
    the exact same vectors."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word in table.words():
            vec = table.vector(word)
            fh.write(word + " " + " ".join(repr(v) for v in vec.tolist()) + "\n")


def featurize_batch(
    questions: Sequence["Question"],
    table: EmbeddingTable,
    max_words: int,
    out: np.ndarray | None = None,
) -> Matrix:
    """Featurize a nonempty batch of questions into a (batch x D) matrix,
    D = max_words * dim + 1. Questions longer than max_words are truncated.

    Each token is looked up once. Then, slot by slot, the table rows of the
    questions that have a token in that slot are copied into a zeroed
    output, so no temporary is larger than one slot's rows.

    Without `out` the features go into a fresh matrix. With `out`, a
    writable, C-contiguous float64 buffer owned by the caller with at least
    as many rows as the batch and exactly D columns, its leading rows are
    zeroed and written, and the returned matrix views them until the next
    call that writes `out`; any other buffer raises ShapeError.
    """
    if max_words < 1:
        raise ConfigError(f"max_words must be >= 1, got {max_words}")
    dim = table.dim
    n = len(questions)
    width = max_words * dim + 1
    if out is None:
        out = np.zeros((n, width))
    elif (
        not isinstance(out, np.ndarray)
        or out.dtype != np.float64
        or out.ndim != 2
        or not (out.flags.c_contiguous and out.flags.writeable)
        or out.shape[0] < n
        or out.shape[1] != width
    ):
        raise ShapeError(
            f"featurize_batch: out must be a writable C-contiguous float64 buffer "
            f"of at least {n} rows and exactly {width} columns"
        )
    else:
        out = out[:n]
        out.fill(0.0)
    lookup = table._rows.get
    token_rows = [lookup(word, 0) for q in questions for word in q.tokens[:max_words]]
    lengths = np.minimum([len(q.tokens) for q in questions], max_words)
    slot_rows = np.zeros((n, max_words), dtype=np.intp)
    slot_rows[np.arange(max_words) < lengths[:, None]] = token_rows
    slots = out[:, :-1].reshape(n, max_words, dim)  # a view of out
    for slot in range(int(lengths.max(initial=0))):
        live = np.flatnonzero(lengths > slot)
        slots[live, slot] = table._matrix[slot_rows[live, slot]]
    out[:, -1] = [q.weak_annotation for q in questions]
    return Matrix._wrap(out)
