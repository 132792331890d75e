"""Text featurization: tokenizer, embedding lookup table and the fixed-width
concatenation featurizer.

A question with tokens w1..wn becomes the concatenation of the per-word
embedding vectors in order, zero-padded out to `max_words` slots, with the
question's weak annotation appended as the final element. The table holds
every vector as a row of one matrix; row 0 is the zero vector, shared by
words missing from the table and by padding, so the two are
indistinguishable. featurize_batch builds the features by copying rows of
that matrix, into a fresh array or into a buffer its caller reuses, and
returns them as a read-only float64 array.

load_embeddings, data.load_dataset and nn.load_model hand _parse_once a
parser of the text and a cache decoder. It keeps what a parser makes of a
regular file in `<file>.qdelnet-cache.npz`, with the file's permissions,
keyed by _CACHE_VERSION and the SHA-256 of the bytes parsed, and decodes
that while both match. What fails to parse, or the parser will not cache, is
never cached; a cache that cannot be read or written, or fails decoding, is
ignored.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import string
import sys
import tempfile
import zipfile
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ParseError, ShapeError, not_utf8

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
# load_embeddings parses into a buffer of this many rows, doubled in place when full.
_FIRST_ROWS = 1 << 10
_CACHE_SUFFIX = ".qdelnet-cache.npz"
# A cache hit's finite check runs over blocks of this many rows: its temporary is a byte a value.
_FINITE_CHECK_ROWS = 1 << 12
# Kept in each cache and compared on reading. Raise it with any change in what load_embeddings,
# data.load_dataset or nn.load_model makes of a file (see tokenize), so that what was cached is
# parsed again.
_CACHE_VERSION = 1


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation at token boundaries.

    Tokens that are nothing but punctuation are dropped; interior punctuation
    (e.g. the apostrophe in "don't") survives. Tokens are interned
    (sys.intern), so every occurrence of a word in a corpus, and the word's
    key in an EmbeddingTable, is one string object.

    load_dataset caches tokens: raise _CACHE_VERSION with any change to this
    function, to what load_dataset accepts or to Question's normalisation.
    """
    out = []
    for raw in text.lower().split():
        word = raw.strip(_PUNCT)
        if word:
            out.append(sys.intern(word))
    return out


class EmbeddingTable:
    """Word -> fixed-dimension vector map, stored as one read-only
    (len + 1) x dim matrix and a word -> row dict keyed by interned words.
    Row 0 is the zero vector, shared by unknown words and padding, so
    lookups never fail."""

    def __init__(self, dim: int, entries: Mapping[str, Sequence[float]]):
        _check_dim(dim)
        matrix = np.zeros((len(entries) + 1, dim))
        rows: dict[str, int] = {}
        for row, (word, vec) in enumerate(entries.items(), start=1):
            v = np.asarray(vec, dtype=np.float64)
            if v.shape != (dim,):
                raise ConfigError(
                    f"embedding for {word!r} has length {v.size}, expected {dim}"
                )
            matrix[row] = v
            rows[sys.intern(word)] = row
        self._adopt(matrix, rows)

    @classmethod
    def _of(cls, matrix: np.ndarray, rows: dict[str, int]) -> "EmbeddingTable":
        """A table that takes `matrix` and `rows` as they are, uncopied."""
        table = cls.__new__(cls)
        table._adopt(matrix, rows)
        return table

    def _adopt(self, matrix: np.ndarray, rows: dict[str, int]) -> None:
        # The core of both constructors: row 0 of matrix is zero and rows maps
        # each interned word to its row. The matrix is frozen, not copied.
        matrix.flags.writeable = False
        self._dim = matrix.shape[1]
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


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ConfigError(f"embedding dimension must be positive, got {dim}")


def load_embeddings(path, expected_dim: int) -> EmbeddingTable:
    """Read a word2vec-style text file: one `word v1 .. v_dim` entry per line.

    An optional first line holding exactly two integer fields (`count dim`)
    is recognized as a header and skipped. Duplicate words keep their first
    occurrence, but every line is checked. Malformed lines, and lines that
    are not UTF-8, raise ParseError with the line number of the first one.
    Words may hold any non-whitespace; the text after the word must be ASCII
    without underscores, which float would otherwise take ("1_0", "١").

    Each entry is parsed straight into the next row of one zeroed buffer, which
    doubles in place when full and is trimmed in place to become the table's matrix:
    no per-word array and no second copy of the table is made. A duplicate is
    parsed into the next free row too, which the next new word reuses.

    The table of a regular file is cached, as the module docstring says, and
    read at the same `expected_dim` only.
    """
    _check_dim(expected_dim)
    return _parse_once(path, lambda npz: _cached_table(npz, expected_dim),
                       lambda fh: _parse_table(fh, expected_dim))


def _parse_table(fh, expected_dim: int):
    """load_embeddings' parse of the lines of `fh`: the table and its cache members."""
    matrix = np.zeros((_FIRST_ROWS, expected_dim))
    rows: dict[str, int] = {}
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
        if "_" in line or not line.isascii():  # float takes 1_0 and non-ASCII digits
            rest = line.split(None, 1)[1]  # a word may hold them; a number may not
            if "_" in rest or not rest.isascii():
                raise ParseError(f"non-numeric component in entry {word!r}", line=lineno)
        row = len(rows) + 1
        if row == len(matrix):  # in place, zero-filled: no view of matrix is alive
            matrix.resize((2 * row, expected_dim), refcheck=False)
        try:
            matrix[row] = list(map(float, comps))
        except ValueError:
            raise ParseError(
                f"non-numeric component in entry {word!r}", line=lineno
            ) from None
        if not np.isfinite(matrix[row]).all():
            raise ParseError(f"non-finite component in entry {word!r}", line=lineno)
        if word not in rows:
            rows[sys.intern(word)] = row
    matrix.resize((len(rows) + 1, expected_dim), refcheck=False)
    return EmbeddingTable._of(matrix, rows), [
        ("matrix", matrix), ("words", np.frombuffer("\n".join(rows).encode(), np.uint8))]


class _HashingFile(io.FileIO):
    """A file open for reading whose read() feeds each byte to `self.sha256`."""

    def __init__(self, path):
        super().__init__(path)
        self.sha256 = hashlib.sha256()

    def read(self, size: int = -1) -> bytes:
        data = super().read(size)
        self.sha256.update(data)
        return data


def _parse_once(path, decode: Callable, parse: Callable):
    """parse(fh) of the file at `path`, read as UTF-8 text, or decode(npz) of its cache.
    parse returns the result and the (name, array) members to cache, or None for none;
    decode returns the result, or None or raises ValueError when the cache is bad. A stale
    cache costs one hash: no other read."""
    cache = f"{path}{_CACHE_SUFFIX}" if os.path.isfile(path) else None
    if cache:
        with contextlib.suppress(OSError, ValueError, TypeError, KeyError, EOFError,
                                 zipfile.BadZipFile), \
                open(cache, "rb") as fh, np.load(fh, allow_pickle=False) as npz, \
                _HashingFile(path) as file:
            while file.read(1 << 16):
                pass
            if (npz["version"].tolist(), npz["sha256"].tobytes()) == (
                    _CACHE_VERSION, file.sha256.digest()) and (hit := decode(npz)) is not None:
                return hit
    try:
        with _HashingFile(path) as raw, io.TextIOWrapper(raw, encoding="utf-8") as fh:
            result, members = parse(fh)
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    if not cache or members is None:
        return result
    key = [("version", np.uint8(_CACHE_VERSION)),
           ("sha256", np.frombuffer(raw.sha256.digest(), np.uint8))]
    with contextlib.suppress(OSError):  # e.g. a read-only directory: no cache
        fd, tmp = tempfile.mkstemp(suffix=_CACHE_SUFFIX, dir=os.path.dirname(cache) or ".")
        try:
            with os.fdopen(fd, "wb") as out, zipfile.ZipFile(out, "w") as npz:
                os.fchmod(fd, os.stat(path).st_mode & 0o666)  # the file's read/write bits
                for name, array in itertools.chain(key, members):  # as np.savez writes them
                    with npz.open(name + ".npy", "w", force_zip64=True) as member:
                        np.lib.format.write_array(member, np.asanyarray(array), allow_pickle=False)
            os.replace(tmp, cache)
        except BaseException:
            os.unlink(tmp)
            raise
    return result


def _cached_table(npz, dim: int) -> EmbeddingTable | None:
    """The table of a cache whose key matched, or None if it fails its structural
    check. No word holds a line break: str.split() broke the line at each one."""
    matrix, words = npz["matrix"], npz["words"].tobytes().decode().splitlines()
    rows = {sys.intern(word): row for row, word in enumerate(words, start=1)}
    if not (matrix.dtype == np.float64 and matrix.shape == (len(words) + 1, dim)
            and len(rows) == len(words) and not matrix[0].view(np.uint64).any()
            and all(np.isfinite(matrix[i : i + _FINITE_CHECK_ROWS]).all()
                    for i in range(0, len(matrix), _FINITE_CHECK_ROWS))):
        return None
    return EmbeddingTable._of(matrix, rows)


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
) -> np.ndarray:
    """Featurize a nonempty batch of questions into a read-only (batch x D)
    float64 array, D = max_words * dim + 1. Questions longer than max_words
    are truncated.

    Each token is looked up once. Then, slot by slot, the table rows of the
    questions that have a token in that slot are copied into a zeroed
    output, so no temporary is larger than one slot's rows.

    Without `out` the features go into a fresh array. With `out`, a
    writable, C-contiguous float64 buffer owned by the caller with at least
    as many rows as the batch and exactly D columns, its leading rows are
    zeroed and written, and the returned array views them until the next
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
    out.flags.writeable = False  # this array only: a caller's buffer stays writable
    return out
