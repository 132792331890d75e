"""Minimal dense float64 matrix value.

Matrices are read-only: construction validates the shape and rejects
non-finite entries with NumericError. Storage is a flat row-major float64
buffer; a Matrix may view a buffer that its owner rewrites, as a model's
layers view its parameter vector and train() rewrites its own.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

__all__ = ["Matrix"]


def _check_finite(a: np.ndarray, context: str) -> None:
    if not np.isfinite(a).all():
        i, j = (int(v) for v in np.argwhere(~np.isfinite(a))[0])
        raise NumericError(f"{context}: non-finite value {a[i, j]!r} at ({i}, {j})")


class Matrix:
    """Read-only 2-D matrix of 64-bit floats."""

    __slots__ = ("_a",)

    def __init__(self, rows: Sequence[Sequence[float]] | np.ndarray):
        a = np.array(rows, dtype=np.float64, order="C")
        if a.ndim != 2:
            raise ShapeError(f"expected 2-D data, got {a.ndim}-D")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {a.shape[0]}x{a.shape[1]}")
        _check_finite(a, "matrix construction")
        a.flags.writeable = False
        self._a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Matrix":
        # Trusted fast path for internal callers: `a` must be a finite,
        # C-contiguous float64 2-D array, and is made read-only. Wrapping a
        # view leaves the buffer writable to whoever owns it.
        m = object.__new__(cls)
        a.flags.writeable = False
        m._a = a
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        return cls._wrap(np.zeros((rows, cols)))

    @classmethod
    def from_flat(cls, rows: int, cols: int, values: Iterable[float]) -> "Matrix":
        data = np.fromiter(values, dtype=np.float64)
        if data.size != rows * cols:
            raise ShapeError(f"expected {rows * cols} values for {rows}x{cols}, got {data.size}")
        return cls(data.reshape(rows, cols))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the elements (read-only)."""
        return self._a.reshape(-1)

    @property
    def array(self) -> np.ndarray:
        """The underlying 2-D array (read-only)."""
        return self._a

    def to_lists(self) -> list[list[float]]:
        return self._a.tolist()

    def __getitem__(self, index: tuple[int, int]) -> float:
        i, j = index
        return float(self._a[i, j])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._a, other._a))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

