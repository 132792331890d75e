import numpy as np
import pytest

from qdelnet.errors import NumericError, ShapeError
from qdelnet.linalg import Matrix


class TestMatrix:
    def test_flat_row_major_storage(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.rows == 2 and m.cols == 2
        assert m.data.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert len(m.data) == m.rows * m.cols

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros((0, 3)))
        with pytest.raises(ShapeError):
            Matrix(np.zeros((3, 0)))

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            Matrix([[1.0, float("nan")]])
        with pytest.raises(NumericError):
            Matrix([[float("inf")]])

    def test_immutable(self):
        m = Matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_from_flat_and_equality(self):
        a = Matrix.from_flat(2, 2, [1, 2, 3, 4])
        b = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert a == b
        assert a != Matrix([[1.0, 2.0], [3.0, 5.0]])

