import numpy as np
import pytest

from qdelnet.errors import NumericError, ShapeError
from qdelnet.linalg import Matrix, matmul


def naive_matmul(a, b):
    """Triple-loop reference product."""
    out = [[0.0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            s = 0.0
            for k in range(a.cols):
                s += a[i, k] * b[k, j]
            out[i][j] = s
    return out


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


class TestMatmul:
    def test_identity_left(self):
        b = Matrix([[3.0, 4.0], [5.0, 6.0]])
        assert matmul(Matrix(np.eye(2)), b) == b

    def test_hand_case_1x2_2x1(self):
        out = matmul(Matrix([[1.0, 2.0]]), Matrix([[3.0], [4.0]]))
        assert out.to_lists() == [[11.0]]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        a = Matrix(rng.normal(size=(7, 5)))
        b = Matrix(rng.normal(size=(5, 3)))
        got = matmul(a, b)
        expected = naive_matmul(a, b)
        np.testing.assert_allclose(got.to_lists(), expected, atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"2x3.*4x2"):
            matmul(Matrix(np.ones((2, 3))), Matrix(np.ones((4, 2))))

    def test_identity_is_exact_on_either_side(self):
        rng = np.random.default_rng(3)
        a = Matrix(rng.normal(size=(4, 4)))
        assert matmul(a, Matrix(np.eye(4))) == a
        assert matmul(Matrix(np.eye(4)), a) == a

    def test_associativity_within_tolerance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = Matrix(rng.normal(size=(4, 5)))
            b = Matrix(rng.normal(size=(5, 3)))
            c = Matrix(rng.normal(size=(3, 6)))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            np.testing.assert_allclose(left.array, right.array, atol=1e-9)

    def test_inputs_unmodified(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        b = Matrix([[5.0, 6.0], [7.0, 8.0]])
        a_before, b_before = a.to_lists(), b.to_lists()
        matmul(a, b)
        assert a.to_lists() == a_before and b.to_lists() == b_before

