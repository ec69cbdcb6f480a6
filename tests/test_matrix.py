import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secshap.matrix import (
    LabelVector,
    Matrix,
    ShapeError,
    argmax_columns,
    matmul_oracle,
    pad_to,
    quantize,
    submatrix,
    transform,
)


def schoolbook(a: Matrix, b: Matrix) -> Matrix:
    # independent brute-force product used as the oracle's oracle
    out = [[sum(a.at(i, k) * b.at(k, j) for k in range(a.cols)) for j in range(b.cols)] for i in range(a.rows)]
    return Matrix(out)


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(Matrix)


class TestMatrixBasics:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros((0, 3)))
        with pytest.raises(ShapeError):
            Matrix(np.zeros(4))

    def test_wrapping_entry_access(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.at(0, 0) == 1
        assert m.at(2, 3) == 2  # wraps to (0, 1)
        assert m.at(-1, 0) == 3  # python mod keeps it total


class TestSubmatrix:
    def test_identity_slice(self):
        m = Matrix([[1, 2], [3, 4]])
        assert submatrix(m, 0, 2, 0, 2).allclose(m)

    def test_row_wrap(self):
        # rows starting at the last row wrap back to the first
        m = Matrix([[1, 2], [3, 4]])
        got = submatrix(m, 1, 3, 0, 1)
        assert got.allclose(Matrix([[3], [1]]))

    def test_empty_range_rejected(self):
        m = Matrix([[1, 2], [3, 4]])
        with pytest.raises(ShapeError):
            submatrix(m, 1, 1, 0, 2)

    def test_extraction_shape_from_larger_matrix(self):
        h = Matrix(np.arange(16, dtype=float).reshape(4, 4))
        top = submatrix(h, 0, 2, 0, 3)
        bottom = submatrix(h, 2, 4, 0, 3)
        assert top.shape == (2, 3) and bottom.shape == (2, 3)
        assert bottom.at(0, 0) == h.at(2, 0)

    @given(small_matrices, st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_full_window_is_cyclic_shift(self, m, dr, dc):
        shifted = submatrix(m, dr, dr + m.rows, dc, dc + m.cols)
        again = submatrix(shifted, m.rows - dr % m.rows, 2 * m.rows - dr % m.rows,
                          m.cols - dc % m.cols, 2 * m.cols - dc % m.cols)
        assert again.allclose(m)
        # shifting by exactly (rows, cols) is the identity
        assert submatrix(m, m.rows, 2 * m.rows, m.cols, 2 * m.cols).allclose(m)


class TestTransforms:
    def test_sigma_rotates_row_j_by_j(self):
        m = Matrix([[1, 2], [3, 4]])
        assert transform(m, "sigma").allclose(Matrix([[1, 2], [4, 3]]))

    def test_tau_rotates_col_k_by_k(self):
        eye = Matrix(np.eye(2))
        assert transform(eye, "tau").allclose(Matrix([[1, 1], [0, 0]]))

    def test_xi_full_cycle_is_identity(self):
        m = Matrix(np.arange(12, dtype=float).reshape(3, 4))
        assert transform(m, "xi", times=m.cols).allclose(m)

    def test_psi_shifts_rows_up(self):
        m = Matrix([[1, 2], [3, 4]])
        assert transform(m, "psi").allclose(Matrix([[3, 4], [1, 2]]))

    def test_times_zero_is_identity(self):
        m = Matrix([[5, 6], [7, 8]])
        for kind in ("sigma", "tau", "xi", "psi"):
            assert transform(m, kind, times=0).allclose(m)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            transform(Matrix([[1]]), "rho")

    @given(small_matrices, st.sampled_from(["sigma", "tau", "xi", "psi"]),
           st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_composition(self, m, kind, a, b):
        lhs = transform(transform(m, kind, a), kind, b)
        rhs = transform(m, kind, a + b)
        assert lhs.allclose(rhs)


class TestMatmulOracle:
    def test_identity(self):
        b = Matrix([[1, 2, 3], [4, 5, 6]])
        assert matmul_oracle(Matrix(np.eye(2)), b).allclose(b)

    def test_scalar(self):
        assert matmul_oracle(Matrix([[2]]), Matrix([[3]])).allclose(Matrix([[6]]))

    def test_against_schoolbook(self):
        rng = np.random.default_rng(7)
        a = Matrix(rng.integers(-9, 9, size=(2, 4)).astype(float))
        b = Matrix(rng.integers(-9, 9, size=(4, 3)).astype(float))
        assert matmul_oracle(a, b).allclose(schoolbook(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul_oracle(Matrix([[1, 2]]), Matrix([[1, 2]]))

    @given(small_matrices, small_matrices, small_matrices)
    @settings(max_examples=40, deadline=None)
    def test_associativity_on_conforming_triples(self, a, b, c):
        # reshape b and c so the triple conforms
        b2 = submatrix(b, 0, a.cols, 0, b.cols)
        c2 = submatrix(c, 0, b2.cols, 0, c.cols)
        lhs = matmul_oracle(matmul_oracle(a, b2), c2)
        rhs = matmul_oracle(a, matmul_oracle(b2, c2))
        assert lhs.allclose(rhs, tol=1e-9)


class TestArgmaxColumns:
    def test_basic(self):
        got = argmax_columns(Matrix([[1, 0], [0, 1]]))
        assert got == LabelVector([0, 1])

    def test_tie_breaks_low(self):
        got = argmax_columns(Matrix([[0.5], [0.5], [0.5]]))
        assert got == LabelVector([0])

    def test_single_column(self):
        got = argmax_columns(Matrix([[0.1], [0.9], [0.3]]))
        assert got == LabelVector([1])


class TestHelpers:
    def test_pad_to(self):
        m = Matrix([[1, 2]])
        padded = pad_to(m, 2, 3)
        assert padded.allclose(Matrix([[1, 2, 0], [0, 0, 0]]))
        with pytest.raises(ShapeError):
            pad_to(m, 1, 1)

    def test_quantize_grid(self):
        vals = np.array([0.1, -0.33, 2.75])
        q = quantize(vals, 2)
        assert np.allclose(q, [0.0, -0.25, 2.75])
        mq = quantize(Matrix([[0.1]]), 2)
        assert mq.at(0, 0) == 0.0

    def test_labelvector_validation(self):
        with pytest.raises(ValueError):
            LabelVector([-1])
        with pytest.raises(ValueError):
            LabelVector([3], num_classes=3)
