import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secshap.matrix import ShapeError, matmul_oracle, pad_to, quantize, submatrix, transform


def real(rows) -> np.ndarray:
    return np.array(rows, dtype=np.float64)


def schoolbook(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # independent brute-force product used as the oracle's oracle
    rows, inner = a.shape
    cols = b.shape[1]
    return real([[sum(a[i, k] * b[k, j] for k in range(inner)) for j in range(cols)]
                 for i in range(rows)])


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(real)


class TestSubmatrix:
    def test_identity_slice(self):
        m = real([[1, 2], [3, 4]])
        assert np.array_equal(submatrix(m, 0, 2, 0, 2), m)

    def test_row_wrap(self):
        # rows starting at the last row wrap back to the first
        m = real([[1, 2], [3, 4]])
        got = submatrix(m, 1, 3, 0, 1)
        assert np.array_equal(got, real([[3], [1]]))

    def test_empty_range_rejected(self):
        m = real([[1, 2], [3, 4]])
        with pytest.raises(ShapeError):
            submatrix(m, 1, 1, 0, 2)

    def test_extraction_shape_from_larger_matrix(self):
        h = np.arange(16, dtype=float).reshape(4, 4)
        top = submatrix(h, 0, 2, 0, 3)
        bottom = submatrix(h, 2, 4, 0, 3)
        assert top.shape == (2, 3) and bottom.shape == (2, 3)
        assert bottom[0, 0] == h[2, 0]

    @given(small_matrices, st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_full_window_is_cyclic_shift(self, m, dr, dc):
        rows, cols = m.shape
        shifted = submatrix(m, dr, dr + rows, dc, dc + cols)
        again = submatrix(shifted, rows - dr % rows, 2 * rows - dr % rows,
                          cols - dc % cols, 2 * cols - dc % cols)
        assert np.array_equal(again, m)
        # shifting by exactly (rows, cols) is the identity
        assert np.array_equal(submatrix(m, rows, 2 * rows, cols, 2 * cols), m)


class TestTransforms:
    def test_sigma_rotates_row_j_by_j(self):
        m = real([[1, 2], [3, 4]])
        assert np.array_equal(transform(m, "sigma"), real([[1, 2], [4, 3]]))

    def test_tau_rotates_col_k_by_k(self):
        assert np.array_equal(transform(np.eye(2), "tau"), real([[1, 1], [0, 0]]))

    def test_xi_full_cycle_is_identity(self):
        m = np.arange(12, dtype=float).reshape(3, 4)
        assert np.array_equal(transform(m, "xi", times=m.shape[1]), m)

    def test_psi_shifts_rows_up(self):
        m = real([[1, 2], [3, 4]])
        assert np.array_equal(transform(m, "psi"), real([[3, 4], [1, 2]]))

    def test_times_zero_is_identity(self):
        m = real([[5, 6], [7, 8]])
        for kind in ("sigma", "tau", "xi", "psi"):
            assert np.array_equal(transform(m, kind, times=0), m)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            transform(real([[1]]), "rho")

    @given(small_matrices, st.sampled_from(["sigma", "tau", "xi", "psi"]),
           st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_composition(self, m, kind, a, b):
        lhs = transform(transform(m, kind, a), kind, b)
        rhs = transform(m, kind, a + b)
        assert np.array_equal(lhs, rhs)


class TestMatmulOracle:
    def test_identity(self):
        b = real([[1, 2, 3], [4, 5, 6]])
        assert np.array_equal(matmul_oracle(np.eye(2), b), b)

    def test_scalar(self):
        assert np.array_equal(matmul_oracle(real([[2]]), real([[3]])), real([[6]]))

    def test_against_schoolbook(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-9, 9, size=(2, 4)).astype(float)
        b = rng.integers(-9, 9, size=(4, 3)).astype(float)
        assert np.array_equal(matmul_oracle(a, b), schoolbook(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul_oracle(real([[1, 2]]), real([[1, 2]]))

    @given(small_matrices, small_matrices, small_matrices)
    @settings(max_examples=40, deadline=None)
    def test_associativity_on_conforming_triples(self, a, b, c):
        # reshape b and c so the triple conforms
        b2 = submatrix(b, 0, a.shape[1], 0, b.shape[1])
        c2 = submatrix(c, 0, b2.shape[1], 0, c.shape[1])
        lhs = matmul_oracle(matmul_oracle(a, b2), c2)
        rhs = matmul_oracle(a, matmul_oracle(b2, c2))
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-9)


class TestHelpers:
    def test_pad_to(self):
        m = real([[1, 2]])
        padded = pad_to(m, 2, 3)
        assert np.array_equal(padded, real([[1, 2, 0], [0, 0, 0]]))
        stacked = pad_to(np.stack([m, 2 * m]), 2, 3)  # leading axes stay
        assert np.array_equal(stacked, np.stack([padded, 2 * padded]))
        with pytest.raises(ShapeError):
            pad_to(m, 1, 1)

    def test_quantize_grid(self):
        vals = np.array([0.1, -0.33, 2.75])
        q = quantize(vals, 2)
        assert np.allclose(q, [0.0, -0.25, 2.75])
        assert quantize(real([[0.1]]), 2)[0, 0] == 0.0
