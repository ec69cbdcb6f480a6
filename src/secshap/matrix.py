"""Dense matrices with cyclic (modular) index semantics.

All index arithmetic here is 0-based and wraps modulo the matrix
dimensions, so submatrix extraction and the four structural transforms
(``sigma``, ``tau``, ``xi``, ``psi``) are total functions: out-of-range
indices never raise, they wrap.  This is the convention the secure
matmul kernels are built on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Matrix",
    "LabelVector",
    "ShapeError",
    "submatrix",
    "transform",
    "matmul_oracle",
    "argmax_columns",
]

TRANSFORM_KINDS = ("sigma", "tau", "xi", "psi")


class ShapeError(ValueError):
    """Raised when matrix shapes do not conform for an operation."""


@dataclass(frozen=True)
class Matrix:
    """A rows x cols dense real matrix, stored row-major.

    Entry access via :meth:`at` wraps indices modulo the dimensions.
    Instances are immutable values; every operation returns a new one.
    """

    data: np.ndarray

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ShapeError(f"matrix must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def at(self, j: int, k: int) -> float:
        """Entry (j, k) with cyclic wrap on both indices."""
        return float(self.data[j % self.rows, k % self.cols])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(np.zeros((rows, cols)))

    def allclose(self, other: "Matrix", tol: float = 0.0) -> bool:
        if self.shape != other.shape:
            return False
        if tol == 0.0:
            return bool(np.array_equal(self.data, other.data))
        return bool(np.allclose(self.data, other.data, rtol=0.0, atol=tol))


@dataclass(frozen=True)
class LabelVector:
    """Integer class labels for a batch of samples."""

    labels: np.ndarray

    def __init__(self, labels, num_classes: int | None = None) -> None:
        arr = np.array(labels, dtype=np.int64, copy=True)
        if arr.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got ndim={arr.ndim}")
        if arr.size and arr.min() < 0:
            raise ValueError("labels must be non-negative")
        if num_classes is not None and arr.size and arr.max() >= num_classes:
            raise ValueError(
                f"label {int(arr.max())} out of range for {num_classes} classes"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "labels", arr)

    def __len__(self) -> int:
        return int(self.labels.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelVector) and np.array_equal(
            self.labels, other.labels
        )


def submatrix(m: Matrix, row_start: int, row_stop: int, col_start: int, col_stop: int) -> Matrix:
    """Extract rows [row_start, row_stop) x cols [col_start, col_stop), wrapping.

    Ranges are half-open and 0-based; indices past the edge wrap around,
    so the extraction never fails for non-empty ranges.
    """
    if row_stop <= row_start or col_stop <= col_start:
        raise ShapeError("submatrix ranges must be non-empty")
    rows_idx = np.arange(row_start, row_stop) % m.rows
    cols_idx = np.arange(col_start, col_stop) % m.cols
    return Matrix(m.data[np.ix_(rows_idx, cols_idx)])


def transform(m: Matrix, kind: str, times: int = 1) -> Matrix:
    """Apply one of the four structural transforms ``times`` times.

    With o = times, entry (j, k) of the result reads from m at:

    - sigma: (j, k + o*j)   row j rotated left o*j steps
    - tau:   (j + o*k, k)   column k rotated up o*k steps
    - xi:    (j, k + o)     all rows rotated left o steps
    - psi:   (j + o, k)     all columns rotated up o steps

    Applying a transform a times then b times equals applying it
    a + b times.
    """
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown transform kind {kind!r}")
    if times < 0:
        raise ValueError("times must be >= 0")
    j = np.arange(m.rows)[:, None]
    k = np.arange(m.cols)[None, :]
    if kind == "sigma":
        rows_idx, cols_idx = j, (k + times * j) % m.cols
    elif kind == "tau":
        rows_idx, cols_idx = (j + times * k) % m.rows, k
    elif kind == "xi":
        rows_idx, cols_idx = j, (k + times) % m.cols
    else:  # psi
        rows_idx, cols_idx = (j + times) % m.rows, k
    rows_idx, cols_idx = np.broadcast_arrays(rows_idx, cols_idx)
    return Matrix(m.data[rows_idx, cols_idx])


def matmul_oracle(a: Matrix, b: Matrix) -> Matrix:
    """Reference matrix product; the ground truth the kernels are tested against."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return Matrix(a.data @ b.data)


def argmax_columns(scores: Matrix) -> LabelVector:
    """Per column, the row index of the maximum entry; ties go to the lowest index."""
    return LabelVector(np.argmax(scores.data, axis=0))


def pad_to(m: Matrix, rows: int, cols: int) -> Matrix:
    """Zero-pad on the bottom/right edges up to the requested shape."""
    if rows < m.rows or cols < m.cols:
        raise ShapeError(f"cannot pad {m.shape} down to ({rows}, {cols})")
    out = np.zeros((rows, cols))
    out[: m.rows, : m.cols] = m.data
    return Matrix(out)


def quantize(values: np.ndarray | Matrix, bits: int) -> np.ndarray | Matrix:
    """Round values to the 2**-bits grid (fixed-point friendly payloads)."""
    scale = float(1 << bits)
    if isinstance(values, Matrix):
        return Matrix(np.round(values.data * scale) / scale)
    return np.round(np.asarray(values, dtype=np.float64) * scale) / scale
