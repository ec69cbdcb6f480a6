"""Functions on real matrices: 2-D float64 arrays, cyclic (modular) indices.

All index arithmetic here is 0-based and wraps modulo the matrix
dimensions, so submatrix extraction and the four structural transforms
(``sigma``, ``tau``, ``xi``, ``psi``) are total functions: out-of-range
indices never raise, they wrap.  This is the convention the secure
matmul kernels are built on.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "submatrix",
    "transform",
    "pad_to",
    "quantize",
    "matmul_oracle",
]

TRANSFORM_KINDS = ("sigma", "tau", "xi", "psi")


class ShapeError(ValueError):
    """Raised when matrix shapes do not conform for an operation."""


def submatrix(m: np.ndarray, row_start: int, row_stop: int, col_start: int,
              col_stop: int) -> np.ndarray:
    """Extract rows [row_start, row_stop) x cols [col_start, col_stop), wrapping.

    Ranges are half-open and 0-based; indices past the edge wrap around,
    so the extraction never fails for non-empty ranges.
    """
    if row_stop <= row_start or col_stop <= col_start:
        raise ShapeError("submatrix ranges must be non-empty")
    rows_idx = np.arange(row_start, row_stop) % m.shape[0]
    cols_idx = np.arange(col_start, col_stop) % m.shape[1]
    return m[np.ix_(rows_idx, cols_idx)]


def transform(m: np.ndarray, kind: str, times: int = 1) -> np.ndarray:
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
    rows, cols = m.shape
    j = np.arange(rows)[:, None]
    k = np.arange(cols)[None, :]
    if kind == "sigma":
        rows_idx, cols_idx = j, (k + times * j) % cols
    elif kind == "tau":
        rows_idx, cols_idx = (j + times * k) % rows, k
    elif kind == "xi":
        rows_idx, cols_idx = j, (k + times) % cols
    else:  # psi
        rows_idx, cols_idx = (j + times) % rows, k
    rows_idx, cols_idx = np.broadcast_arrays(rows_idx, cols_idx)
    return m[rows_idx, cols_idx]


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference matrix product; the ground truth the kernels are tested against."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def pad_to(m: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Zero-pad on the bottom/right edges up to the requested shape; leading axes stay."""
    if rows < m.shape[-2] or cols < m.shape[-1]:
        raise ShapeError(f"cannot pad {m.shape} down to ({rows}, {cols})")
    out = np.zeros(m.shape[:-2] + (rows, cols))
    out[..., : m.shape[-2], : m.shape[-1]] = m
    return out


def quantize(values: np.ndarray, bits: int) -> np.ndarray:
    """Round values to the 2**-bits grid (fixed-point friendly payloads)."""
    scale = float(1 << bits)
    return np.round(np.asarray(values, dtype=np.float64) * scale) / scale
