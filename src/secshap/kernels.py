"""Ciphertext-packing matrix-multiplication kernels.

Two methods evaluate A (d_out x d_in, the model side) times
B (d_in x m, the batch side) over the slotted backend:

- **squaring**: both operands are reshaped into square blocks of side
  at most floor(sqrt(N)); each block pair costs d'_out entrywise
  multiplications plus a rotate-and-sum phase.  Works with both
  operands encrypted.
- **reducing**: both operands are transformed into d_in pairs of
  d_out x m matrices; the product is the entrywise multiply-accumulate
  over the pairs.  Costs exactly d_in multiplications and zero
  rotations, at the price of requiring the transforms to be computed
  where the operand is plaintext.

``delta_reference`` is the plaintext transform-reduce-accumulate map
both kernels are anchored to: delta(A, B) == A @ B whenever
m <= d_in and d_out <= d_in.

All divisibility requirements are satisfied by zero padding inside plan
construction; callers pass raw shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .hebackend import CipherVector, HEContext, PrivateKey, PublicKey
from .matrix import Matrix, pad_to, submatrix, tile_vertical, transform

__all__ = [
    "MatMulPlan",
    "PlanError",
    "plan_squaring",
    "plan_reducing",
    "squaring_max_batch",
    "reducing_max_batch",
    "delta_reference",
    "squaring_prepare_model",
    "squaring_prepare_batch",
    "squaring_matmul",
    "squaring_decrypt",
    "reducing_prepare_model",
    "reducing_prepare_batch",
    "reducing_matmul",
    "reducing_decrypt",
]

BatchSide = Union[CipherVector, np.ndarray]


class PlanError(ValueError):
    """Shapes incompatible with the requested kernel."""


def squaring_max_batch(d_in: int, slot_count: int) -> int:
    return min(d_in, math.isqrt(slot_count))

def reducing_max_batch(d_out: int, slot_count: int) -> int:
    return slot_count // d_out


def _smallest_divisor_at_least(n: int, lower: int) -> int:
    for cand in range(lower, n + 1):
        if n % cand == 0:
            return cand
    return n


def _rotation_count(t: int) -> int:
    # repeated doubling then single steps: floor(log2 t) + (t - 2^floor(log2 t))
    if t <= 1:
        return 0
    e = t.bit_length() - 1
    return e + (t - (1 << e))


@dataclass(frozen=True)
class MatMulPlan:
    """Blocking/padding decisions for one (d_out, d_in, m, N) instance.

    For squaring, the operands are split into J row blocks times K inner
    blocks of side ``s``; every block's row count is padded to
    ``d_out_block`` which divides s.
    """

    method: str
    d_out: int
    d_in: int
    m: int
    slot_count: int
    s: int = 0            # squaring block side
    k_blocks: int = 1     # inner splits (K)
    j_blocks: int = 1     # row splits (J)
    d_out_block: int = 0  # padded row count per block (d'_out)

    # -- cost laws, used by both the kernels' tests and the bench -------

    def rotations_per_block(self) -> int:
        if self.method != "squaring":
            return 0
        return _rotation_count(self.s // self.d_out_block)

    def expected_hrot(self) -> int:
        if self.method == "reducing":
            return 0
        return self.j_blocks * self.k_blocks * self.rotations_per_block()

    def expected_hmult(self) -> int:
        if self.method == "reducing":
            return self.d_in
        return self.j_blocks * self.k_blocks * self.d_out_block


def plan_squaring(d_out: int, d_in: int, m: int, slot_count: int) -> MatMulPlan:
    if min(d_out, d_in, m) < 1:
        raise PlanError("dimensions must be positive")
    r = math.isqrt(slot_count)
    cap = squaring_max_batch(d_in, slot_count)
    if m > cap:
        raise PlanError(f"squaring batch {m} exceeds min(d_in, floor(sqrt(N))) = {cap}")
    j_blocks = max(1, -(-d_out // r))
    block_rows = r if d_out > r else d_out
    if d_in > r:
        s = r
        k_blocks = -(-d_in // r)
    else:
        s = max(d_in, block_rows)  # inner dim padded up if the rows outgrow it
        k_blocks = 1
    d_out_block = _smallest_divisor_at_least(s, block_rows)
    return MatMulPlan(
        method="squaring",
        d_out=d_out,
        d_in=d_in,
        m=m,
        slot_count=slot_count,
        s=s,
        k_blocks=k_blocks,
        j_blocks=j_blocks,
        d_out_block=d_out_block,
    )


def plan_reducing(d_out: int, d_in: int, m: int, slot_count: int) -> MatMulPlan:
    if min(d_out, d_in, m) < 1:
        raise PlanError("dimensions must be positive")
    cap = reducing_max_batch(d_out, slot_count)
    if m > cap:
        raise PlanError(f"reducing batch {m} exceeds floor(N / d_out) = {cap}")
    return MatMulPlan(method="reducing", d_out=d_out, d_in=d_in, m=m, slot_count=slot_count)


# -- plaintext reference ----------------------------------------------------


def delta_reference(a_bar: Matrix, b: Matrix) -> Matrix:
    """Transform, reduce to d_out x m, then multiply-accumulate over d_in pairs.

    ``a_bar`` is d_out x d with d a multiple of b's row count d_in and
    d >= m; equals the plain product when a_bar is d_out x d_in itself.
    """
    d_out, d = a_bar.shape
    d_in, m = b.shape
    if d % d_in != 0:
        raise PlanError(f"inner width {d} must be a multiple of {d_in}")
    if d < m:
        raise PlanError(f"inner width {d} must cover the batch {m}")
    sigma_a = transform(a_bar, "sigma")
    tau_b = transform(b, "tau")
    acc = np.zeros((d_out, m))
    for o in range(d_in):
        a_tilde = submatrix(transform(sigma_a, "xi", o), 0, d_out, 0, m)
        b_tilde = submatrix(transform(tau_b, "psi", o), 0, d_out, 0, m)
        acc += a_tilde.data * b_tilde.data
    return Matrix(acc)


# -- squaring kernel --------------------------------------------------------


def _pack_square(ctx: HEContext, mat: Matrix, key: PublicKey, encrypt: bool):
    flat = mat.row_major()
    return ctx.encrypt_slots(flat, key) if encrypt else ctx.encode_slots(flat)


def _squaring_blocks_a(a: Matrix, plan: MatMulPlan):
    padded = pad_to(a, plan.j_blocks * plan.d_out_block, plan.k_blocks * plan.s)
    for j in range(plan.j_blocks):
        for k in range(plan.k_blocks):
            block = Matrix(
                padded.data[
                    j * plan.d_out_block : (j + 1) * plan.d_out_block,
                    k * plan.s : (k + 1) * plan.s,
                ]
            )
            yield j, k, tile_vertical(block, plan.s // plan.d_out_block)


def squaring_prepare_model(
    a: Matrix, plan: MatMulPlan, ctx: HEContext, key: PublicKey
) -> list[list[list[CipherVector]]]:
    """Client-side transform-then-encrypt of the model operand.

    Returns ciphertexts indexed [j][k][o]; reusable across batches.
    """
    if a.shape != (plan.d_out, plan.d_in):
        raise PlanError(f"model shape {a.shape} does not match plan")
    out = [[None] * plan.k_blocks for _ in range(plan.j_blocks)]
    for j, k, a_bar in _squaring_blocks_a(a, plan):
        base = transform(a_bar, "sigma")
        out[j][k] = [
            _pack_square(ctx, transform(base, "xi", o), key, encrypt=True)
            for o in range(plan.d_out_block)
        ]
    return out


def squaring_prepare_batch(
    b: Matrix, plan: MatMulPlan, ctx: HEContext, key: PublicKey, encrypt: bool = True
) -> list[list[BatchSide]]:
    """Transform the batch operand; encrypted for the full scheme, plain slots otherwise.

    Returns sides indexed [k][o]; shared across the J row blocks.
    """
    if b.rows != plan.d_in or b.cols > plan.m:
        raise PlanError(f"batch shape {b.shape} does not match plan")
    padded = pad_to(b, plan.k_blocks * plan.s, b.cols)
    out = []
    for k in range(plan.k_blocks):
        block = Matrix(padded.data[k * plan.s : (k + 1) * plan.s, :])
        b_bar = pad_to(block, plan.s, plan.s)
        base = transform(b_bar, "tau")
        out.append(
            [
                _pack_square(ctx, transform(base, "psi", o), key, encrypt)
                for o in range(plan.d_out_block)
            ]
        )
    return out


def squaring_matmul(
    model_cts: list[list[list[CipherVector]]],
    batch_side: list[list[BatchSide]],
    plan: MatMulPlan,
    ctx: HEContext,
) -> list[CipherVector]:
    """Server-side evaluation; returns one ciphertext per row block."""
    step = plan.d_out_block * plan.s
    copies = plan.s // plan.d_out_block
    results = []
    for j in range(plan.j_blocks):
        band = None
        for k in range(plan.k_blocks):
            h = None
            for o in range(plan.d_out_block):
                prod = ctx.he_mult(model_cts[j][k][o], batch_side[k][o])
                h = prod if h is None else ctx.he_add(h, prod)
            # fold the vertical copies down onto the top block:
            # repeated doubling, then single steps for the remainder
            acc = h
            terms = 1
            while terms * 2 <= copies:
                acc = ctx.he_add(acc, ctx.he_rotate(acc, step * terms))
                terms *= 2
            while terms < copies:
                acc = ctx.he_add(acc, ctx.he_rotate(h, step * terms))
                terms += 1
            band = acc if band is None else ctx.he_add(band, acc)
        results.append(band)
    return results


def squaring_decrypt(
    bands: Sequence[CipherVector],
    plan: MatMulPlan,
    ctx: HEContext,
    key: PrivateKey,
    actor: str | None = None,
) -> Matrix:
    """Assemble the row bands back into the d_out x m product."""
    rows = []
    for j, ct in enumerate(bands):
        block = ctx.decrypt_matrix(ct, (plan.d_out_block, plan.s), key, actor=actor)
        take = min(plan.d_out_block, plan.d_out - j * plan.d_out_block)
        rows.append(block.data[:take, : plan.m])
    return Matrix(np.vstack(rows))


# -- reducing kernel --------------------------------------------------------


def _slot_operand(a: Matrix | np.ndarray) -> tuple[np.ndarray, bool]:
    """The operand as an array, and whether it holds field elements.

    Any integer dtype (uint64 or Python-int shares) takes the context's
    exact integer slots, mod its plaintext modulus.
    """
    arr = a.data if isinstance(a, Matrix) else np.asarray(a)
    return arr, arr.dtype.kind in "iuO"


def _reducing_model_views(a: np.ndarray, width: int):
    d_out, d_in = a.shape
    j = np.arange(d_out)[:, None]
    k = np.arange(width)[None, :]
    for o in range(d_in):
        yield a[j, (j + k + o) % d_in]


def _reducing_batch_views(b: np.ndarray, d_out: int):
    d_in, m = b.shape
    j = np.arange(d_out)[:, None]
    k = np.arange(m)[None, :]
    for o in range(d_in):
        yield b[(j + k + o) % d_in, k]


def reducing_prepare_model(
    a: Matrix | np.ndarray,
    plan: MatMulPlan,
    ctx: HEContext,
    key: PublicKey,
    width: int | None = None,
) -> list[CipherVector]:
    """Transform-then-encrypt the model operand at the plan's batch width.

    Batch-independent: the o-th ciphertext holds A[j, (j+k+o) mod d_in]
    for every column k, so one preparation serves all batches up to the
    width.  Accepts a real Matrix or an exact integer (field) array of
    any integer dtype.
    """
    arr, integer = _slot_operand(a)
    if arr.shape != (plan.d_out, plan.d_in):
        raise PlanError(f"model shape {arr.shape} does not match plan")
    width = plan.m if width is None else width
    encrypt = ctx.encrypt_int_slots if integer else ctx.encrypt_slots
    return [encrypt(view, key) for view in _reducing_model_views(arr, width)]


def reducing_prepare_batch(
    b: Matrix | np.ndarray,
    plan: MatMulPlan,
    ctx: HEContext,
    key: PublicKey | None = None,
    encrypt: bool = False,
    width: int | None = None,
) -> list[BatchSide]:
    """Transform the batch operand into d_in reduced matrices.

    Plain slot arrays by default (the shares are plaintext at the
    servers); encrypted when both operands must be hidden.
    """
    arr, integer = _slot_operand(b)
    if arr.shape[0] != plan.d_in or arr.shape[1] > plan.m:
        raise PlanError(f"batch shape {arr.shape} does not match plan")
    width = plan.m if width is None else width
    encrypt_view = ctx.encrypt_int_slots if integer else ctx.encrypt_slots
    out = []
    for view in _reducing_batch_views(arr, plan.d_out):
        if view.shape[1] < width:  # align columns with the cached model width
            full = np.zeros((plan.d_out, width), dtype=view.dtype)
            full[:, : view.shape[1]] = view
            view = full
        out.append(encrypt_view(view, key) if encrypt else ctx.encode_slots(view, integer))
    return out


def reducing_matmul(
    model_cts: Sequence[CipherVector],
    batch_side: Sequence[BatchSide],
    plan: MatMulPlan,
    ctx: HEContext,
) -> CipherVector:
    """Entrywise multiply-accumulate over the d_in pairs; no rotations."""
    if len(model_cts) != plan.d_in or len(batch_side) != plan.d_in:
        raise PlanError(
            f"expected {plan.d_in} transformed pairs, got "
            f"{len(model_cts)} and {len(batch_side)}"
        )
    acc = None
    for a_ct, b_op in zip(model_cts, batch_side):
        prod = ctx.he_mult(a_ct, b_op)
        acc = prod if acc is None else ctx.he_add(acc, prod)
    return acc


def reducing_decrypt(
    ct: CipherVector,
    plan: MatMulPlan,
    ctx: HEContext,
    key: PrivateKey,
    actor: str | None = None,
    width: int | None = None,
) -> Matrix:
    width = plan.m if width is None else width
    full = ctx.decrypt_matrix(ct, (plan.d_out, width), key, actor=actor)
    return Matrix(full.data[:, : plan.m])
