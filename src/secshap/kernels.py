"""Ciphertext-packing matrix-multiplication kernels.

Two methods evaluate A (d_out x d_in, the model side) times
B (d_in x m, the batch side) over the slotted backend:

- **squaring**: both operands are reshaped into square blocks of side
  at most floor(sqrt(N)); each block pair costs d'_out entrywise
  multiplications plus a rotate-and-sum phase.  Works with both
  operands encrypted.  The model side is one ciphertext stack indexed
  [o, j, k], the batch side one indexed [o, k]; batch axes after o let
  one evaluation serve many batches.  A ciphertext stores only its live
  slots: of the s x s block, the L = min(d_out, d'_out) rows a decryptor
  keeps in each of the C = s / d'_out vertical copies, over the plan's m
  columns, C * L * m slots; so the plan's m fixes the layout of the
  model side and of every batch side evaluated with it.  The fold of the
  C copies keeps only the top one, so a row band stores the L * m slots
  its decryptor reads.  The products are entrywise and the fold's kept
  outputs read no slot past the last copy, so the kept slots equal those
  of the full block bit for bit.
- **reducing**: both operands are transformed into d_in pairs of
  d_out x m matrices, one ciphertext each (the model side is one [d_in]
  stack); the product is the entrywise multiply-accumulate over the
  pairs, one ``he_dot``.  Costs exactly d_in multiplications and zero
  rotations, at the price of requiring the transforms to be computed
  where the operand is plaintext.  Over a prime field that sum is exact, so
  ``reducing_field_slots`` stores a field product A @ B, however it was
  formed (SecSV sums its first layer's from per-model products), as the
  kernel's slots and meters it at the kernel's cost.

Each squaring step is one ``HEContext`` operation on a whole stack
(the copy fold is one ``he_fold``), metered per ciphertext, so the
cost laws below count exactly what a ciphertext-by-ciphertext
evaluation would; a decryption draws noise for the full d'_out x s
block, as it would at full width.

``delta_reference`` is the plaintext transform-reduce-accumulate map
both kernels are anchored to: delta(A, B) == A @ B whenever
m <= d_in and d_out <= d_in.

All divisibility requirements are satisfied by zero padding inside plan
construction; callers pass raw shapes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hebackend import CipherVector, HEContext, PrivateKey, PublicKey
from .matrix import pad_to, submatrix, transform

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
    "squaring_decrypt_stack",
    "reducing_prepare_model",
    "reducing_prepare_batch",
    "reducing_matmul",
    "reducing_field_slots",
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

    # -- squaring live layout ------------------------------------------

    def copies(self) -> int:
        """Vertical copies C = s / d'_out of a block, folded onto the top one."""
        return self.s // self.d_out_block

    def live_rows(self) -> int:
        """Rows L = min(d_out, d'_out) of a block that a decryptor keeps."""
        return min(self.d_out, self.d_out_block)

    def live_width(self) -> int:
        """Slots a squaring ciphertext stores: C x L x m."""
        return self.copies() * self.live_rows() * self.m

    # -- cost laws, used by both the kernels' tests and the bench -------

    def rotations_per_block(self) -> int:
        if self.method != "squaring":
            return 0
        return _rotation_count(self.copies())

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


def delta_reference(a_bar: np.ndarray, b: np.ndarray) -> np.ndarray:
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
        acc += a_tilde * b_tilde
    return acc


# -- squaring kernel --------------------------------------------------------


def _shape(side: BatchSide) -> tuple[int, ...]:
    return side.slots.shape if isinstance(side, CipherVector) else np.shape(side)


def _check_stack(side, lead: tuple[int, ...], width: int, what: str) -> None:
    shape = _shape(side)
    if shape[-len(lead) - 1 :] != lead + (width,):
        raise PlanError(f"{what} stack {shape} does not match plan {lead + (width,)}")


@functools.lru_cache(maxsize=64)
def _diagonal_shifts(s: int, shifts: int) -> np.ndarray:
    """(r + c + o) mod s at [o, r, c], for o < shifts: the combined transform index."""
    idx = np.arange(s)
    out = (idx[:, None] + idx[None, :] + np.arange(shifts)[:, None, None]) % s
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _live_index(s: int, rows: int, live: int, m: int) -> tuple[np.ndarray, ...]:
    """Block row, block column and diagonal index [o] of every live slot.

    Live slot (c', r, c), for copy c' < s / rows, row r < live and
    column c < m, sits at (c' * live + r) * m + c and stands for entry
    (c' * rows + r, c) of the s x s block.
    """
    block_rows = np.arange(0, s, rows)[:, None] + np.arange(live)[None, :]
    r = np.repeat(block_rows.reshape(-1), m)
    c = np.tile(np.arange(m), block_rows.size)
    diag = _diagonal_shifts(s, rows)[:, r, c]
    for arr in (r, c, diag):
        arr.flags.writeable = False
    return r, c, diag


def squaring_prepare_model(
    a: np.ndarray, plan: MatMulPlan, ctx: HEContext, key: PublicKey
) -> CipherVector:
    """Client-side transform-then-encrypt of the model operand.

    Block (j, k) is tiled vertically to s x s, then transformed by sigma
    and xi^o; only the live slots are stored.  ``a`` is a d_out x d_in
    matrix, or an array of them with leading axes (..., d_out, d_in).
    Returns one ciphertext stack indexed [..., o, j, k]; reusable across
    batches of the plan's width.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-2:] != (plan.d_out, plan.d_in):
        raise PlanError(f"model shape {a.shape} does not match plan")
    s, rows = plan.s, plan.d_out_block
    lead = a.shape[:-2]
    padded = pad_to(a, plan.j_blocks * rows, plan.k_blocks * s)
    blocks = padded.reshape(lead + (plan.j_blocks, rows, plan.k_blocks, s))
    blocks = np.swapaxes(blocks, -3, -2)  # [..., j, k, row, column]
    r, _, diag = _live_index(s, rows, plan.live_rows(), plan.m)
    # xi^o(sigma(a_bar))[r, c] = a_bar[r, (c + r + o) mod s], a_bar[r] = block[r mod rows]
    views = blocks[..., (r % rows)[None, :], diag]
    return ctx.encrypt_slots(np.moveaxis(views, -2, -4), key, width=plan.live_width())


def squaring_prepare_batch(
    b: np.ndarray, plan: MatMulPlan, ctx: HEContext, key: PublicKey,
    encrypt: bool = True,
) -> BatchSide:
    """Transform the batch operand; encrypted for the full scheme, plain slots otherwise.

    Inner block k is padded to s x m, then transformed by tau and psi^o;
    only the live slots are stored.  ``b`` is a d_in x m' matrix with
    m' <= m, or an array with leading batch axes, (..., d_in, m').
    Returns one stack indexed [o, ..., k]; shared across the J row blocks.
    """
    arr = np.asarray(b, dtype=np.float64)
    if arr.shape[-2] != plan.d_in or arr.shape[-1] > plan.m:
        raise PlanError(f"batch shape {arr.shape} does not match plan")
    s = plan.s
    lead = arr.shape[:-2]
    b_bar = np.zeros(lead + (plan.k_blocks * s, plan.m))
    b_bar[..., : plan.d_in, : arr.shape[-1]] = arr
    b_bar = b_bar.reshape(lead + (plan.k_blocks, s, plan.m))
    _, c, diag = _live_index(s, plan.d_out_block, plan.live_rows(), plan.m)
    # psi^o(tau(b_bar))[r, c] = b_bar[(r + c + o) mod s, c]
    views = np.moveaxis(b_bar[..., diag, c], -2, 0)
    width = plan.live_width()
    if encrypt:
        return ctx.encrypt_slots(views, key, width=width)
    return ctx.encode_slots(views, width=width)


def squaring_matmul(
    model_cts: CipherVector,
    batch_side: BatchSide,
    plan: MatMulPlan,
    ctx: HEContext,
) -> CipherVector:
    """Server-side evaluation; returns a stack of one ciphertext per row block.

    ``batch_side`` is one batch's [o, k] stack, or an [o, ..., k] stack
    with batch axes after o, which evaluates every batch at once; the
    model side and every batch side come from one plan, whose m fixes
    the slot layout.  The products are one ``he_dot`` over o, the
    model's [j, k] against the batch's [..., 1, k].  The copy fold
    shifts by L x m and keeps the top copy: every live output reads
    slots of copies below C only, so no rotation wraps onto a slot that
    is kept.  The K inner blocks are summed on those L x m slots.  The
    result is a stack of bands of L x m slots, indexed [..., j].
    """
    width = plan.live_width()
    _check_stack(model_cts, (plan.d_out_block, plan.j_blocks, plan.k_blocks), width, "model")
    terms = _shape(batch_side)[0]
    if terms != plan.d_out_block:
        raise PlanError(f"batch side has {terms} operands, plan needs {plan.d_out_block}")
    _check_stack(batch_side, (plan.k_blocks,), width, "batch")
    h = ctx.he_dot(model_cts, batch_side[..., None, :, :])
    # fold the vertical copies down onto the top one: the L x m slots a decryptor reads
    acc = ctx.he_fold(h, plan.live_rows() * plan.m, plan.copies())
    band = acc[..., 0, :]
    for k in range(1, plan.k_blocks):
        band = ctx.he_add(band, acc[..., k, :])
    return band


def squaring_decrypt_stack(
    bands: CipherVector,
    plan: MatMulPlan,
    ctx: HEContext,
    key: PrivateKey,
    draws: np.ndarray | None = None,
) -> np.ndarray:
    """The d_out x m products of a [..., j] stack of row bands, shape (..., d_out, m).

    A band stores the L x m slots ``squaring_matmul`` keeps, yet is
    decrypted as its full d'_out x s block would be: under noise it
    takes d'_out * s draws, and live entry (r, c) gets the one at
    r * s + c.  ``draws`` lays them out (..., j, d'_out * s); see
    ``HEContext.decrypt_stack``.
    """
    live = plan.live_rows()
    _check_stack(bands, (plan.j_blocks,), live * plan.m, "band")
    out = ctx.decrypt_stack(bands, (live, plan.m), (plan.d_out_block, plan.s), key, draws=draws)
    out = out.reshape(out.shape[:-3] + (plan.j_blocks * live, plan.m))
    return out[..., : plan.d_out, :]


# -- reducing kernel --------------------------------------------------------


def _reducing_model_views(a: np.ndarray, width: int) -> np.ndarray:
    """Row o holds A[j, (j+k+o) mod d_in] at j * width + k: the d_in views, one gather."""
    d_out, d_in = a.shape
    tiled = a[:, np.arange(d_out + d_in + width - 2) % d_in]  # column t is A[:, t mod d_in]
    windows = sliding_window_view(tiled, width, axis=1)  # [j, t, k] = tiled[j, t + k]
    j = np.arange(d_out)
    return windows[j, j + np.arange(d_in)[:, None]].reshape(d_in, -1)


def _reducing_batch_views(b: np.ndarray, d_out: int, width: int) -> np.ndarray:
    """Row o holds B[(j+k+o) mod d_in, k] at j * width + k, zero past column m: one gather."""
    d_in, m = b.shape
    j = np.arange(d_out)[:, None]
    k = np.arange(m)[None, :]
    views = np.zeros((d_in, d_out, width), dtype=b.dtype)
    views[..., :m] = b[(j + k + np.arange(d_in)[:, None, None]) % d_in, k]
    return views.reshape(d_in, -1)


def reducing_prepare_model(
    a: np.ndarray,
    plan: MatMulPlan,
    ctx: HEContext,
    key: PublicKey,
    width: int | None = None,
) -> CipherVector:
    """Transform-then-encrypt the model operand at the plan's batch width.

    Batch-independent: ciphertext o of the [d_in] stack holds
    A[j, (j+k+o) mod d_in] at slot j * width + k, so one preparation
    serves all batches up to the width; it stores those d_out * width
    slots only.  A float operand takes real slots; an operand of any
    integer dtype holds field elements and takes the context's exact
    integer slots, mod the field prime.
    """
    a = np.asarray(a)
    if a.shape != (plan.d_out, plan.d_in):
        raise PlanError(f"model shape {a.shape} does not match plan")
    width = plan.m if width is None else width
    encrypt = ctx.encrypt_int_slots if a.dtype.kind in "iu" else ctx.encrypt_slots
    return encrypt(_reducing_model_views(a, width), key, width=plan.d_out * width)


def reducing_prepare_batch(
    b: np.ndarray,
    plan: MatMulPlan,
    ctx: HEContext,
    key: PublicKey | None = None,
    encrypt: bool = False,
    width: int | None = None,
) -> BatchSide:
    """Transform the batch operand into one [d_in] stack of reduced matrices.

    Plain slot arrays by default (the shares are plaintext at the
    servers); encrypted when both operands must be hidden.  Columns are
    aligned with the model's width, and each view stores d_out * width
    slots; the dtype picks real or integer slots as for the model.
    """
    b = np.asarray(b)
    if b.shape[0] != plan.d_in or b.shape[1] > plan.m:
        raise PlanError(f"batch shape {b.shape} does not match plan")
    width = plan.m if width is None else width
    integer = b.dtype.kind in "iu"
    views = _reducing_batch_views(b, plan.d_out, width)
    slots = plan.d_out * width
    if encrypt:
        encrypt_views = ctx.encrypt_int_slots if integer else ctx.encrypt_slots
        return encrypt_views(views, key, width=slots)
    return ctx.encode_slots(views, integer, width=slots)


def reducing_matmul(
    model_cts: CipherVector,
    batch_side: BatchSide,
    plan: MatMulPlan,
    ctx: HEContext,
) -> CipherVector:
    """Entrywise multiply-accumulate over the d_in pairs, one ``he_dot``; no rotations.

    ``model_cts`` is ``reducing_prepare_model``'s [d_in] stack and
    ``batch_side`` ``reducing_prepare_batch``'s.
    """
    terms = model_cts.slots.shape[:-1]
    sides = _shape(batch_side)[:-1]
    if terms != (plan.d_in,) or sides != (plan.d_in,):
        raise PlanError(f"expected {plan.d_in} transformed pairs, got {terms} and {sides}")
    return ctx.he_dot(model_cts, batch_side)


def reducing_field_slots(product: np.ndarray, plan: MatMulPlan, ctx: HEContext,
                         key: PublicKey) -> CipherVector:
    """``reducing_matmul``'s ciphertexts from the field product (..., d_out, cols) of its operands.

    Over Z_p the multiply-accumulate has no rounding: slot (j, k) of
    sum_o view_o(A) * view_o(B) is (A @ B mod p)[j, k] for k < m and 0 in
    the padded columns (the ``delta_reference`` identity).  So the product
    A @ B of the model the servers hold encrypted and the plaintext batch,
    or a stack of batches, gives the d_out x plan.m slots, stored at that
    width as the kernel's ciphertexts are, and metered as the kernel: d_in
    c2p products and d_in - 1 additions.  Real operands keep
    ``reducing_matmul``, whose float sums depend on the order of terms.
    """
    if product.shape[-2] != plan.d_out or product.shape[-1] > plan.m:
        raise PlanError(f"product shape {product.shape} does not match plan")
    lead = product.shape[:-2]
    out = np.zeros(lead + (plan.d_out, plan.m), dtype=np.uint64)
    out[..., : product.shape[-1]] = product
    return ctx.fold_int_slots(out.reshape(lead + (-1,)), key, terms=plan.d_in, copies=1,
                              width=plan.d_out * plan.m)
