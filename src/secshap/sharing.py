"""Two-party additive secret sharing over Z_p with a fixed-point codec.

A real secret x is encoded as round(x * 2**frac_bits) mod p and split
into two uniformly-masked shares held by the two servers.
Multiplication of shared matrices uses dealer-provided Beaver triples
followed by the usual local truncation, which can be off by one unit in
the last fixed-point bit.

The field is Z_p for the Mersenne prime p = 2**61 - 1, and share arrays
are uint64: masks and triples come from one ``Generator.integers``
block, sums reduce with the Mersenne fold (x & p) + (x >> 61) and one
conditional subtraction, and a matrix product a @ b of any uint64
operands is one float64 matrix product that stays exact: b splits into
two 32-bit halves b_j through a ``uint32`` view, and
a @ b = sum_j (a * 2**(32 j) mod p) @ b_j, where each turned copy of a
splits into five 13-bit limbs; every coefficient stays below 2**53 up to
an inner width of 2**7 (wider products add chunks), and rotations
combine them.  ``M61`` holds that arithmetic.

Products take leading stack axes: ``share_matmul`` multiplies a stack of
shared matrices at once, each product with its own Beaver triple.
``TripleSupply.deal`` draws the triples of a stack of evaluations from
one block, laid out as one-by-one ``take`` calls would draw them, and sizes
the scratch buffer (``_Arena``, supplies may share one) of its products and
dealer; ``share_matmul`` never forms [f ; v_j] as one array.  Every
message of a product, the dealer's triple shares and the servers'
openings, goes through the ``Router.send`` that ``share_matmul`` is
given, so the dealer's sends are metered there, not in the supply.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from .matrix import ShapeError

__all__ = [
    "FieldParams",
    "SharePair",
    "BeaverTriple",
    "TripleSupply",
    "CodecError",
    "SupplyError",
    "DEFAULT_PRIME",
    "encode",
    "encode_matrix",
    "decode_matrix",
    "M61",
    "mask_rng",
    "secretsv_headroom_error",
    "split_matrix",
    "split_masked",
    "reconstruct_int",
    "share_matmul",
]

DEFAULT_PRIME = (1 << 61) - 1  # Mersenne prime, 61 bits


class CodecError(ValueError):
    """Secret outside the representable fixed-point range."""


class SupplyError(RuntimeError):
    """The Beaver triple supply ran dry."""


@dataclass(frozen=True)
class FieldParams:
    prime: int = DEFAULT_PRIME
    frac_bits: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.prime != DEFAULT_PRIME:
            raise ValueError("prime: only 2**61 - 1 is supported")
        if self.frac_bits < 0:
            raise ValueError(f"frac_bits: must be non-negative, got {self.frac_bits}")

    @property
    def bits(self) -> int:
        return self.prime.bit_length()

    def secret_bound(self) -> float:
        """Largest |x| the codec accepts for a fresh secret."""
        return float(1 << (self.bits - self.frac_bits - 2))


def secretsv_headroom_error(frac_bits: int) -> str | None:
    """Why ``frac_bits`` is too large for one fixed-point product, or None.

    A product of two values at scale frac_bits, before its truncation,
    needs 2 * frac_bits + 9 of the prime's 61 bits; SecretSV makes one per
    layer, each from a Beaver triple.
    """
    if 2 * frac_bits + 9 > DEFAULT_PRIME.bit_length():
        return ("frac_bits: too large for secretsv, whose products need 2 * frac_bits + 9 "
                "prime bits (frac_bits <= 26)")
    return None


@dataclass(frozen=True)
class SharePair:
    """Additive shares: s_prime at server P, s_dprime at server A.

    Each half is a uint64 ndarray of field elements.
    """

    s_prime: np.ndarray
    s_dprime: np.ndarray


@dataclass(frozen=True)
class BeaverTriple:
    """Shares of (u, v, w) with w = u @ v in the field."""

    u: SharePair
    v: SharePair
    w: SharePair


# -- field arithmetic on arrays -----------------------------------------------


class _Arena:
    """Scratch arrays bumped off one buffer: ``alloc`` hands out the next piece (a
    fresh array past the buffer's end), ``rewind(mark, reserve=0)`` gives back the pieces
    since ``mark = arena.top`` and, at 0, grows the buffer to the deepest top seen or
    reserved.  Nothing that leaves a product may be a piece."""

    def __init__(self):
        self._buf, self.top, self._deepest = np.empty(0, dtype=np.uint8), 0, 0

    def alloc(self, shape: tuple, dtype=np.uint64) -> np.ndarray:
        at = self.top
        self.top = top = at + -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
        if top <= self._buf.size:
            return np.ndarray(shape, dtype, self._buf, at)
        self._deepest = max(self._deepest, top)
        return np.empty(shape, dtype)

    def rewind(self, mark: int, reserve: int = 0) -> None:
        self.top, self._deepest = mark, max(self._deepest, reserve)
        if mark == 0 and self._buf.size < self._deepest:
            self._buf = np.empty(self._deepest, dtype=np.uint8)


class _Fresh:
    """The arena of a one-off product: its pieces are fresh arrays, freed with their last view."""
    top, alloc, rewind = 0, staticmethod(np.empty), staticmethod(lambda mark: None)


_LIMB_BITS = 13
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_SHIFTS = np.arange(0, 5 * _LIMB_BITS, _LIMB_BITS, dtype=np.uint64)[:, None, None, None]
_TURNS = np.array([0, 32], dtype=np.uint64)[:, None]  # 2^(32 j), j = 0, 1
_TURN_SHIFTS, _FOLD_SHIFTS = ((k, 61 - k) for k in (_TURNS, _LIMB_SHIFTS[..., 0]))  # (k, 61 - k)
_MAX_INNER = 1 << 7  # 2^8 products of a 13-bit limb by a 32-bit half sum below 2^53


class _Mersenne61:
    """uint64 arrays modulo p = 2**61 - 1, where 2**61 = 1 (mod p).

    Ops: ``random(gen, shape)``, ``random_block(gen, count, sizes)``
    (``count`` runs of draws in one block, as consecutive ``random``
    calls), ``reduce`` (sums of canonical elements), ``mul``
    (entrywise), ``matmul`` (any uint64 operands, reduced or not, over
    leading stack axes), ``weighted_sum`` (small non-negative weights
    times any uint64 terms), ``from_rounded`` (integer-valued floats) and
    ``signed``.
    """

    p = DEFAULT_PRIME

    def random(self, gen: np.random.Generator, shape) -> np.ndarray:
        return gen.integers(0, self.p, size=shape, dtype=np.uint64)

    def random_block(self, gen: np.random.Generator, count: int, sizes) -> np.ndarray:
        """``count`` runs of ``random(gen, size)`` for each size in turn, as one (count, sum) block."""
        return gen.integers(0, self.p, size=(count, sum(sizes)), dtype=np.uint64)

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """Canonical residues of a uint64 array (any values)."""
        x = (x & self.p) + (x >> 61)  # <= p + 7
        # below p, x - p wraps above x, so the minimum is the residue
        return np.minimum(x, x - self.p, out=x)

    def _reduce_into(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """``reduce`` of x written to ``out`` (which may be x); x and scratch are clobbered."""
        np.right_shift(x, 61, out=scratch)
        x &= self.p
        x += scratch
        np.subtract(x, self.p, out=scratch)
        return np.minimum(x, scratch, out=out)

    def _rotate(self, x: np.ndarray, k, back, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """((x << k) & p) + (x >> back), a residue of x 2^k below 2^61 + 2^(k + 3), into ``out``
        (which may be x) for any uint64 x, 0 <= k < 61 and back = 61 - k (both may broadcast)."""
        np.right_shift(x, back, out=scratch)
        np.left_shift(x, k, out=out)
        out &= self.p
        out += scratch
        return out

    def mul(self, a, b) -> np.ndarray:
        """Entrywise product (broadcasting) from 32-bit halves."""
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        a_hi, a_lo = a >> 32, a & 0xFFFFFFFF
        b_hi, b_lo = b >> 32, b & 0xFFFFFFFF
        mid = a_hi * b_lo + a_lo * b_hi  # < 2^62
        lo = a_lo * b_lo  # < 2^64
        # a*b = hi*2^64 + mid*2^32 + lo, and 2^64 = 8, 2^61 = 1 (mod p)
        return self.reduce(
            ((a_hi * b_hi) << 3)
            + (mid >> 29) + ((mid & ((1 << 29) - 1)) << 32)
            + (lo & self.p) + (lo >> 61)
        )

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact a @ b mod p of uint64 operands (any values), over any leading stack axes."""
        lead_a, lead_b = a.shape[:-2], b.shape[:-2]
        lead = np.broadcast_shapes(lead_a, lead_b) if lead_a and lead_b else lead_a or lead_b
        return self._matmul(a, (b,), np.empty(lead + (a.shape[-2], b.shape[-1]), np.uint64),
                            _Fresh())

    def _matmul(self, a: np.ndarray, blocks, out: np.ndarray, arena: _Arena) -> np.ndarray:
        """``matmul`` by b's row ``blocks`` (one leading shape) into ``out``, via ``arena``."""
        (r, k), c = a.shape[-2:], out.shape[-1]
        split = len(blocks) > 1 and _splits_planes(r, min(k, _MAX_INNER), c)
        if k <= _MAX_INNER:
            self._matmul_chunk(a, blocks, out, arena, split)
            return out
        mark, part = arena.top, arena.alloc(out.shape, np.uint64)
        starts = list(itertools.accumulate((x.shape[-2] for x in blocks), initial=0))
        for lo in range(0, k, _MAX_INNER):
            hi = lo + _MAX_INNER
            rows = [x[..., max(lo - at, 0):hi - at, :] for x, at in zip(blocks, starts)
                    if at < hi and at + x.shape[-2] > lo]
            self._matmul_chunk(a[..., lo:hi], rows, part if lo else out, arena, split)
            if lo:
                out += part
                self._reduce_into(out, out, part)
        arena.rewind(mark)
        return out

    def _matmul_chunk(self, a: np.ndarray, blocks, out: np.ndarray, arena: _Arena, split) -> None:
        """Exact product for inner width <= 2^7 into ``out``: float64 matmuls of limbs.

        b (its row ``blocks`` stacked) = b_0 + b_1 2^32 splits into two 32-bit
        words, read through ``uint32`` views.  Then a @ b = a_0 @ b_0 + a_1 @ b_1
        mod p, where a_j = ``_rotate(a, 32 j)`` < 2^62 is a residue of
        a 2^(32 j), and a_j = sum_i a_ji 2^(13 i) splits into five 13-bit
        limbs.  Row block i of [a_ji] (over columns j, then the inner index)
        times [b_j] stacked is the coefficient c_i of 2^(13 i), each below
        2 * 2^7 * 2^13 * 2^32 = 2^53; rotations by 13 i take them below
        2^61, so their sum fits one reduction.  The float plane of [b_j]
        holds both words, or with ``split`` one (word, block) at a time.
        """
        (r, k), c = a.shape[-2:], blocks[0].shape[-1]
        mark, product = arena.top, arena.alloc(out.shape[:-2] + (5 * r, c), np.float64)
        limbs = arena.alloc(a.shape[:-2] + (5 * r, 2 * k), np.float64)
        temps, (turned, scratch) = arena.top, arena.alloc((2,) + a.shape[:-1] + (2, k), np.uint64)
        self._rotate(a[..., None, :], *_TURN_SHIFTS, turned, scratch)  # (..., r, 2, k)
        shifted = arena.alloc(a.shape[:-2] + (5, r, 2, k), np.uint16)  # low 16 bits of each shift
        np.right_shift(turned[..., None, :, :, :], _LIMB_SHIFTS, out=shifted, casting="unsafe")
        shifted &= _LIMB_MASK
        np.copyto(limbs, shifted.reshape(limbs.shape))
        arena.rewind(temps)
        blocks = [x if x.strides[-1] == 8 else np.ascontiguousarray(x) for x in blocks]
        lead, starts = blocks[0].shape[:-2], [0, *itertools.accumulate(x.shape[-2] for x in blocks)]
        if not split:  # one matmul
            plane = arena.alloc(lead + (2, k, c), np.float64)
            for x, at in zip(blocks, starts):
                words = x.view("<u4").reshape(x.shape + (2,)).swapaxes(-1, -2).swapaxes(-2, -3)
                np.copyto(plane[..., at:at + x.shape[-2], :], words)
            np.matmul(limbs, plane.reshape(lead + (2 * k, c)), out=product)
            coeff = arena.alloc(out.shape[:-2] + (5, r, c), np.uint64)
        else:  # the matmuls summed in float64, each below 2^53
            coeff = arena.alloc(out.shape[:-2] + (5, r, c), np.uint64)
            partial = coeff.view(np.float64).reshape(product.shape)  # until the fold
            plane = arena.alloc(lead + (max(x.shape[-2] for x in blocks), c), np.float64)
            for n, (j, (x, at)) in enumerate(itertools.product((0, 1), zip(blocks, starts))):
                rows, at = plane[..., :x.shape[-2], :], j * k + at
                np.copyto(rows, x.view("<u4")[..., j::2])
                np.matmul(limbs[..., at:at + x.shape[-2]], rows, out=partial if n else product)
                if n:
                    product += partial
        np.copyto(coeff.reshape(product.shape), product, casting="unsafe")
        scratch = product.view(np.uint64).reshape(coeff.shape)
        self._rotate(coeff, *_FOLD_SHIFTS, coeff, scratch)
        np.add.reduce(coeff, axis=-3, out=out)
        self._reduce_into(out, out, scratch[..., 0, :, :])
        arena.rewind(mark)

    def weighted_sum(self, weights, x) -> np.ndarray:
        """Exact weights @ x mod p: shape (..., terms) by (terms, ...), summed over the terms.

        The weights are non-negative integers, each row summing below 2^31
        (encoded FedAvg weights sum to at most 2^frac_bits + terms / 2);
        x holds any uint64 values.  With x = x_0 + x_1 2^32 in 32-bit
        words, the weighted word sums lo and hi stay below 2^63, and
        hi 2^32 = ((hi << 32) & p) + (hi >> 29) mod p, so their sum stays
        below 2^64 and one reduction makes it canonical.
        """
        w, x = np.asarray(weights, dtype=np.uint64), np.asarray(x, dtype=np.uint64)
        words = x.reshape(len(x), -1)
        lo, hi = w @ (words & 0xFFFFFFFF), w @ (words >> 32)
        return self.reduce(lo + ((hi << 32) & self.p) + (hi >> 29)).reshape(w.shape[:-1] + x.shape[1:])

    def from_rounded(self, scaled: np.ndarray) -> np.ndarray:
        """Field elements of integer-valued floats below 2^63 in magnitude."""
        return (scaled.astype(np.int64) % self.p).astype(np.uint64)

    def signed(self, x) -> np.ndarray:
        """Representatives in (-p/2, p/2] of any integer array, as int64."""
        e = (np.asarray(x) % self.p).astype(np.int64)
        return np.where(e > self.p // 2, e - self.p, e)


M61 = _Mersenne61()


def mask_rng(seed: int | str) -> np.random.Generator:
    """A mask stream for ``split_matrix``, seeded by any int or string."""
    return np.random.default_rng(random.Random(seed).getrandbits(64))


# -- codec ---------------------------------------------------------------


def encode(x: float, field: FieldParams) -> int:
    if not np.isfinite(x):
        raise CodecError(f"cannot encode non-finite value {x}")
    if abs(x) >= field.secret_bound():
        raise CodecError(f"|{x}| exceeds codec range {field.secret_bound()}")
    return round(float(x) * (1 << field.frac_bits)) % field.prime


def encode_matrix(m: np.ndarray, field: FieldParams) -> np.ndarray:
    """Field elements of a real array of any shape."""
    data = np.asarray(m, dtype=np.float64)
    bad = ~np.isfinite(data)
    if bad.any():
        raise CodecError(f"cannot encode non-finite value {data[bad][0]}")
    bound = field.secret_bound()
    big = np.abs(data) >= bound
    if big.any():
        raise CodecError(f"|{data[big][0]}| exceeds codec range {bound}")
    return M61.from_rounded(np.round(data * float(1 << field.frac_bits)))


def decode_matrix(raw, field: FieldParams, scale_bits: int) -> np.ndarray:
    """Field elements (any shape) back to signed reals at scale 2**scale_bits.

    A signed representative past p/4 means an intermediate value wrapped
    the field; that raises instead of decoding to a wrong real.
    """
    signed = M61.signed(raw)
    if np.any(np.abs(signed) > field.prime // 4):
        raise CodecError("fixed-point overflow: intermediate value too large for the field")
    return np.asarray(signed / float(1 << scale_bits), dtype=np.float64)


# -- splitting and reconstruction -----------------------------------------


def split_matrix(m: np.ndarray, field: FieldParams, rng: np.random.Generator) -> SharePair:
    """Encode and share a real array; an integer array is refused.

    Masks come from ``rng``.  Field elements that are already encoded are
    shared with ``split_masked``.
    """
    if np.asarray(m).dtype.kind in "iuO":
        raise CodecError("split_matrix shares reals; share encoded field elements "
                         "with split_masked")
    enc = encode_matrix(m, field)
    return split_masked(enc, M61.random(rng, enc.shape), field)


def split_masked(enc: np.ndarray, mask: np.ndarray, field: FieldParams) -> SharePair:
    """Shares (mask, enc - mask) of field elements under masks already drawn."""
    return SharePair(mask, M61.reduce(enc + (field.prime - mask)))


def reconstruct_int(pair: SharePair, field: FieldParams):
    return M61.reduce(pair.s_prime + pair.s_dprime)


# -- Beaver-triple matrix multiplication -----------------------------------


class TripleSupply:
    """Trusted-dealer source of matrix Beaver triples.

    One triple covers one matrix product; its cost in scalar
    multiplications is rows_a * cols_a * cols_b.  An optional budget
    makes exhaustion testable.  The supply only computes; ``share_matmul``
    sends each server its triple shares.

    ``take(shape_a, shape_b)`` hands out one triple, or a stack of
    ``count`` for shapes (count, r, k) x (count, k, c); ``used`` is
    charged as triples are taken.  Each triple draws u, v, then the masks
    of u, v and w.  ``deal(count, shapes)`` draws
    ahead, from one block, the triples of ``count`` evaluations that each
    make the products ``shapes``, laid out as one-by-one takes would draw
    them; stacked takes then form them in the block, product by product.
    A budget fails where one-by-one takes would, with the same ``used``.
    """

    def __init__(self, field: FieldParams, budget: int | None = None, arena=None):
        headroom = secretsv_headroom_error(field.frac_bits)
        if headroom:
            raise ValueError(headroom)
        self.field = field
        self.budget = budget
        self.used = 0
        self._rng = mask_rng(field.seed ^ 0x5EED)
        self._arena = arena or _Arena()  # scratch of the dealer and of share_matmul
        self._dealt: deque = deque()  # ((count, shape_a, shape_b), draws), in take order
        self._pending = 0  # cost of the dealt triples not yet taken

    def deal(self, count: int, shapes) -> None:
        """Draw the triples of ``count`` evaluations, each making the products ``shapes``."""
        shapes = [(tuple(a), tuple(b)) for a, b in shapes]
        for shape_a, shape_b in shapes:
            if shape_a[1] != shape_b[0]:
                raise ShapeError(f"triple shapes do not conform: {shape_a} x {shape_b}")
        costs = [a[0] * a[1] * b[1] for a, b in shapes]
        committed = self.used + self._pending
        if self.budget is not None and committed + count * sum(costs) > self.budget:
            for cost in costs * count:  # in take order
                if committed + cost > self.budget:
                    self.used = committed
                    raise SupplyError(
                        f"triple budget exhausted: need {cost}, have {self.budget - committed}"
                    )
                committed += cost
        # per product: u, v, then the masks of u, v and w
        parts = [part for a, b in shapes for part in (a, b, a, b, (a[0], b[1]))]
        sizes = [math.prod(part) for part in parts]
        block = M61.random_block(self._rng, count, sizes)
        starts = list(itertools.accumulate(sizes, initial=0))
        draws = [block[:, at:at + size].reshape((count,) + part)
                 for at, size, part in zip(starts, sizes, parts)]
        self._dealt.extend(((count,) + s, draws[5 * j:5 * j + 5]) for j, s in enumerate(shapes))
        self._pending += count * sum(costs)
        self._arena.rewind(self._arena.top, max(_product_bytes(count, a, b) for a, b in shapes))

    def take(self, shape_a: tuple, shape_b: tuple) -> BeaverTriple:
        stacked = len(shape_a) == 3
        count = shape_a[0] if stacked else 1
        key = (count, tuple(shape_a[-2:]), tuple(shape_b[-2:]))
        if stacked and shape_b[0] != count:
            raise ShapeError(f"triple stacks differ in length: {shape_a} x {shape_b}")
        if not self._dealt:
            self.deal(count, [key[1:]])
        if self._dealt[0][0] != key:
            raise ShapeError(f"next dealt triple is for {self._dealt[0][0]}, not {key}")
        _, (u, v, mask_u, mask_v, mask_w) = self._dealt.popleft()
        cost = count * key[1][0] * key[1][1] * key[2][1]
        self._pending -= cost
        self.used += cost
        # w = u @ v goes to a fresh w''; u'' and v'' overwrite u and v in the block
        pairs = [SharePair(mask_u, u), SharePair(mask_v, v), split_masked(
            M61._matmul(u, (v,), self._arena.alloc(mask_w.shape), self._arena), mask_w, self.field)]
        for x, mask in ((u, mask_u), (v, mask_v)):
            x, mask = x.reshape(count, -1), mask.reshape(count, -1)  # rows numpy updates in place
            x -= mask
            x += self.field.prime
            M61._reduce_into(x, x, self._arena.alloc(x.shape))
        self._arena.rewind(0)
        return BeaverTriple(*(pairs if stacked else
                              (SharePair(x.s_prime[0], x.s_dprime[0]) for x in pairs)))


def _truncate_shares(pair: SharePair, field: FieldParams) -> SharePair:
    """Local truncation by 2**frac_bits after a product (off-by-one possible)."""
    p = field.prime
    shift = field.frac_bits
    return SharePair(pair.s_prime >> shift, M61.reduce(p - ((p - pair.s_dprime) >> shift)))


def _opened(x: SharePair, mask: SharePair, out: np.ndarray, arena: _Arena) -> np.ndarray:
    """x - mask from both servers' shares, x' + x'' + 2p - m' - m'' in one reduction, to ``out``."""
    mark, scratch = arena.top, arena.alloc(out.shape)
    np.add(x.s_prime, x.s_dprime, out=out)
    np.subtract(2 * M61.p, mask.s_prime, out=scratch)
    scratch -= mask.s_dprime
    out += scratch
    M61._reduce_into(out, out, scratch)
    arena.rewind(mark)
    return out


def _splits_planes(r: int, inner: int, c: int) -> bool:
    """Split b's float planes by (word, block) where a word's outweighs limbs and coefficients."""
    return inner * c > 10 * r * (inner + c)


def _product_bytes(count: int, shape_a: tuple, shape_b: tuple) -> int:
    """Deepest arena top of ``share_matmul`` and its dealer on ``count`` stacked
    products shape_a x shape_b (2-D shapes), each piece rounded up to 64 bytes."""
    (r, k), c = shape_a, shape_b[1]
    inner = min(2 * k, _MAX_INNER)
    rc, rk, ri = 8 * r * c, 8 * r * k, 8 * r * inner
    plane = 8 * c * (min(k, inner) if _splits_planes(r, inner, c) else 2 * inner)

    def size(*nbytes):
        return sum(-(-count * n // 64) * 64 for n in nbytes)
    # e + u', both servers' results (and an inner chunk's), the kernel's product and
    # limbs, then its coefficients and a float plane, or the limbs' temporaries
    deepest = (size(rk, rc, rc, rc, rc * (2 * k > _MAX_INNER), 5 * rc, 10 * ri)
               + max(size(5 * rc, plane), size(4 * ri, 5 * ri // 2)))
    return size(2 * rk, 8 * k * c) + max(size(8 * k * c), deepest)  # left, f, f's opening


def _beaver_bytes(shapes) -> int:
    """One evaluation's Beaver working set: its dealt triples and its deepest product's scratch."""
    dealt = sum(2 * r * k + 2 * k * c + r * c for (r, k), (_, c) in shapes)  # u, v, 3 masks
    return 8 * dealt + max(_product_bytes(1, a, b) for a, b in shapes)


def share_matmul(
    a: SharePair,
    b: SharePair,
    supply: TripleSupply,
    field: FieldParams,
    router=None,
) -> SharePair:
    """Product of two shared matrices via one Beaver triple, then truncation.

    ``a`` may be a stack (count, r, k) of shared matrices; ``b`` is then
    a stack (count, k, c), or one (k, c) matrix every product shares.
    Each product uses its own triple, taken as one stack.  The dealer
    sends each server its triple shares, both servers open masked
    differences to each other (each message through ``router.send`` when
    a router is given) and combine them with their triple shares, with
    the temporaries in the supply's arena.  The result is shared at the
    codec scale again.
    """
    shape_a = a.s_prime.shape
    shape_b = b.s_prime.shape
    if shape_a[-1] != shape_b[-2]:
        raise ShapeError(f"cannot multiply shared {shape_a} by {shape_b}")
    triple = supply.take(shape_a, shape_a[:-2] + shape_b[-2:])
    u, v, w = triple.u, triple.v, triple.w
    arena, (r, k), c, lead = supply._arena, shape_a[-2:], shape_b[-1], u.s_prime.shape[:-2]
    # z' = [e + u' | e] @ [f ; v'] + w' at P and z'' = [u'' | e] @ [f ; v''] + w'' at A,
    # each one product over both halves of its inner axis, [f ; v_j] as two row blocks
    left = arena.alloc(lead + (r, 2 * k))

    # each server masks its shares locally; the differences e = a - u and
    # f = b - v are opened
    e = _opened(a, u, left[..., k:], arena)
    f = _opened(b, v, arena.alloc(lead + (k, c)), arena)
    if router is not None:
        router.send("dealer", "server_p", (u.s_prime, v.s_prime, w.s_prime))
        router.send("dealer", "server_a", (u.s_dprime, v.s_dprime, w.s_dprime))
        router.send("server_p", "server_a", (e, f))
        router.send("server_a", "server_p", (e, f))

    z = []
    for u_j, v_j, w_j in ((np.add(e, u.s_prime, out=arena.alloc(e.shape)), v.s_prime, w.s_prime),
                          (u.s_dprime, v.s_dprime, w.s_dprime)):
        left[..., :k] = u_j
        half = M61._matmul(left, (f, v_j), arena.alloc(lead + (r, c)), arena)
        half += w_j
        z.append(M61._reduce_into(half, half, arena.alloc(half.shape)))
    out = _truncate_shares(SharePair(*z), field)
    arena.rewind(0)
    return out
