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
two 32-bit words b_j through a ``uint32`` view (b's float planes), and
a @ b = sum_j (a * 2**(32 j) mod p) @ b_j, where each turned copy of a
splits into five 13-bit limbs; every coefficient stays below 2**53 up to
an inner width of 2**7 (wider products add chunks), and rotations fold
them into residues.  ``M61`` holds that arithmetic.

Products take leading stack axes: ``share_matmul`` multiplies a stack of
shared matrices at once, each product with its own Beaver triple.
``TripleSupply.deal`` draws the triples of a stack of evaluations from
one block, laid out as one-by-one ``take`` calls would draw them, and grows
the scratch buffer (``_Arena``, supplies may share one) to the deepest its
earlier products reached.  ``share_matmul`` forms the dealer's w = u @ v
along with both servers' products, and turns each of f, v' and v'' into
float planes once.  Every message of a product, the dealer's triple
shares and the servers' openings, goes through the ``Router.send`` that
``share_matmul`` is given, so the dealer's sends are metered there, not
in the supply.
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
    """Shares of u and v, and the mask w' of w = u @ v in the field.

    w' is server P's share of w; ``share_matmul`` forms w and server A's
    share w'' = w - w' as it multiplies.
    """

    u: SharePair
    v: SharePair
    w_prime: np.ndarray


# -- field arithmetic on arrays -----------------------------------------------


class _Arena:
    """Scratch arrays bumped off one buffer: ``alloc`` hands out the next piece (a fresh
    array past the buffer's end), ``rewind(mark)`` gives back the pieces since
    ``mark = arena.top``, and ``fit()``, at top 0, grows the buffer to the deepest top
    seen.  Nothing that leaves a product may be a piece.  Each ``TripleSupply.deal`` fits
    it: ``run_secretsv``'s first chunk is its deepest (full chunks come first, rounds share
    shapes) and runs on fresh pieces, so its buffer grows once per run."""

    def __init__(self):
        self._buf, self.top, self._deepest = np.empty(0, dtype=np.uint8), 0, 0

    def alloc(self, shape: tuple, dtype=np.uint64) -> np.ndarray:
        at = self.top
        self.top = top = at + -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
        if top <= self._buf.size:
            return np.ndarray(shape, dtype, self._buf, at)
        self._deepest = max(self._deepest, top)
        return np.empty(shape, dtype)

    def rewind(self, mark: int) -> None:
        self.top = mark

    def fit(self) -> None:
        if self._buf.size < self._deepest:
            self._buf = np.empty(self._deepest, dtype=np.uint8)


class _Fresh:
    """The arena of a one-off product: its pieces are fresh arrays, freed with their last view."""
    top, rewind = 0, staticmethod(lambda mark: None)

    @staticmethod
    def alloc(shape: tuple, dtype=np.uint64) -> np.ndarray:
        return np.empty(shape, dtype)


_LIMB_BITS = 13
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_SHIFTS = np.arange(0, 5 * _LIMB_BITS, _LIMB_BITS, dtype=np.uint64)[:, None, None]
_TURNS = np.array([0, 32], dtype=np.uint64)[:, None]  # 2^(32 j), j = 0, 1
_TURN_SHIFTS, _FOLD_SHIFTS = ((k, 61 - k) for k in (_TURNS, _LIMB_SHIFTS[..., 0]))  # (k, 61 - k)
_MAX_INNER = 1 << 7  # 2^8 products of a 13-bit limb by a 32-bit word sum below 2^53
_SCRATCH_BYTES = 1 << 20  # float64 budget of one group of a stacked Beaver product


class _Mersenne61:
    """uint64 arrays modulo p = 2**61 - 1, where 2**61 = 1 (mod p).

    Ops: ``random(gen, shape)``, ``random_block(gen, count, sizes)``
    (``count`` runs of draws in one block, as consecutive ``random``
    calls), ``reduce`` (sums of canonical elements), ``mul``
    (entrywise), ``matmul`` (any uint64 operands, reduced or not, over
    leading stack axes), ``weighted_sum`` (small non-negative weights
    times any uint64 terms), ``from_rounded`` (integer-valued floats) and
    ``signed``.  A product is three steps that ``share_matmul`` also takes
    one by one: ``_limbs`` of the left operand and ``_planes`` of the
    right one, whose float64 product gives the limb coefficients, and
    ``_fold``, which turns coefficients into residues.
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
        return self._matmul(a, b, np.empty(lead + (a.shape[-2], b.shape[-1]), np.uint64), _Fresh())

    def _matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray, arena: _Arena) -> np.ndarray:
        """``matmul`` into ``out`` via ``arena``, one float64 product per inner chunk of 2^7."""
        (r, k), c = a.shape[-2:], b.shape[-1]
        b = b if b.strides[-1] == 8 else np.ascontiguousarray(b)

        def chunk(lo, hi, part):
            mark, limbs = arena.top, self._limbs(a[..., lo:hi], arena)
            product = arena.alloc(part.shape[:-2] + (r, 5, c), np.float64)
            planes, rows = arena.top, b[..., lo:hi, :]
            plane = self._planes(rows, arena.alloc(rows.shape[:-2] + (2 * rows.shape[-2], c),
                                                   np.float64))
            np.matmul(limbs, plane, out=product.reshape(part.shape[:-2] + (5 * r, c)))
            arena.rewind(planes)
            coeff = arena.alloc(product.shape)
            np.copyto(coeff, product, casting="unsafe")
            self._fold(coeff, part, product.view(np.uint64))
            arena.rewind(mark)

        return self._by_chunks(k, _MAX_INNER, chunk, out, arena)

    def _by_chunks(self, k: int, width: int, chunk, out: np.ndarray, arena: _Arena) -> np.ndarray:
        """``out`` = the sum mod p of ``chunk(lo, hi, part)``, each writing its residues to
        ``part``, over the inner axis's chunks lo:hi of ``width``."""
        if k <= width:
            chunk(0, k, out)
            return out
        mark, part = arena.top, arena.alloc(out.shape)
        for lo in range(0, k, width):
            chunk(lo, lo + width, part if lo else out)
            if lo:
                out += part
                self._reduce_into(out, out, part)
        arena.rewind(mark)
        return out

    def _limbs(self, a: np.ndarray, arena: _Arena) -> np.ndarray:
        """Float64 limbs (..., 5 r, 2 k) of any uint64 a (..., r, k), an arena piece.

        a_j = ``_rotate(a, 32 j)`` < 2^62 is a residue of a 2^(32 j), and
        a_j = sum_i a_ji 2^(13 i) splits into five 13-bit limbs: row 5 rho + i,
        column j k + kappa holds limb i of a_j[rho, kappa].  Times b's
        ``_planes`` it gives, in row 5 rho + i, the coefficient c_i of
        2^(13 i) in row rho of a @ b mod p; over an inner width of at most
        2^7 each stays below 2 * 2^7 * 2^13 * 2^32 = 2^53, so float64 holds
        it exactly.
        """
        lead, (r, k) = a.shape[:-2], a.shape[-2:]
        limbs = arena.alloc(lead + (5 * r, 2 * k), np.float64)
        temps, (turned, scratch) = arena.top, arena.alloc((2,) + a.shape[:-1] + (2, k))
        self._rotate(a[..., None, :], *_TURN_SHIFTS, turned, scratch)  # (..., r, 2, k)
        shifted = arena.alloc(lead + (r, 5, 2, k), np.uint16)  # low 16 bits of each shift
        np.right_shift(turned[..., None, :, :], _LIMB_SHIFTS, out=shifted, casting="unsafe")
        shifted &= _LIMB_MASK
        np.copyto(limbs, shifted.reshape(limbs.shape))
        arena.rewind(temps)
        return limbs

    @staticmethod
    def _planes(b: np.ndarray, plane: np.ndarray, add: bool = False) -> np.ndarray:
        """b (..., k, c) as its 32-bit words b = b_0 + b_1 2^32 in float64, into ``plane``
        (..., 2 k, c), row block j holding b_j, or added to the words there; b's rows must be
        contiguous (a ``uint32`` view)."""
        words = b.view("<u4").reshape(b.shape + (2,)).swapaxes(-1, -2).swapaxes(-2, -3)
        target = plane.reshape(words.shape)
        if add:
            np.add(target, words, out=target)
        else:
            np.copyto(target, words)
        return plane

    def _fold(self, coeff: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Residues sum_i c_i 2^(13 i) (..., R, c) into ``out`` of limb coefficients
        coeff (..., R, 5, c), any uint64: rotations by 13 i take each below
        2^61 + 2^55, so the five sum below 2^64 and one reduction ends it.
        coeff and scratch (coeff's shape) are clobbered."""
        self._rotate(coeff, *_FOLD_SHIFTS, coeff, scratch)
        np.add.reduce(coeff, axis=-2, out=out)
        return self._reduce_into(out, out, scratch[..., 0, :])

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
        """Representatives in (-p/2, p/2] of any integer array, as int64.

        Canonical uint64 residues, what ``reduce`` returns, skip the
        per-element ``% p``.
        """
        x = np.asarray(x)
        if x.dtype != np.uint64 or (x >= self.p).any():
            x = x % self.p
        e = x.astype(np.int64)
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
    makes exhaustion testable.  The supply only draws; ``share_matmul``
    forms w = u @ v and sends each server its triple shares.

    ``take(shape_a, shape_b)`` hands out one triple, or a stack of
    ``count`` for shapes (count, r, k) x (count, k, c): the shares of u
    and v and the mask of w (a ``BeaverTriple``); ``used`` is charged as
    triples are taken.  Each triple draws u, v, then the masks of u, v
    and w.  ``deal(count, shapes)`` draws ahead, from one block, the
    triples of ``count`` evaluations that each make the products
    ``shapes``, laid out as one-by-one takes would draw them; stacked
    takes then form their shares in the block, product by product.  A
    budget fails where one-by-one takes would, with the same ``used``.
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
        parts = _dealt_parts(shapes)
        sizes = [math.prod(part) for part in parts]
        block = M61.random_block(self._rng, count, sizes)
        starts = list(itertools.accumulate(sizes, initial=0))
        draws = [block[:, at:at + size].reshape((count,) + part)
                 for at, size, part in zip(starts, sizes, parts)]
        self._dealt.extend(((count,) + s, draws[5 * j:5 * j + 5]) for j, s in enumerate(shapes))
        self._pending += count * sum(costs)
        self._arena.fit()

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
        # u'' and v'' overwrite u and v in the block
        for x, mask in ((u, mask_u), (v, mask_v)):
            x, mask = x.reshape(count, -1), mask.reshape(count, -1)  # rows numpy updates in place
            x -= mask
            x += self.field.prime
            M61._reduce_into(x, x, self._arena.alloc(x.shape))
        self._arena.rewind(0)
        if stacked:
            return BeaverTriple(SharePair(mask_u, u), SharePair(mask_v, v), mask_w)
        return BeaverTriple(SharePair(mask_u[0], u[0]), SharePair(mask_v[0], v[0]), mask_w[0])


def _truncate_shares(pair: SharePair, field: FieldParams) -> SharePair:
    """Local truncation by 2**frac_bits after a product (off-by-one possible)."""
    p = field.prime
    shift = field.frac_bits
    return SharePair(pair.s_prime >> shift, M61.reduce(p - ((p - pair.s_dprime) >> shift)))


def _opened(x: SharePair, mask: SharePair, out: np.ndarray, arena: _Arena) -> np.ndarray:
    """x - mask from both servers' shares into ``out``, unreduced below 4p:
    2p - m' - m'' + (x' + x''), x's sum formed once however many masks it meets."""
    mark = arena.top
    np.subtract(2 * M61.p, mask.s_prime, out=out)
    out -= mask.s_dprime
    out += np.add(x.s_prime, x.s_dprime, out=arena.alloc(x.s_prime.shape))
    arena.rewind(mark)
    return out


def _dealt_parts(shapes) -> list:
    """Shapes of one evaluation's dealt draws: per product u, v, then the masks of u, v and w."""
    return [part for a, b in shapes for part in (a, b, a, b, (a[0], b[1]))]


def _group_size(r: int, k: int, c: int) -> int:
    """Entries of a stacked Beaver product that go through ``_beaver_chunk`` at once.

    A tuning choice, not a bound on the kernel's peak: as many entries as
    keep its three float64 pieces, per entry 40 r k words of limbs, 20 r c
    of accumulators and a 2 k c plane, within ``_SCRATCH_BYTES``; ``_limbs``'
    uint64 temporaries and the fold's uint64 coefficients come on top.  In
    one group, a warm ``run_secretsv``'s tracemalloc peak on perfbench's
    stock / deep / wide reads 5.1 / 9.6 / 5.3 MiB; in these groups (stock 2-5
    entries, deep 1-16, wide 4-15) 4.1 / 5.0 / 3.8 MiB.  Wide batches group
    for the plane, tall layers for the limbs.
    """
    k = min(k, _MAX_INNER // 2)
    return max(1, _SCRATCH_BYTES // (8 * (40 * r * k + 20 * r * c + 2 * k * c)))


def _beaver_chunk(left: np.ndarray, f: np.ndarray, v: SharePair, out: np.ndarray,
                  arena: _Arena) -> None:
    """[z' ; z'' ; w] (..., 3 r, c) of one inner chunk, of width at most 2^6, into ``out``,
    before w' and w'' are added in.

    ``left`` (..., 2, 2 r, k) holds [e + u' ; u''] and [u ; e], and one
    plane piece holds the float planes of f, then of v', then of v' + v''.
    The limbs of [e + u' ; u''] times f's planes give both servers' f
    terms, those of e times v''s planes give e v', and those of [u ; e]
    times the planes of v' + v'' give w = u (v' + v'') and e (v' + v''),
    which less e v' is e v''.  Every coefficient stays below 2^53 at this
    width (the word sums of v' + v'' are below 2^33), so float64 sums and
    differences of them are exact, and one fold covers all 3 r rows.
    """
    lead, (r, k), c = f.shape[:-2], (left.shape[-2] // 2, left.shape[-1]), f.shape[-1]
    mark, limbs = arena.top, M61._limbs(left, arena)  # (..., 2, 10 r, 2 k)
    acc = arena.alloc(lead + (4, 5 * r, c), np.float64)  # z', z'', w, e (v' + v'')
    planes, plane = arena.top, arena.alloc(lead + (2 * k, c), np.float64)
    np.matmul(limbs[..., 0, :, :], M61._planes(f, plane),
              out=acc[..., :2, :, :].reshape(lead + (10 * r, c)))  # (e + u') f and u'' f
    e_v = np.matmul(limbs[..., 1, 5 * r:, :], M61._planes(v.s_prime, plane), out=acc[..., 3, :, :])
    acc[..., 0, :, :] += e_v
    acc[..., 1, :, :] -= e_v
    np.matmul(limbs[..., 1, :, :], M61._planes(v.s_dprime, plane, add=True),
              out=acc[..., 2:, :, :].reshape(lead + (10 * r, c)))
    acc[..., 1, :, :] += acc[..., 3, :, :]
    arena.rewind(planes)
    coeff = arena.alloc(lead + (3 * r, 5, c))
    np.copyto(coeff, acc[..., :3, :, :].reshape(coeff.shape), casting="unsafe")
    M61._fold(coeff, out, acc.view(np.uint64)[..., :3, :, :].reshape(coeff.shape))
    arena.rewind(mark)


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
    Each product uses its own triple, taken as one stack.  Both servers
    open e = a - u and f = b - v to each other; then
    z' = (e + u') f + e v' + w' at P and z'' = u'' f + e v'' + w'' at A,
    where the dealer's w = u (v' + v'') (exact over Z_p, so the w of
    u @ v) gives A's share w'' = w - w'.  Each operand turns into float
    planes once: one product [e + u' ; u''] f gives both servers' f
    terms, and e v'' is e (v' + v'') less e v', made with w.  Every
    message, the dealer's triple shares and the openings, goes through
    ``router.send`` when a router is given; the temporaries live in the
    supply's arena.  The result is shared at the codec scale again.
    """
    shape_a = a.s_prime.shape
    shape_b = b.s_prime.shape
    if shape_a[-1] != shape_b[-2]:
        raise ShapeError(f"cannot multiply shared {shape_a} by {shape_b}")
    triple = supply.take(shape_a, shape_a[:-2] + shape_b[-2:])
    u, v, w_prime = triple.u, triple.v, triple.w_prime
    arena, (r, k), c, lead = supply._arena, shape_a[-2:], shape_b[-1], u.s_prime.shape[:-2]
    left = arena.alloc(lead + (2, 2 * r, k))  # [e + u' ; u''] and [u ; e]

    # each server masks its shares locally; the differences e = a - u and
    # f = b - v are opened
    e = _opened(a, u, left[..., 1, r:, :], arena)
    f = _opened(b, v, arena.alloc(lead + (k, c)), arena)
    np.add(e, u.s_prime, out=left[..., 0, :r, :])
    left[..., 0, r:, :] = u.s_dprime
    np.add(u.s_prime, u.s_dprime, out=left[..., 1, :r, :])
    step = _group_size(r, k, c)
    groups = [slice(at, at + step) for at in range(0, lead[0], step)] if lead else [...]

    def chunk(lo, hi, part):
        for g in groups:
            _beaver_chunk(left[g][..., lo:hi], f[g][..., lo:hi, :], SharePair(
                v.s_prime[g][..., lo:hi, :], v.s_dprime[g][..., lo:hi, :]), part[g], arena)

    zw = M61._by_chunks(k, _MAX_INNER // 2, chunk, arena.alloc(lead + (3 * r, c)), arena)
    z, w = zw[..., :2 * r, :], zw[..., 2 * r:, :]
    scratch = arena.alloc(z.shape)
    w += M61.p
    w -= w_prime
    w_dprime = M61._reduce_into(w, w, scratch[..., r:, :])
    z[..., :r, :] += w_prime
    z[..., r:, :] += w_dprime
    M61._reduce_into(z, z, scratch)
    if router is not None:
        router.send("dealer", "server_p", (u.s_prime, v.s_prime, w_prime))
        router.send("dealer", "server_a", (u.s_dprime, v.s_dprime, w_dprime))
        router.send("server_p", "server_a", (e, f))
        router.send("server_a", "server_p", (e, f))
    out = _truncate_shares(SharePair(z[..., :r, :], z[..., r:, :]), field)
    arena.rewind(0)
    return out
