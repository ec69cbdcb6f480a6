"""Two-party additive secret sharing over Z_p with a fixed-point codec.

A real secret x is encoded as round(x * 2**frac_bits) mod p and split
into two uniformly-masked shares held by the two servers.
Multiplication of shared matrices uses dealer-provided Beaver triples
followed by the usual local truncation, which can be off by one unit in
the last fixed-point bit.

Share arrays are uint64 for the default prime p = 2**61 - 1: masks and
triples come from one ``Generator.integers`` call per array, sums reduce
with the Mersenne fold (x & p) + (x >> 61) and one conditional
subtraction, and matrix products split each operand (any value below
2**63) into three 21-bit limbs so that one float64 matrix product stays
exact.  The limb coefficients of 2**63 and 2**84 fold onto those of 2**0
and 2**21, since 2**63 = 4 and 2**84 = 4 * 2**21 (mod p).  Every other
prime keeps object arrays of Python ints, exact at any size.
``field_ops`` is the one place that picks between the two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .matrix import Matrix, ShapeError

__all__ = [
    "FieldParams",
    "SharePair",
    "BeaverTriple",
    "TripleSupply",
    "CodecError",
    "SupplyError",
    "DEFAULT_PRIME",
    "encode",
    "decode",
    "encode_matrix",
    "decode_matrix",
    "field_ops",
    "mask_rng",
    "split",
    "split_int",
    "split_matrix",
    "reconstruct",
    "reconstruct_int",
    "reconstruct_matrix",
    "share_matmul",
    "field_element_bytes",
]

DEFAULT_PRIME = (1 << 61) - 1  # Mersenne prime, 61 bits

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
        if not _is_probable_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.frac_bits < 0:
            raise ValueError("frac_bits must be non-negative")

    def supports_multiplication(self) -> bool:
        """One product plus truncation must not wrap: p > 2^(2f + 8)."""
        return self.prime > 1 << (2 * self.frac_bits + 8)

    @property
    def bits(self) -> int:
        return self.prime.bit_length()

    def secret_bound(self) -> float:
        """Largest |x| the codec accepts for a fresh secret."""
        return float(1 << (self.bits - self.frac_bits - 2))


def field_element_bytes(field: FieldParams) -> int:
    return (field.bits + 7) // 8


@dataclass(frozen=True)
class SharePair:
    """Additive shares: s_prime at server P, s_dprime at server A.

    Each half is either a Python int or an ndarray of field elements
    (dtype ``field_ops(field).dtype``).
    """

    s_prime: object
    s_dprime: object

    @property
    def shape(self):
        return getattr(self.s_prime, "shape", ())


@dataclass(frozen=True)
class BeaverTriple:
    """Shares of (u, v, w) with w = u @ v in the field."""

    u: SharePair
    v: SharePair
    w: SharePair


# -- field arithmetic on arrays -----------------------------------------------

_LIMB_BITS = 21
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_SHIFTS = np.arange(0, 3 * _LIMB_BITS, _LIMB_BITS, dtype=np.uint64)  # 0, 21, 42
_MAX_INNER = 1 << 11  # 2^11 products of two 21-bit limbs sum below 2^53


class _Mersenne61:
    """uint64 arrays modulo p = 2**61 - 1, where 2**61 = 1 (mod p)."""

    dtype = np.uint64
    p = DEFAULT_PRIME

    def random(self, gen: np.random.Generator, shape) -> np.ndarray:
        return gen.integers(0, self.p, size=shape, dtype=np.uint64)

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """Canonical residues of a uint64 array (any values)."""
        x = (x & self.p) + (x >> 61)  # <= p + 7
        # below p, x - p wraps above x, so the minimum is the residue
        return np.minimum(x, x - self.p, out=x)

    def _rotate(self, x: np.ndarray, k: int) -> np.ndarray:
        """x * 2**k mod p for x < 2**61: a 61-bit rotation."""
        return ((x << k) & self.p) | (x >> (61 - k))

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
        """Exact a @ b mod p of uint64 operands below 2**63, reduced or not."""
        out = self._matmul_chunk(a[:, :_MAX_INNER], b[:_MAX_INNER])
        for k in range(_MAX_INNER, a.shape[1], _MAX_INNER):
            out = self.reduce(out + self._matmul_chunk(a[:, k:k + _MAX_INNER],
                                                       b[k:k + _MAX_INNER]))
        return out

    def _matmul_chunk(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact product for inner width <= 2^11: one float64 matmul of limbs.

        With a = sum_i a_i 2^(21 i) and b = sum_j b_j 2^(21 j), block
        (i, j) of the stacked product is a_i @ b_j, and the coefficient
        c_s of 2^(21 s) sums the blocks with i + j = s (each below 3 *
        2^53).  Since 2^63 = 4 and 2^84 = 4 * 2^21 (mod p), c_3 and c_4
        fold onto c_0 and c_1, leaving two 61-bit rotations.
        """
        r, c = a.shape[0], b.shape[1]
        limbs_a = ((a >> _LIMB_SHIFTS[:, None, None]) & _LIMB_MASK).reshape(3 * r, a.shape[1])
        limbs_b = ((b[:, None] >> _LIMB_SHIFTS[:, None]) & _LIMB_MASK).reshape(b.shape[0], 3 * c)
        blocks = limbs_a.astype(np.float64) @ limbs_b.astype(np.float64)
        blocks = blocks.astype(np.uint64).reshape(3, r, 3, c)
        low = blocks[0, :, 0] + ((blocks[1, :, 2] + blocks[2, :, 1]) << 2)  # c_0 + 4 c_3
        mid = blocks[0, :, 1] + blocks[1, :, 0] + (blocks[2, :, 2] << 2)  # c_1 + 4 c_4
        high = blocks[0, :, 2] + blocks[1, :, 1] + blocks[2, :, 0]  # c_2
        return self.reduce(low + self._rotate(mid, 21) + self._rotate(high, 42))

    def from_rounded(self, scaled: np.ndarray) -> np.ndarray:
        """Field elements of integer-valued floats below 2^63 in magnitude."""
        return (scaled.astype(np.int64) % self.p).astype(np.uint64)

    def signed(self, x) -> np.ndarray:
        """Representatives in (-p/2, p/2] of any integer array, as int64."""
        e = (np.asarray(x) % self.p).astype(np.int64)
        return np.where(e > self.p // 2, e - self.p, e)


class _PythonInts:
    """Object arrays of Python ints modulo any prime."""

    dtype = object

    def __init__(self, prime: int):
        self.p = prime

    def random(self, gen: np.random.Generator, shape) -> np.ndarray:
        # 64 spare bits keep the bias of the final reduction below 2^-64
        acc = np.zeros(shape, dtype=object)
        for _ in range(-(-(self.p.bit_length() + 64) // 64)):
            word = gen.integers(0, 1 << 64, size=shape, dtype=np.uint64)
            acc = (acc << 64) | word.astype(object)
        return acc % self.p

    def reduce(self, x: np.ndarray) -> np.ndarray:
        return x % self.p

    def mul(self, a, b) -> np.ndarray:
        return (a * b) % self.p

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a @ b) % self.p

    def from_rounded(self, scaled: np.ndarray) -> np.ndarray:
        ints = np.array([int(v) for v in scaled.reshape(-1)], dtype=object)
        return ints.reshape(scaled.shape) % self.p

    def signed(self, x) -> np.ndarray:
        e = np.asarray(x, dtype=object) % self.p
        return np.where(e > self.p // 2, e - self.p, e)


_M61 = _Mersenne61()


def field_ops(field: FieldParams):
    """Array arithmetic of the field: uint64 for 2**61 - 1, Python ints otherwise.

    Ops: ``random(gen, shape)``, ``reduce`` (sums of canonical elements),
    ``mul`` (entrywise), ``matmul`` (operands below 2**63, reduced or
    not), ``from_rounded`` (integer-valued floats) and ``signed``;
    ``dtype`` is the element dtype.
    """
    return _M61 if field.prime == DEFAULT_PRIME else _PythonInts(field.prime)


def mask_rng(seed: int | str) -> np.random.Generator:
    """A mask stream for ``split_matrix``, seeded by any int or string."""
    return _generator(random.Random(seed))


def _generator(rng: np.random.Generator | random.Random) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng.getrandbits(64))


# -- codec ---------------------------------------------------------------


def encode(x: float, field: FieldParams) -> int:
    if not np.isfinite(x):
        raise CodecError(f"cannot encode non-finite value {x}")
    if abs(x) >= field.secret_bound():
        raise CodecError(f"|{x}| exceeds codec range {field.secret_bound()}")
    return round(float(x) * (1 << field.frac_bits)) % field.prime


def decode(e: int, field: FieldParams, scale_bits: int | None = None) -> float:
    """Map a field element back to a signed real.

    ``scale_bits`` defaults to the codec's frac_bits; products of two
    encoded values carry twice that scale.
    """
    scale = field.frac_bits if scale_bits is None else scale_bits
    e = int(e) % field.prime
    signed = e if e <= field.prime // 2 else e - field.prime
    return signed / float(1 << scale)


def encode_matrix(m: Matrix, field: FieldParams) -> np.ndarray:
    data = m.data
    bad = ~np.isfinite(data)
    if bad.any():
        raise CodecError(f"cannot encode non-finite value {data[bad][0]}")
    bound = field.secret_bound()
    big = np.abs(data) >= bound
    if big.any():
        raise CodecError(f"|{data[big][0]}| exceeds codec range {bound}")
    return field_ops(field).from_rounded(np.round(data * float(1 << field.frac_bits)))


def decode_matrix(arr: np.ndarray, field: FieldParams, scale_bits: int | None = None) -> Matrix:
    scale = field.frac_bits if scale_bits is None else scale_bits
    signed = field_ops(field).signed(arr)
    return Matrix(np.asarray(signed / float(1 << scale), dtype=np.float64))


# -- splitting and reconstruction -----------------------------------------


def split_int(value: int, field: FieldParams, rng: random.Random) -> SharePair:
    mask = rng.randrange(field.prime)
    return SharePair(mask, (value - mask) % field.prime)


def split(secret: float, field: FieldParams, rng: random.Random) -> SharePair:
    return split_int(encode(secret, field), field, rng)


def split_matrix(
    m: Matrix | np.ndarray, field: FieldParams, rng: np.random.Generator | random.Random
) -> SharePair:
    """Share a real matrix (or an array of already-encoded field elements).

    Masks come from ``rng``, a numpy Generator; a ``random.Random``
    seeds a fresh Generator per call.
    """
    ops = field_ops(field)
    enc = encode_matrix(m, field) if isinstance(m, Matrix) else np.asarray(m, dtype=ops.dtype)
    mask = ops.random(_generator(rng), enc.shape)
    return SharePair(mask, ops.reduce(enc + (field.prime - mask)))


def reconstruct_int(pair: SharePair, field: FieldParams):
    return (pair.s_prime + pair.s_dprime) % field.prime


def reconstruct(pair: SharePair, field: FieldParams, scale_bits: int | None = None) -> float:
    return decode(reconstruct_int(pair, field), field, scale_bits)


def reconstruct_matrix(pair: SharePair, field: FieldParams, scale_bits: int | None = None) -> Matrix:
    return decode_matrix(reconstruct_int(pair, field), field, scale_bits)


# -- Beaver-triple matrix multiplication -----------------------------------


class TripleSupply:
    """Trusted-dealer source of matrix Beaver triples.

    One triple covers one matrix product; its cost in scalar
    multiplications is rows_a * cols_a * cols_b.  An optional budget
    makes exhaustion testable.  Dealer traffic can be metered through
    ``on_bytes(receiver, nbytes)``.
    """

    def __init__(self, field: FieldParams, budget: int | None = None, on_bytes=None):
        if not field.supports_multiplication():
            raise ValueError(
                f"field too small for products: prime must exceed "
                f"2^{2 * field.frac_bits + 8}"
            )
        self.field = field
        self.budget = budget
        self.used = 0
        self.on_bytes = on_bytes
        self._rng = mask_rng(field.seed ^ 0x5EED)

    def take(self, shape_a: tuple[int, int], shape_b: tuple[int, int]) -> BeaverTriple:
        if shape_a[1] != shape_b[0]:
            raise ShapeError(f"triple shapes do not conform: {shape_a} x {shape_b}")
        cost = shape_a[0] * shape_a[1] * shape_b[1]
        if self.budget is not None and self.used + cost > self.budget:
            raise SupplyError(
                f"triple budget exhausted: need {cost}, have {self.budget - self.used}"
            )
        self.used += cost
        ops = field_ops(self.field)
        u = ops.random(self._rng, shape_a)
        v = ops.random(self._rng, shape_b)
        w = ops.matmul(u, v)
        triple = BeaverTriple(*(split_matrix(x, self.field, self._rng) for x in (u, v, w)))
        if self.on_bytes is not None:
            elem = field_element_bytes(self.field)
            per_server = (u.size + v.size + w.size) * elem
            self.on_bytes("server_p", per_server)
            self.on_bytes("server_a", per_server)
        return triple


def _truncate_shares(pair: SharePair, field: FieldParams) -> SharePair:
    """Local truncation by 2**frac_bits after a product (off-by-one possible)."""
    p = field.prime
    shift = field.frac_bits
    return SharePair(pair.s_prime >> shift, (p - ((p - pair.s_dprime) >> shift)) % p)


def share_matmul(
    a: SharePair,
    b: SharePair,
    supply: TripleSupply,
    field: FieldParams,
    meter=None,
    parties: tuple[str, str] = ("server_p", "server_a"),
) -> SharePair:
    """Product of two shared matrices via one Beaver triple, then truncation.

    Both servers open masked differences (metered as exchanged bytes
    when ``meter`` is given) and combine them with their triple shares.
    The result is shared at the codec scale again.
    """
    shape_a = a.s_prime.shape
    shape_b = b.s_prime.shape
    if shape_a[1] != shape_b[0]:
        raise ShapeError(f"cannot multiply shared {shape_a} by {shape_b}")
    ops = field_ops(field)
    p = field.prime
    triple = supply.take(shape_a, shape_b)
    u, v, w = triple.u, triple.v, triple.w

    # each server masks its shares locally; the differences e = a - u and
    # f = b - v are opened, each summed with one reduction
    e = ops.reduce(a.s_prime + a.s_dprime + (2 * p - u.s_prime - u.s_dprime))
    f = ops.reduce(b.s_prime + b.s_dprime + (2 * p - v.s_prime - v.s_dprime))
    if meter is not None:
        elem = field_element_bytes(field)
        opened = (e.size + f.size) * elem
        meter.record_bytes(parties[0], parties[1], opened)
        meter.record_bytes(parties[1], parties[0], opened)

    # z' = (e + u')@f + e@v' + w' at P and z'' = u''@f + e@v'' + w'' at A,
    # from two stacked products (e + u' < 2p is a valid matmul operand)
    r, c = shape_a[0], shape_b[1]
    by_f = ops.matmul(np.vstack([e + u.s_prime, u.s_dprime]), f)
    by_e = ops.matmul(e, np.hstack([v.s_prime, v.s_dprime]))
    z_prime = ops.reduce(by_f[:r] + by_e[:, :c] + w.s_prime)
    z_dprime = ops.reduce(by_f[r:] + by_e[:, c:] + w.s_dprime)
    return _truncate_shares(SharePair(z_prime, z_dprime), field)
