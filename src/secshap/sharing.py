"""Two-party additive secret sharing over Z_p with a fixed-point codec.

A real secret x is encoded as round(x * 2**frac_bits) mod p and split
into two uniformly-masked shares held by the two servers.  Share arrays
are numpy object arrays of Python ints, so arithmetic is exact at any
prime size.  Multiplication of shared matrices uses dealer-provided
Beaver triples followed by the usual local truncation, which can be off
by one unit in the last fixed-point bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

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

    Each half is either a Python int or an object ndarray of ints.
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
    out = np.empty(m.shape, dtype=object)
    for j in range(m.rows):
        for k in range(m.cols):
            out[j, k] = encode(m.data[j, k], field)
    return out


def decode_matrix(arr: np.ndarray, field: FieldParams, scale_bits: int | None = None) -> Matrix:
    flat = [decode(int(v), field, scale_bits) for v in np.asarray(arr, dtype=object).reshape(-1)]
    return Matrix.from_flat(flat, arr.shape[0], arr.shape[1])


# -- splitting and reconstruction -----------------------------------------


def split_int(value: int, field: FieldParams, rng: random.Random) -> SharePair:
    mask = rng.randrange(field.prime)
    return SharePair(mask, (value - mask) % field.prime)


def split(secret: float, field: FieldParams, rng: random.Random) -> SharePair:
    return split_int(encode(secret, field), field, rng)


def split_matrix(m: Matrix | np.ndarray, field: FieldParams, rng: random.Random) -> SharePair:
    """Share a real matrix (or an already-encoded object array)."""
    enc = encode_matrix(m, field) if isinstance(m, Matrix) else np.asarray(m, dtype=object)
    prime = field.prime
    mask = np.empty(enc.shape, dtype=object)
    rest = np.empty(enc.shape, dtype=object)
    flat_enc = enc.reshape(-1)
    flat_mask = mask.reshape(-1)
    flat_rest = rest.reshape(-1)
    for i in range(flat_enc.size):
        r = rng.randrange(prime)
        flat_mask[i] = r
        flat_rest[i] = (int(flat_enc[i]) - r) % prime
    return SharePair(mask, rest)


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
        self._rng = random.Random(field.seed ^ 0x5EED)

    def _rand_array(self, shape) -> np.ndarray:
        out = np.empty(shape, dtype=object)
        flat = out.reshape(-1)
        for i in range(flat.size):
            flat[i] = self._rng.randrange(self.field.prime)
        return out

    def take(self, shape_a: tuple[int, int], shape_b: tuple[int, int]) -> BeaverTriple:
        if shape_a[1] != shape_b[0]:
            raise ShapeError(f"triple shapes do not conform: {shape_a} x {shape_b}")
        cost = shape_a[0] * shape_a[1] * shape_b[1]
        if self.budget is not None and self.used + cost > self.budget:
            raise SupplyError(
                f"triple budget exhausted: need {cost}, have {self.budget - self.used}"
            )
        self.used += cost
        u = self._rand_array(shape_a)
        v = self._rand_array(shape_b)
        w = (u @ v) % self.field.prime
        triple = BeaverTriple(
            self._split_array(u), self._split_array(v), self._split_array(w)
        )
        if self.on_bytes is not None:
            elem = field_element_bytes(self.field)
            per_server = (u.size + v.size + w.size) * elem
            self.on_bytes("server_p", per_server)
            self.on_bytes("server_a", per_server)
        return triple

    def _split_array(self, arr: np.ndarray) -> SharePair:
        return split_matrix(arr, self.field, self._rng)


def _truncate_shares(pair: SharePair, field: FieldParams) -> SharePair:
    """Local truncation by 2**frac_bits after a product (off-by-one possible)."""
    p = field.prime
    shift = field.frac_bits
    t_prime = pair.s_prime >> shift if isinstance(pair.s_prime, int) else np.array(
        [int(v) >> shift for v in pair.s_prime.reshape(-1)], dtype=object
    ).reshape(pair.s_prime.shape)
    if isinstance(pair.s_dprime, int):
        t_dprime = (p - ((p - pair.s_dprime) >> shift)) % p
    else:
        t_dprime = np.array(
            [(p - ((p - int(v)) >> shift)) % p for v in pair.s_dprime.reshape(-1)],
            dtype=object,
        ).reshape(pair.s_dprime.shape)
    return SharePair(t_prime, t_dprime)


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
    p = field.prime
    triple = supply.take(shape_a, shape_b)

    # each server locally masks, then the differences are opened
    e_prime = (a.s_prime - triple.u.s_prime) % p
    f_prime = (b.s_prime - triple.v.s_prime) % p
    e_dprime = (a.s_dprime - triple.u.s_dprime) % p
    f_dprime = (b.s_dprime - triple.v.s_dprime) % p
    e = (e_prime + e_dprime) % p
    f = (f_prime + f_dprime) % p
    if meter is not None:
        elem = field_element_bytes(field)
        opened = (e.size + f.size) * elem
        meter.record_bytes(parties[0], parties[1], opened)
        meter.record_bytes(parties[1], parties[0], opened)

    z_prime = (e @ f + triple.u.s_prime @ f + e @ triple.v.s_prime + triple.w.s_prime) % p
    z_dprime = (triple.u.s_dprime @ f + e @ triple.v.s_dprime + triple.w.s_dprime) % p
    return _truncate_shares(SharePair(z_prime, z_dprime), field)
