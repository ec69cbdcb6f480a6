"""Simulated SIMD homomorphic-encryption backend.

Ciphertexts are fixed-width slot vectors supporting entrywise add,
entrywise multiply (ciphertext-ciphertext or ciphertext-plaintext) and
cyclic slot rotation.  This is a *simulation*: no lattice arithmetic, no
actual security.  What it does provide, exactly, is

- operation metering (HMult c2c/c2p, HAdd, HRot, Enc, Dec) so protocol
  cost laws can be asserted,
- key-id enforcement so role violations (a server decrypting) become
  testable errors,
- optional noise emulating approximate HE (CKKS).  Every operation on
  real-valued slots adds fresh noise of variance sigma^2, and each
  ciphertext tracks the variance it has accumulated in closed form:
  encryption sigma^2; add v_a + v_b + sigma^2; product with a plaintext
  b v_a*b^2 + sigma^2; product of two ciphertexts v_a*b^2 + v_b*a^2 +
  sigma^2; rotation moves the variance with the slots and adds sigma^2.
  This is the average-case noise heuristic of CKKS (Cheon, Kim, Kim and
  Song, ASIACRYPT 2017; Costache et al., "On the precision loss in
  approximate homomorphic encryption", 2022), which drops the products
  of two noise terms.  The slots themselves stay exact; decryption draws
  once, slots + sqrt(var) * z with z a standard normal clipped to +-0.5,
  so every decrypted slot lies within half a tracked standard deviation
  of the exact value.

Two slot domains exist.  Real payloads use float64 slots and carry
noise.  Exact integer payloads (field elements from the secret-sharing
layer) live modulo a plaintext modulus, as in an integer scheme such as
BFV: the context's ``FieldParams`` prime.  Their slots hold elements of
that field in the representation ``sharing.field_ops`` picks (uint64
for the default prime), every product and sum is reduced mod p, and
they are computed exactly, since sub-integer noise would be lost to
rounding anyway.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .matrix import Matrix
from .sharing import FieldParams, field_ops

__all__ = [
    "HEParams",
    "PublicKey",
    "PrivateKey",
    "KeyPair",
    "CipherVector",
    "CostMeter",
    "CostWeights",
    "HEContext",
    "KeyMismatchError",
    "BackendError",
    "generate_keypair",
    "ciphertext_bytes",
]

PlainOperand = Union[np.ndarray, float, int, Sequence]


class BackendError(ValueError):
    pass


class KeyMismatchError(BackendError):
    """Operation attempted across different key contexts or with the wrong key."""


@dataclass(frozen=True)
class HEParams:
    slot_count: int = 2048
    noise_stddev: float = 0.0
    seed: int = 0

    def __post_init__(self):
        n = self.slot_count
        if n < 1 or (n & (n - 1)) != 0:
            raise BackendError(f"slot_count must be a power of two, got {n}")
        if not (math.isfinite(self.noise_stddev) and self.noise_stddev >= 0):
            raise BackendError(
                f"noise_stddev must be finite and non-negative, got {self.noise_stddev}"
            )


@dataclass(frozen=True)
class PublicKey:
    key_id: str


@dataclass(frozen=True)
class PrivateKey:
    key_id: str


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    private: PrivateKey


_key_counter = itertools.count()


def generate_keypair(tag: str | None = None) -> KeyPair:
    key_id = tag if tag is not None else f"key{next(_key_counter)}"
    return KeyPair(PublicKey(key_id), PrivateKey(key_id))


@dataclass(frozen=True)
class CipherVector:
    """One ciphertext: a slot vector bound to a key context.

    ``slots`` hold the exact values.  ``var`` is the per-slot noise
    variance that decryption adds: a float, an array over the slots, or
    ``None`` when the ciphertext is exact (integer slots, or no noise).
    """

    slots: np.ndarray
    key_id: str
    var: float | np.ndarray | None = None

    @property
    def width(self) -> int:
        return int(self.slots.size)


def ciphertext_bytes(params: HEParams) -> int:
    # two ring polynomials of slot_count coefficients, 8 bytes each
    return 2 * params.slot_count * 8


@dataclass
class CostMeter:
    """Monotone counters for homomorphic operations and traffic."""

    hmult_c2c: int = 0
    hmult_c2p: int = 0
    hadd: int = 0
    hrot: int = 0
    enc: int = 0
    dec: int = 0
    bytes_sent: dict = field(default_factory=dict)  # (sender, receiver) -> bytes

    def record_bytes(self, sender: str, receiver: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("byte counts are monotone")
        key = (sender, receiver)
        self.bytes_sent[key] = self.bytes_sent.get(key, 0) + nbytes

    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())

    def merge(self, other: "CostMeter") -> None:
        """Fold a per-worker meter into this one at a barrier point."""
        self.hmult_c2c += other.hmult_c2c
        self.hmult_c2p += other.hmult_c2p
        self.hadd += other.hadd
        self.hrot += other.hrot
        self.enc += other.enc
        self.dec += other.dec
        for pair, nbytes in other.bytes_sent.items():
            self.record_bytes(pair[0], pair[1], nbytes)

    def snapshot(self) -> "CostMeter":
        return CostMeter(
            self.hmult_c2c, self.hmult_c2p, self.hadd, self.hrot,
            self.enc, self.dec, dict(self.bytes_sent),
        )

    def delta(self, earlier: "CostMeter") -> "CostMeter":
        """Counter difference w.r.t. an earlier snapshot."""
        return CostMeter(
            self.hmult_c2c - earlier.hmult_c2c,
            self.hmult_c2p - earlier.hmult_c2p,
            self.hadd - earlier.hadd,
            self.hrot - earlier.hrot,
            self.enc - earlier.enc,
            self.dec - earlier.dec,
            {
                pair: nbytes - earlier.bytes_sent.get(pair, 0)
                for pair, nbytes in self.bytes_sent.items()
            },
        )

    def as_dict(self) -> dict:
        return {
            "hmult_c2c": self.hmult_c2c,
            "hmult_c2p": self.hmult_c2p,
            "hadd": self.hadd,
            "hrot": self.hrot,
            "enc": self.enc,
            "dec": self.dec,
            "bytes_sent": {f"{s}->{r}": b for (s, r), b in sorted(self.bytes_sent.items())},
            "bytes_total": self.total_bytes(),
        }


@dataclass(frozen=True)
class CostWeights:
    """Relative op costs used to collapse a meter into one number.

    c2c multiplications dominate in real HE libraries; rotations sit
    between the two multiplication kinds; additions are nearly free.
    """

    c2c: float = 4.0
    c2p: float = 1.0
    rot: float = 2.0
    add: float = 0.0
    enc: float = 1.0
    dec: float = 0.5

    def weighted(self, meter: CostMeter) -> float:
        return (
            self.c2c * meter.hmult_c2c
            + self.c2p * meter.hmult_c2p
            + self.rot * meter.hrot
            + self.add * meter.hadd
            + self.enc * meter.enc
            + self.dec * meter.dec
        )

    def arithmetic_only(self, meter: CostMeter) -> float:
        return (
            self.c2c * meter.hmult_c2c
            + self.c2p * meter.hmult_c2p
            + self.rot * meter.hrot
            + self.add * meter.hadd
        )


class HEContext:
    """Holds parameters, the meter, and the noise source for one run.

    All homomorphic operations go through a context so that metering is
    exact and noise is reproducible from the seed.  ``field`` sets the
    plaintext modulus of integer slots.
    """

    def __init__(self, params: HEParams, meter: CostMeter | None = None,
                 field: FieldParams | None = None):
        self.params = params
        self.meter = meter if meter is not None else CostMeter()
        self._ops = field_ops(field or FieldParams())
        self._noise_var = params.noise_stddev ** 2  # fresh noise added by each float op
        self._noise_rng = np.random.default_rng(params.seed)
        self.decrypt_log: list[str] = []  # actor names, for role audits

    # -- key plumbing ---------------------------------------------------

    @staticmethod
    def _check_same_context(a: CipherVector, b: CipherVector) -> None:
        if a.key_id != b.key_id:
            raise KeyMismatchError(
                f"ciphertexts from different key contexts: {a.key_id} vs {b.key_id}"
            )
        if a.width != b.width:
            raise BackendError(f"slot width mismatch: {a.width} vs {b.width}")

    # -- encryption -----------------------------------------------------

    def encode_slots(self, values, integer: bool = False) -> np.ndarray:
        """Plaintext slot vector (zero padded): reals, or field elements mod p."""
        flat = np.asarray(values, dtype=self._ops.dtype if integer else np.float64).reshape(-1)
        if flat.size > self.params.slot_count:
            raise BackendError(
                f"{flat.size} values exceed {self.params.slot_count} slots"
            )
        slots = np.zeros(self.params.slot_count, dtype=flat.dtype)
        slots[: flat.size] = flat
        return slots

    def encrypt_slots(self, values, key: PublicKey) -> CipherVector:
        """Encrypt one ciphertext worth of real values (zero padded)."""
        slots = self.encode_slots(values)
        self.meter.enc += 1
        return CipherVector(slots, key.key_id, self._noise_var or None)

    def encrypt_int_slots(self, values, key: PublicKey) -> CipherVector:
        """Encrypt field elements exactly into integer slots."""
        slots = self.encode_slots(values, integer=True)
        self.meter.enc += 1
        return CipherVector(slots, key.key_id)

    def fold_int_slots(self, values, key: PublicKey, terms: int, copies: int) -> CipherVector:
        """Ciphertext of a plaintext-weighted sum of ``terms`` integer ciphertexts.

        ``values`` are the already-folded slot values, computed once by
        the caller.  Metered as ``copies`` parties each doing the fold:
        copies*terms c2p multiplications and copies*(terms-1) additions,
        and no encryption.
        """
        slots = self.encode_slots(values, integer=True)
        self.meter.hmult_c2p += copies * terms
        self.meter.hadd += copies * (terms - 1)
        return CipherVector(slots, key.key_id)

    # -- decryption -----------------------------------------------------

    def _unseal(self, ct: CipherVector, count: int, key: PrivateKey,
                actor: str | None) -> np.ndarray:
        """The first ``count`` slots, with one clipped noise draw if ``ct`` is noisy."""
        if ct.key_id != key.key_id:
            raise KeyMismatchError(
                f"private key {key.key_id} cannot decrypt ciphertext under {ct.key_id}"
            )
        self.meter.dec += 1
        if actor is not None:
            self.decrypt_log.append(actor)
        slots = ct.slots[:count]
        if ct.var is None:
            return slots
        z = self._noise_rng.standard_normal(count)
        np.clip(z, -0.5, 0.5, out=z)
        var = ct.var[:count] if isinstance(ct.var, np.ndarray) else ct.var
        return slots + np.sqrt(var) * z

    def decrypt_matrix(
        self, ct: CipherVector, shape: tuple[int, int], key: PrivateKey,
        actor: str | None = None,
    ) -> Matrix:
        """Unpack one ciphertext into a rows x cols matrix."""
        rows, cols = shape
        if rows * cols > ct.width:
            raise BackendError(f"{ct.width} slots cannot hold shape {shape}")
        flat = self._unseal(ct, rows * cols, key, actor)
        return Matrix(flat.reshape(rows, cols))

    def decrypt_int_slots(
        self, ct: CipherVector, count: int, key: PrivateKey, actor: str | None = None
    ) -> np.ndarray:
        """First ``count`` slots of an exact-integer ciphertext."""
        return self._unseal(ct, count, key, actor)

    # -- homomorphic operations ------------------------------------------

    def _coerce_plain(self, operand: PlainOperand, like: CipherVector) -> np.ndarray | float:
        if np.isscalar(operand):
            if like.slots.dtype == np.float64:
                return float(operand)  # broadcast
            return np.full(like.width, operand, dtype=like.slots.dtype)
        flat = np.asarray(operand, dtype=like.slots.dtype).reshape(-1)
        if flat.size > like.width:
            raise BackendError(f"plaintext of {flat.size} values exceeds slot width")
        if flat.size < like.width:
            padded = np.zeros(like.width, dtype=like.slots.dtype)
            padded[: flat.size] = flat
            flat = padded
        return flat

    def he_add(self, a: CipherVector, b: CipherVector | PlainOperand) -> CipherVector:
        if isinstance(b, CipherVector):
            self._check_same_context(a, b)
            other = b.slots
        else:
            other = self._coerce_plain(b, a)
        self.meter.hadd += 1
        if a.slots.dtype != np.float64:
            return CipherVector(self._ops.reduce(a.slots + other), a.key_id)
        var = _var(a) + _var(b) + self._noise_var if self._noise_var else None
        return CipherVector(a.slots + other, a.key_id, var)

    def he_mult(self, a: CipherVector, b: CipherVector | PlainOperand) -> CipherVector:
        if isinstance(b, CipherVector):
            self._check_same_context(a, b)
            other = b.slots
            self.meter.hmult_c2c += 1
        else:
            other = self._coerce_plain(b, a)
            self.meter.hmult_c2p += 1
        if a.slots.dtype != np.float64:
            return CipherVector(self._ops.mul(a.slots, other), a.key_id)
        var = None
        if self._noise_var:
            # (a + e_a)(b + e_b) ~ ab + e_a*b + e_b*a: each noise term scales by
            # the other factor squared
            var = _var(a) * np.square(other) + self._noise_var
            if isinstance(b, CipherVector):
                var = var + _var(b) * np.square(a.slots)
        return CipherVector(a.slots * other, a.key_id, var)

    def he_rotate(self, a: CipherVector, steps: int) -> CipherVector:
        """Cyclic left rotation: result slot i holds input slot (i + steps) mod N."""
        self.meter.hrot += 1
        slots = _rotate(a.slots, steps)
        if slots.dtype != np.float64 or not self._noise_var:
            return CipherVector(slots, a.key_id)
        var = _var(a)
        if isinstance(var, np.ndarray):
            var = _rotate(var, steps)
        return CipherVector(slots, a.key_id, var + self._noise_var)


def _var(operand) -> float | np.ndarray:
    """Tracked noise variance of an operand: 0 for plaintexts and exact ciphertexts."""
    if isinstance(operand, CipherVector) and operand.var is not None:
        return operand.var
    return 0.0


def _rotate(x: np.ndarray, steps: int) -> np.ndarray:
    """``np.roll(x, -steps)`` as one copy of two slices."""
    s = steps % x.size
    return np.concatenate((x[s:], x[:s]))
