"""Simulated SIMD homomorphic-encryption backend.

A ``CipherVector`` holds a stack of ciphertexts: ``slots`` of shape
(..., width), one slot vector per ciphertext along the last axis.  The
width is N unless the caller stores only the *live* slots, the ones its
decryptor reads (the squaring kernel does); the meters and the wire size
(``ciphertext_bytes``) count whole N-slot ciphertexts either way.  The
operations are entrywise add, entrywise multiply (ciphertext-ciphertext
or ciphertext-plaintext), cyclic slot rotation, ``he_dot``, a
multiply-accumulate over the term axis (axis 0) of a stack, computed one
term at a time into buffers allocated once per call, and ``he_fold``,
the sum of ``copies`` rotated copies of one ciphertext, of which it
returns only the top copy (the first ``shift`` slots, the ones no
rotation wraps onto) while metering the whole rotate-and-add chain; all
of them broadcast over the stack axes.  Indexing a stack, or stacking
stacks (``stack_ciphertexts``), is free.  This is a *simulation*: no
lattice arithmetic, no actual security.  What it does provide, exactly,
is

- operation metering (HMult c2c/c2p, HAdd, HRot, Enc, Dec), charged
  once per ciphertext in each result, so protocol cost laws can be
  asserted and a stack costs what its ciphertexts cost one by one,
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
  of the exact value.  A decryption is charged a draw for every slot of
  its full block, live or not (a folded squaring band, for one, still
  draws for its full d'_out x s block), so a narrower ciphertext
  consumes the noise stream as a full one would; ``draw_noise`` takes the
  draws of many decryptions in one call, and ``decrypt_stack`` applies
  them to a stack in that order.

Two slot domains exist.  Real payloads use float64 slots and carry
noise.  Exact integer payloads (field elements from the secret-sharing
layer) live modulo a plaintext modulus, as in an integer scheme such as
BFV: the prime p = 2**61 - 1 of ``sharing``.  Their slots hold uint64
elements of that field, every product and sum is reduced mod p, and
they are computed exactly, since sub-integer noise would be lost to
rounding anyway.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .sharing import M61

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
    "stack_ciphertexts",
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
    """A stack of ciphertexts bound to a key context.

    ``slots`` of shape (..., width) hold the exact values, one ciphertext
    per row of at most N slots; a single ciphertext has shape (width,).
    ``var`` is the per-slot noise variance that decryption adds: a
    float, an array broadcastable to the slots, or ``None`` when the
    ciphertext is exact (integer slots, or no noise).  Indexing selects
    ciphertexts of the stack (the slot axis must survive) and meters
    nothing.
    """

    slots: np.ndarray
    key_id: str
    var: float | np.ndarray | None = None

    @property
    def width(self) -> int:
        return self.slots.shape[-1]

    @property
    def count(self) -> int:
        """Number of ciphertexts in the stack."""
        return self.slots.size // self.slots.shape[-1]

    def __getitem__(self, index) -> "CipherVector":
        slots = self.slots[index]
        if slots.ndim == 0 or slots.shape[-1] != self.slots.shape[-1]:
            raise BackendError("indexing a ciphertext stack must keep the slot axis")
        var = self.var
        if isinstance(var, np.ndarray):
            if var.shape != self.slots.shape:
                var = np.broadcast_to(var, self.slots.shape)
            var = var[index]
        return CipherVector(slots, self.key_id, var)


def stack_ciphertexts(stacks: Sequence[CipherVector]) -> CipherVector:
    """Equally shaped stacks under one key as one stack on a new axis 0; meters nothing."""
    var = None if stacks[0].var is None else np.stack(
        [np.broadcast_to(ct.var, ct.slots.shape) for ct in stacks])
    return CipherVector(np.stack([ct.slots for ct in stacks]), stacks[0].key_id, var)


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
    exact and noise is reproducible from the seed.  Integer slots live
    modulo the field prime of ``sharing``.
    """

    def __init__(self, params: HEParams, meter: CostMeter | None = None):
        self.params = params
        self.meter = meter if meter is not None else CostMeter()
        self._noise_var = params.noise_stddev ** 2  # fresh noise added by each float op
        self._noise_rng = np.random.default_rng(params.seed)

    # -- key plumbing ---------------------------------------------------

    @staticmethod
    def _check_same_context(a: CipherVector, b: CipherVector) -> None:
        if a.key_id != b.key_id:
            raise KeyMismatchError(
                f"ciphertexts from different key contexts: {a.key_id} vs {b.key_id}"
            )
        if a.slots.shape[-1] != b.slots.shape[-1]:
            raise BackendError(f"slot width mismatch: {a.width} vs {b.width}")

    # -- encryption -----------------------------------------------------

    def encode_slots(self, values, integer: bool = False, width: int | None = None) -> np.ndarray:
        """Plaintext slots, zero padded: reals, or field elements mod p.

        The last axis of ``values`` is the slot axis; leading axes make a
        stack.  A matrix meant for one ciphertext is flattened first.
        ``width`` is the number of slots stored, N by default; a caller
        that reads fewer slots back stores only those.
        """
        arr = np.asarray(values, dtype=np.uint64 if integer else np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        size = arr.shape[-1]
        width = self.params.slot_count if width is None else width
        if width > self.params.slot_count:
            raise BackendError(f"width {width} exceeds {self.params.slot_count} slots")
        if size > width:
            raise BackendError(f"{size} values exceed {width} slots")
        slots = np.zeros(arr.shape[:-1] + (width,), dtype=arr.dtype)
        slots[..., :size] = arr
        return slots

    def encrypt_slots(self, values, key: PublicKey, width: int | None = None) -> CipherVector:
        """Encrypt real values (zero padded to ``width``), one ciphertext per slot row."""
        slots = self.encode_slots(values, width=width)
        self.meter.enc += slots.size // slots.shape[-1]
        return CipherVector(slots, key.key_id, self._noise_var or None)

    def encrypt_int_slots(self, values, key: PublicKey, width: int | None = None) -> CipherVector:
        """Encrypt field elements exactly into integer slots (zero padded to ``width``)."""
        slots = self.encode_slots(values, integer=True, width=width)
        self.meter.enc += slots.size // slots.shape[-1]
        return CipherVector(slots, key.key_id)

    def fold_int_slots(self, values, key: PublicKey, terms: int, copies: int,
                       width: int | None = None) -> CipherVector:
        """Ciphertexts of a plaintext-weighted sum of ``terms`` integer ciphertexts.

        ``values`` are the already-folded slot values, computed once by
        the caller, zero padded to ``width``.  Metered by ``charge_fold``;
        no encryption.
        """
        ct = CipherVector(self.encode_slots(values, integer=True, width=width), key.key_id)
        self.charge_fold(ct.count, terms, copies)
        return ct

    def charge_fold(self, count: int, terms: int, copies: int) -> None:
        """Meter ``copies`` parties each folding ``terms`` ciphertexts into each of ``count``.

        A plaintext-weighted sum: copies*terms c2p multiplications and
        copies*(terms-1) additions per output ciphertext.
        """
        self.meter.hmult_c2p += count * copies * terms
        self.meter.hadd += count * copies * (terms - 1)

    # -- decryption -----------------------------------------------------

    def draw_noise(self, count: int) -> np.ndarray | None:
        """``count`` decryption draws: standard normals clipped to +-0.5, in order.

        One call of any size consumes the stream as consecutive smaller
        calls with the same total would.  A noiseless context draws nothing.
        """
        if not self._noise_var:
            return None
        z = self._noise_rng.standard_normal(count)
        return np.clip(z, -0.5, 0.5, out=z)

    def decrypt_stack(
        self, ct: CipherVector, live: tuple[int, int], block: tuple[int, int],
        key: PrivateKey, draws: np.ndarray | None = None,
    ) -> np.ndarray:
        """The live rows x cols entries of every ciphertext, shape (..., rows, cols).

        Slot r * cols + c holds entry (r, c).  A noisy ciphertext is
        charged a draw for every entry of its full ``block`` (rows' x
        cols', read row-major), and entry (r, c) gets the draw at
        r * cols' + c.  ``draws`` holds them laid out (..., rows' * cols')
        in stack order; without it they are drawn here, ciphertext by
        ciphertext.
        """
        rows, cols = live
        if rows * cols > ct.width or rows > block[0] or cols > block[1]:
            raise BackendError(f"{ct.width} slots cannot hold shape {live} of block {block}")
        if ct.key_id != key.key_id:
            raise KeyMismatchError(
                f"private key {key.key_id} cannot decrypt ciphertext under {ct.key_id}"
            )
        self.meter.dec += ct.count
        lead = ct.slots.shape[:-1]
        slots = ct.slots[..., : rows * cols].reshape(lead + live)
        if ct.var is None:
            return slots
        needed = ct.count * block[0] * block[1]
        if draws is None:
            draws = self.draw_noise(needed)
        elif np.size(draws) != needed:
            raise BackendError(
                f"draws block holds {np.size(draws)} draws, expected {needed}: "
                f"{ct.count} ciphertexts of {block[0]} x {block[1]}"
            )
        z = np.reshape(draws, lead + block)[..., :rows, :cols]
        var = ct.var
        if isinstance(var, np.ndarray):
            var = np.broadcast_to(var, ct.slots.shape)[..., : rows * cols].reshape(lead + live)
        return slots + np.sqrt(var) * z

    # -- homomorphic operations ------------------------------------------

    def _coerce_plain(self, operand: PlainOperand, like: CipherVector) -> np.ndarray | float:
        if np.isscalar(operand):
            if like.slots.dtype == np.float64:
                return float(operand)  # broadcast
            return np.full(like.width, operand, dtype=like.slots.dtype)
        arr = np.asarray(operand, dtype=like.slots.dtype)
        if arr.shape[-1:] == (like.width,):
            return arr
        return self.encode_slots(arr, integer=like.slots.dtype != np.float64, width=like.width)

    def _operand(self, a: CipherVector, b: CipherVector | PlainOperand):
        """The slots ``b`` contributes to an operation on ``a``, checked."""
        if isinstance(b, CipherVector):
            self._check_same_context(a, b)
            return b.slots
        return self._coerce_plain(b, a)

    def he_add(self, a: CipherVector, b: CipherVector | PlainOperand) -> CipherVector:
        """Entrywise sum."""
        other = self._operand(a, b)
        if a.slots.dtype != np.float64:
            out = CipherVector(M61.reduce(a.slots + other), a.key_id)
        else:
            var = _var(a) + _var(b) + self._noise_var if self._noise_var else None
            out = CipherVector(a.slots + other, a.key_id, var)
        self.meter.hadd += out.count
        return out

    def he_mult(self, a: CipherVector, b: CipherVector | PlainOperand) -> CipherVector:
        other = self._operand(a, b)
        if a.slots.dtype != np.float64:
            out = CipherVector(M61.mul(a.slots, other), a.key_id)
        else:
            var = self._product_var(a, b, other) if self._noise_var else None
            out = CipherVector(a.slots * other, a.key_id, var)
        if isinstance(b, CipherVector):
            self.meter.hmult_c2c += out.count
        else:
            self.meter.hmult_c2p += out.count
        return out

    def he_dot(self, a: CipherVector, b: CipherVector | PlainOperand,
               terms: Sequence[int] | None = None) -> CipherVector:
        """Multiply-accumulate over a term axis: the sum over t of a[t] * b[t], entrywise.

        ``a`` is a ciphertext stack whose axis 0 is the term axis; ``b``
        a ciphertext stack or a plaintext array with the same leading
        term axis, or a vector of one scalar weight per term.  Each
        product broadcasts over the axes after the term axis.
        ``terms``, if given, picks the entries of ``a``'s term axis to
        multiply, in order, without copying them; ``b`` then holds one
        entry per pick.  Metered as the ``he_mult`` / ``he_add`` chain it
        replaces: per output ciphertext, one product per term (c2c or
        c2p by the kind of ``b``) and one addition fewer.  The terms
        accumulate in order, with the chain's operations in the chain's
        order, so the slots and the tracked variance equal the chain's
        bit for bit.  Each term is computed into buffers allocated once
        per call: no temporary holds more than one term, and no (T, ...)
        array is formed.
        """
        if a.slots.ndim < 2:
            raise BackendError("he_dot needs a term axis before the slot axis")
        picks = range(a.slots.shape[0]) if terms is None else terms
        other = self._term_operand(a, b)
        if len(picks) == 0 or len(picks) != len(other):
            raise BackendError(
                f"he_dot needs two equal, non-empty term axes, got "
                f"{len(picks)} and {len(other)}"
            )
        if a.slots.dtype != np.float64:
            acc = None
            for t, p in enumerate(picks):
                prod = M61.mul(a.slots[p], other[t])
                acc = prod if acc is None else M61.reduce(acc + prod)
            out = CipherVector(acc, a.key_id)
        else:
            out = self._float_dot(a, b, other, picks)
        c2c = isinstance(b, CipherVector)
        products = out.count * len(picks)
        if c2c:
            self.meter.hmult_c2c += products
        else:
            self.meter.hmult_c2p += products
        self.meter.hadd += out.count * (len(picks) - 1)
        return out

    def _term_operand(self, a: CipherVector, b) -> np.ndarray:
        """The slots ``b`` contributes to ``he_dot``, term axis first, checked.

        A vector of scalar weights stays one entry per term; integer
        weights get a slot axis of one to broadcast over.
        """
        if isinstance(b, CipherVector):
            self._check_same_context(a, b)
            return b.slots
        arr = np.asarray(b, dtype=a.slots.dtype)
        if arr.ndim == 0:
            raise BackendError("he_dot needs a term axis on the plaintext operand")
        if arr.ndim == 1:
            return arr if arr.dtype == np.float64 else arr[:, None]
        return self._coerce_plain(arr, a)

    def _float_dot(self, a: CipherVector, b, other: np.ndarray, picks) -> CipherVector:
        """``he_dot`` on real slots: the chain's products, sums and variances, in place.

        Term t's variance is (v_a * b_t^2 + sigma^2) + v_b * a_t^2 (the
        second part for a ciphertext ``b`` only), and the chain adds it
        as (v_acc + v_t) + sigma^2.  Each part is computed in a buffer of
        its own operand's shape, so a scalar variance stays a scalar.
        """
        shape = np.broadcast_shapes(a.slots.shape[1:], other.shape[1:])
        acc = np.empty(shape)
        tmp = np.empty(shape)
        noise = self._noise_var
        c2c = isinstance(b, CipherVector)
        var_a, var_b = _var(a), _var(b)
        if noise:
            b_shape = np.broadcast_shapes(np.shape(_term_of(var_a, picks[0], a)), other.shape[1:])
            a_shape = np.broadcast_shapes(np.shape(_term_of(var_b, 0, b)), a.slots.shape[1:])
            var_shape = np.broadcast_shapes(b_shape, a_shape) if c2c else b_shape
            b_side = np.empty(b_shape) if b_shape else None
            a_side = np.empty(a_shape) if c2c else None
            var = np.empty(var_shape) if var_shape else None
            # a c2c term's variance goes in tmp once the slots are done with it
            var_tmp = tmp if var_shape == shape else np.empty(var_shape) if c2c else None
        for t, p in enumerate(picks):
            a_t, b_t = a.slots[p], other[t]
            if t == 0:
                np.multiply(a_t, b_t, out=acc)
            else:
                np.multiply(a_t, b_t, out=tmp)
                acc += tmp
            if not noise:
                continue
            # (a + e_a)(b + e_b) ~ ab + e_a*b + e_b*a: each noise term
            # scales by the other factor squared
            va_t = _term_of(var_a, p, a)
            # term 0 of a c2p dot is its b side, so it goes straight into var
            into = var if t == 0 and not c2c else b_side
            if into is None:
                term = va_t * np.square(b_t) + noise
            else:
                term = np.square(b_t, out=into)
                term *= va_t
                term += noise
            if c2c:
                np.square(a_t, out=a_side)
                a_side *= _term_of(var_b, t, b)
                term = np.add(term, a_side, out=var if t == 0 else var_tmp)
            if t == 0:
                var = term
            elif np.ndim(var) == 0:
                var = var + term + noise
            else:
                var += term
                var += noise
        return CipherVector(acc, a.key_id, var if noise else None)

    def _product_var(self, a: CipherVector, b, other) -> float | np.ndarray:
        # (a + e_a)(b + e_b) ~ ab + e_a*b + e_b*a: each noise term scales by
        # the other factor squared
        var = _var(a) * np.square(other) + self._noise_var
        if isinstance(b, CipherVector):
            var = var + _var(b) * np.square(a.slots)
        return var

    def he_rotate(self, a: CipherVector, steps: int) -> CipherVector:
        """Cyclic left rotation of every ciphertext: slot i holds slot (i + steps) mod N."""
        self.meter.hrot += a.count
        slots = _rotate(a.slots, steps)
        if slots.dtype != np.float64 or not self._noise_var:
            return CipherVector(slots, a.key_id)
        var = _var(a)
        if isinstance(var, np.ndarray):
            var = _rotate(var, steps)
        return CipherVector(slots, a.key_id, var + self._noise_var)

    def he_fold(self, h: CipherVector, shift: int, copies: int) -> CipherVector:
        """The top copy of the sum of ``h`` rotated by 0, shift, ..., (copies - 1) * shift.

        Stands for the ``he_rotate`` / ``he_add`` chain of repeated
        doubling (acc + rot(acc)) while the copies allow, then single
        steps (acc + rot(h)), and returns the first ``shift`` slots of
        its result, the ones no rotation wraps onto.  On the (...,
        copies, shift) view of ``h`` those slots are a pairwise tree over
        the first 2^e copies, then the other copies one at a time, each
        sum formed as the chain forms it, so the slots and the tracked
        variance equal the chain's bit for bit.  Metered as the chain:
        per ciphertext, one rotation and one addition per step.
        """
        width = copies * shift
        if copies < 1 or shift < 1 or width > h.width:
            raise BackendError(
                f"cannot fold copies={copies} shifted by shift={shift} within width "
                f"{h.width}: needs copies >= 1, shift >= 1 and copies * shift <= {h.width}"
            )
        slots = h.slots[..., :width].reshape(h.slots.shape[:-1] + (copies, shift))
        integer = slots.dtype != np.float64
        if copies == 1:
            var = h.var
        else:
            var = _var(h) if self._noise_var and not integer else None
        if isinstance(var, np.ndarray):
            var = np.broadcast_to(var, var.shape[:-1] + (h.width,))[..., :width]
            var = var.reshape(var.shape[:-1] + (copies, shift))
        noise = self._noise_var

        def add(x, var_x, y, var_y):
            # he_add of x and rot(y): rotation adds sigma^2, then the sum
            total = M61.reduce(x + y) if integer else x + y
            return total, None if var_x is None else (var_x + (var_y + noise)) + noise

        tree = 1 << (copies.bit_length() - 1)
        acc, acc_var = slots[..., :tree, :], _take(var, np.s_[..., :tree, :])
        even, odd = np.s_[..., 0::2, :], np.s_[..., 1::2, :]
        while acc.shape[-2] > 1:
            acc, acc_var = add(acc[even], _take(acc_var, even), acc[odd], _take(acc_var, odd))
        for c in range(tree, copies):
            copy = np.s_[..., c : c + 1, :]
            acc, acc_var = add(acc, acc_var, slots[copy], _take(var, copy))
        steps = copies.bit_length() - 1 + copies - tree
        self.meter.hrot += h.count * steps
        self.meter.hadd += h.count * steps
        top = np.s_[..., 0, :]
        return CipherVector(acc[top], h.key_id, _take(acc_var, top))


def _var(operand) -> float | np.ndarray:
    """Tracked noise variance of an operand: 0 for plaintexts and exact ciphertexts."""
    if isinstance(operand, CipherVector) and operand.var is not None:
        return operand.var
    return 0.0


def _term_of(var, t, owner) -> float | np.ndarray:
    """Term ``t``'s part of a stack's variance: one shared by every term unless it has the term axis."""
    if isinstance(var, np.ndarray) and var.ndim == owner.slots.ndim:
        return var[t] if var.shape[0] > 1 else var[0]
    return var


def _take(var, index):
    """``var[index]`` for a per-slot variance; a scalar or ``None`` applies to every slot."""
    return var[index] if isinstance(var, np.ndarray) else var


def _rotate(x: np.ndarray, steps: int) -> np.ndarray:
    """``np.roll(x, -steps, axis=-1)`` as one copy of two slices."""
    s = steps % x.shape[-1]
    return np.concatenate((x[..., s:], x[..., :s]), axis=-1)
