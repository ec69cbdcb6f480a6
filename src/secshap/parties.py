"""Simulated parties, message routing with byte accounting, and the
client-assignment rules for layer decryption.

Parties are in-process actors; the router delivers payloads directly
but sizes every message so per-pair traffic is exact.  Every message of
every protocol goes through ``Router.send``, the one place that meters
bytes: the dealer's triple shares and the Beaver openings are sent there
by ``sharing.share_matmul``.  Servers are never sent the HE private key;
each protocol logs every decryption or reconstruction with its actor, so
an audit can check that only clients did it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .hebackend import CipherVector, CostMeter, HEParams, PrivateKey, PublicKey, ciphertext_bytes

__all__ = [
    "Party",
    "Router",
    "AssignmentError",
    "validate_assignment",
    "assign_decryptors",
    "payload_bytes",
    "SERVER_P",
    "SERVER_A",
    "client_name",
]

SERVER_P = "server_p"
SERVER_A = "server_a"
KEY_BYTES = 32


@cache
def client_name(i: int) -> str:
    """One shared string per client: reports log a name per decryption."""
    return f"client_{i}"


@dataclass
class Party:
    name: str
    bytes_out: int = 0


def payload_bytes(payload, he_params: HEParams) -> int:
    """Wire size of a payload, by type; a ciphertext stack sizes as its ciphertexts."""
    if payload is None:
        return 0
    if isinstance(payload, CipherVector):
        return payload.count * ciphertext_bytes(he_params)
    if isinstance(payload, (PublicKey, PrivateKey)):
        return KEY_BYTES
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, (list, tuple)):
        return sum(payload_bytes(p, he_params) for p in payload)
    if isinstance(payload, dict):
        return sum(payload_bytes(p, he_params) for p in payload.values())
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


class Router:
    """Delivers payloads between registered parties and meters the bytes."""

    def __init__(self, meter: CostMeter, he_params: HEParams):
        self.meter = meter
        self.he_params = he_params
        self.parties: dict[str, Party] = {}

    def register(self, party: Party) -> Party:
        if party.name in self.parties:
            raise ValueError(f"party {party.name} already registered")
        self.parties[party.name] = party
        return party

    def send(self, sender: str, receiver: str, payload):
        if not (isinstance(sender, str) and isinstance(receiver, str)):
            role, name = ("receiver", receiver) if isinstance(sender, str) else ("sender", sender)
            raise TypeError(f"{role} must be one party's name, a str; got {type(name).__name__}")
        if sender not in self.parties or receiver not in self.parties:
            missing = sender if sender not in self.parties else receiver
            raise KeyError(f"unknown party {missing}")
        nbytes = payload_bytes(payload, self.he_params)
        self.meter.record_bytes(sender, receiver, nbytes)
        self.parties[sender].bytes_out += nbytes
        return payload


class AssignmentError(RuntimeError):
    """No decryptor sequence satisfies the policy constraints."""


def validate_assignment(
    sequence,
    n: int,
    num_layers: int,
    level: str = "basic",
    model_owner: int | None = None,
    batch_owners=(),
) -> list[str]:
    """Check a decryptor sequence i_1..i_{L+2} against the policy.

    Returns the list of violated constraints (empty means valid).
    Position 1 is the batch holder; positions 2..L+1 decrypt the layer
    outputs; position L+1 sees the predicted labels; position L+2 sees
    the label differences.
    """
    violations: list[str] = []
    if level not in ("basic", "full"):
        return [f"unknown security level {level!r}"]
    if level == "basic" and n < 4:
        violations.append(f"basic level requires n >= 4, got n={n}")
    if level == "full" and n < num_layers + 2:
        violations.append(
            f"full level requires n >= L + 2 = {num_layers + 2}, got n={n}"
        )
    sequence = list(sequence)
    if len(sequence) != num_layers + 2:
        violations.append(
            f"sequence length {len(sequence)} != L + 2 = {num_layers + 2}"
        )
        return violations
    batch_owners = frozenset(batch_owners)
    for pos in range(1, len(sequence)):
        if sequence[pos] == sequence[pos - 1]:
            violations.append(
                f"consecutive assignees equal at positions {pos}/{pos + 1}: "
                f"client {sequence[pos]}"
            )
    if model_owner is not None and model_owner in sequence[1:]:
        violations.append(f"model owner {model_owner} appears as an assignee")
    label_client = sequence[num_layers]  # i_{L+1}
    if label_client in batch_owners:
        violations.append(
            f"label client {label_client} owns samples in the batch"
        )
    if level == "full" and len(set(sequence[: num_layers + 1])) != num_layers + 1:
        violations.append("full level requires i_1..i_{L+1} pairwise distinct")
    return violations


def assign_decryptors(
    clients,
    num_layers: int,
    model_owner: int | None,
    batch_owners,
    level: str = "basic",
    offset: int = 0,
) -> list[int]:
    """Deterministic round-robin decryptor sequence satisfying the policy.

    ``offset`` rotates the eligible pool so load spreads across batches
    while staying reproducible.  The sequence depends on the offset only
    modulo the pool size, so it is looked up in a cache keyed on that
    residue and the other arguments; a failed search raises every time.
    """
    clients = tuple(sorted(clients))
    pool = len(clients) - (model_owner in clients)
    return list(_decryptor_sequence(clients, num_layers, model_owner, frozenset(batch_owners),
                                    level, offset % pool if pool else 0))


@lru_cache(maxsize=4096)
def _decryptor_sequence(clients: tuple, num_layers: int, model_owner: int | None,
                        batch_owners: frozenset, level: str, offset: int) -> tuple[int, ...]:
    n = len(clients)
    eligible = [c for c in clients if c != model_owner]
    if not eligible:
        raise AssignmentError("no eligible clients besides the model owner")
    holder = min(batch_owners) if batch_owners else eligible[offset % len(eligible)]
    total = num_layers + 2

    def extend(sequence: list[int], used: set, cursor: int):
        pos = len(sequence) + 1  # 1-based position being filled
        if pos > total:
            return sequence
        is_label_client = pos == num_layers + 1
        for step in range(len(eligible)):
            cand = eligible[(cursor + step) % len(eligible)]
            if cand == sequence[-1]:
                continue
            if is_label_client and cand in batch_owners:
                continue
            if level == "full" and pos <= num_layers + 1 and cand in used:
                continue
            found = extend(sequence + [cand], used | {cand}, cursor + step + 1)
            if found is not None:
                return found
        return None

    sequence = extend([holder], {holder}, offset)
    if sequence is None:
        raise AssignmentError(
            f"no decryptor sequence exists for owner={model_owner}, "
            f"batch={sorted(batch_owners)}, n={n}, L={num_layers}, level={level}"
        )
    violations = validate_assignment(
        sequence, n, num_layers, level, model_owner, batch_owners
    )
    if violations:
        raise AssignmentError("; ".join(violations))
    return tuple(sequence)
