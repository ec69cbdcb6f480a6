"""The four contribution-evaluation protocols over simulated parties.

- ``run_nssv``: plaintext evaluation of every subset model; the ground
  truth the secure protocols are compared against.
- ``run_hesv``: one server, everything encrypted; squaring kernel with
  ciphertext-ciphertext multiplications; per-client batches only.
  Consecutive subsets run as a chunk, layer by layer over all batches:
  each subset's aggregate and ``squaring_matmul`` on its own, then one
  stacked decryption and activation per layer and one label check for
  the chunk.  Each step sends one message per party pair; decryptor
  assignments, the actor log and the noise draws keep the (subset,
  batch) order, so per-pair bytes and every decrypted value are those
  of one subset at a time.
- ``run_secsv``: two servers; models encrypted, test data additively
  shared, so every multiplication is ciphertext-plaintext and samples
  from different clients share a batch.  Optional sample skipping.  A
  subset's first layer sums per-model products made once per round, exact
  over Z_p; a later layer multiplies the subset's aggregate by both
  servers' shares; ``reducing_field_slots`` meters both as fold, then multiply.
- ``run_secretsv``: two servers, models and data both secret-shared;
  layers run on Beaver triples, which trades ciphertext arithmetic for
  dealer traffic and per-layer truncation error.

Linear layers are evaluated wherever the protocol dictates; activation
functions and label extraction always happen at an assigned client on
decrypted (or reconstructed) values, with the assignment rules of
``parties`` enforced throughout.  ``run_secsv`` and ``run_secretsv``
share one two-server round and differ only in how they aggregate a
subset model and compute a linear layer.  The round has a subset axis
(see ``_two_server_round``): ``run_secretsv`` passes all of a round's
subsets and runs one stacked Beaver product per (chunk of subsets,
batch, layer), each subset with its own triple; ``run_secsv`` with
sample skipping passes one cardinality level per call, whose subsets
that need the same samples share chunks through the same code.  In
the round a sample is its column in the pooled test data, and a set of
samples, from the skip accelerator down to the label check, is a bitset
over these positions; sample ids never enter it.

Rounds run in order, on the run's meter and router, each with its own
noise, mask and triple streams seeded by the round index.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .federation import ClientDataset, RoundModels
from .hebackend import (
    CostMeter,
    CostWeights,
    HEContext,
    HEParams,
    generate_keypair,
    stack_ciphertexts,
)
from .kernels import (
    plan_reducing,
    plan_squaring,
    reducing_field_slots,
    reducing_prepare_model,
    squaring_decrypt_stack,
    squaring_matmul,
    squaring_prepare_batch,
    squaring_prepare_model,
)
from .models import apply_activation, evaluate_model
from .parties import (
    SERVER_A,
    SERVER_P,
    Party,
    Router,
    assign_decryptors,
    client_name,
)
from .report import ContributionReport, RoundReport
from .sharing import (
    DEFAULT_PRIME,
    M61,
    FieldParams,
    SharePair,
    TripleSupply,
    _Arena,
    _dealt_parts,
    _truncate_shares,
    decode_matrix,
    encode,
    encode_matrix,
    mask_rng,
    reconstruct_int,
    secretsv_headroom_error,
    share_matmul,
    split_masked,
    split_matrix,
)
from .shapley import (
    UtilityTable,
    fsv_aggregate,
    sample_skip_round,
    ssv_exact,
    subsets_ascending,
)

__all__ = [
    "ProtocolError",
    "run_nssv",
    "run_hesv",
    "run_secsv",
    "run_secretsv",
]

TOLERANCE = 0.5


class ProtocolError(RuntimeError):
    pass


# -- shared plumbing ---------------------------------------------------------


def _common_architecture(rounds: list[RoundModels]):
    arch = rounds[0].global_model.layers
    for record in rounds:
        for model in [record.global_model, *record.local_models.values()]:
            if model.layers != arch:
                raise ProtocolError("all rounds must share one architecture")
    return arch


@dataclass(frozen=True)
class _Batch:
    columns: tuple[int, ...]  # positions into the collective column order
    owners: frozenset


def _pooled_batches(owner_by_pos, positions, capacity, n_clients) -> list[_Batch]:
    """Greedy batches over the given column positions.

    A batch never grows past the slot capacity, and its owner set always
    leaves at least two clients outside so a label client can be
    assigned outside the batch's owners.
    """
    max_owners = max(1, n_clients - 2)
    batches: list[_Batch] = []
    cols: list[int] = []
    owners: set = set()
    for pos in positions:
        owner = owner_by_pos[pos]
        if cols and (
            len(cols) >= capacity
            or (owner not in owners and len(owners) >= max_owners)
        ):
            batches.append(_Batch(tuple(cols), frozenset(owners)))
            cols, owners = [], set()
        cols.append(pos)
        owners.add(owner)
    if cols:
        batches.append(_Batch(tuple(cols), frozenset(owners)))
    return batches


def _new_router(meter: CostMeter, he_params: HEParams, clients,
                two_servers: bool, with_dealer: bool = False) -> Router:
    router = Router(meter, he_params)
    router.register(Party(SERVER_P))
    if two_servers:
        router.register(Party(SERVER_A))
    if with_dealer:
        router.register(Party("dealer"))
    for i in clients:
        router.register(Party(client_name(i)))
    return router


def _distribute_keys(router: Router, tag: str, leader: int, clients, servers):
    """The leader makes the key pair, hands it to every client, the public key to servers."""
    keys = generate_keypair(tag)
    for i in clients:
        if i != leader:
            router.send(client_name(leader), client_name(i), [keys.public, keys.private])
    for server in servers:
        router.send(client_name(leader), server, keys.public)
    return keys


def workers_error(workers: int) -> str | None:
    """Why ``workers`` is refused, or None.

    Rounds run in order, so the deprecated ``workers`` keyword accepts 1 only.
    """
    if workers != 1:
        return f"workers: rounds run in order on one thread; must be 1, got {workers}"
    return None


def _finish_report(protocol, clients, total, round_results, meter, weights,
                   started) -> ContributionReport:
    """The run's report from its (round report, decrypt actors) pairs in round order."""
    per_round = [report for report, _ in round_results]
    actors = [actor for _, round_actors in round_results for actor in round_actors]
    fsv = fsv_aggregate([r.ssv for r in per_round])
    for i in clients:
        fsv.setdefault(i, 0.0)
    return ContributionReport(
        protocol=protocol,
        clients=tuple(clients),
        total_samples=total,
        rounds=per_round,
        fsv=fsv,
        meter=meter,
        cost_weights=weights,
        decrypt_actors=tuple(actors),
        wall_seconds=time.perf_counter() - started,
    )


def _round_report(record: RoundModels, utilities, skip_result=None) -> RoundReport:
    table = UtilityTable(record.round_index, frozenset(record.selected))
    for subset, v in utilities.items():
        table.set(subset, v)
    ssv = ssv_exact(table)
    if skip_result is None:
        return RoundReport(record.round_index, tuple(record.selected), dict(utilities), ssv)
    skipped_by_card: dict[int, int] = {}
    evaluated_by_card: dict[int, int] = {}
    for subset, cnt in skip_result.skipped.items():
        skipped_by_card[len(subset)] = skipped_by_card.get(len(subset), 0) + cnt
    for subset, cnt in skip_result.evaluated.items():
        evaluated_by_card[len(subset)] = evaluated_by_card.get(len(subset), 0) + cnt
    return RoundReport(
        record.round_index,
        tuple(record.selected),
        dict(utilities),
        ssv,
        skipped=sum(skip_result.skipped.values()),
        evaluated=sum(skip_result.evaluated.values()),
        skipped_by_cardinality=skipped_by_card,
        evaluated_by_cardinality=evaluated_by_card,
    )


# Bound on a chunk's dealt triple block, 1.625 MiB: 4 / 6 / 10 subsets on stock / deep / wide
# (SecSV's chunks follow it but deal no triples), and on HESV's stacked state: 38 / 5 / 61.
_CHUNK_BYTES = 13 << 17


def _round_seed(base: int, round_index: int) -> int:
    return (base * 1_000_003 + round_index * 7919) % 2**31


# -- NSSV ---------------------------------------------------------------------


def run_nssv(
    rounds: list[RoundModels],
    test_sets: list[ClientDataset],
    cost_weights: CostWeights | None = None,
    seed: int = 0,
    workers: int = 1,
) -> ContributionReport:
    """Plaintext ground truth: every subset model tested on everything."""
    if unfit := workers_error(workers):
        raise ProtocolError(unfit)
    started = time.perf_counter()
    _common_architecture(rounds)
    weights = cost_weights or CostWeights()
    clients = list(range(len(test_sets)))
    total = sum(ds.size for ds in test_sets)

    meter = CostMeter()
    router = _new_router(meter, HEParams(), clients, two_servers=False)
    for i, ds in enumerate(test_sets):
        router.send(client_name(i), SERVER_P, [ds.features, ds.labels])

    def eval_round(record: RoundModels):
        for i in record.selected:
            router.send(client_name(i), SERVER_P, list(record.local_models[i].params))
        utilities = {
            subset: evaluate_model(record.aggregated(subset), test_sets)[1]
            for subset in subsets_ascending(record.selected)
        }
        return _round_report(record, utilities), []

    results = [eval_round(record) for record in rounds]
    return _finish_report("nssv", clients, total, results, meter, weights, started)


# -- HESV ----------------------------------------------------------------------


def run_hesv(
    rounds: list[RoundModels],
    test_sets: list[ClientDataset],
    he_params: HEParams | None = None,
    cost_weights: CostWeights | None = None,
    level: str = "basic",
    seed: int = 0,
    workers: int = 1,
) -> ContributionReport:
    """One-server protocol: encrypted models times encrypted batches, in chunks of subsets."""
    if unfit := workers_error(workers):
        raise ProtocolError(unfit)
    started = time.perf_counter()
    arch = _common_architecture(rounds)
    he_params = he_params or HEParams()
    weights = cost_weights or CostWeights()
    n = len(test_sets)
    clients = list(range(n))
    num_layers = len(arch)
    total = sum(ds.size for ds in test_sets)

    meter = CostMeter()
    setup_ctx = HEContext(replace(he_params, seed=_round_seed(seed, 0)), meter)
    router = _new_router(meter, he_params, clients, two_servers=False)

    leader = int(np.random.default_rng(seed).integers(n))
    keys = _distribute_keys(router, f"hesv-{seed}", leader, clients, [SERVER_P])

    slot_count = he_params.slot_count
    m_cap = min(min(spec.in_size + 1 for spec in arch), math.isqrt(slot_count))
    # one plan per layer: its m fixes the slot layout of every batch, and
    # a narrower batch is zero in the columns past its width
    plans = [plan_squaring(spec.out_size, spec.in_size + 1, m_cap, slot_count) for spec in arch]

    batch_ranges = [
        (i, lo, min(lo + m_cap, ds.size))
        for i, ds in enumerate(test_sets)
        for lo in range(0, ds.size, m_cap)
    ]
    widths = np.array([hi - lo for _, lo, hi in batch_ranges])
    valid = np.arange(m_cap) < widths[:, None]  # [batch, column] inside the batch
    draw_layout = _hesv_draw_layout(plans, widths)
    step = _hesv_chunk_size(plans, len(widths), draw_layout[0])

    # test data uploaded once: the transformed-and-encrypted first-layer
    # inputs of every (client, batch) as one [o, batch, k] stack, so layer
    # 0 runs for all batches at once, plus a stack of label ciphertexts
    features = np.zeros((len(batch_ranges), arch[0].in_size, m_cap))
    labels = np.zeros((len(batch_ranges), m_cap))
    for b, (i, lo, hi) in enumerate(batch_ranges):
        features[b, :, : hi - lo] = test_sets[i].features[:, lo:hi]
        labels[b, : hi - lo] = test_sets[i].labels[lo:hi]
    data_cts = squaring_prepare_batch(_with_ones_rows(features, valid), plans[0], setup_ctx,
                                      keys.public)
    label_cts = setup_ctx.encrypt_slots(labels, keys.public, width=m_cap)
    for b, (i, _, _) in enumerate(batch_ranges):
        router.send(client_name(i), SERVER_P, data_cts[:, b])
        router.send(client_name(i), SERVER_P, label_cts[b])

    def eval_round(record: RoundModels):
        ctx = HEContext(replace(he_params, seed=_round_seed(seed, record.round_index)), meter)
        actors: list[str] = []
        players = sorted(record.selected)

        def upload(owners, models):
            # each layer of every owner's model as one [owner, o, j, k] stack
            layers = []
            for l in range(num_layers):
                params = np.stack([model.params[l] for model in models])
                cts = squaring_prepare_model(params, plans[l], ctx, keys.public)
                for p, owner in enumerate(owners):
                    router.send(client_name(owner), SERVER_P, cts[p])
                layers.append(cts)
            return layers

        player_cts = upload(players, [record.local_models[i] for i in players])
        global_cts = [cts[0] for cts in upload([leader], [record.global_model])]
        position = {i: p for p, i in enumerate(players)}

        def aggregate(subset, l):
            if not subset:
                return global_cts[l]
            w = record.weights_for(subset)
            members = sorted(subset)
            # the members' entries of the layer's owner axis, in place: no copy
            return ctx.he_dot(player_cts[l], [w[i] for i in members],
                              terms=[position[i] for i in members])

        offsets = itertools.count()  # one running decryptor offset per round
        utilities = {}
        subsets = subsets_ascending(players)
        for lo in range(0, len(subsets), step):
            chunk = subsets[lo:lo + step]
            sequences = []  # [subset][batch], in the one-subset-at-a-time order
            for subset in chunk:
                owner = next(iter(subset)) if len(subset) == 1 else None
                sequences.append([assign_decryptors(players, num_layers, owner, {i}, level,
                                                    next(offsets)) for i, _, _ in batch_ranges])
            correct = _hesv_eval_chunk(ctx, router, keys, record.global_model, plans, aggregate,
                                       chunk, data_cts, label_cts, valid, sequences, draw_layout,
                                       actors)
            utilities.update((subset, c / total) for subset, c in zip(chunk, correct))
        return _round_report(record, utilities), actors

    results = [eval_round(record) for record in rounds]
    return _finish_report("hesv", clients, total, results, meter, weights, started)


def _with_ones_rows(x: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """(x; 1) for a [batch] stack of matrices, zero in every column past a batch's width."""
    out = np.zeros(x.shape[:-2] + (x.shape[-2] + 1, x.shape[-1]))
    np.copyto(out[..., :-1, :], x, where=valid[:, None, :])
    out[..., -1, :] = valid
    return out


def _hesv_draw_layout(plans, widths: np.ndarray):
    """Where each decryption of one subset finds its noise in one block of draws.

    The block is laid out batch by batch: each layer's bands, d'_out * s
    draws per band (its full block), then the batch's m_b label slots.
    Returns the block size, a [batch, j, d'_out * s] index array per
    layer and a [batch, m] one for the labels; a label column past the
    batch's width repeats one of the batch's draws, and is discarded.
    A chunk of subsets draws its subsets' blocks, one after another, in
    one call.
    """
    band = [plan.d_out_block * plan.s for plan in plans]
    per_layer = [plan.j_blocks * size for plan, size in zip(plans, band)]
    per_batch = sum(per_layer) + widths
    starts = np.cumsum(per_batch) - per_batch
    layers, offset = [], 0
    for plan, size, count in zip(plans, band, per_layer):
        idx = starts[:, None] + offset + np.arange(count)
        layers.append(idx.reshape(len(widths), plan.j_blocks, size))
        offset += count
    columns = np.minimum(np.arange(plans[0].m), widths[:, None] - 1)
    return int(per_batch.sum()), layers, starts[:, None] + offset + columns


def _hesv_chunk_size(plans, batches: int, draws: int) -> int:
    """Subsets per chunk: a subset's bands, outputs and labels per batch, and its ``draws``."""
    per_batch = 1 + sum(plan.j_blocks * plan.live_rows() + plan.d_out for plan in plans)
    return max(1, _CHUNK_BYTES // (8 * (draws + batches * plans[0].m * per_batch)))


def _send_by_client(router, clients: np.ndarray, inbound: bool, pick) -> None:
    """One message between server P and each client i in ``clients``: ``pick(clients == i)``."""
    for i in np.unique(clients).tolist():
        pair = (client_name(i), SERVER_P) if inbound else (SERVER_P, client_name(i))
        router.send(*pair, pick(clients == i))


def _hesv_eval_chunk(ctx, router, keys, model, plans, aggregate, subsets, data_cts, label_cts,
                     valid, sequences, draw_layout, decrypt_actors) -> list[int]:
    """Consecutive subsets on all batches: each layer, decrypt, activate; then the label check.

    Per layer, each subset's ``aggregate(subset, l)``, re-encrypted inputs
    (layers >= 1) and ``squaring_matmul`` are its own, one subset at a
    time; the bands' decryption, the activation and the label check are
    stacked over the chunk, and its noise is one draw of its subsets'
    ``_hesv_draw_layout`` blocks in turn.  Each step sends one message
    per party pair with the pair's (subset, batch) entries.  Returns
    each subset's count of correct samples.
    """
    num_layers = model.depth
    total, layer_draws, label_draws = draw_layout
    noise = ctx.draw_noise(len(subsets) * total)
    noise = None if noise is None else noise.reshape(len(subsets), total)
    # who[subset, batch, l]: layer l's decryptor, and at l = L the label counter
    who = np.array(sequences)[..., 1:]
    for l, plan in enumerate(plans):
        bands = []
        for g, subset in enumerate(subsets):
            sides = data_cts
            if l > 0:
                sides = squaring_prepare_batch(_with_ones_rows(act[g], valid), plan, ctx,
                                               keys.public)
                _send_by_client(router, who[g, :, l - 1], True, lambda mask: sides[:, mask])
            bands.append(squaring_matmul(aggregate(subset, l), sides, plan, ctx))
        bands = stack_ciphertexts(bands)
        _send_by_client(router, who[..., l], False, bands.__getitem__)
        yhat = squaring_decrypt_stack(
            bands, plan, ctx, keys.private,
            draws=None if noise is None else noise[:, layer_draws[l]],
        )
        if l < num_layers - 1:
            act = apply_activation(model, l, yhat)
    labels = np.where(valid, np.argmax(yhat, axis=-2), 0).astype(float)
    label_ct = ctx.encrypt_slots(labels, keys.public, width=valid.shape[1])
    _send_by_client(router, who[..., -2], True, label_ct.__getitem__)
    # difference of predicted and true labels, counted by the last assignee
    diff = ctx.he_add(ctx.he_mult(label_ct, -1.0), label_cts)
    _send_by_client(router, who[..., -1], False, diff.__getitem__)
    plain = ctx.decrypt_stack(
        diff, (1, valid.shape[1]), (1, valid.shape[1]), keys.private,
        draws=None if noise is None else noise[:, label_draws],
    )
    counts = np.sum((np.abs(plain[..., 0, :]) < TOLERANCE) & valid, axis=-1, dtype=np.int64)
    _send_by_client(router, who[..., -1], True, counts.__getitem__)
    decrypt_actors.extend(map(client_name, who.ravel().tolist()))
    return counts.sum(axis=1).tolist()


# -- two-server data sharing ---------------------------------------------------


@dataclass
class _SharedData:
    x_prime: np.ndarray  # (d+1) x M field elements at server P
    x_dprime: np.ndarray
    y_prime: np.ndarray  # M field elements
    y_dprime: np.ndarray
    owner_by_pos: tuple[int, ...]  # the client of each column

    @property
    def total(self) -> int:
        return len(self.owner_by_pos)


def _share_test_data(test_sets, field: FieldParams, router: Router, rng) -> _SharedData:
    """Every client splits (features; 1) and labels; halves go to P and A."""
    xp_parts, xa_parts, yp_parts, ya_parts = [], [], [], []
    owners = []
    for i, ds in enumerate(test_sets):
        pair = split_matrix(np.vstack([ds.features, np.ones((1, ds.size))]), field, rng)
        y_pair = split_matrix(ds.labels[None, :].astype(np.float64), field, rng)
        router.send(client_name(i), SERVER_P, pair.s_prime)
        router.send(client_name(i), SERVER_A, pair.s_dprime)
        router.send(client_name(i), SERVER_P, y_pair.s_prime)
        router.send(client_name(i), SERVER_A, y_pair.s_dprime)
        xp_parts.append(pair.s_prime)
        xa_parts.append(pair.s_dprime)
        yp_parts.append(y_pair.s_prime[0])
        ya_parts.append(y_pair.s_dprime[0])
        owners.extend([i] * ds.size)
    return _SharedData(
        x_prime=np.concatenate(xp_parts, axis=1),
        x_dprime=np.concatenate(xa_parts, axis=1),
        y_prime=np.concatenate(yp_parts),
        y_dprime=np.concatenate(ya_parts),
        owner_by_pos=tuple(owners),
    )


def _split_and_distribute(router, field, owner_name, secret: np.ndarray, rng):
    pair = split_matrix(secret, field, rng)
    router.send(owner_name, SERVER_P, pair.s_prime)
    router.send(owner_name, SERVER_A, pair.s_dprime)
    return pair


def _positions(bits: int) -> list[int]:
    """The set bits of a bitset, ascending."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


def _shared_label_check(router, field, y_sh: SharePair, shared: _SharedData,
                        cols) -> list[int]:
    """Servers compare predicted-label shares with truth shares; P learns positions.

    ``y_sh`` holds a stack (count, 1, cols) of predicted labels for the
    pooled columns ``cols``; returns the bitset of correct positions of each.
    """
    p = field.prime
    tilde_a = M61.reduce(y_sh.s_dprime[:, 0] + (p - shared.y_dprime[cols]))
    for row in tilde_a:
        router.send(SERVER_A, SERVER_P, row)
    diff = M61.reduce(y_sh.s_prime[:, 0] + (p - shared.y_prime[cols]) + tilde_a)
    flags = np.zeros((len(diff), shared.total), dtype=bool)
    flags[:, cols] = np.abs(decode_matrix(diff, field, field.frac_bits)) < TOLERANCE
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(flags, axis=1, bitorder="little")]


def _triple_shapes(arch, widths) -> list:
    """The products of one subset's evaluation, batch by batch and layer by layer."""
    return [(spec.weight_shape, (spec.in_size + 1, width)) for width in widths for spec in arch]


def _chunk_size(arch, widths) -> int:
    dealt = 8 * sum(map(math.prod, _dealt_parts(_triple_shapes(arch, widths))))  # per subset
    return max(1, _CHUNK_BYTES // dealt)


def _two_server_round(record: RoundModels, shared: _SharedData, m_cap: int, n: int,
                      level: str, field: FieldParams, router: Router, share_rng,
                      aggregate, linear, skip: bool = False):
    """One round of the two-server evaluation shared by SecSV and SecretSV.

    Servers P and A hold shares of the pooled test data, one column per
    sample; a set of samples is a bitset over these column positions.
    ``evaluate(subsets, bitsets)`` runs each subset on the positions in
    its bitset and returns each subset's bitset of correct positions.
    Each maximal run of consecutive subsets with one bitset shares its
    batches and goes in chunks of ``_chunk_size``, as many as keep a
    chunk's dealt triple block within ``_CHUNK_BYTES``.  Per chunk,
    ``models = aggregate(chunk, widths)`` gives the chunk's models, ready
    for batches of these widths.  Per batch and layer,
    ``linear(models, l, x, receivers, cols)`` computes
    layer ``l`` of every model of the chunk on the shared inputs ``x`` (a
    stack over the chunk) of the batch's columns ``cols`` and returns the
    plaintext outputs (chunk, rows, cols) the assigned receivers learn.
    Each receiver applies the activation and shares the next input again;
    after the last layer it shares the predicted labels, which the servers
    compare with the shared true labels.  Without skip one call holds
    every subset of the round on every position; with skip, each call
    holds one cardinality level, and the empty subset runs last.

    Decryptor offsets, messages, the actor log and utilities follow the
    one-subset-at-a-time order (subset, batch, layer), and a chunk's
    re-share masks are one block from ``share_rng`` laid out in that
    order, so stacking changes no value, count or draw.  Returns the
    round report and the receivers in order.
    """
    model = record.global_model
    arch = model.layers
    num_layers = model.depth
    rows = [spec.out_size + 1 for spec in arch[:-1]] + [1]  # re-shared rows per layer
    players = sorted(record.selected)
    actors: list[str] = []
    assignments = itertools.count()  # one running offset per round
    total = shared.total
    batch_cache: dict = {}  # position bitset -> [(batch, column array, input shares)]

    def batches_for(bits):
        if bits not in batch_cache:
            batch_cache[bits] = []
            for batch in _pooled_batches(shared.owner_by_pos, _positions(bits), m_cap, n):
                cols = np.array(batch.columns)
                inputs = (shared.x_prime[:, cols], shared.x_dprime[:, cols])
                batch_cache[bits].append((batch, cols, inputs))
        return batch_cache[bits]

    def evaluate(subsets, bitsets) -> list[int]:
        correct = []
        for bits, run in itertools.groupby(zip(subsets, bitsets), key=lambda pair: pair[1]):
            correct.extend(evaluate_run([subset for subset, _ in run], bits))
        return correct

    def evaluate_run(subsets, bits) -> list[int]:
        batches = batches_for(bits)
        widths = [len(batch.columns) for batch, _, _ in batches]
        # receivers[subset][batch][layer], assigned in the one-by-one order
        receivers = []
        for subset in subsets:
            owner = next(iter(subset)) if len(subset) == 1 else None
            per_batch = []
            for batch, _, _ in batches:
                sequence = assign_decryptors(
                    players, num_layers, owner, batch.owners, level, next(assignments)
                )
                per_batch.append([client_name(i) for i in sequence[1:num_layers + 1]])
                actors.extend(per_batch[-1])
            receivers.append(per_batch)
        sizes = [r * width for width in widths for r in rows]
        starts = list(itertools.accumulate(sizes, initial=0))
        correct = []
        step = _chunk_size(arch, widths)
        for lo in range(0, len(subsets), step):
            chunk = subsets[lo:lo + step]
            models = aggregate(chunk, widths)
            masks = M61.random_block(share_rng, len(chunk), sizes)
            found = [0] * len(chunk)
            for b, (batch, cols, inputs) in enumerate(batches):
                x = SharePair(*(np.broadcast_to(half, (len(chunk),) + half.shape)
                                for half in inputs))
                for l in range(num_layers):
                    who = [receivers[lo + g][b][l] for g in range(len(chunk))]
                    yhat = linear(models, l, x, who, cols)
                    if l < num_layers - 1:
                        act = apply_activation(model, l, yhat)
                        plain = np.concatenate([act, np.ones_like(act[:, :1])], axis=1)
                    else:
                        plain = np.argmax(yhat, axis=1)[:, None, :].astype(np.float64)
                    at = starts[b * num_layers + l]
                    mask = masks[:, at:at + plain[0].size].reshape(plain.shape)
                    x = split_masked(encode_matrix(plain, field), mask, field)
                    for g, receiver in enumerate(who):
                        router.send(receiver, SERVER_P, x.s_prime[g])
                        router.send(receiver, SERVER_A, x.s_dprime[g])
                hits = _shared_label_check(router, field, x, shared, cols)
                found = [old | new for old, new in zip(found, hits)]
            correct.extend(found)
        return correct

    everything = (1 << total) - 1
    if skip:
        result = sample_skip_round(record.round_index, players, total, evaluate)
        utilities = dict(result.utilities)
        utilities[frozenset()] = evaluate([frozenset()], [everything])[0].bit_count() / total
    else:
        result = None
        subsets = subsets_ascending(players)
        utilities = {subset: bits.bit_count() / total for subset, bits
                     in zip(subsets, evaluate(subsets, [everything] * len(subsets)))}
    return _round_report(record, utilities, result), actors


# -- SecSV ----------------------------------------------------------------------


def secsv_headroom_error(frac_bits: int) -> str | None:
    """Why ``frac_bits`` is too large for SecSV's layer outputs, or None.

    SecSV decodes at scale 3 * frac_bits (weight times parameter times
    share), which needs 3 * frac_bits + 9 of the prime's 61 bits.
    """
    if 3 * frac_bits + 9 > DEFAULT_PRIME.bit_length():
        return ("frac_bits: too large for secsv, which decodes at 3 * frac_bits "
                "(needs 3 * frac_bits + 9 prime bits: frac_bits <= 17)")
    return None


def secsv_slot_error(slot_count: int, arch) -> str | None:
    """Why ``slot_count`` cannot carry SecSV's layer outputs, or None if it can.

    A reducing ciphertext packs d_out x m slots, so the widest layer
    output needs d_out <= slot_count even at a batch of one sample.
    """
    widest = max(spec.out_size for spec in arch)
    if slot_count < widest:
        return (f"slot_count: {slot_count} slots cannot hold one column of secsv's "
                f"widest layer output ({widest} rows); needs slot_count >= {widest}")
    return None


def run_secsv(
    rounds: list[RoundModels],
    test_sets: list[ClientDataset],
    he_params: HEParams | None = None,
    field_params: FieldParams | None = None,
    skip: bool = False,
    cost_weights: CostWeights | None = None,
    level: str = "basic",
    seed: int = 0,
    workers: int = 1,
) -> ContributionReport:
    """Two-server hybrid protocol: encrypted models, secret-shared data.

    Every layer multiplication is ciphertext-plaintext via the reducing
    kernel; batches pool samples across clients.  With ``skip`` on, the
    sample-skip accelerator prunes aggregate evaluations.
    """
    started = time.perf_counter()
    field = field_params or FieldParams()
    arch = _common_architecture(rounds)
    he_params = he_params or HEParams()
    unfit = (workers_error(workers) or secsv_headroom_error(field.frac_bits)
             or secsv_slot_error(he_params.slot_count, arch))
    if unfit:
        raise ProtocolError(unfit)
    weights = cost_weights or CostWeights()
    n = len(test_sets)
    clients = list(range(n))
    num_layers = len(arch)
    grid_bits = rounds[0].global_model.act_grid_bits
    if grid_bits is not None and grid_bits > field.frac_bits:
        raise ProtocolError(
            f"activation grid of {grid_bits} bits cannot be encoded exactly "
            f"with frac_bits={field.frac_bits}"
        )

    meter = CostMeter()
    router = _new_router(meter, he_params, clients, two_servers=True)
    leader = int(np.random.default_rng(seed).integers(n))
    keys = _distribute_keys(router, f"secsv-{seed}", leader, clients, [SERVER_P, SERVER_A])

    shared = _share_test_data(test_sets, field, router, mask_rng(f"secsv-{seed}-data"))
    total = shared.total
    shares = np.stack([shared.x_prime, shared.x_dprime])  # P's and A's, every pooled column

    slot_count = he_params.slot_count
    m_cap = min(slot_count // spec.out_size for spec in arch)
    m_cap = max(1, min(m_cap, total))
    plans = [plan_reducing(spec.out_size, spec.in_size + 1, m_cap, slot_count) for spec in arch]

    def eval_round(record: RoundModels):
        ctx = HEContext(replace(he_params, seed=_round_seed(seed, record.round_index)), meter)
        model_enc: dict = {}

        def upload_model(owner_name, model, store_key):
            model_enc[store_key] = [encode_matrix(theta, field) for theta in model.params]
            for enc, plan in zip(model_enc[store_key], plans):
                cts = reducing_prepare_model(enc, plan, ctx, keys.public, width=m_cap)
                router.send(owner_name, SERVER_P, cts)
                router.send(owner_name, SERVER_A, cts)

        for i in sorted(record.selected):
            upload_model(client_name(i), record.local_models[i], i)
        upload_model(client_name(leader), record.global_model, "global")
        # each uploaded first layer times P's and A's shares, as they could from the upload
        first = {key: M61.matmul(layers[0], shares) for key, layers in model_enc.items()}

        def aggregated(subset):
            """The subset's weights and members (layer 0), then its aggregate's field matrices.

            Both servers fold their copies of every layer's d_in model
            ciphertexts: |S| scalar multiplies plus |S|-1 additions per
            ciphertext, metered here; the folded values of layers >= 1 are
            computed once, as the d_out x d_in matrices ``linear`` multiplies.
            """
            if not subset:
                # the incoming global model, brought to the same
                # weight-times-parameter scale as every aggregate
                w_enc, members = [encode(1.0, field)], ["global"]
            else:
                w = record.weights_for(subset)
                members = sorted(subset)
                w_enc = [encode(w[i], field) for i in members]
            for plan in plans:
                ctx.charge_fold(plan.d_in, len(members), copies=2)
            return [(w_enc, members)] + [M61.weighted_sum(w_enc, [model_enc[k][l] for k in members])
                                         for l in range(1, num_layers)]

        def linear(aggs, l, x, receivers, cols):
            """Each subset's layer in turn: both servers' reducing products as one stack."""
            plan = plans[l]
            out = []
            for agg, share_p, share_a, receiver in zip(aggs, x.s_prime, x.s_dprime, receivers):
                if l == 0:  # over Z_p, (sum_i w_i theta_i) x = sum_i w_i (theta_i x) exactly
                    w_enc, members = agg[0]
                    product = M61.weighted_sum(w_enc, [first[k][..., cols] for k in members])
                else:
                    product = M61.matmul(agg[l], np.stack([share_p, share_a]))
                cts = reducing_field_slots(product, plan, ctx, keys.public)
                router.send(SERVER_A, SERVER_P, cts[1])
                ct = ctx.he_add(cts[0], cts[1])
                router.send(SERVER_P, receiver, ct)
                raw = ctx.decrypt_stack(ct, (plan.d_out, m_cap), (plan.d_out, m_cap), keys.private)
                out.append(raw[:, :len(cols)])
            # aggregate model at 2f (weight times parameter), share at f
            return decode_matrix(np.stack(out), field, 3 * field.frac_bits)

        return _two_server_round(
            record, shared, m_cap, n, level, field, router,
            mask_rng(f"secsv-{seed}-round-{record.round_index}"),
            lambda subsets, widths: [aggregated(subset) for subset in subsets], linear, skip,
        )

    results = [eval_round(record) for record in rounds]
    return _finish_report("secsv+skip" if skip else "secsv", clients, total, results,
                          meter, weights, started)


# -- SecretSV ---------------------------------------------------------------------


def run_secretsv(
    rounds: list[RoundModels],
    test_sets: list[ClientDataset],
    field_params: FieldParams | None = None,
    cost_weights: CostWeights | None = None,
    level: str = "basic",
    seed: int = 0,
    batch_capacity: int = 512,
    triple_budget: int | None = None,
    workers: int = 1,
) -> ContributionReport:
    """Two-server baseline: models and data both additively shared.

    Layers are Beaver-triple multiplications between shared matrices;
    dealer traffic lands in the meter under the ``dealer`` sender.  Each
    layer applies a fixed-point truncation, so errors accumulate with
    depth.
    """
    field = field_params or FieldParams()
    unfit = workers_error(workers) or secretsv_headroom_error(field.frac_bits)
    if unfit:
        raise ProtocolError(unfit)
    started = time.perf_counter()
    arch = _common_architecture(rounds)
    weights = cost_weights or CostWeights()
    n = len(test_sets)
    clients = list(range(n))
    num_layers = len(arch)

    meter = CostMeter()
    router = _new_router(meter, HEParams(), clients, two_servers=True, with_dealer=True)
    leader = int(np.random.default_rng(seed).integers(n))
    shared = _share_test_data(test_sets, field, router, mask_rng(f"secretsv-{seed}-data"))
    total = shared.total
    m_cap = min(batch_capacity, total)
    per_round_budget = None if triple_budget is None else triple_budget // len(rounds)
    arena = _Arena()  # one per run, shared by its rounds

    def eval_round(record: RoundModels):
        share_rng = mask_rng(f"secretsv-{seed}-round-{record.round_index}")
        supply = TripleSupply(
            replace(field, seed=_round_seed(field.seed ^ seed, record.round_index)),
            budget=per_round_budget,
            arena=arena,
        )
        model_shares: dict = {}

        def upload_shares(owner_name, model, store_key):
            model_shares[store_key] = [
                _split_and_distribute(router, field, owner_name, theta, share_rng)
                for theta in model.params
            ]

        for i in sorted(record.selected):
            upload_shares(client_name(i), record.local_models[i], i)
        upload_shares(client_name(leader), record.global_model, "global")

        # every model's layers flattened into one row per share half
        players = sorted(record.selected)
        column = {i: g for g, i in enumerate(players)}
        flat = {key: [np.concatenate([theta.s_prime.reshape(-1) for theta in layers]),
                      np.concatenate([theta.s_dprime.reshape(-1) for theta in layers])]
                for key, layers in model_shares.items()}
        members_flat = [np.stack([flat[i][h] for i in players]) for h in (0, 1)]
        layer_ends = list(itertools.accumulate(math.prod(spec.weight_shape) for spec in arch))

        def aggregated_shares(subsets, widths):
            """Per layer, the chunk's model shares as one stack; deals the chunk's triples.

            The chunk's aggregates are one ``M61.weighted_sum`` per share
            half: its encoded weight rows (zero off each subset) times every
            member's flattened layers, then one truncation.  The empty
            subset takes the global model and a single member of weight 1
            its own shares, untruncated.
            """
            weights = np.zeros((len(subsets), len(players)), dtype=np.uint64)
            own = {}  # row -> key of the model whose shares it takes unchanged
            for g, subset in enumerate(subsets):
                w = record.weights_for(subset) if subset else {}
                for i in subset:
                    weights[g, column[i]] = encode(w[i], field)
                if not subset or list(w.values()) == [1.0]:
                    own[g] = min(subset, default="global")
            agg = _truncate_shares(SharePair(*(M61.weighted_sum(weights, members_flat[h])
                                               for h in (0, 1))), field)
            for g, key in own.items():
                agg.s_prime[g], agg.s_dprime[g] = flat[key]
            layers = [SharePair(*(half[:, lo:hi].reshape((len(subsets),) + spec.weight_shape)
                                  for half in (agg.s_prime, agg.s_dprime)))
                      for lo, hi, spec in zip([0] + layer_ends, layer_ends, arch)]
            supply.deal(len(subsets), _triple_shapes(arch, widths))
            return layers

        def linear(models, l, x, receivers, cols):
            out = share_matmul(models[l], x, supply, field, router=router)
            for g, receiver in enumerate(receivers):
                router.send(SERVER_P, receiver, out.s_prime[g])
                router.send(SERVER_A, receiver, out.s_dprime[g])
            return decode_matrix(reconstruct_int(out, field), field, field.frac_bits)

        return _two_server_round(record, shared, m_cap, n, level, field, router, share_rng,
                                 aggregated_shares, linear)

    results = [eval_round(record) for record in rounds]
    return _finish_report("secretsv", clients, total, results, meter, weights, started)
