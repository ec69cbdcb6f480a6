import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secshap.federation import (
    RoundModels,
    dirichlet_partition,
    fedavg_train,
    make_synthetic_dataset,
)
from secshap.cli import ExperimentConfig
from secshap.hebackend import (
    CipherVector,
    CostMeter,
    HEContext,
    HEParams,
    PrivateKey,
    generate_keypair,
)
from secshap.kernels import plan_squaring
from secshap.models import (
    LayerSpec,
    Model,
    arch_cnn_like,
    arch_logistic,
    apply_activation,
    arch_mlp,
    random_model,
)
from secshap import protocols, sharing
from secshap.parties import SERVER_A, SERVER_P, AssignmentError, Router
from secshap.protocols import (
    ProtocolError,
    _hesv_draw_layout,
    _pooled_batches,
    run_hesv,
    run_nssv,
    run_secretsv,
    run_secsv,
)
from secshap.report import report_to_json
from secshap.sharing import (
    M61,
    FieldParams,
    SharePair,
    SupplyError,
    TripleSupply,
    _truncate_shares,
    encode,
    encode_matrix,
    reconstruct_int,
    share_matmul,
    split_matrix,
)
from secshap.shapley import fsv_error, ssv_exact, subsets_ascending, UtilityTable


def small_world(
    n=4, test_m=120, train_m=240, d=12, c=3, arch=None, rounds=2,
    seed=5, separation=2.5, epochs=1, lr=0.5, grid_bits=12,
):
    pool = make_synthetic_dataset(test_m, d, c, seed=seed, separation=separation,
                                  grid_bits=grid_bits, centers_seed=seed)
    parts = dirichlet_partition(pool, n, alpha=0.7, seed=seed + 1)
    train_pool = make_synthetic_dataset(train_m, d, c, seed=seed + 2, separation=separation,
                                        grid_bits=grid_bits, centers_seed=seed)
    train = dirichlet_partition(train_pool, n, alpha=0.7, seed=seed + 3)
    history = fedavg_train(train, arch or arch_logistic(d, c), rounds, local_epochs=epochs, lr=lr,
                           seed=seed + 4, grid_bits=grid_bits)
    return parts, history


@pytest.fixture(scope="module")
def logistic_world():
    parts, history = small_world()
    nssv = run_nssv(history, parts)
    return parts, history, nssv


class TestNssv:
    def test_matches_exact_values_from_table(self, logistic_world):
        parts, history, nssv = logistic_world
        for round_report in nssv.rounds:
            table = UtilityTable(round_report.round_index, frozenset(round_report.players))
            for subset, v in round_report.utilities.items():
                table.set(subset, v)
            assert round_report.ssv == ssv_exact(table)

    def test_efficiency_per_round(self, logistic_world):
        _, _, nssv = logistic_world
        for r in nssv.rounds:
            total = sum(r.ssv.values())
            span = r.utilities[frozenset(r.players)] - r.utilities[frozenset()]
            assert total == pytest.approx(span, abs=1e-9)

    def test_identical_local_models_share_fsv(self):
        parts, history = small_world(seed=11)
        record = history[0]
        clone = {i: record.local_models[0] for i in record.selected}
        sizes = {i: 10 for i in record.selected}
        tied = RoundModels(1, record.selected, record.global_model, clone, sizes, 12)
        report = run_nssv([tied], parts)
        values = list(report.fsv.values())
        assert all(v == pytest.approx(values[0], abs=1e-12) for v in values)


class TestHesv:
    def test_exact_against_nssv_without_noise(self, logistic_world):
        parts, history, nssv = logistic_world
        hesv = run_hesv(history, parts, HEParams(noise_stddev=0.0), seed=1)
        for rn, rh in zip(nssv.rounds, hesv.rounds):
            assert rn.utilities == rh.utilities
        assert fsv_error(hesv.fsv, nssv.fsv) == 0.0

    def test_noise_keeps_error_small(self, logistic_world):
        parts, history, nssv = logistic_world
        hesv = run_hesv(history, parts, HEParams(noise_stddev=1e-9), seed=1)
        assert fsv_error(hesv.fsv, nssv.fsv) <= 1e-3

    def test_c2c_lower_bound_and_actors(self, logistic_world):
        parts, history, nssv = logistic_world
        hesv = run_hesv(history, parts, HEParams(), seed=1)
        models_tested = len(history) * (2 ** len(parts))
        num_layers = len(history[0].global_model.layers)
        assert hesv.meter.hmult_c2c >= num_layers * models_tested
        assert all(actor.startswith("client_") for actor in hesv.decrypt_actors)

    def test_too_few_clients_rejected(self):
        parts, history = small_world(n=3, seed=21)
        with pytest.raises(AssignmentError):
            run_hesv(history, parts, HEParams(), seed=1)


    def test_noisy_mlp_report_frozen(self):
        # a noisy depth-3 MLP whose batches are narrower than the squaring
        # blocks (m < s) and whose layers keep fewer rows than a padded block
        # holds (d_out < d'_out); the digest is that of the report at
        # be59320, before ciphertexts stored only their live slots
        parts, history = small_world(n=4, test_m=60, train_m=120, d=15, c=3,
                                     arch=arch_mlp(15, 3, [7, 5]), rounds=1, seed=7)
        he = HEParams(slot_count=256, noise_stddev=1e-6)
        report = run_hesv(history, parts, he, seed=3)
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digest == "adc8ce53fe9fc5aed1e1005ca218976f8cee234ab541b0dcbf55885361ddb6e2"


class TestHesvNoiseOrder:
    """A subset's one block of draws lands where per-batch decryptions put it."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stacked_decryption_equals_per_ciphertext_calls(self, seed):
        # plans with J = 2, C = 1 and C = 2; batches of uneven widths
        slot_count, m = 256, 6
        plans = [plan_squaring(d_out, d_in, m, slot_count)
                 for d_out, d_in in ((20, 16), (5, 8), (3, 6))]
        widths = np.array([6, 2, 6, 5])
        key = generate_keypair("noise-order")
        rng = np.random.default_rng(seed)
        stacks = []
        for plan in plans:
            shape = (len(widths), plan.j_blocks, plan.live_width())
            stacks.append(CipherVector(rng.normal(size=shape), key.public.key_id,
                                       rng.uniform(0.5, 2.0, size=shape)))
        labels = CipherVector(rng.normal(size=(len(widths), m)), key.public.key_id, 1.5)

        # the old order: batch by batch, each band decrypted as its full
        # d'_out x s block, then the batch's label slots
        old = HEContext(HEParams(slot_count=slot_count, noise_stddev=1e-3, seed=seed))
        want = []
        for b, m_b in enumerate(widths):
            for plan, stack in zip(plans, stacks):
                rows, s, live = plan.d_out_block, plan.s, plan.live_rows()
                for j in range(plan.j_blocks):
                    slots, var = np.zeros((rows, s)), np.ones((rows, s))
                    slots[:live, :m] = stack.slots[b, j, : live * m].reshape(live, m)
                    var[:live, :m] = stack.var[b, j, : live * m].reshape(live, m)
                    band = CipherVector(slots.reshape(-1), key.public.key_id, var.reshape(-1))
                    want.append(old.decrypt_stack(band, (rows, s), (rows, s),
                                                  key.private)[:live, :m_b])
            label = CipherVector(labels.slots[b], key.public.key_id, labels.var)
            want.append(old.decrypt_stack(label, (1, m_b), (1, m_b), key.private))

        new = HEContext(HEParams(slot_count=slot_count, noise_stddev=1e-3, seed=seed))
        total, layer_draws, label_draws = _hesv_draw_layout(plans, widths)
        noise = new.draw_noise(total)
        layers = [
            new.decrypt_stack(stack, (plan.live_rows(), m), (plan.d_out_block, plan.s),
                              key.private, draws=noise[idx])
            for plan, stack, idx in zip(plans, stacks, layer_draws)
        ]
        plain = new.decrypt_stack(labels, (1, m), (1, m), key.private, draws=noise[label_draws])
        got = []
        for b, m_b in enumerate(widths):
            for plan, out in zip(plans, layers):
                got.extend(out[b, j, :, :m_b] for j in range(plan.j_blocks))
            got.append(plain[b, :, :m_b])
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert new.meter.dec == old.meter.dec
        assert np.array_equal(new.draw_noise(3), old.draw_noise(3))  # same draws consumed


@pytest.fixture(scope="module")
def secsv_pair(logistic_world):
    parts, history, nssv = logistic_world
    off = run_secsv(history, parts, HEParams(), FieldParams(), skip=False, seed=1)
    on = run_secsv(history, parts, HEParams(), FieldParams(), skip=True, seed=1)
    return parts, history, nssv, off, on


class TestSecsv:
    def test_exact_against_nssv_without_noise(self, secsv_pair):
        _, _, nssv, off, _ = secsv_pair
        for rn, rs in zip(nssv.rounds, off.rounds):
            assert rn.utilities == rs.utilities
        assert fsv_error(off.fsv, nssv.fsv) == 0.0

    def test_zero_c2c(self, secsv_pair):
        _, _, _, off, on = secsv_pair
        assert off.meter.hmult_c2c == 0
        assert on.meter.hmult_c2c == 0

    def test_skip_equals_noskip_for_linear(self, secsv_pair):
        _, _, _, off, on = secsv_pair
        for ra, rb in zip(on.rounds, off.rounds):
            assert ra.utilities == rb.utilities
        assert on.fsv == off.fsv

    def test_skip_statistics_recorded(self, secsv_pair):
        _, _, _, _, on = secsv_pair
        totals = on.skip_totals()
        assert totals["skipped"] > 0
        assert 0 < totals["fraction"] < 1
        for r in on.rounds:
            assert r.skipped_by_cardinality.get(1, 0) == 0  # locals fully evaluated
            assert set(r.skipped_by_cardinality) <= {1, 2, 3, 4}

    def test_share_messages_smaller_than_ciphertexts(self, secsv_pair):
        parts, _, _, off, _ = secsv_pair
        # the same logical feature matrix costs less as one share than
        # as ciphertexts
        from secshap.hebackend import ciphertext_bytes
        from secshap.parties import payload_bytes

        d_plus_1 = parts[0].features.shape[0] + 1
        share_bytes = d_plus_1 * parts[0].size * 8
        n_cts = -(-d_plus_1 * parts[0].size // 2048)
        assert share_bytes < n_cts * ciphertext_bytes(HEParams())

    def test_actors_are_clients(self, secsv_pair):
        _, _, _, off, on = secsv_pair
        for report in (off, on):
            assert report.decrypt_actors
            assert all(a.startswith("client_") for a in report.decrypt_actors)

    def test_slots_hold_the_fields_representation(self, logistic_world, monkeypatch):
        # uint64 from the shares into the HE slots
        parts, history, _ = logistic_world
        dtypes = set()
        real_mult = HEContext.he_mult
        real_dot = HEContext.he_dot

        def spy_mult(self, a, b):
            out = real_mult(self, a, b)
            dtypes.update((a.slots.dtype, np.asarray(b).dtype, out.slots.dtype))
            return out

        def spy_dot(self, a, b, terms=None):
            out = real_dot(self, a, b, terms)
            dtypes.update((a.slots.dtype, np.asarray(b).dtype, out.slots.dtype))
            return out

        real_prepare = protocols.reducing_prepare_model
        products = []

        def spy_prepare(operand, *args, **kwargs):
            dtypes.add(np.asarray(operand).dtype)
            return real_prepare(operand, *args, **kwargs)

        real_slots = protocols.reducing_field_slots

        def spy_slots(product, *args, **kwargs):
            # every layer: its field product and the output slots
            out = real_slots(product, *args, **kwargs)
            dtypes.update((np.asarray(product).dtype, out.slots.dtype))
            products.append(out.slots.dtype)
            return out

        monkeypatch.setattr(HEContext, "he_mult", spy_mult)
        monkeypatch.setattr(HEContext, "he_dot", spy_dot)
        monkeypatch.setattr(protocols, "reducing_prepare_model", spy_prepare)
        monkeypatch.setattr(protocols, "reducing_field_slots", spy_slots)
        run_secsv(history, parts, HEParams(), FieldParams(), skip=True, seed=1)
        assert products and dtypes == {np.dtype(np.uint64)}

    def test_headroom_checked_before_any_work(self, logistic_world, monkeypatch):
        # called without validate(): fail at entry, naming the field, with
        # no key, share or HE operation done
        parts, history, _ = logistic_world
        meters, calls = [], []

        def recording_meter():
            meters.append(CostMeter())
            return meters[-1]

        monkeypatch.setattr(protocols, "CostMeter", recording_meter)
        for name in ("generate_keypair", "split_matrix", "HEContext"):
            monkeypatch.setattr(protocols, name, lambda *a, _n=name, **k: calls.append(_n))
        with pytest.raises(ProtocolError) as err:
            run_secsv(history, parts, HEParams(), FieldParams(frac_bits=20), seed=1)
        assert str(err.value).startswith("frac_bits:")
        assert str(err.value) == ExperimentConfig(frac_bits=20).validate()[0]
        assert calls == []
        assert all(m.as_dict() == CostMeter().as_dict() for m in meters)

    def test_slot_count_checked_before_any_work(self, monkeypatch):
        # 16 slots cannot hold one column of a 32-row hidden layer: fail at
        # entry, with validate()'s message and no key, share or HE work
        parts, history = small_world(n=4, test_m=60, train_m=120, d=8, c=2,
                                     arch=arch_mlp(8, 2, [32]), rounds=1, seed=2)
        meters, calls = [], []

        def recording_meter():
            meters.append(CostMeter())
            return meters[-1]

        monkeypatch.setattr(protocols, "CostMeter", recording_meter)
        for name in ("generate_keypair", "split_matrix", "HEContext"):
            monkeypatch.setattr(protocols, name, lambda *a, _n=name, **k: calls.append(_n))
        with pytest.raises(ProtocolError) as err:
            run_secsv(history, parts, HEParams(slot_count=16), FieldParams(), seed=1)
        config = ExperimentConfig(test_samples=60, train_samples=120, features=8, rounds=1,
                                  clients=4, architecture="mlp", hidden=[32], slot_count=16)
        assert str(err.value).startswith("slot_count:")
        assert str(err.value) in config.validate()
        assert calls == []
        assert all(m.as_dict() == CostMeter().as_dict() for m in meters)

    def test_grid_coarser_than_codec_rejected(self, logistic_world):
        parts, history, _ = logistic_world
        with pytest.raises(ProtocolError):
            run_secsv(history, parts, HEParams(), FieldParams(frac_bits=8), seed=1)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: find_skippable assumes the union's aggregate is a convex "
        "combination of its halves', but weights_for rounds each subset's weights to "
        "the grid; subset {0, 2, 4, 5} scores 43/60 with skip on, 42/60 in nssv"))
    def test_skip_keeps_linear_utilities_on_a_rounded_grid(self):
        parts, history = small_world(n=6, test_m=60, train_m=120, d=8, c=3,
                                     arch=arch_logistic(8, 3), rounds=1, seed=1371,
                                     grid_bits=8)
        he = HEParams(slot_count=256, noise_stddev=0)
        nssv = run_nssv(history, parts)
        on = run_secsv(history, parts, he, FieldParams(), skip=True, seed=1)
        assert [r.utilities for r in on.rounds] == [r.utilities for r in nssv.rounds]


class TestSecretsv:
    def test_single_layer_error_small(self, logistic_world):
        parts, history, nssv = logistic_world
        report = run_secretsv(history, parts, FieldParams(), seed=1)
        assert fsv_error(report.fsv, nssv.fsv) <= 1e-2

    def test_dealer_bytes_metered(self, logistic_world):
        parts, history, _ = logistic_world
        report = run_secretsv(history, parts, FieldParams(), seed=1)
        assert report.shares_gen_bytes() > 0
        assert ("dealer", "server_p") in report.meter.bytes_sent

    def test_actors_are_clients(self, logistic_world):
        parts, history, _ = logistic_world
        report = run_secretsv(history, parts, FieldParams(), seed=1)
        assert report.decrypt_actors
        assert all(a.startswith("client_") for a in report.decrypt_actors)

    def test_default_field_runs_on_uint64(self, logistic_world, monkeypatch):
        # the vectorised field path, not the Python-int one, carries the run
        parts, history, nssv = logistic_world
        dtypes = set()
        real = protocols.share_matmul

        def spy(a, b, supply, field, **kwargs):
            out = real(a, b, supply, field, **kwargs)
            dtypes.update(x.dtype for pair in (a, b, out) for x in (pair.s_prime, pair.s_dprime))
            return out

        monkeypatch.setattr(protocols, "share_matmul", spy)
        report = run_secretsv(history, parts, FieldParams(), seed=1)
        assert dtypes == {np.dtype(np.uint64)}
        assert fsv_error(report.fsv, nssv.fsv) <= 1e-2

    def test_headroom_checked_before_any_work(self, logistic_world, monkeypatch):
        # called without validate(): fail at entry, naming the field, with
        # no share, triple or product work done
        parts, history, _ = logistic_world
        meters, calls = [], []

        def recording_meter():
            meters.append(CostMeter())
            return meters[-1]

        monkeypatch.setattr(protocols, "CostMeter", recording_meter)
        for name in ("split_matrix", "TripleSupply", "share_matmul", "mask_rng"):
            monkeypatch.setattr(protocols, name, lambda *a, _n=name, **k: calls.append(_n))
        with pytest.raises(ProtocolError) as err:
            run_secretsv(history, parts, FieldParams(frac_bits=27), seed=1)
        assert str(err.value).startswith("frac_bits:")
        assert str(err.value) == ExperimentConfig(frac_bits=27).validate()[0]
        assert calls == []
        assert all(m.as_dict() == CostMeter().as_dict() for m in meters)

    def test_triple_exhaustion(self, logistic_world):
        parts, history, _ = logistic_world
        with pytest.raises(SupplyError):
            run_secretsv(history, parts, FieldParams(), seed=1, triple_budget=10)

    def test_error_shrinks_with_more_frac_bits(self):
        # deeper chain plus a sweep of the fixed-point precision
        parts, rounds = _identity_chain_world()
        nssv = run_nssv(rounds, parts)
        errors = []
        for f in (12, 16, 20, 24):
            rep = run_secretsv(rounds, parts, FieldParams(frac_bits=f), seed=2)
            errors.append(fsv_error(rep.fsv, nssv.fsv))
        assert errors[0] >= errors[1] >= errors[2] >= errors[3]

    @pytest.mark.xfail(strict=True, reason=(
        "secretsv_headroom_error counts only 2 * frac_bits + 9 of the prime's bits, so it "
        "allows f = 25 and 26, where the local truncation fails more often than at f = 24 "
        "(0.0027 -> 0.0053 -> 0.0112 here); a headroom rule that reads the data is open"))
    def test_headroom_rule_refuses_precision_past_the_best(self):
        # a frac_bits the rule allows is at least as accurate as f = 24, or refused
        parts, rounds = _identity_chain_world()
        nssv = run_nssv(rounds, parts)
        best = fsv_error(run_secretsv(rounds, parts, FieldParams(frac_bits=24), seed=2).fsv,
                         nssv.fsv)
        for f in (25, 26):
            try:
                rep = run_secretsv(rounds, parts, FieldParams(frac_bits=f), seed=2)
            except ProtocolError:
                continue
            assert fsv_error(rep.fsv, nssv.fsv) <= best, f


def _identity_chain_world():
    """Four clients' test data and one round of seven-layer identity chains."""
    parts, _ = small_world(seed=31, d=10, c=3, test_m=150)
    rng = np.random.default_rng(8)
    specs = (
        [LayerSpec("fully-connected", 10, 12, "identity")]
        + [LayerSpec("fully-connected", 12, 12, "identity") for _ in range(5)]
        + [LayerSpec("fully-connected", 12, 3, "identity")]
    )

    def mk():
        params = []
        for spec in specs:
            w = rng.normal(0.0, 0.4 / np.sqrt(spec.in_size), size=spec.weight_shape)
            w[:, -1] = 0.0
            params.append(np.round(w * 4096) / 4096)
        return Model(specs, params, act_grid_bits=None)

    rounds = [RoundModels(1, (0, 1, 2, 3), mk(), {i: mk() for i in range(4)},
                          {i: 10 for i in range(4)}, 12)]
    return parts, rounds


def _secretsv_layer_oracle(history, parts, field, seed, batch_capacity):
    """Every secretsv layer's input share at P and reconstructed output, one subset at a time.

    Follows run_secretsv's draws with one 2-D ``share_matmul`` per
    (round, subset, batch, layer), each taking its own triple: the test
    data, model and re-share masks come from the same generators in the
    same order.  Returns the (input share, output) pairs in that order, the
    batch widths and the depth.
    """
    n = len(parts)
    router = protocols._new_router(CostMeter(), HEParams(), range(n),
                                   two_servers=True, with_dealer=True)
    shared = protocols._share_test_data(parts, field, router,
                                        protocols.mask_rng(f"secretsv-{seed}-data"))
    batches = _pooled_batches(shared.owner_by_pos, range(shared.total),
                              min(batch_capacity, shared.total), n)
    outputs = []
    for record in history:
        model = record.global_model
        share_rng = protocols.mask_rng(f"secretsv-{seed}-round-{record.round_index}")
        supply = TripleSupply(replace(field, seed=protocols._round_seed(
            field.seed ^ seed, record.round_index)))
        players = sorted(record.selected)
        uploaded = {i: [split_matrix(theta, field, share_rng) for theta in mdl.params]
                    for i, mdl in [*((i, record.local_models[i]) for i in players),
                                   ("global", model)]}
        for subset in subsets_ascending(players):
            w = record.weights_for(subset) if subset else {}
            if not subset or list(w.values()) == [1.0]:
                theta = uploaded[min(subset, default="global")]
            else:
                w_enc = [encode(w[i], field) for i in sorted(subset)]
                theta = [_truncate_shares(SharePair(*(
                    _weight_row_sum(w_enc, [getattr(uploaded[i][l], half) for i in sorted(subset)])
                    for half in ("s_prime", "s_dprime"))), field) for l in range(model.depth)]
            for batch in batches:
                cols = np.array(batch.columns)
                x = SharePair(shared.x_prime[:, cols], shared.x_dprime[:, cols])
                for l in range(model.depth):
                    out = share_matmul(theta[l], x, supply, field)
                    recon = reconstruct_int(out, field)
                    outputs.append((x.s_prime.tolist(), recon.tolist()))
                    y = M61.signed(recon) / float(1 << field.frac_bits)
                    if l < model.depth - 1:
                        act = apply_activation(model, l, y)
                        plain = np.vstack([act, np.ones((1, act.shape[1]))])
                    else:
                        plain = np.argmax(y, axis=0)[None, :].astype(np.float64)
                    x = split_matrix(plain, field, share_rng)
    return outputs, [len(batch.columns) for batch in batches], history[0].global_model.depth


class TestSecretsvLayerOutputs:
    """Each (subset, batch, layer) input share and output.

    Report digests cannot see where triples and masks land: a truncation
    off by one unit rarely flips a label.
    """

    @pytest.mark.parametrize("chunk", ["rule", 5, 1])
    def test_outputs_equal_one_subset_oracle(self, chunk, monkeypatch):
        arch = arch_mlp(8, 3, [6, 5])
        parts, history = small_world(n=4, test_m=60, train_m=120, d=8, c=3, arch=arch,
                                     rounds=2, seed=23, grid_bits=12)
        field, seed, capacity = FieldParams(seed=3), 4, 16
        want, widths, depth = _secretsv_layer_oracle(history, parts, field, seed, capacity)
        num_batches = len(widths)
        assert num_batches >= 2
        if chunk != "rule":  # chunks of `chunk` subsets
            shapes = protocols._triple_shapes(arch, widths)
            per_subset = 8 * sum(map(math.prod, sharing._dealt_parts(shapes)))  # dealt bytes
            monkeypatch.setattr(protocols, "_CHUNK_BYTES", chunk * per_subset)
        stacks = []
        real = protocols.share_matmul

        def spy(a, b, supply, field, **kwargs):
            out = real(a, b, supply, field, **kwargs)
            stacks.append((np.broadcast_to(b.s_prime, out.s_prime.shape[:1] + b.s_prime.shape[-2:]),
                           reconstruct_int(out, field)))
            return out

        monkeypatch.setattr(protocols, "share_matmul", spy)
        run_secretsv(history, parts, field, seed=seed, batch_capacity=capacity)
        # a chunk makes batch x layer stacked calls; unstack them subset by subset
        got = []
        for start in range(0, len(stacks), num_batches * depth):
            calls = stacks[start:start + num_batches * depth]
            sizes = {len(out) for _, out in calls}
            assert len(sizes) == 1
            if chunk != "rule":
                assert sizes <= {chunk, 16 % chunk or chunk}
            got.extend((x[g].tolist(), out[g].tolist())
                       for g in range(len(calls[0][1])) for x, out in calls)
        assert len(got) == len(want)
        for index, (mine, truth) in enumerate(zip(got, want)):
            assert mine == truth, index

    def test_budget_fails_where_one_subset_at_a_time_fails(self, logistic_world, monkeypatch):
        parts, history, _ = logistic_world
        messages = {}
        for chunk in ("rule", 1):
            if chunk == 1:
                monkeypatch.setattr(protocols, "_CHUNK_BYTES", 1)
            for budget in (10, 3000, 50_000, 123_457, 400_000):
                try:
                    run_secretsv(history, parts, FieldParams(), seed=1, triple_budget=budget)
                    messages[chunk, budget] = None
                except SupplyError as err:
                    messages[chunk, budget] = str(err)
        assert [messages["rule", b] for b in (10, 3000, 50_000, 123_457, 400_000)] == \
            [messages[1, b] for b in (10, 3000, 50_000, 123_457, 400_000)]
        assert sum(m is not None for m in messages.values()) >= 6


class TestBeaverWorkingSet:
    """The chunk rule: as many subsets as keep a chunk's dealt triple block within the
    byte budget."""

    STOCK = (arch_logistic(48, 2), (131, 369))  # the stock run's layer and batch widths

    def test_stock_chunk_holds_four_subsets(self):
        assert protocols._chunk_size(*self.STOCK) >= 4

    def test_warm_stock_chunk_peaks_below_the_budget(self):
        # one chunk's deal and both batches' Beaver products, arena buffer included
        arch, widths = self.STOCK
        count = protocols._chunk_size(arch, widths)
        shapes = protocols._triple_shapes(arch, widths)
        g = np.random.default_rng(35)
        field = FieldParams()
        supply = TripleSupply(field)
        operands = [(SharePair(M61.random(g, (count,) + a), M61.random(g, (count,) + a)),
                     SharePair(M61.random(g, b), M61.random(g, b))) for a, b in shapes]

        def chunk():
            supply.deal(count, shapes)
            for a, b in operands:
                share_matmul(a, b, supply, field)

        chunk()  # on fresh pieces, which the next deal fits the arena to
        chunk()
        assert supply._arena._buf.nbytes > 0
        tracemalloc.start()
        try:
            chunk()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak + supply._arena._buf.nbytes < 7 << 19, peak  # 3.5 MiB


class TestRandomWorlds:
    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([4, 5, 6]),
        hidden=st.lists(st.tuples(st.sampled_from([4, 6]), st.sampled_from(["sigmoid", "relu"])),
                        max_size=2),
        slot_count=st.sampled_from([256, 1024, 2048]),
        grid_bits=st.sampled_from([8, 12]),
        seed=st.integers(0, 10_000),
    )
    def test_noise_off_tables_equal_nssv(self, n, hidden, slot_count, grid_bits, seed):
        d, c = 8, 3
        sizes = [d, *(width for width, _ in hidden), c]
        acts = [act for _, act in hidden] + ["identity"]
        arch = [LayerSpec("fully-connected", sizes[l], sizes[l + 1], acts[l])
                for l in range(len(acts))]
        parts, history = small_world(n=n, test_m=60, train_m=120, d=d, c=c, arch=arch,
                                     rounds=1, seed=seed, grid_bits=grid_bits)
        truth = [r.utilities for r in run_nssv(history, parts).rounds]
        he = HEParams(slot_count=slot_count, noise_stddev=0.0)
        reports = [
            run_hesv(history, parts, he, seed=seed),
            run_secsv(history, parts, he, FieldParams(), skip=False, seed=seed),
            run_secsv(history, parts, he, FieldParams(), skip=True, seed=seed),
        ]
        for report in reports:
            assert [r.utilities for r in report.rounds] == truth, report.protocol

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([4, 5, 6]),
        hidden=st.lists(st.tuples(st.sampled_from([4, 6]), st.sampled_from(["sigmoid", "relu"])),
                        max_size=2),
        grid_bits=st.sampled_from([8, 12]),
        seed=st.integers(0, 10_000),
    )
    def test_secretsv_within_one_flipped_sample(self, n, hidden, grid_bits, seed):
        # each layer's truncation can be one unit off, so a subset utility
        # may miss the ground truth by at most one test sample
        d, c = 8, 3
        sizes = [d, *(width for width, _ in hidden), c]
        acts = [act for _, act in hidden] + ["identity"]
        arch = [LayerSpec("fully-connected", sizes[l], sizes[l + 1], acts[l])
                for l in range(len(acts))]
        parts, history = small_world(n=n, test_m=60, train_m=120, d=d, c=c, arch=arch,
                                     rounds=1, seed=seed, grid_bits=grid_bits)
        total = sum(ds.size for ds in parts)
        truth = run_nssv(history, parts).rounds[0].utilities
        got = run_secretsv(history, parts, FieldParams(), seed=seed).rounds[0].utilities
        assert got.keys() == truth.keys()
        for subset, u in truth.items():
            assert abs(got[subset] - u) * total <= 1 + 1e-9, subset


class TestOverlappingSampleIds:
    def test_two_server_rounds_equal_nssv_when_every_client_has_ids_0_to_m(self):
        # ids are unique within a dataset only: here every client's test set
        # has ids 0..39, and no protocol may mix up two clients' samples
        d, c = 6, 2
        parts = [make_synthetic_dataset(40, d, c, seed=10 + i, centers_seed=1)
                 for i in range(4)]
        assert all(ds.ids.tolist() == list(range(40)) for ds in parts)
        train = [make_synthetic_dataset(80, d, c, seed=20 + i, centers_seed=1)
                 for i in range(4)]
        history = fedavg_train(train, arch_logistic(d, c), 1, seed=3)
        truth = [r.utilities for r in run_nssv(history, parts).rounds]
        he = HEParams(noise_stddev=0.0)
        reports = [
            run_secsv(history, parts, he, FieldParams(), skip=False, seed=1),
            run_secsv(history, parts, he, FieldParams(), skip=True, seed=1),
            run_secretsv(history, parts, FieldParams(), seed=1),
        ]
        for report in reports:
            assert [r.utilities for r in report.rounds] == truth, report.protocol


class TestCostDominance:
    def test_secsv_at_least_2x_cheaper_on_cnn_like(self):
        parts, history = small_world(
            n=4, test_m=120, train_m=160, d=64, c=4,
            arch=arch_cnn_like(64, 4, 16), rounds=1, seed=41, epochs=1, lr=0.05,
        )
        hesv = run_hesv(history, parts, HEParams(), seed=3)
        secsv = run_secsv(history, parts, HEParams(), FieldParams(), seed=3)
        assert fsv_error(secsv.fsv, hesv.fsv) <= 1e-9
        assert hesv.weighted_cost >= 2 * secsv.weighted_cost


class TestDeterminism:
    def test_workers_other_than_one_refused_before_any_work(self, logistic_world, monkeypatch):
        # rounds run in order: every runner and validate() refuse workers=2
        # with one message, before any key, share or HE work
        parts, history, _ = logistic_world
        meters, calls = [], []

        def recording_meter():
            meters.append(CostMeter())
            return meters[-1]

        monkeypatch.setattr(protocols, "CostMeter", recording_meter)
        for name in ("generate_keypair", "split_matrix", "HEContext", "evaluate_model"):
            monkeypatch.setattr(protocols, name, lambda *a, _n=name, **k: calls.append(_n))
        runs = [
            lambda: run_nssv(history, parts, workers=2),
            lambda: run_hesv(history, parts, HEParams(), workers=2),
            lambda: run_secsv(history, parts, HEParams(), FieldParams(), workers=2),
            lambda: run_secretsv(history, parts, FieldParams(), workers=2),
        ]
        messages = []
        for run in runs:
            with pytest.raises(ProtocolError) as err:
                run()
            messages.append(str(err.value))
        assert messages[0].startswith("workers:")
        assert messages == [messages[0]] * len(runs)
        assert ExperimentConfig(workers=2).validate() == [messages[0]]
        assert calls == []
        assert all(m.as_dict() == CostMeter().as_dict() for m in meters)

    @pytest.mark.parametrize("world", ["logistic", "mlp", "mlp, one subset per chunk"])
    def test_secretsv_rounds_share_one_arena_grown_once(self, world, monkeypatch):
        # the run's rounds share one arena; its first chunk, the deepest, sizes it
        if world == "logistic":
            parts, history = small_world(rounds=3)
        else:
            parts, history = small_world(arch=arch_mlp(12, 3, [6, 5]), rounds=2)
        if world == "mlp, one subset per chunk":
            monkeypatch.setattr(protocols, "_CHUNK_BYTES", 1)
        made, grown = [], []
        real_init, real_fit = sharing._Arena.__init__, sharing._Arena.fit

        def init(arena):
            real_init(arena)
            made.append(arena)

        def fit(arena):
            before = arena._buf
            real_fit(arena)
            if arena._buf is not before:
                grown.append(arena._buf.nbytes)

        monkeypatch.setattr(sharing._Arena, "__init__", init)
        monkeypatch.setattr(sharing._Arena, "fit", fit)
        run_secretsv(history, parts, FieldParams(), seed=9)
        assert len(made) == 1
        assert len(grown) == 1

    def test_same_seed_same_report(self, logistic_world):
        parts, history, _ = logistic_world
        a = report_to_json(run_hesv(history, parts, HEParams(noise_stddev=1e-9), seed=5))
        b = report_to_json(run_hesv(history, parts, HEParams(noise_stddev=1e-9), seed=5))
        assert a == b


class TestKeyCustody:
    def test_servers_and_dealer_never_sent_the_private_key(self, logistic_world, monkeypatch):
        parts, history, _ = logistic_world
        key_receivers = []
        real_send = Router.send

        def holds_private_key(payload):
            if isinstance(payload, dict):
                payload = list(payload.values())
            if isinstance(payload, (list, tuple)):
                return any(holds_private_key(p) for p in payload)
            return isinstance(payload, PrivateKey)

        def send(router, sender, receiver, payload):
            if holds_private_key(payload):
                key_receivers.append(receiver)
            return real_send(router, sender, receiver, payload)

        monkeypatch.setattr(Router, "send", send)
        run_nssv(history, parts)
        run_hesv(history, parts, HEParams(), seed=3)
        run_secsv(history, parts, HEParams(), FieldParams(), skip=True, seed=3)
        run_secretsv(history, parts, FieldParams(), seed=3)
        assert key_receivers  # the leader hands the key pair to every other client
        assert not {SERVER_P, SERVER_A, "dealer"} & set(key_receivers)


class TestTrafficLedger:
    @pytest.mark.parametrize("protocol", ["nssv", "hesv", "secsv", "secretsv"])
    def test_bytes_out_equal_the_meter_per_sender(self, logistic_world, monkeypatch, protocol):
        # every message goes through Router.send, Beaver openings and dealer triples included
        parts, history, _ = logistic_world
        routers = []
        real = protocols._new_router

        def new_router(*args, **kwargs):
            routers.append(real(*args, **kwargs))
            return routers[-1]

        monkeypatch.setattr(protocols, "_new_router", new_router)
        run = {
            "nssv": lambda: run_nssv(history, parts),
            "hesv": lambda: run_hesv(history, parts, HEParams(), seed=3),
            "secsv": lambda: run_secsv(history, parts, HEParams(), FieldParams(), skip=True,
                                       seed=3),
            "secretsv": lambda: run_secretsv(history, parts, FieldParams(), seed=3),
        }[protocol]
        report = run()
        (router,) = routers
        assert router.meter is report.meter
        sent = dict.fromkeys(router.parties, 0)
        for (sender, _), nbytes in report.meter.bytes_sent.items():
            sent[sender] += nbytes
        assert {name: party.bytes_out for name, party in router.parties.items()} == sent
        assert sum(sent.values()) == report.meter.total_bytes() > 0


def _weight_row_sum(weights, arrays):
    """The reference weighted sum mod p: ``M61.matmul`` of the weight row by the flattened arrays."""
    row = np.array([weights], dtype=np.uint64)
    stacked = np.stack(arrays).reshape(len(arrays), -1)
    return M61.matmul(row, stacked).reshape(arrays[0].shape)


def _field_operand(rng, shape):
    # random elements, with about a third each forced to 0 and p - 1
    arr = M61.random(rng, shape)
    pick = rng.integers(0, 3, size=shape)
    arr[pick == 1] = 0
    arr[pick == 2] = M61.p - 1
    return arr


class TestSecsvFirstLayer:
    """Layer 0 as a weighted sum of per-model products equals aggregate-then-multiply."""

    @pytest.mark.parametrize("members", range(9), ids=lambda k: f"{k}-members" if k else "global")
    def test_sum_of_products_equals_product_of_sum(self, members):
        field = FieldParams(frac_bits=17)
        top = encode(1.0, field)
        rng = np.random.default_rng(members)
        d_out, d_in, cols = 3, 7, 11
        thetas = [_field_operand(rng, (d_out, d_in)) for _ in range(max(members, 1))]
        x = _field_operand(rng, (2, d_in, cols))
        # the empty subset takes the global model at weight encode(1.0)
        weights = [int(w) for w in rng.integers(0, top + 1, size=members)] or [top]
        weights[0] = top
        got = M61.weighted_sum(weights, [M61.matmul(theta, x) for theta in thetas])
        assert got.dtype == np.uint64 and got.shape == (2, d_out, cols)
        assert np.array_equal(got, M61.matmul(_weight_row_sum(weights, thetas), x))

    def test_words_stay_exact_at_the_stated_limit(self):
        # weights summing to 2^31 - 1 over 2^14 - 1 terms of full 32-bit words:
        # the largest word sums allowed
        terms, top = (1 << 14) - 1, (1 << 31) - 1
        weights = [top // terms] * terms
        weights[0] += top % terms
        values = [(1 << 64) - 1, M61.p - 1]
        got = M61.weighted_sum(weights, np.tile(np.array(values, dtype=np.uint64), (terms, 1)))
        assert got.tolist() == [top * v % M61.p for v in values]

    @pytest.mark.parametrize("skip", [False, True], ids=["skip-off", "skip-on"])
    def test_run_outputs_equal_aggregate_then_multiply(self, skip, monkeypatch):
        arch = arch_mlp(8, 3, [6])
        parts, history = small_world(n=5, test_m=60, train_m=120, d=8, c=3, arch=arch,
                                     rounds=2, seed=11)
        field = FieldParams()
        decrypted, checked, first_products = [], [], []
        d_in = [spec.in_size + 1 for spec in arch]
        metered = {"hmult_c2p": 0, "hadd": 0}  # fold every layer's ciphertexts, then multiply
        real_decrypt = HEContext.decrypt_stack
        real_round = protocols._two_server_round

        def spy_decrypt(self, ct, *args, **kwargs):
            decrypted.append(real_decrypt(self, ct, *args, **kwargs))
            return decrypted[-1]

        class CountingM61:
            def __getattr__(self, name):
                return getattr(M61, name)

            def matmul(self, a, b):
                if a.shape[-2:] == arch[0].weight_shape or b.shape[-2] == arch[0].in_size + 1:
                    first_products.append(a.shape)
                return M61.matmul(a, b)

        def spy_round(record, shared, m_cap, n, level, field_, router, rng, aggregate, linear,
                      skip=False):
            theta = {i: encode_matrix(record.local_models[i].params[0], field)
                     for i in record.selected}
            theta[None] = encode_matrix(record.global_model.params[0], field)
            chunks = []

            def spy_aggregate(subsets, widths):
                chunks.append(subsets)
                for subset in subsets:
                    terms = max(len(subset), 1)
                    metered["hmult_c2p"] += 2 * terms * sum(d_in)
                    metered["hadd"] += 2 * (terms - 1) * sum(d_in)
                return aggregate(subsets, widths)

            def spy_linear(models, l, x, receivers, cols):
                start = len(decrypted)
                out = linear(models, l, x, receivers, cols)
                metered["hmult_c2p"] += len(models) * 2 * d_in[l]
                metered["hadd"] += len(models) * (2 * (d_in[l] - 1) + 1)
                for g, subset in enumerate(chunks[-1] if l == 0 else []):
                    w = record.weights_for(subset) if subset else {None: 1.0}
                    keys = sorted(subset) or [None]
                    agg = _weight_row_sum([encode(w[k], field) for k in keys],
                                          [theta[k] for k in keys])
                    old = M61.matmul(agg, np.stack([x.s_prime[g], x.s_dprime[g]]))
                    assert np.array_equal(decrypted[start + g][:, :len(cols)],
                                          M61.reduce(old[0] + old[1]))
                    checked.append(subset)
                return out

            return real_round(record, shared, m_cap, n, level, field_, router, rng,
                              spy_aggregate, spy_linear, skip)

        monkeypatch.setattr(HEContext, "decrypt_stack", spy_decrypt)
        monkeypatch.setattr(protocols, "_two_server_round", spy_round)
        monkeypatch.setattr(protocols, "M61", CountingM61())
        report = run_secsv(history, parts, HEParams(noise_stddev=0.0), field, skip=skip, seed=3)
        assert frozenset() in checked
        assert {name: getattr(report.meter, name) for name in metered} == metered
        if not skip:
            assert set(checked) == {s for r in history for s in subsets_ascending(r.selected)}
        # layer 0 never multiplies an aggregate: one first-layer product per uploaded
        # model and round, n_selected + 1 per round
        assert first_products == [arch[0].weight_shape] * sum(len(r.selected) + 1 for r in history)


class TestPooledBatches:
    def test_capacity_and_owner_exclusion(self):
        owners = [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4
        batches = _pooled_batches(owners, range(16), capacity=10, n_clients=4)
        for batch in batches:
            assert len(batch.columns) <= 10
            assert len(batch.owners) <= 2  # leaves >= 2 clients outside
        covered = [c for b in batches for c in b.columns]
        assert covered == list(range(16))

    def test_single_owner_batches_fine(self):
        owners = [0] * 5
        batches = _pooled_batches(owners, range(5), 3, 4)
        assert [len(b.columns) for b in batches] == [3, 2]
