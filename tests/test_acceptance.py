"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Several criteria
share module-scoped protocol runs to keep the gate inside its runtime
budget.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from secshap.cli import bench_shape, main as cli_main
from secshap.federation import (
    RoundModels,
    dirichlet_partition,
    fedavg_train,
    make_synthetic_dataset,
)
from secshap.hebackend import CostWeights, HEContext, HEParams, generate_keypair
from secshap.kernels import (
    plan_reducing,
    plan_squaring,
    reducing_matmul,
    reducing_max_batch,
    reducing_prepare_batch,
    reducing_prepare_model,
    squaring_decrypt_stack,
    squaring_matmul,
    squaring_max_batch,
    squaring_prepare_batch,
    squaring_prepare_model,
)
from secshap.matrix import matmul_oracle
from secshap.models import LayerSpec, Model, arch_logistic, arch_mlp, random_model
from secshap.parties import AssignmentError, validate_assignment
from secshap.protocols import run_hesv, run_nssv, run_secretsv, run_secsv
from secshap.sharing import FieldParams
from secshap.shapley import (
    UtilityTable,
    fsv_error,
    permutation_sampling_ssv,
    ssv_exact,
    subsets_ascending,
)

TABLE_SHAPES = [(4, 300), (2, 48), (64, 256), (10, 64), (32, 64), (32, 32), (2, 32)]
N_SLOTS = 2048
DEFAULT_NOISE = 1e-9
KEYS = generate_keypair("acceptance")


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num:02d} FAIL: {description}")
        raise
    print(f"[ACCEPTANCE] criterion {num:02d} PASS: {description}")


def int_matrix(rng, rows, cols, span=6):
    return rng.integers(-span, span + 1, size=(rows, cols)).astype(float)


def run_squaring_case(a, b, noise):
    ctx = HEContext(HEParams(N_SLOTS, noise, seed=11))
    plan = plan_squaring(a.shape[0], a.shape[1], b.shape[1], N_SLOTS)
    model = squaring_prepare_model(a, plan, ctx, KEYS.public)
    batch = squaring_prepare_batch(b, plan, ctx, KEYS.public, encrypt=True)
    bands = squaring_matmul(model, batch, plan, ctx)
    return squaring_decrypt_stack(bands, plan, ctx, KEYS.private)


def run_reducing_case(a, b, noise):
    ctx = HEContext(HEParams(N_SLOTS, noise, seed=12))
    plan = plan_reducing(a.shape[0], a.shape[1], b.shape[1], N_SLOTS)
    model = reducing_prepare_model(a, plan, ctx, KEYS.public)
    batch = reducing_prepare_batch(b, plan, ctx, KEYS.public, encrypt=True)
    shape = (plan.d_out, plan.m)
    return ctx.decrypt_stack(reducing_matmul(model, batch, plan, ctx), shape, shape,
                             KEYS.private)


def random_shape_cases(count, seed):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        d_in = int(2 ** rng.uniform(0, math.log2(512)))
        d_out = int(rng.integers(1, d_in + 1))
        cases.append((d_out, d_in))
    return cases


# -- shared experiment fixtures ---------------------------------------------


def build_world(d, c, arch, n=5, test_m=150, train_m=400, seed=101,
                separation=2.5, rounds=2, epochs=2, lr=0.5):
    pool = make_synthetic_dataset(test_m, d, c, seed=seed, separation=separation, centers_seed=seed)
    parts = dirichlet_partition(pool, n, alpha=0.5, seed=seed + 1)
    tpool = make_synthetic_dataset(train_m, d, c, seed=seed + 2, separation=separation, centers_seed=seed)
    train = dirichlet_partition(tpool, n, alpha=0.5, seed=seed + 3)
    history = fedavg_train(train, arch, rounds, local_epochs=epochs, lr=lr, seed=seed + 4)
    return parts, history


@pytest.fixture(scope="module")
def logistic_runs():
    parts, history = build_world(48, 2, arch_logistic(48, 2), seed=201)
    return {
        "parts": parts,
        "history": history,
        "nssv": run_nssv(history, parts),
        "hesv_exact": run_hesv(history, parts, HEParams(), seed=7),
        "secsv_exact": run_secsv(history, parts, HEParams(), FieldParams(), seed=7),
        "hesv_noisy": run_hesv(history, parts, HEParams(noise_stddev=DEFAULT_NOISE), seed=7),
        "secsv_noisy": run_secsv(history, parts, HEParams(noise_stddev=DEFAULT_NOISE),
                                 FieldParams(), seed=7),
    }


@pytest.fixture(scope="module")
def mlp_runs():
    parts, history = build_world(16, 3, arch_mlp(16, 3, [24]), seed=301)
    return {
        "parts": parts,
        "history": history,
        "nssv": run_nssv(history, parts),
        "hesv_exact": run_hesv(history, parts, HEParams(), seed=8),
        "secsv_exact": run_secsv(history, parts, HEParams(), FieldParams(), seed=8),
        "hesv_noisy": run_hesv(history, parts, HEParams(noise_stddev=DEFAULT_NOISE), seed=8),
        "secsv_noisy": run_secsv(history, parts, HEParams(noise_stddev=DEFAULT_NOISE),
                                 FieldParams(), seed=8),
    }


@pytest.fixture(scope="module")
def bench_rows():
    weights = CostWeights()
    return {shape: bench_shape(shape[0], shape[1], N_SLOTS, weights) for shape in TABLE_SHAPES}


# -- criteria -----------------------------------------------------------------


def test_criterion_1_matmul_correctness():
    with criterion(1, "kernels match the oracle on Table shapes + 200 random shapes in < 2 min"):
        started = time.perf_counter()
        rng = np.random.default_rng(42)
        cases = TABLE_SHAPES + random_shape_cases(200, seed=43)
        for idx, (d_out, d_in) in enumerate(cases):
            m_s = squaring_max_batch(d_in, N_SLOTS)
            m_r = min(reducing_max_batch(d_out, N_SLOTS), 512)
            # exact integer payloads, noise off
            a = int_matrix(rng, d_out, d_in)
            b_s = int_matrix(rng, d_in, m_s)
            assert np.array_equal(run_squaring_case(a, b_s, 0.0), matmul_oracle(a, b_s)), \
                f"squaring mismatch at {d_out}x{d_in}"
            b_r = int_matrix(rng, d_in, m_r)
            assert np.array_equal(run_reducing_case(a, b_r, 0.0), matmul_oracle(a, b_r)), \
                f"reducing mismatch at {d_out}x{d_in}"
            # real payloads under the default noise level
            if idx < len(TABLE_SHAPES) + 40:
                af = rng.uniform(-1, 1, size=(d_out, d_in))
                bf = rng.uniform(-1, 1, size=(d_in, m_s))
                want = matmul_oracle(af, bf)
                rel = np.linalg.norm(run_squaring_case(af, bf, DEFAULT_NOISE) - want) \
                    / np.linalg.norm(want)
                assert rel <= 1e-6, f"squaring noise overflow at {d_out}x{d_in}: {rel}"
                bf_r = rng.uniform(-1, 1, size=(d_in, m_r))
                want = matmul_oracle(af, bf_r)
                rel = np.linalg.norm(run_reducing_case(af, bf_r, DEFAULT_NOISE) - want) \
                    / np.linalg.norm(want)
                assert rel <= 1e-6, f"reducing noise overflow at {d_out}x{d_in}: {rel}"
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_cost_laws(bench_rows):
    with criterion(2, "metered HMult/HRot equal the closed-form cost laws on every bench shape"):
        for shape, rows in bench_rows.items():
            d_out, d_in = shape
            for row in rows:
                mults = row["hmult_c2c"] + row["hmult_c2p"]
                if row["method"] == "reducing":
                    assert row["hrot"] == 0, f"reducing rotated on {shape}"
                    assert mults == d_in, f"reducing mults {mults} != d_in {d_in} on {shape}"
                else:
                    plan = plan_squaring(d_out, d_in, squaring_max_batch(d_in, N_SLOTS), N_SLOTS)
                    t = plan.s // plan.d_out_block
                    per_block = (t.bit_length() - 1) + t - (1 << (t.bit_length() - 1)) if t > 1 else 0
                    assert plan.rotations_per_block() == per_block
                    assert row["hrot"] == plan.j_blocks * plan.k_blocks * per_block
                    assert mults == plan.d_out_block * plan.k_blocks * plan.j_blocks


def test_criterion_3_per_sample_advantage(bench_rows):
    with criterion(3, "reducing wins per sample on all shapes; plaintext-batch ratio exceeds encrypted"):
        for shape, rows in bench_rows.items():
            by_key = {(r["mode"], r["method"]): r for r in rows}
            for mode in ("full", "half"):
                sq = by_key[(mode, "squaring")]
                red = by_key[(mode, "reducing")]
                raw_sq = (sq["hmult_c2c"] + sq["hmult_c2p"] + sq["hrot"]) / sq["batch"]
                raw_red = (red["hmult_c2c"] + red["hmult_c2p"] + red["hrot"]) / red["batch"]
                assert raw_red <= raw_sq, f"reducing not ahead on {shape} ({mode})"
                assert red["weighted_per_sample"] <= sq["weighted_per_sample"]
            if by_key[("full", "squaring")]["hrot"] > 0:
                full_ratio = by_key[("full", "squaring")]["ratio_squaring_over_reducing"]
                half_ratio = by_key[("half", "squaring")]["ratio_squaring_over_reducing"]
                assert half_ratio > full_ratio, f"half ratio not above full on {shape}"


def test_criterion_4_protocol_exactness(logistic_runs, mlp_runs):
    with criterion(4, "noise-off utility tables identical (FSV <= 1e-12); default-noise error <= 1e-3"):
        for world in (logistic_runs, mlp_runs):
            nssv = world["nssv"]
            for key in ("hesv_exact", "secsv_exact"):
                report = world[key]
                for rn, rp in zip(nssv.rounds, report.rounds):
                    assert rn.utilities == rp.utilities, f"{key} utilities differ"
                assert fsv_error(report.fsv, nssv.fsv) <= 1e-12
            for key in ("hesv_noisy", "secsv_noisy"):
                assert fsv_error(world[key].fsv, nssv.fsv) <= 1e-3


def test_criterion_5_zero_c2c(logistic_runs, mlp_runs):
    with criterion(5, "SecSV performs zero c2c multiplications; HESV at least L per tested model"):
        for world in (logistic_runs, mlp_runs):
            assert world["secsv_exact"].meter.hmult_c2c == 0
            assert world["secsv_noisy"].meter.hmult_c2c == 0
            num_layers = len(world["history"][0].global_model.layers)
            models_tested = len(world["history"]) * 2 ** len(world["parts"])
            assert world["hesv_exact"].meter.hmult_c2c >= num_layers * models_tested


def linear_rounds_fixture(num_rounds, n, seed, d=6, c=3):
    rng = np.random.default_rng(seed)
    arch = arch_logistic(d, c)
    out = []
    for t in range(1, num_rounds + 1):
        locals_ = {i: random_model(arch, rng, scale=1.0, grid_bits=12) for i in range(n)}
        glob = random_model(arch, rng, scale=1.0, grid_bits=12)
        out.append(RoundModels(t, tuple(range(n)), glob, locals_,
                               {i: 10 + i for i in range(n)}, 12))
    return out


def test_criterion_6_theorem_and_error_bound():
    with criterion(6, "linear rounds: zero wrong skips and exact skip FSVs; deep MLPs: <2% wrong, bound holds"):
        # 50 randomized linear-classifier rounds, n = 5
        pool = make_synthetic_dataset(50, 6, 3, seed=401, separation=1.5, centers_seed=400)
        parts = dirichlet_partition(pool, 5, alpha=0.8, seed=402)
        rounds = linear_rounds_fixture(50, 5, seed=403)
        on = run_secsv(rounds, parts, HEParams(), FieldParams(), skip=True, seed=9)
        off = run_secsv(rounds, parts, HEParams(), FieldParams(), skip=False, seed=9)
        assert len(on.rounds) == 50
        for ra, rb in zip(on.rounds, off.rounds):
            for subset, v in ra.utilities.items():
                assert v == rb.utilities[subset], "a sample was wrongly skipped on a linear round"
        assert on.fsv == off.fsv

        # trained MLPs up to 8 layers: wrongly skipped stays under 2%
        # and the estimate stays inside T * max utility inflation
        mpool = make_synthetic_dataset(100, 12, 3, seed=405, separation=2.5, centers_seed=404)
        mparts = dirichlet_partition(mpool, 5, alpha=0.8, seed=406)
        tpool = make_synthetic_dataset(300, 12, 3, seed=407, separation=2.5, centers_seed=404)
        mtrain = dirichlet_partition(tpool, 5, alpha=0.8, seed=408)
        for depth in (2, 4, 8):
            arch = arch_mlp(12, 3, [10] * (depth - 1))
            history = fedavg_train(mtrain, arch, 1, local_epochs=3, lr=0.4, seed=410 + depth)
            s_on = run_secsv(history, mparts, HEParams(), FieldParams(), skip=True, seed=10)
            s_off = run_secsv(history, mparts, HEParams(), FieldParams(), skip=False, seed=10)
            dv_max = 0.0
            for ra, rb in zip(s_on.rounds, s_off.rounds):
                for subset, v in ra.utilities.items():
                    dv_max = max(dv_max, v - rb.utilities[subset])
            assert dv_max < 0.02, f"wrongly skipped {dv_max:.3%} at depth {depth}"
            bound = len(history) * dv_max + 1e-12
            for i in s_off.fsv:
                assert abs(s_on.fsv[i] - s_off.fsv[i]) <= bound, f"bound broken at depth {depth}"


def test_criterion_7_skip_effectiveness():
    with criterion(7, "on M >= 500, skip drops >= 50% of aggregate evaluations and >= 25% of cost"):
        pool = make_synthetic_dataset(500, 16, 4, seed=501, separation=3.0, centers_seed=500)
        parts = dirichlet_partition(pool, 5, alpha=0.5, seed=502)
        tpool = make_synthetic_dataset(1200, 16, 4, seed=503, separation=3.0, centers_seed=500)
        train = dirichlet_partition(tpool, 5, alpha=0.5, seed=504)
        history = fedavg_train(train, arch_mlp(16, 4, [32]), 4, local_epochs=5, lr=0.5, seed=505)
        mature = history[2:]
        off = run_secsv(mature, parts, HEParams(), FieldParams(), skip=False, seed=11)
        on = run_secsv(mature, parts, HEParams(), FieldParams(), skip=True, seed=11)
        skipped = sum(v for r in on.rounds for k, v in r.skipped_by_cardinality.items() if k >= 2)
        evaluated = sum(v for r in on.rounds for k, v in r.evaluated_by_cardinality.items() if k >= 2)
        fraction = skipped / (skipped + evaluated)
        assert fraction >= 0.5, f"skip fraction {fraction:.1%}"
        reduction = 1 - on.weighted_cost / off.weighted_cost
        assert reduction >= 0.25, f"cost reduction only {reduction:.1%}"


def test_criterion_8_shapley_axioms():
    with criterion(8, "efficiency/symmetry/null player on 1000 random tables; sampling converges"):
        rng = np.random.default_rng(601)
        for trial in range(1000):
            n = int(rng.integers(2, 6))
            players = list(range(n))
            table = UtilityTable(0, frozenset(players))
            for s in subsets_ascending(players):
                table.set(s, float(rng.uniform(0, 1)))
            values = ssv_exact(table)
            grand = table.get(frozenset(players)) - table.get(frozenset())
            assert abs(sum(values.values()) - grand) <= 1e-9
            if trial % 10 == 0:
                # symmetry: make players 0 and 1 interchangeable, then equal values
                for s in subsets_ascending(players):
                    if 0 in s and 1 not in s:
                        table.set((s - {0}) | {1}, table.get(s))
                sym = ssv_exact(table)
                assert abs(sym[0] - sym[1]) <= 1e-12
                # null player: 0 never changes the utility, then zero value
                for s in subsets_ascending(players):
                    if 0 in s:
                        table.set(s, table.get(s - {0}))
                assert abs(ssv_exact(table)[0]) <= 1e-12
        # permutation sampling at 10k permutations on n = 3
        rng2 = np.random.default_rng(602)
        table = UtilityTable(0, frozenset([0, 1, 2]))
        for s in subsets_ascending([0, 1, 2]):
            table.set(s, float(rng2.uniform(0, 1)))
        exact = ssv_exact(table)
        estimate = permutation_sampling_ssv(table.get, [0, 1, 2], budget=10_000,
                                            rng=np.random.default_rng(603))
        linf = max(abs(estimate[i] - exact[i]) for i in exact)
        assert linf <= 0.05, f"sampling off by {linf}"


def linear_chain_rounds(depth, n, num_rounds, seed, scale, d=12, h=16, c=3):
    specs = (
        [LayerSpec("fully-connected", d, h, "identity")]
        + [LayerSpec("fully-connected", h, h, "identity") for _ in range(depth - 2)]
        + [LayerSpec("fully-connected", h, c, "identity")]
    ) if depth > 1 else [LayerSpec("fully-connected", d, c, "identity")]
    rng = np.random.default_rng(seed)

    def mk():
        params = []
        for spec in specs:
            w = rng.normal(0.0, scale / np.sqrt(spec.in_size), size=spec.weight_shape)
            w[:, -1] = 0.0  # bias-free: signal contracts layer by layer
            params.append(np.round(w * 4096) / 4096)
        return Model(specs, params, act_grid_bits=None)

    return [RoundModels(t, tuple(range(n)), mk(), {i: mk() for i in range(n)},
                        {i: 10 + i for i in range(n)}, 12)
            for t in range(1, num_rounds + 1)]


def test_criterion_9_secretsv_depth_degradation():
    with criterion(9, "pure-sharing error grows with depth; 8-layer error >= 10x the 1-layer error"):
        pool = make_synthetic_dataset(200, 12, 3, seed=61, separation=1.0, centers_seed=8)
        parts = dirichlet_partition(pool, 4, alpha=1.0, seed=62)
        errors = {}
        for depth in (1, 2, 4, 8):
            rounds = linear_chain_rounds(depth, 4, 2, seed=70 + depth, scale=0.45)
            nssv = run_nssv(rounds, parts)
            report = run_secretsv(rounds, parts, FieldParams(), seed=4)
            errors[depth] = fsv_error(report.fsv, nssv.fsv)
        assert errors[1] <= errors[2] <= errors[4] <= errors[8], f"not monotone: {errors}"
        assert errors[8] >= max(10 * errors[1], 1e-3), f"no 10x degradation: {errors}"


def test_criterion_10_determinism_and_security(tmp_path, logistic_runs, mlp_runs):
    with criterion(10, "same-seed reports byte-identical; policy rejections; servers never decrypt"):
        config = {
            "version": 1, "seed": 13, "clients": 4, "rounds": 1, "alpha": 0.7,
            "architecture": "logistic", "hidden": [], "features": 10, "classes": 3,
            "test_samples": 80, "train_samples": 160, "separation": 2.5,
            "local_epochs": 1, "learning_rate": 0.5, "grid_bits": 12,
            "slot_count": 2048, "noise_stddev": DEFAULT_NOISE,
            "prime": (1 << 61) - 1, "frac_bits": 16,
            "protocols": ["nssv", "hesv", "secsv", "secretsv"],
            "sample_skip": True, "batch_cap": 0, "ps_budget": 0,
            "workers": 1, "output_dir": "out",
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "a")]) == 0
        assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
        for name in ("report_nssv.json", "report_hesv.json", "report_secsv.json",
                     "report_secretsv.json", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

        # policy rejections exactly as specified
        assert any("n >= 4" in v for v in validate_assignment([0, 1, 2], 3, 1, "basic", None, {0}))
        for depth in (1, 2, 3):
            n_bad = depth + 1
            violations = validate_assignment(
                list(range(min(n_bad, depth + 2))) + [0] * max(0, depth + 2 - n_bad),
                n_bad, depth, "full", None, {0},
            )
            assert any("L + 2" in v for v in violations)

        # no server ever decrypted anywhere in the shared runs
        for world in (logistic_runs, mlp_runs):
            for key, report in world.items():
                if key in ("parts", "history"):
                    continue
                assert all(actor.startswith("client_") for actor in report.decrypt_actors)
