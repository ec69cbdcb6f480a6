import csv

import numpy as np
import pytest

from secshap.federation import (
    ClientDataset,
    TrainingError,
    dirichlet_partition,
    fedavg_train,
    make_synthetic_dataset,
    save_dataset_csv,
)
from secshap.matrix import ShapeError
from secshap.models import arch_logistic, arch_mlp, evaluate_model


class TestClientDataset:
    def test_id_uniqueness_enforced(self):
        with pytest.raises(ValueError):
            ClientDataset(np.array([[1, 2]]), np.array([0, 1]), np.array([1, 1]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            ClientDataset(np.zeros((1, 2, 2)), np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(ShapeError):
            ClientDataset(np.zeros(2), np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(ShapeError):
            ClientDataset(np.zeros((1, 2)), np.array([[0, 1]]), np.array([0, 1]))
        with pytest.raises(ShapeError):
            ClientDataset(np.zeros((1, 2)), np.array([0, 1, 1]), np.array([0, 1, 2]))

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError, match="non-negative"):
            ClientDataset(np.zeros((1, 2)), np.array([0, -1]), np.array([0, 1]))

    def test_stores_read_only_copies(self):
        features, labels = np.array([[1, 2]]), np.array([0, 1])
        ds = ClientDataset(features, labels, [3, 4])
        assert (ds.features.dtype, ds.labels.dtype, ds.ids.dtype) == (
            np.float64, np.int64, np.int64)
        for arr in (ds.features, ds.labels, ds.ids):
            with pytest.raises(ValueError):
                arr[0] = 1
        features[0, 0] = labels[0] = 9  # the caller's arrays stay the caller's
        assert ds.features[0, 0] == 1.0 and ds.labels[0] == 0

    def test_subset(self):
        ds = make_synthetic_dataset(10, 3, 2, seed=0)
        sub = ds.subset([1, 4, 7])
        assert sub.size == 3
        assert list(sub.ids) == [1, 4, 7]

    def test_csv_round_trip(self, tmp_path):
        ds = make_synthetic_dataset(20, 4, 3, seed=5)
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["id", "label", "x0", "x1", "x2", "x3"]
        features = np.array([[float(v) for v in row[2:]] for row in rows]).T
        assert np.array_equal(features, ds.features)
        assert np.array_equal([int(row[1]) for row in rows], ds.labels)
        assert np.array_equal([int(row[0]) for row in rows], ds.ids)


def _expected_synthetic(rng, centers_rng, m, d, c, separation):
    centers = centers_rng.normal(0.0, separation, size=(c, d))
    labels = rng.integers(0, c, size=m)
    return labels, centers[labels].T + rng.normal(0.0, 1.0, size=(d, m))


class TestSyntheticDataset:
    def test_centers_seed_fixes_geometry_across_seeds(self):
        # both calls draw their centers from default_rng(7), whatever their seed
        m, d, c, sep = 40, 5, 3, 1.5
        for seed in (3, 4):
            ds = make_synthetic_dataset(m, d, c, seed=seed, separation=sep, grid_bits=None, centers_seed=7)
            labels, feats = _expected_synthetic(
                np.random.default_rng(seed), np.random.default_rng(7), m, d, c, sep
            )
            assert np.array_equal(ds.labels, labels)
            assert np.array_equal(ds.features, feats)

    def test_without_centers_seed_one_stream(self):
        m, d, c, sep = 40, 5, 3, 1.5
        ds = make_synthetic_dataset(m, d, c, seed=3, separation=sep, grid_bits=None)
        rng = np.random.default_rng(3)
        labels, feats = _expected_synthetic(rng, rng, m, d, c, sep)
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(ds.features, feats)


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        ds = make_synthetic_dataset(30, 3, 2, seed=1)
        parts = dirichlet_partition(ds, 1, alpha=0.5, seed=1)
        assert len(parts) == 1 and parts[0].size == 30

    def test_huge_alpha_is_near_uniform(self):
        ds = make_synthetic_dataset(400, 8, 2, seed=1)
        parts = dirichlet_partition(ds, 2, alpha=1e6, seed=2)
        for p in parts:
            assert abs(p.size - 200) <= 0.05 * 400

    def test_partition_covers_without_overlap(self):
        ds = make_synthetic_dataset(150, 4, 3, seed=3)
        parts = dirichlet_partition(ds, 5, alpha=0.5, seed=4)
        all_ids = np.concatenate([p.ids for p in parts])
        assert sorted(all_ids) == list(range(150))
        assert all(p.size >= 1 for p in parts)

    def test_frozen_regression_snapshot(self):
        # generated once and pinned; guards the partition against drift
        ds = make_synthetic_dataset(200, 6, 4, seed=11, separation=2.0)
        parts = dirichlet_partition(ds, 5, alpha=0.5, seed=42)
        assert [p.size for p in parts] == [55, 30, 60, 27, 28]
        assert parts[0].ids[:5].tolist() == [1, 15, 20, 21, 22]
        hist = [np.bincount(p.labels, minlength=4).tolist() for p in parts]
        assert hist[0] == [30, 22, 0, 3]
        assert hist[2] == [26, 0, 30, 4]

    def test_determinism(self):
        ds = make_synthetic_dataset(100, 4, 2, seed=6)
        a = dirichlet_partition(ds, 4, alpha=0.5, seed=7)
        b = dirichlet_partition(ds, 4, alpha=0.5, seed=7)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.ids, pb.ids)

    def test_too_few_samples(self):
        ds = make_synthetic_dataset(3, 2, 2, seed=8)
        with pytest.raises(ValueError):
            dirichlet_partition(ds, 5, alpha=0.5)


class TestFedavg:
    def test_single_client_single_round_is_plain_sgd(self):
        ds = make_synthetic_dataset(60, 4, 2, seed=9)
        rounds = fedavg_train([ds], arch_logistic(4, 2), rounds=1, local_epochs=2, seed=10)
        record = rounds[0]
        agg = record.aggregated((0,))
        local = record.local_models[0]
        assert all(np.array_equal(a, b) for a, b in zip(agg.params, local.params))

    def test_zero_local_epochs_keeps_global(self):
        ds = make_synthetic_dataset(40, 3, 2, seed=11)
        rounds = fedavg_train(
            [ds, ds.subset(range(20))], arch_logistic(3, 2),
            rounds=2, local_epochs=0, seed=12,
        )
        for record in rounds:
            agg = record.aggregated(record.selected)
            for a, b in zip(agg.params, record.global_model.params):
                assert np.array_equal(a, b)

    def test_negative_local_epochs_rejected(self):
        ds = make_synthetic_dataset(40, 3, 2, seed=11)
        with pytest.raises(ValueError, match="local_epochs"):
            fedavg_train([ds], arch_logistic(3, 2), rounds=1, local_epochs=-1, seed=12)

    def test_separable_data_reaches_high_accuracy(self):
        pool = make_synthetic_dataset(400, 8, 2, seed=1, separation=3.0)
        parts = dirichlet_partition(pool, 2, alpha=1e6, seed=2)
        rounds = fedavg_train(parts, arch_logistic(8, 2), rounds=3, local_epochs=2, seed=3)
        final = rounds[-1].aggregated(rounds[-1].selected)
        _, util = evaluate_model(final, parts)
        assert util >= 0.95
        # centralized training is the oracle: it should do no better than
        # a small margin over the federated result on this easy task
        central = fedavg_train([pool], arch_logistic(8, 2), rounds=1, local_epochs=6, seed=3)
        _, cutil = evaluate_model(central[-1].aggregated((0,)), [pool])
        assert util >= cutil - 0.05

    def test_round_models_retained_and_seeded(self):
        ds = make_synthetic_dataset(50, 3, 2, seed=13)
        parts = dirichlet_partition(ds, 2, alpha=1.0, seed=13)
        a = fedavg_train(parts, arch_mlp(3, 2, [4]), rounds=3, local_epochs=1, seed=14)
        b = fedavg_train(parts, arch_mlp(3, 2, [4]), rounds=3, local_epochs=1, seed=14)
        assert len(a) == 3
        for ra, rb in zip(a, b):
            for pa, pb in zip(ra.global_model.params, rb.global_model.params):
                assert np.array_equal(pa, pb)
            for i in ra.local_models:
                for pa, pb in zip(ra.local_models[i].params, rb.local_models[i].params):
                    assert np.array_equal(pa, pb)

    def test_divergence_raises(self):
        ds = make_synthetic_dataset(30, 3, 2, seed=15)
        with pytest.raises(TrainingError):
            fedavg_train([ds], arch_logistic(3, 2), rounds=2, local_epochs=5, lr=1e12, seed=16)

    def test_weights_for_subset(self):
        ds = make_synthetic_dataset(60, 3, 2, seed=17)
        parts = dirichlet_partition(ds, 3, alpha=2.0, seed=18)
        rounds = fedavg_train(parts, arch_logistic(3, 2), rounds=1, seed=19)
        w = rounds[0].weights_for((0, 2))
        assert set(w) == {0, 2}
        assert sum(w.values()) == 1.0

    def test_empty_set_returns_incoming_global(self):
        ds = make_synthetic_dataset(40, 3, 2, seed=20)
        rounds = fedavg_train([ds], arch_logistic(3, 2), rounds=1, seed=21)
        agg = rounds[0].aggregated(())
        for a, b in zip(agg.params, rounds[0].global_model.params):
            assert np.array_equal(a, b)
