import numpy as np
import pytest

from secshap.federation import ClientDataset
from secshap.matrix import ShapeError
from secshap.models import (
    LayerSpec,
    Model,
    aggregate,
    apportioned_weights,
    arch_cnn_like,
    arch_logistic,
    arch_mlp,
    count_correct,
    evaluate_model,
    forward,
    predict,
    quantize_model,
    random_model,
)


def hand_forward(model: Model, x: np.ndarray) -> np.ndarray:
    # independent loop-based forward used as a second implementation
    cur = x
    for l, (spec, theta) in enumerate(zip(model.layers, model.params)):
        w = theta
        out = np.zeros((spec.out_size, cur.shape[1]))
        for j in range(spec.out_size):
            for col in range(cur.shape[1]):
                out[j, col] = w[j, -1] + sum(
                    w[j, k] * cur[k, col] for k in range(spec.in_size)
                )
        if l < model.depth - 1:
            if spec.activation == "sigmoid":
                out = 1.0 / (1.0 + np.exp(-out))
            elif spec.activation == "square":
                out = out * out
        cur = out
    return cur


class TestModelBasics:
    def test_shape_validation(self):
        spec = LayerSpec("fully-connected", 3, 2)
        with pytest.raises(ShapeError):
            Model([spec], [np.zeros((2, 3))])  # missing bias column
        with pytest.raises(ShapeError):
            Model(
                [spec, LayerSpec("fully-connected", 5, 1)],
                [np.zeros((2, 4)), np.zeros((1, 6))],
            )

    def test_params_are_read_only_float_copies(self):
        theta = np.arange(8).reshape(2, 4)
        model = Model([LayerSpec("fully-connected", 3, 2)], [theta])
        assert model.params[0].dtype == np.float64
        with pytest.raises(ValueError):
            model.params[0][0, 0] = 1.0
        theta[0, 0] = 5  # the caller's array stays the caller's
        assert model.params[0][0, 0] == 0.0

    def test_bad_layer_specs(self):
        with pytest.raises(ValueError):
            LayerSpec("recurrent", 2, 2)
        with pytest.raises(ValueError):
            LayerSpec("fully-connected", 2, 2, activation="softmax")

    def test_identity_weight_model_passes_features_through(self):
        eye = np.hstack([np.eye(2, 4), np.zeros((2, 1))])
        model = Model([LayerSpec("fully-connected", 4, 2)], [eye])
        x = np.arange(12, dtype=float).reshape(4, 3)
        assert np.array_equal(forward(model, x), x[:2])

    def test_sigmoid_does_not_change_argmax(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(4, 9))
        squashed = 1.0 / (1.0 + np.exp(-scores))
        assert np.array_equal(np.argmax(scores, axis=0), np.argmax(squashed, axis=0))

    def test_two_layer_mlp_matches_hand_forward(self):
        rng = np.random.default_rng(1)
        model = random_model(arch_mlp(5, 3, [4]), rng)
        x = rng.normal(size=(5, 7))
        got = forward(model, x)
        assert np.allclose(got, hand_forward(model, x), atol=1e-12)

    def test_with_ones_row(self):
        # forward appends a ones row to every layer input: the last weight column is the bias
        model = Model([LayerSpec("fully-connected", 1, 2)], [np.array([[0.0, 3.0], [0.0, -1.0]])])
        assert np.array_equal(forward(model, np.array([[1.0, 2.0]])),
                              [[3.0, 3.0], [-1.0, -1.0]])

    def test_activation_grid_is_applied_between_layers(self):
        arch = arch_mlp(2, 2, [2])
        rng = np.random.default_rng(2)
        model = quantize_model(random_model(arch, rng), 4)
        x = np.ones((2, 1)) * 0.1875
        # hidden activations of the quantized model live on the 1/16 grid
        hidden = model.params[0] @ np.vstack([x, np.ones((1, 1))])
        act = 1.0 / (1.0 + np.exp(-hidden))
        grid = np.round(act * 16) / 16
        want = model.params[1] @ np.vstack([grid, np.ones((1, 1))])
        assert np.allclose(forward(model, x), want)


def identity_scores_model(rows: int) -> Model:
    """A model whose scores are its input rows, so ``predict`` is the column argmax."""
    theta = np.hstack([np.eye(rows), np.zeros((rows, 1))])
    return Model([LayerSpec("fully-connected", rows, rows)], [theta])


class TestPredict:
    def test_argmax_per_column(self):
        got = predict(identity_scores_model(2), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert got.dtype == np.int64 and got.tolist() == [0, 1]

    def test_argmax_tie_breaks_low(self):
        assert predict(identity_scores_model(3), np.full((3, 1), 0.5)).tolist() == [0]

    def test_argmax_single_column(self):
        assert predict(identity_scores_model(3), np.array([[0.1], [0.9], [0.3]])).tolist() == [1]


class TestAccuracy:
    def test_all_correct(self):
        p = np.array([0, 1, 2])
        assert count_correct(p, p) == 3

    def test_tolerance_boundaries(self):
        pred = np.array([1])
        assert count_correct(pred, np.array([1])) == 1
        # a 0.4 offset would count as correct; 0.5 exactly must not
        assert np.abs(1.0 - 0.6) < 0.5
        assert not (np.abs(1.0 - 0.5) < 0.5)

    def test_evaluate_model_counts_over_multiple_sets(self):
        eye = np.hstack([np.eye(2), np.zeros((2, 1))])
        model = Model([LayerSpec("fully-connected", 2, 2)], [eye])
        ds1 = ClientDataset(np.array([[1, 0], [0, 1]]), np.array([0, 1]), np.array([0, 1]))
        ds2 = ClientDataset(np.array([[1], [0]]), np.array([1]), np.array([2]))
        count, util = evaluate_model(model, [ds1, ds2])
        assert count == 2 and util == pytest.approx(2 / 3)


class TestAggregate:
    def test_singleton_identity(self):
        rng = np.random.default_rng(3)
        m = random_model(arch_logistic(4, 2), rng)
        agg = aggregate({1: m}, {1: 1.0})
        assert all(np.array_equal(a, b) for a, b in zip(agg.params, m.params))

    def test_identical_models_fixed_point(self):
        rng = np.random.default_rng(4)
        m = random_model(arch_logistic(4, 2), rng)
        agg = aggregate({1: m, 2: m}, {1: 0.5, 2: 0.5})
        assert all(np.allclose(a, b, rtol=0.0, atol=1e-15) for a, b in zip(agg.params, m.params))

    def test_fedavg_weights_vs_hand_computation(self):
        rng = np.random.default_rng(5)
        models = {i: random_model(arch_logistic(3, 2), rng) for i in (1, 2, 3)}
        sizes = {1: 10, 2: 30, 3: 60}
        weights = apportioned_weights(sizes, [1, 2, 3], grid_bits=None)
        agg = aggregate(models, weights)
        hand = 0.1 * models[1].params[0] + 0.3 * models[2].params[0] + 0.6 * models[3].params[0]
        assert np.allclose(agg.params[0], hand)

    def test_architecture_mismatch(self):
        rng = np.random.default_rng(6)
        a = random_model(arch_logistic(3, 2), rng)
        b = random_model(arch_mlp(3, 2, [4]), rng)
        with pytest.raises(ShapeError):
            aggregate({1: a, 2: b}, {1: 0.5, 2: 0.5})

    def test_aggregation_linearity_single_layer(self):
        # pre-activation outputs of the aggregate equal the weighted sum
        # of the locals' pre-activation outputs
        rng = np.random.default_rng(7)
        models = {i: random_model(arch_logistic(4, 3), rng) for i in (0, 1)}
        weights = {0: 0.25, 1: 0.75}
        x = rng.normal(size=(4, 6))
        agg_scores = forward(aggregate(models, weights), x)
        summed = 0.25 * forward(models[0], x) + 0.75 * forward(models[1], x)
        assert np.allclose(agg_scores, summed, atol=1e-12)


class TestApportionedWeights:
    def test_sum_exactly_one_on_grid(self):
        sizes = {1: 7, 2: 11, 3: 13, 4: 3, 5: 29}
        w = apportioned_weights(sizes, sizes, grid_bits=12)
        assert sum(w.values()) == 1.0
        for v in w.values():
            assert v == round(v * 4096) / 4096

    def test_proportionality(self):
        w = apportioned_weights({1: 1, 2: 3}, [1, 2], grid_bits=12)
        assert w[1] == pytest.approx(0.25, abs=1e-3)
        assert w[2] == pytest.approx(0.75, abs=1e-3)

    def test_subset_renormalizes(self):
        sizes = {1: 10, 2: 10, 3: 20}
        w = apportioned_weights(sizes, [1, 2], grid_bits=None)
        assert w == {1: 0.5, 2: 0.5}


class TestArchFactories:
    def test_shapes(self):
        assert arch_logistic(48, 2)[0].weight_shape == (2, 49)
        mlp = arch_mlp(20, 4, [30, 30])
        assert [s.weight_shape for s in mlp] == [(30, 21), (30, 31), (4, 31)]
        cnn = arch_cnn_like()
        assert [s.weight_shape for s in cnn] == [(64, 257), (10, 65)]
        assert cnn[0].kind == "conv-as-matmul"
