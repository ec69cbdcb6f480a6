"""Neural-network abstraction: stacks of matmul layers with activations.

Every layer is exactly one matrix multiplication: biases are folded
into the weight matrix as an extra column that multiplies a constant-1
feature row.  That keeps the secure kernels uniform across layer kinds
(a convolution enters pre-lowered to its matmul form).

Models may carry an activation grid: activation outputs are rounded to
the 2**-bits grid in every evaluation path.  Together with grid-aligned
data and weights this makes the whole forward pass exact dyadic
arithmetic, so plaintext and encrypted evaluations agree bit for bit
when noise is off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .matrix import ShapeError, quantize

__all__ = [
    "LayerSpec",
    "Model",
    "ACTIVATIONS",
    "forward",
    "predict",
    "count_correct",
    "evaluate_model",
    "aggregate",
    "apportioned_weights",
    "arch_logistic",
    "arch_mlp",
    "arch_cnn_like",
    "random_model",
    "quantize_model",
]

LAYER_KINDS = ("fully-connected", "conv-as-matmul")

ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda z: z,
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "square": lambda z: z * z,
    "relu": lambda z: np.maximum(z, 0.0),
}

ACTIVATION_GRADS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    # (pre-activation z, activation output a) -> da/dz
    "identity": lambda z, a: np.ones_like(z),
    "sigmoid": lambda z, a: a * (1.0 - a),
    "square": lambda z, a: 2.0 * z,
    "relu": lambda z, a: (z > 0).astype(float),
}


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_size: int
    out_size: int
    activation: str = "identity"

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.in_size < 1 or self.out_size < 1:
            raise ValueError("layer sizes must be positive")

    @property
    def weight_shape(self) -> tuple[int, int]:
        # bias folded as one extra input column
        return (self.out_size, self.in_size + 1)


@dataclass(frozen=True)
class Model:
    """Parameters plus architecture; immutable value.

    Each parameter matrix is stored as a read-only float64 copy.
    """

    layers: tuple[LayerSpec, ...]
    params: tuple[np.ndarray, ...]
    act_grid_bits: int | None = None

    def __init__(self, layers: Sequence[LayerSpec], params: Sequence[np.ndarray],
                 act_grid_bits: int | None = None):
        layers = tuple(layers)
        params = tuple(np.array(p, dtype=np.float64) for p in params)
        if len(layers) != len(params):
            raise ShapeError("one parameter matrix per layer required")
        for spec, mat in zip(layers, params):
            mat.flags.writeable = False
            if mat.shape != spec.weight_shape:
                raise ShapeError(
                    f"layer {spec} expects weights {spec.weight_shape}, got {mat.shape}"
                )
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_size != nxt.in_size:
                raise ShapeError(
                    f"layer sizes do not chain: {prev.out_size} -> {nxt.in_size}"
                )
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "act_grid_bits", act_grid_bits)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def in_size(self) -> int:
        return self.layers[0].in_size

    @property
    def out_size(self) -> int:
        return self.layers[-1].out_size

    def same_architecture(self, other: "Model") -> bool:
        return self.layers == other.layers


def apply_activation(model: Model, layer_index: int, z: np.ndarray) -> np.ndarray:
    """Activation for layer ``layer_index`` including the model's grid rounding."""
    act = ACTIVATIONS[model.layers[layer_index].activation](z)
    if model.act_grid_bits is not None:
        act = quantize(act, model.act_grid_bits)
    return act


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Score matrix (out_size x m) for a d x m feature batch."""
    if x.shape[0] != model.in_size:
        raise ShapeError(f"features have {x.shape[0]} rows, model expects {model.in_size}")
    cur = x
    for l, theta in enumerate(model.params):
        z = theta @ np.vstack([cur, np.ones((1, cur.shape[1]))])
        cur = apply_activation(model, l, z) if l < model.depth - 1 else z
    return cur


def predict(model: Model, x: np.ndarray) -> np.ndarray:
    """Per column, the row of the highest score; ties go to the lowest row."""
    return np.argmax(forward(model, x), axis=0)


def count_correct(predicted: np.ndarray, truth: np.ndarray, tolerance: float = 0.5) -> int:
    """Predictions within the tolerance of the true label count as correct.

    The strict inequality matters: an absolute difference of exactly the
    tolerance is wrong.
    """
    if len(predicted) != len(truth):
        raise ShapeError("prediction/label length mismatch")
    diff = np.abs(predicted.astype(float) - truth.astype(float))
    return int(np.sum(diff < tolerance))


def evaluate_model(model: Model, datasets) -> tuple[int, float]:
    """(correct count, utility) over one dataset or a list of them."""
    if not isinstance(datasets, (list, tuple)):
        datasets = [datasets]
    correct = 0
    total = 0
    for ds in datasets:
        correct += count_correct(predict(model, ds.features), ds.labels)
        total += len(ds.labels)
    return correct, correct / total


def aggregate(models: dict[int, Model], weights: dict[int, float]) -> Model:
    """Entrywise weighted sum of identically-shaped models."""
    if not weights:
        raise ValueError("cannot aggregate an empty client set")
    members = sorted(weights)
    first = models[members[0]]
    for i in members[1:]:
        if not models[i].same_architecture(first):
            raise ShapeError("models must share an architecture to aggregate")
    params = []
    for l in range(first.depth):
        acc = np.zeros(first.params[l].shape)
        for i in members:
            acc = acc + weights[i] * models[i].params[l]
        params.append(acc)
    return Model(first.layers, params, act_grid_bits=first.act_grid_bits)


def apportioned_weights(sizes: dict[int, int], members, grid_bits: int | None) -> dict[int, float]:
    """Size-proportional weights that sum to exactly 1.

    With a grid, weights are k/2**grid_bits chosen by largest remainder
    (ties to the smaller client id), so the sum is exactly one while
    every weight stays on the grid the encodings require.
    """
    members = sorted(members)
    total = sum(sizes[i] for i in members)
    if total <= 0:
        raise ValueError("aggregation requires positive sizes")
    if grid_bits is None:
        return {i: sizes[i] / total for i in members}
    units = 1 << grid_bits
    raw = {i: sizes[i] * units / total for i in members}
    floors = {i: int(raw[i]) for i in members}
    leftover = units - sum(floors.values())
    order = sorted(members, key=lambda i: (-(raw[i] - floors[i]), i))
    for i in order[:leftover]:
        floors[i] += 1
    return {i: floors[i] / units for i in members}


def arch_logistic(d: int, c: int) -> list[LayerSpec]:
    return [LayerSpec("fully-connected", d, c, "sigmoid")]


def arch_mlp(d: int, c: int, hidden: Sequence[int], activation: str = "sigmoid") -> list[LayerSpec]:
    sizes = [d, *hidden, c]
    return [
        LayerSpec("fully-connected", sizes[i], sizes[i + 1], activation)
        for i in range(len(sizes) - 1)
    ]


def arch_cnn_like(d: int = 256, c: int = 10, mid: int = 64) -> list[LayerSpec]:
    """Convolution pre-lowered to a matmul, then a fully-connected head."""
    return [
        LayerSpec("conv-as-matmul", d, mid, "square"),
        LayerSpec("fully-connected", mid, c, "identity"),
    ]


def random_model(
    arch: Sequence[LayerSpec],
    rng: np.random.Generator,
    scale: float = 0.5,
    grid_bits: int | None = None,
) -> Model:
    params = []
    for spec in arch:
        w = rng.normal(0.0, scale / np.sqrt(spec.in_size), size=spec.weight_shape)
        params.append(quantize(w, grid_bits) if grid_bits is not None else w)
    return Model(arch, params, act_grid_bits=grid_bits)


def quantize_model(model: Model, bits: int) -> Model:
    """Snap all weights to the grid and adopt it for activations too."""
    params = [quantize(p, bits) for p in model.params]
    return Model(model.layers, params, act_grid_bits=bits)
