"""Desk-scale federated training: datasets, non-IID partition, FedAvg.

Training runs in plain float64; the models handed to the evaluation
protocols are grid-quantized at round boundaries so that every
protocol (plaintext or secure) sees identical fixed-point-friendly
parameters.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .matrix import ShapeError, quantize
from .models import (
    ACTIVATION_GRADS,
    ACTIVATIONS,
    LayerSpec,
    Model,
    apportioned_weights,
    aggregate,
    quantize_model,
)

__all__ = [
    "ClientDataset",
    "RoundModels",
    "TrainingError",
    "make_synthetic_dataset",
    "dirichlet_partition",
    "fedavg_train",
    "save_dataset_csv",
]

_PARTITION_DRAWS = 100  # Dirichlet draws before a partition with an empty client gives up
_BATCH_SIZE = 32  # local SGD minibatch


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class ClientDataset:
    """Feature matrix (d x m), labels, and sample ids unique within the dataset.

    All three are stored as read-only copies: float64 features, int64
    labels and ids.  Two datasets may share ids: the ids serve CSV
    export, and no protocol relies on them being unique across datasets.
    """

    features: np.ndarray
    labels: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        features = np.array(self.features, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.int64)
        ids = np.array(self.ids, dtype=np.int64)
        if features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got ndim={features.ndim}")
        if labels.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got ndim={labels.ndim}")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be non-negative")
        if features.shape[1] != labels.size:
            raise ShapeError("one label per feature column required")
        if ids.size != labels.size:
            raise ShapeError("one id per sample required")
        if len(np.unique(ids)) != ids.size:
            raise ValueError("sample ids must be unique")
        for name, arr in (("features", features), ("labels", labels), ("ids", ids)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return len(self.labels)

    def subset(self, positions) -> "ClientDataset":
        positions = np.asarray(positions, dtype=np.int64)
        return ClientDataset(
            self.features[:, positions],
            self.labels[positions],
            self.ids[positions],
        )


def make_synthetic_dataset(
    num_samples: int,
    num_features: int,
    num_classes: int,
    seed: int = 0,
    separation: float = 2.0,
    grid_bits: int | None = 12,
    centers_seed: int | None = None,
) -> ClientDataset:
    """Gaussian class blobs with unit noise, features snapped to the grid.

    With ``centers_seed=None`` the class centers, then the labels, then
    the noise are all drawn from one ``default_rng(seed)`` stream. With
    ``centers_seed`` given, the centers come from their own
    ``default_rng(centers_seed)`` stream and the labels and noise from
    ``default_rng(seed)``, so two calls with the same ``centers_seed``
    share the class geometry whatever their ``seed`` (e.g. train and
    test sets).
    """
    rng = np.random.default_rng(seed)
    centers_rng = rng if centers_seed is None else np.random.default_rng(centers_seed)
    centers = centers_rng.normal(0.0, separation, size=(num_classes, num_features))
    labels = rng.integers(0, num_classes, size=num_samples)
    feats = centers[labels].T + rng.normal(0.0, 1.0, size=(num_features, num_samples))
    if grid_bits is not None:
        feats = quantize(feats, grid_bits)
    return ClientDataset(feats, labels, np.arange(num_samples))


def dirichlet_partition(
    dataset: ClientDataset, n: int, alpha: float, seed: int = 0
) -> list[ClientDataset]:
    """Split one pool into n client test sets with Dirichlet(alpha) label skew.

    Per label, client proportions are drawn from Dirichlet(alpha); a
    draw that leaves any client empty overall is resampled.
    """
    if n < 1:
        raise ValueError("need at least one client")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if dataset.size < n:
        raise ValueError(f"dataset of {dataset.size} cannot cover {n} clients")
    if n == 1:
        return [dataset]
    rng = np.random.default_rng(seed)
    labels = dataset.labels
    classes = np.unique(labels)
    for _ in range(_PARTITION_DRAWS):
        assignment: list[list[int]] = [[] for _ in range(n)]
        for cls in classes:
            positions = np.flatnonzero(labels == cls)
            rng.shuffle(positions)
            props = rng.dirichlet(np.full(n, alpha))
            counts = np.floor(props * positions.size).astype(int)
            # hand out the rounding leftovers to the largest remainders
            order = np.argsort(-(props * positions.size - counts))
            for idx in order[: positions.size - counts.sum()]:
                counts[idx] += 1
            start = 0
            for client, cnt in enumerate(counts):
                assignment[client].extend(positions[start : start + cnt])
                start += cnt
        if all(len(part) for part in assignment):
            return [dataset.subset(sorted(part)) for part in assignment]
    raise TrainingError(f"could not find a non-degenerate partition in {_PARTITION_DRAWS} draws")


@dataclass(frozen=True)
class RoundModels:
    """One training round: incoming global model, locals, and weight rule."""

    round_index: int
    selected: tuple[int, ...]
    global_model: Model
    local_models: dict[int, Model]
    train_sizes: dict[int, int]
    weight_grid_bits: int | None = 12

    def weights_for(self, members) -> dict[int, float]:
        return apportioned_weights(self.train_sizes, members, self.weight_grid_bits)

    def aggregated(self, members) -> Model:
        """The subset model: weighted local aggregate, or the incoming global for the empty set."""
        members = tuple(sorted(members))
        if not members:
            return self.global_model
        return aggregate(self.local_models, self.weights_for(members))


def _sgd_epoch(params, layers, x, y, lr, rng, num_classes):
    m = x.shape[1]
    order = rng.permutation(m)
    for start in range(0, m, _BATCH_SIZE):
        cols = order[start : start + _BATCH_SIZE]
        xb = x[:, cols]
        yb = y[cols]
        # forward with caches
        acts = [xb]
        pres = []
        cur = xb
        for l, spec in enumerate(layers):
            z = params[l] @ np.vstack([cur, np.ones((1, cur.shape[1]))])
            pres.append(z)
            if l < len(layers) - 1:
                cur = ACTIVATIONS[spec.activation](z)
                acts.append(cur)
        # softmax cross-entropy on the final scores
        z = pres[-1]
        z = z - z.max(axis=0, keepdims=True)
        expz = np.exp(z)
        probs = expz / expz.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore"):
            loss = -np.mean(np.log(probs[yb, np.arange(len(cols))]))
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss {loss}: training diverged")
        onehot = np.zeros_like(probs)
        onehot[yb, np.arange(len(cols))] = 1.0
        delta = (probs - onehot) / len(cols)
        for l in range(len(layers) - 1, -1, -1):
            inp = np.vstack([acts[l], np.ones((1, acts[l].shape[1]))])
            grad = delta @ inp.T
            if not np.all(np.isfinite(grad)):
                raise TrainingError("non-finite gradient: training diverged")
            if l > 0:
                back = params[l][:, :-1].T @ delta
                delta = back * ACTIVATION_GRADS[layers[l - 1].activation](pres[l - 1], acts[l])
            params[l] = params[l] - lr * grad
    return params


def fedavg_train(
    train_sets: list[ClientDataset],
    arch: list[LayerSpec],
    rounds: int,
    local_epochs: int = 1,
    lr: float = 0.5,
    seed: int = 0,
    grid_bits: int | None = 12,
) -> list[RoundModels]:
    """Standard FedAvg: broadcast, local SGD, size-weighted aggregate.

    Every round's incoming global and trained locals are retained (the
    contribution calculation needs all of them).  ``rounds >= 1`` and
    ``local_epochs >= 0``; zero epochs keeps every local model at the global.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    if local_epochs < 0:
        raise ValueError(f"local_epochs must be non-negative, got {local_epochs}")
    if not train_sets:
        raise ValueError("need at least one client")
    num_classes = max(spec.out_size for spec in arch[-1:])
    rng = np.random.default_rng(seed)
    init_scale = 0.5
    global_params = [
        rng.normal(0.0, init_scale / np.sqrt(spec.in_size), size=spec.weight_shape)
        for spec in arch
    ]
    sizes = {i: ds.size for i, ds in enumerate(train_sets)}
    history: list[RoundModels] = []
    for t in range(1, rounds + 1):
        global_model = Model(arch, global_params)
        if grid_bits is not None:
            global_model = quantize_model(global_model, grid_bits)
        locals_: dict[int, Model] = {}
        for i, ds in enumerate(train_sets):
            params = [p.copy() for p in global_params]
            client_rng = np.random.default_rng((seed, t, i))
            for _ in range(local_epochs):
                params = _sgd_epoch(
                    params, arch, ds.features, ds.labels,
                    lr, client_rng, num_classes,
                )
            local = Model(arch, params)
            locals_[i] = quantize_model(local, grid_bits) if grid_bits is not None else local
        record = RoundModels(
            round_index=t,
            selected=tuple(range(len(train_sets))),
            global_model=global_model,
            local_models=locals_,
            train_sizes=sizes,
            weight_grid_bits=grid_bits,
        )
        history.append(record)
        new_global = record.aggregated(record.selected)
        global_params = list(new_global.params)
    return history


def save_dataset_csv(dataset: ClientDataset, path) -> None:
    """id, label, then the feature values, one sample per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"x{i}" for i in range(dataset.features.shape[0])])
        for k in range(dataset.size):
            writer.writerow(
                [int(dataset.ids[k]), int(dataset.labels[k])]
                + [repr(float(v)) for v in dataset.features[:, k]]
            )

