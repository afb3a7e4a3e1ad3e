"""k-fold splitting, Adam, and the deterministic training loop."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .loss import loss_grad_logits, loss_value
from .network import NetworkParams, backward, forward


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 10
    epochs: int = 200
    width_scale: float = 1.0
    seed: int = 0

    def validate(self):
        if min(self.learning_rate, self.batch_size, self.epochs) <= 0:
            raise ValueError("hyperparameters must be positive")


def kfold_split(case_ids, k=5, seed=0):
    """{case_id: fold in 1..k}, round robin over a seeded permutation."""
    case_ids = list(case_ids)
    if len(case_ids) < k:
        raise ValueError(f"{len(case_ids)} cases cannot fill {k} folds")
    rng = np.random.default_rng(seed)
    order = list(np.array(sorted(case_ids), dtype=object)[rng.permutation(len(case_ids))])
    return {c: (i % k) + 1 for i, c in enumerate(order)}


# Training computes in float32: about twice the float64 speed at half the
# working set. `NetworkParams.init` stays float64, so gradient checks can
# run in float64; `forward` and `backward` follow the weights' dtype.
COMPUTE_DTYPE = np.float32

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: NetworkParams, config: TrainConfig):
        self.config = config
        self.m = params.zeros_like()
        self.v = params.zeros_like()
        self.t = 0

    def step(self, params: NetworkParams, grads):
        self.t += 1
        b1t = 1.0 - BETA1**self.t
        b2t = 1.0 - BETA2**self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g * g
            params.tensors[name] -= (
                self.config.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + EPS)
            )


def sample_loss_and_grads(params, sample):
    """(loss, grads) for one (features, adjacency, labels) triple."""
    features, adj, labels = sample
    probs, cache = forward(params, features, adj, want_cache=True)
    value = loss_value(probs, labels)
    grads = backward(params, cache, loss_grad_logits(probs, labels))
    return value, grads


def _batch_step(params, opt, batch):
    total = 0.0
    acc = None
    for sample in batch:
        value, grads = sample_loss_and_grads(params, sample)
        total += value
        if acc is None:
            acc = grads
        else:
            for k in acc:
                acc[k] += grads[k]
    scale = 1.0 / len(batch)
    for k in acc:
        acc[k] *= scale
    opt.step(params, acc)
    return total * scale


def evaluate_loss(params, samples):
    return float(
        np.mean([loss_value(forward(params, f, a), y) for f, a, y in samples])
    )


def train_fold(train_samples, val_samples, config: TrainConfig, fold=1, seed=None):
    """Train one model; returns (best params by validation loss, history).

    History rows: dicts with epoch, fold, train_loss, val_loss.
    Deterministic: fixed batch order shuffled by a seeded generator.
    """
    config.validate()
    n_channels = train_samples[0][0].shape[1]
    seed = config.seed if seed is None else seed
    params = NetworkParams.init(n_channels, config.width_scale, seed=seed)
    params = params.astype(COMPUTE_DTYPE)
    opt = Adam(params, config)
    rng = np.random.default_rng([seed, fold])
    best = params.copy()
    best_val = np.inf
    history = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_samples))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [train_samples[i] for i in order[start : start + config.batch_size]]
            losses.append(_batch_step(params, opt, batch))
        train_loss = float(np.mean(losses))
        if not np.isfinite(train_loss):
            raise FloatingPointError(
                f"NaN/inf training loss at epoch {epoch}, fold {fold}"
            )
        val_loss = evaluate_loss(params, val_samples) if val_samples else train_loss
        history.append(
            {
                "epoch": epoch,
                "fold": fold,
                "train_loss": train_loss,
                "val_loss": val_loss,
            }
        )
        if val_loss < best_val:
            best_val = val_loss
            best = params.copy()
    return best, history


def train_kfold(dataset, fold_of, config: TrainConfig):
    """dataset: dict sample_id -> (features, adjacency, labels); fold_of:
    dict sample_id -> fold in 1..k. Trains one model per fold (validating
    on that fold); returns (models, history)."""
    models = {}
    history = []
    for fold in range(1, max(fold_of.values()) + 1):
        train_ids = [s for s in sorted(dataset) if fold_of[s] != fold]
        val_ids = [s for s in sorted(dataset) if fold_of[s] == fold]
        params, h = train_fold(
            [dataset[s] for s in train_ids],
            [dataset[s] for s in val_ids],
            config,
            fold=fold,
            seed=config.seed + fold,
        )
        models[fold] = params
        history.extend(h)
    return models, history


def write_history_csv(path, history):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["epoch", "fold", "train_loss", "val_loss"]
        )
        writer.writeheader()
        for row in history:
            writer.writerow(row)
