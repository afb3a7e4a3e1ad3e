"""k-fold splitting, Adam, and the deterministic training loop."""

from __future__ import annotations

import csv
import ctypes
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..metrics import segmentation_metrics
from .loss import loss_grad_logits, loss_value
from .network import NetworkParams, backward, forward


def kfold_split(case_ids, k, seed):
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

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads(nproc):
    """The BLAS library's thread count: the first of BLAS_THREAD_VARS set
    to a positive integer, else nproc (what OpenBLAS starts unpinned)."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return nproc


def worker_count(n_items):
    """Threads for `n_items` independent jobs: as many as the CPUs left
    over by each job's BLAS threads allow, so an unpinned BLAS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count() or 1
    return max(1, min(n_items, nproc // _blas_threads(nproc)))


M_ARENA_MAX = -8  # glibc's mallopt parameter number


def _share_malloc_arena():
    """Ask glibc to serve threads made from now on from the existing
    malloc arenas. By default each new thread gets an arena of its own,
    and the memory a thread frees stays resident there, out of the other
    threads' reach: in perfbench's infer-hires run, two fold threads left
    ~14 MB that way (+8 % peak RSS). A no-op where malloc is not glibc's."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)


def thread_map(fn, items):
    """[fn(item) for item in items], on a pool of
    `worker_count(len(items))` threads, or in the calling thread when
    that count is 1.

    The pool's threads share the existing malloc arenas
    (`_share_malloc_arena`). numpy, BLAS and scipy's sparse products
    release the GIL. If items raise, the exception of the lowest-numbered
    one propagates, the one a sequential loop would have raised, once
    every started item has finished.
    """
    items = list(items)
    n = worker_count(len(items))
    if n == 1:
        return [fn(item) for item in items]
    _share_malloc_arena()
    with ThreadPoolExecutor(n) as pool:
        return list(pool.map(fn, items))


# Adam's step, moment decay rates and denominator guard (Kingma & Ba's
# defaults)
LEARNING_RATE = 1e-3
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: NetworkParams):
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
            params.tensors[name] -= LEARNING_RATE * (m / b1t) / (np.sqrt(v / b2t) + EPS)


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


def validate(params, samples):
    """(mean loss, mean Dice of the argmax labels) over the samples, from
    one forward pass of each."""
    losses, dice = [], []
    for f, a, y in samples:
        probs = forward(params, f, a)
        losses.append(loss_value(probs, y))
        dice.append(segmentation_metrics(np.argmax(probs, axis=1), y)[1])
    return float(np.mean(losses)), float(np.mean(dice))


def train_fold(train_samples, val_samples, config, fold=1):
    """Train one model; returns (best params by validation loss, history,
    that snapshot's mean validation Dice, None without validation
    samples).

    `config` is a `pipeline.PipelineConfig`; its epochs, batch_size,
    width_scale and seed are read. History rows: dicts with epoch, fold,
    train_loss, val_loss. Deterministic: the weights start from, and
    batches are shuffled by, generators seeded with config.seed + fold.
    """
    config.validate()
    n_channels = train_samples[0][0].shape[1]
    seed = config.seed + fold
    params = NetworkParams.init(n_channels, config.width_scale, seed=seed)
    params = params.astype(COMPUTE_DTYPE)
    opt = Adam(params)
    rng = np.random.default_rng([seed, fold])
    best = params.copy()
    best_val = np.inf
    best_dice = val_dice = None
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
        val_loss = train_loss
        if val_samples:
            val_loss, val_dice = validate(params, val_samples)
        history.append(
            {
                "epoch": epoch,
                "fold": fold,
                "train_loss": train_loss,
                "val_loss": val_loss,
            }
        )
        if val_loss < best_val:
            best_val, best_dice = val_loss, val_dice
            best = params.copy()
    return best, history, best_dice


def train_kfold(dataset, fold_of, config):
    """dataset: dict sample_id -> (features, adjacency, labels); fold_of:
    dict sample_id -> fold in 1..k. Trains one model per fold (validating
    on that fold), folds side by side on threads; returns (models,
    history, validation Dice), models and Dice keyed by fold. Each fold
    has its own seed, so the result does not depend on the thread
    count."""

    def one_fold(fold):
        return train_fold(
            [dataset[s] for s in sorted(dataset) if fold_of[s] != fold],
            [dataset[s] for s in sorted(dataset) if fold_of[s] == fold],
            config,
            fold=fold,
        )

    folds = range(1, max(fold_of.values()) + 1)
    trained = thread_map(one_fold, folds)
    models = {fold: params for fold, (params, _, _) in zip(folds, trained)}
    history = [row for _, h, _ in trained for row in h]
    val_dice = {fold: dice for fold, (_, _, dice) in zip(folds, trained)}
    return models, history, val_dice


def write_history_csv(path, history):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["epoch", "fold", "train_loss", "val_loss"]
        )
        writer.writeheader()
        writer.writerows(history)
