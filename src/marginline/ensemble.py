"""Combining per-fold probability fields into one labeling."""

from __future__ import annotations

import numpy as np

STRATEGIES = ("max_probability", "democracy")


def _stack(fields):
    fields = [np.asarray(f) for f in fields]
    if not fields:
        raise ValueError("empty model list")
    shape = fields[0].shape
    for i, f in enumerate(fields):
        if f.shape != shape:
            raise ValueError(f"field {i} has shape {f.shape}, expected {shape}")
    return np.stack(fields)  # (M, N, 2)


def combine_max_probability(fields):
    """Per face, the row of the model with the highest top-class
    probability; ties go to the lower model index."""
    stack = _stack(fields)
    top = stack.max(axis=2)  # (M, N)
    winner = top.argmax(axis=0)  # lower index wins ties
    return stack[winner, np.arange(stack.shape[1])]


def combine_democracy(fields):
    """Majority vote over per-model argmax labels, ties broken by the larger
    mean probability: the vote shares, and the mean field on tied faces,
    so its argmax is the label."""
    stack = _stack(fields)
    m = stack.shape[0]
    ones = stack.argmax(axis=2).sum(axis=0)
    field = np.stack([m - ones, ones], axis=1) / m
    tied = ones * 2 == m
    field[tied] = stack[:, tied].mean(axis=0)
    return field


def strategy_fold(strategy, n_models):
    """None for a named strategy, K for "fold-K" (model K alone,
    1 <= K <= n_models); anything else raises ValueError."""
    if strategy in STRATEGIES:
        return None
    k = strategy.removeprefix("fold-")
    if k == strategy or not k.isdecimal() or not 1 <= int(k) <= n_models:
        raise ValueError(
            f"ensemble {strategy!r}: not {STRATEGIES} or fold-K, K in 1..{n_models}"
        )
    return int(k)


def combined_field(fields, strategy):
    """One (N, 2) field from the per-model fields under `strategy`
    ("max_probability", "democracy" or "fold-K"); its argmax is the
    strategy's label on every face."""
    if strategy == "max_probability":
        return combine_max_probability(fields)
    if strategy == "democracy":
        return combine_democracy(fields)
    return _stack(fields)[strategy_fold(strategy, len(fields)) - 1]


def combine(fields, strategy):
    """Per-face labels under `strategy`: the argmax of `combined_field`."""
    return combined_field(fields, strategy).argmax(axis=1)
