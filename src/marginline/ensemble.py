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


def combine(fields, strategy):
    """Per-face int64 labels from the per-model fields under `strategy`:

    - "max_probability": the argmax of the row of the model with the
      highest top-class probability, ties to the lower model index;
    - "democracy": the majority of the models' argmax labels; an exact
      tie goes to the argmax of the mean field;
    - "fold-K": model K's argmax.
    """
    stack = _stack(fields)
    votes = stack.argmax(axis=2)  # (M, N)
    if strategy == "max_probability":
        winner = stack.max(axis=2).argmax(axis=0)  # lower index wins ties
        return votes[winner, np.arange(stack.shape[1])]
    if strategy == "democracy":
        twice_ones, m = 2 * votes.sum(axis=0), len(stack)
        labels = (twice_ones > m).astype(np.int64)
        tied = twice_ones == m
        labels[tied] = stack[:, tied].mean(axis=0).argmax(axis=1)
        return labels
    return votes[strategy_fold(strategy, len(stack)) - 1]
