import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginline.ensemble import combine, strategy_fold


def _field(rows):
    return np.asarray(rows, dtype=np.float64)


def test_identical_fields_reduce_to_argmax():
    field = _field([[0.9, 0.1], [0.3, 0.7], [0.5, 0.5]])
    fields = [field] * 5
    expected = field.argmax(axis=1)
    assert np.array_equal(combine(fields, "max_probability"), expected)
    assert np.array_equal(combine(fields, "democracy"), expected)


def test_max_probability_picks_most_confident_model():
    fields = [
        _field([[0.6, 0.4]]),   # confident about class 0
        _field([[0.1, 0.9]]),   # more confident about class 1 -> wins
    ]
    assert combine(fields, "max_probability")[0] == 1


def test_max_probability_tie_goes_to_lower_index():
    fields = [
        _field([[0.8, 0.2]]),
        _field([[0.2, 0.8]]),
    ]
    assert combine(fields, "max_probability")[0] == 0  # first model wins


def test_democracy_majority_rules_over_confidence():
    fields = [
        _field([[0.45, 0.55]]),
        _field([[0.45, 0.55]]),
        _field([[0.45, 0.55]]),
        _field([[0.01, 0.99]]),
        _field([[0.99, 0.01]]),
    ]
    assert combine(fields, "democracy")[0] == 1


def test_democracy_even_tie_broken_by_summed_probability():
    fields = [
        _field([[0.9, 0.1]]),
        _field([[0.8, 0.2]]),
        _field([[0.4, 0.6]]),
        _field([[0.3, 0.7]]),
    ]
    # votes 2-2; summed p0 = 2.4 > p1 = 1.6 -> class 0
    assert combine(fields, "democracy")[0] == 0


def test_shape_validation():
    with pytest.raises(ValueError):
        combine([], "democracy")
    with pytest.raises(ValueError):
        combine([_field([[0.5, 0.5]]), _field([[0.5, 0.5], [0.5, 0.5]])],
                "max_probability")
    with pytest.raises(ValueError):
        combine([_field([[0.5, 0.5]])], "majority")  # unknown strategy


@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_both_strategies_agree_with_unanimous_models(m, n, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.55, 0.99, size=n)
    base = np.stack([p, 1 - p], axis=1)
    winners = base.argmax(axis=1)
    fields = []
    for _ in range(m):
        jitter = rng.uniform(0.0, 0.04, size=n)
        f = base.copy()
        f[:, 0] -= jitter * np.sign(f[:, 0] - 0.5)
        f[:, 1] = 1 - f[:, 0]
        fields.append(f)
    assert np.array_equal(combine(fields, "max_probability"), winners)
    assert np.array_equal(combine(fields, "democracy"), winners)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_combine_follows_each_rule_face_by_face(m, n, seed):
    """Each strategy's int64 labels are, face by face, the label its rule
    gives (loop references), exact ties included."""
    rng = np.random.default_rng(seed)
    # coarse probabilities, so that confidences, votes and sums often tie
    p = rng.integers(0, 5, size=(m, n)) / 4.0
    fields = [np.stack([1 - q, q], axis=1) for q in p]
    strategies = ["max_probability", "democracy"]
    strategies += [f"fold-{k}" for k in range(1, m + 1)]
    combined = {strategy: combine(fields, strategy) for strategy in strategies}
    for strategy, labels in combined.items():
        assert labels.dtype == np.int64 and labels.shape == (n,), strategy
    for face in range(n):
        rows = [f[face] for f in fields]
        top = [max(r) for r in rows]
        winner = rows[top.index(max(top))]  # first most confident model
        ones = sum(int(r[1] > r[0]) for r in rows)
        vote = int(ones * 2 > m or (ones * 2 == m and sum(p[:, face]) * 2 > m))
        expected = {"max_probability": int(winner[1] > winner[0]), "democracy": vote}
        for k, row in enumerate(rows, 1):
            expected[f"fold-{k}"] = int(row[1] > row[0])
        for strategy, label in expected.items():
            assert combined[strategy][face] == label, strategy


def test_strategy_names():
    assert strategy_fold("democracy", 5) is None
    assert strategy_fold("fold-5", 5) == 5
    for bad in ("fold-9", "fold-0", "fold-x", "fold-", "fold--1", "majority"):
        with pytest.raises(ValueError, match="fold-K"):
            strategy_fold(bad, 5)
