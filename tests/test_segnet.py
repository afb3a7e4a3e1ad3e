import json
import struct

import numpy as np
import pytest

from marginline.features import build_adjacency
from marginline.segnet import (
    NetworkParams,
    TrainConfig,
    architecture,
    forward,
    kfold_split,
    train_fold,
)
from marginline.segnet import train as train_mod
from marginline.segnet.loss import (
    cross_entropy,
    generalized_dice_loss,
    loss_grad_logits,
    loss_value,
)
from marginline.segnet.network import ShapeMismatch, backward


def _toy_sample(n=40, c=18, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    feats = rng.normal(size=(n, c))
    feats[:, 11] = pts[:, 2]  # a usable coordinate channel
    adj = build_adjacency(pts, r_small=0.8, r_large=1.5)
    labels = (pts[:, 2] > 0).astype(np.int64)
    return feats, adj, labels


def test_architecture_widths_scale():
    full = architecture(18, scale=1.0)
    assert full["ftm_encoder"] == [64, 128, 1024]
    assert full["mlp2"] == [64, 128, 512]
    eighth = architecture(18, scale=0.125)
    assert eighth["ftm_encoder"] == [8, 16, 128]
    assert eighth["glm2"] == 64
    # widths never collapse below 2
    tiny = architecture(18, scale=0.01)
    assert min(tiny["ftm_encoder"]) >= 2


def test_parameter_count_frozen():
    params = NetworkParams.init(18, 0.125, seed=0)
    assert params.n_parameters() == 42718


def test_forward_takes_adjacency_pair_or_plain_pair():
    feats, adj, _ = _toy_sample()
    params = NetworkParams.init(18, 0.125, seed=1)
    from_pair = forward(params, feats, adj)
    from_tuple = forward(params, feats, (adj.a_small, adj.a_large))
    assert from_pair.tobytes() == from_tuple.tobytes()


def test_forward_shapes_and_probabilities():
    feats, adj, _ = _toy_sample()
    params = NetworkParams.init(18, 0.125, seed=1)
    probs = forward(params, feats, adj)
    assert probs.shape == (40, 2)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert (probs >= 0).all()


def test_forward_rejects_wrong_width():
    feats, adj, _ = _toy_sample(c=15)
    params = NetworkParams.init(18, 0.125, seed=1)
    with pytest.raises(ShapeMismatch):
        forward(params, feats, adj)


def test_gradient_matches_finite_differences():
    feats, adj, labels = _toy_sample(n=30, seed=2)
    params = NetworkParams.init(18, 0.125, seed=2)
    probs, cache = forward(params, feats, adj, want_cache=True)
    grads = backward(params, cache, loss_grad_logits(probs, labels))
    h = 1e-5
    rng = np.random.default_rng(0)
    worst = 0.0
    for name, g in grads.items():
        flat = params.tensors[name].ravel()
        take = min(20, flat.size)
        for idx in rng.choice(flat.size, size=take, replace=False):
            old = flat[idx]
            flat[idx] = old + h
            up = loss_value(forward(params, feats, adj), labels)
            flat[idx] = old - h
            down = loss_value(forward(params, feats, adj), labels)
            flat[idx] = old
            fd = (up - down) / (2 * h)
            ana = g.ravel()[idx]
            rel = abs(fd - ana) / max(abs(fd), abs(ana), 1e-6)
            worst = max(worst, rel)
    assert worst <= 1e-4


def test_loss_components():
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
    labels = np.array([0, 1, 0])
    ce = cross_entropy(probs, labels)
    expected = -(np.log(0.9) + np.log(0.8) + np.log(0.7)) / 3
    assert ce == pytest.approx(expected, rel=1e-12)
    gdl = generalized_dice_loss(probs, labels)
    assert 0.0 <= gdl <= 1.0
    assert loss_value(probs, labels) == pytest.approx(gdl + ce, rel=1e-12)


def test_perfect_prediction_minimizes_dice_term():
    labels = np.array([0, 1, 1, 0])
    perfect = np.eye(2)[labels]
    assert generalized_dice_loss(perfect, labels) == pytest.approx(0.0, abs=1e-12)


def test_absent_class_gets_zero_weight():
    labels = np.zeros(5, dtype=np.int64)
    probs = np.full((5, 2), 0.5)
    # must not blow up on the empty positive class
    assert np.isfinite(generalized_dice_loss(probs, labels))


def test_kfold_round_robin_sizes():
    folds = kfold_split([f"c{i:02d}" for i in range(41)], k=5, seed=0)
    counts = np.bincount(list(folds.values()))[1:]
    assert sorted(counts.tolist()) == [8, 8, 8, 8, 9]


def test_training_is_deterministic_and_learns():
    samples = [_toy_sample(seed=s) for s in range(4)]
    config = TrainConfig(
        learning_rate=1e-3, batch_size=2, epochs=30, width_scale=0.125, seed=5
    )
    a, hist_a = train_fold(samples[:3], samples[3:], config, fold=1)
    b, hist_b = train_fold(samples[:3], samples[3:], config, fold=1)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    assert hist_a == hist_b
    assert hist_a[-1]["train_loss"] < hist_a[0]["train_loss"]


def test_checkpoint_round_trip(tmp_path):
    params = NetworkParams.init(18, 0.125, seed=9)
    path = tmp_path / "model.bin"
    params.save(path)
    back = NetworkParams.load(path)
    assert back.arch == params.arch
    for name in params.tensors:
        assert np.array_equal(back.tensors[name], params.tensors[name])


def test_checkpoint_v2_keeps_float32(tmp_path):
    params = NetworkParams.init(18, 0.125, seed=9)
    params.save(tmp_path / "f8.bin")
    single = params.astype(np.float32)
    single.save(tmp_path / "f4.bin")
    back = NetworkParams.load(tmp_path / "f4.bin")
    assert back.arch == single.arch
    for name, tensor in single.tensors.items():
        assert back.tensors[name].dtype == np.float32
        assert back.tensors[name].tobytes() == tensor.tobytes()
    f4, f8 = (tmp_path / "f4.bin").stat().st_size, (tmp_path / "f8.bin").stat().st_size
    assert 0.5 < f4 / f8 < 0.55  # the JSON header is the same size in both


def test_checkpoint_v1_loads_as_float64(tmp_path):
    """A file written before tensors carried their dtype is all float64."""
    params = NetworkParams.init(18, 0.125, seed=9)
    names = sorted(params.tensors)
    header = {
        "format": "marginline-checkpoint-v1",
        "arch": params.arch,
        "tensors": [
            {"name": n, "shape": list(params.tensors[n].shape)} for n in names
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    path = tmp_path / "v1.bin"
    with open(path, "wb") as fh:
        fh.write(struct.pack("<q", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(params.tensors[n].astype("<f8").tobytes())
    back = NetworkParams.load(path)
    assert back.arch == params.arch
    for name, tensor in params.tensors.items():
        assert back.tensors[name].dtype == np.float64
        assert np.array_equal(back.tensors[name], tensor)


def test_training_computes_in_float32(monkeypatch):
    optimizers = []

    class RecordingAdam(train_mod.Adam):
        def __init__(self, params, config):
            super().__init__(params, config)
            optimizers.append(self)

    monkeypatch.setattr(train_mod, "Adam", RecordingAdam)
    samples = [_toy_sample(seed=s) for s in range(3)]
    config = TrainConfig(batch_size=2, epochs=2, width_scale=0.125, seed=5)
    params, _ = train_fold(samples[:2], samples[2:], config, fold=1)
    assert params.dtype == np.float32
    (opt,) = optimizers
    for name in params.tensors:
        assert params.tensors[name].dtype == np.float32
        assert opt.m[name].dtype == opt.v[name].dtype == np.float32


def test_float32_weights_set_the_compute_dtype():
    feats, adj, labels = _toy_sample(seed=3)
    double = NetworkParams.init(18, 0.125, seed=3)
    single = double.astype(np.float32)
    probs, cache = forward(single, feats, adj, want_cache=True)
    grads = backward(single, cache, loss_grad_logits(probs, labels))
    assert all(g.dtype == np.float32 for g in grads.values())
    assert probs.dtype == np.float64
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    # the same float32 weights, computed in float64
    reference = forward(single.astype(np.float64), feats, adj)
    assert np.abs(probs - reference).max() <= 1e-5
