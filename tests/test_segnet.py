import sys
import threading

import numpy as np
import pytest

from marginline.features import AdjacencyPair, _radius_matrix
from marginline.pipeline import PipelineConfig
from marginline.segnet import network as network_mod
from marginline.segnet import train as train_mod
from marginline.segnet.loss import (
    cross_entropy,
    generalized_dice_loss,
    loss_grad_logits,
    loss_value,
)
from marginline.segnet.network import (
    NetworkParams,
    ShapeMismatch,
    architecture,
    backward,
    forward,
)
from marginline.segnet.train import (
    kfold_split,
    thread_map,
    train_fold,
    train_kfold,
    write_history_csv,
)


def _toy_sample(n=40, c=18, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    feats = rng.normal(size=(n, c))
    feats[:, 11] = pts[:, 2]  # a usable coordinate channel
    adj = AdjacencyPair(_radius_matrix(pts, 0.8), _radius_matrix(pts, 1.5))
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
    assert sum(v.size for v in params.tensors.values()) == 42718


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
    config = PipelineConfig(batch_size=2, epochs=30, width_scale=0.125, seed=5)
    a, hist_a, dice_a = train_fold(samples[:3], samples[3:], config, fold=1)
    b, hist_b, dice_b = train_fold(samples[:3], samples[3:], config, fold=1)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    assert hist_a == hist_b
    assert dice_a == dice_b
    assert hist_a[-1]["train_loss"] < hist_a[0]["train_loss"]


def test_checkpoint_round_trip(tmp_path):
    params = NetworkParams.init(18, 0.125, seed=9)
    path = tmp_path / "model.bin"
    params.save(path)
    back = NetworkParams.load(path)
    assert back.arch == params.arch
    for name in params.tensors:
        assert np.array_equal(back.tensors[name], params.tensors[name])


def test_checkpoint_keeps_float32(tmp_path):
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
    # the archive's per-tensor headers are the same size in both
    assert 0.5 < f4 / f8 < 0.55


def test_training_computes_in_float32(monkeypatch):
    optimizers = []

    class RecordingAdam(train_mod.Adam):
        def __init__(self, params):
            super().__init__(params)
            optimizers.append(self)

    monkeypatch.setattr(train_mod, "Adam", RecordingAdam)
    samples = [_toy_sample(seed=s) for s in range(3)]
    config = PipelineConfig(batch_size=2, epochs=2, width_scale=0.125, seed=5)
    params, _, _ = train_fold(samples[:2], samples[2:], config, fold=1)
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


def test_inference_forward_matches_caching_forward_bit_for_bit():
    feats, adj, _ = _toy_sample(seed=4)
    for dtype in (np.float64, np.float32):
        params = NetworkParams.init(18, 0.125, seed=4).astype(dtype)
        cached, _ = forward(params, feats, adj, want_cache=True)
        assert forward(params, feats, adj).tobytes() == cached.tobytes()


def _ftm_encoder_output(params, x):
    h = x
    for i in range(len(params.arch["ftm_encoder"])):
        name = f"ftm.enc{i}"
        h = np.maximum(h @ params.tensors[name + ".W"] + params.tensors[name + ".b"], 0)
    return h


def test_gradient_where_one_cell_wins_several_ftm_channels():
    """The FTM pool's backward runs on just its winning rows: check it
    where one cell wins several channels and one channel is <= 0 at every
    cell (its pool winner is row 0 with value 0, so its gradient is 0)."""
    feats, adj, labels = _toy_sample(n=30, seed=6)
    params = NetworkParams.init(18, 0.125, seed=6)
    rng = np.random.default_rng(6)
    for v in params.tensors.values():  # zero biases would put kinks at 0
        v += rng.normal(0.0, 0.05, size=v.shape)
    feats[4] *= 8.0  # a large-norm cell wins many channels
    last = f"ftm.enc{len(params.arch['ftm_encoder']) - 1}"
    params.tensors[last + ".b"][3] = -1e3  # channel 3 is off everywhere
    enc = _ftm_encoder_output(params, feats)
    winners = np.argmax(enc, axis=0)
    assert np.bincount(winners).max() >= 2
    assert (enc[:, 3] <= 0).all() and winners[3] == 0
    assert len(np.unique(winners)) < feats.shape[0]

    probs, cache = forward(params, feats, adj, want_cache=True)
    grads = backward(params, cache, loss_grad_logits(probs, labels))
    assert not grads[last + ".W"][:, 3].any() and grads[last + ".b"][3] == 0
    h = 1e-6
    rng = np.random.default_rng(1)
    worst = 0.0
    for name in sorted(grads):
        flat = params.tensors[name].ravel()
        for idx in rng.choice(flat.size, size=min(15, flat.size), replace=False):
            old = flat[idx]
            flat[idx] = old + h
            up = loss_value(forward(params, feats, adj), labels)
            flat[idx] = old - h
            down = loss_value(forward(params, feats, adj), labels)
            flat[idx] = old
            fd = (up - down) / (2 * h)
            ana = grads[name].ravel()[idx]
            worst = max(worst, abs(fd - ana) / max(abs(fd), abs(ana), 1e-6))
    assert worst <= 1e-4


def test_thread_map_keeps_item_order_under_contention(monkeypatch):
    """More threads than CPUs, switching every microsecond: each result
    lands at its item's index."""
    monkeypatch.setattr(train_mod, "worker_count", lambda n: min(n, 5))

    def square(k):
        return sum(j * j for j in range(k * 100))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = thread_map(square, range(23))
    finally:
        sys.setswitchinterval(interval)
    assert out == [sum(j * j for j in range(k * 100)) for k in range(23)]
    assert threading.active_count() == 1


def test_worker_count_leaves_cpus_to_blas_threads(monkeypatch):
    nproc = len(train_mod.os.sched_getaffinity(0))
    for var in train_mod.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert train_mod.worker_count(5) == 1  # unpinned BLAS takes every CPU
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert train_mod.worker_count(5) == min(5, nproc)
    assert train_mod.worker_count(1) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(nproc))  # listed first
    assert train_mod.worker_count(5) == 1


def _kfold_dataset():
    samples = [_toy_sample(seed=s) for s in range(6)]
    dataset = {
        f"s{i}": (f.astype(np.float32), adj, y) for i, (f, adj, y) in enumerate(samples)
    }
    return dataset, {f"s{i}": i % 3 + 1 for i in range(6)}


def test_train_kfold_does_not_depend_on_the_thread_count(monkeypatch, tmp_path):
    dataset, fold_of = _kfold_dataset()
    config = PipelineConfig(batch_size=2, epochs=3, width_scale=0.125, seed=2)
    real_train_fold = train_mod.train_fold
    files = {}
    for workers in (1, 2):
        threads = set()

        def recording_train_fold(*args, **kwargs):
            threads.add(threading.current_thread())
            return real_train_fold(*args, **kwargs)

        monkeypatch.setattr(train_mod, "worker_count", lambda n: min(n, workers))
        monkeypatch.setattr(train_mod, "train_fold", recording_train_fold)
        models, history, _ = train_kfold(dataset, fold_of, config)
        assert len(threads) <= workers
        assert sorted(models) == [1, 2, 3]
        assert [row["fold"] for row in history] == [1] * 3 + [2] * 3 + [3] * 3
        out = tmp_path / f"w{workers}"
        out.mkdir()
        for fold, params in models.items():
            params.save(out / f"fold{fold}.bin")
        write_history_csv(out / "history.csv", history)
        files[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(files[1]) == 4
    assert files[1] == files[2]


def test_fold_error_in_a_worker_thread_propagates(monkeypatch):
    """A NaN sample in fold 1 makes folds 2 and 3, which train on it,
    fail; fold 2 runs on the second thread, and its error is the one a
    sequential loop raises."""
    dataset, fold_of = _kfold_dataset()
    x, adj, y = dataset["s0"]
    dataset["s0"] = (np.full_like(x, np.nan), adj, y)
    config = PipelineConfig(batch_size=2, epochs=2, width_scale=0.125, seed=2)
    for workers in (1, 2):
        monkeypatch.setattr(train_mod, "worker_count", lambda n: min(n, workers))
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="epoch 1, fold 2"):
                train_kfold(dataset, fold_of, config)
        assert threading.active_count() == 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_column_argmax_is_first_max_row(dtype):
    """The max pools' two-pass index equals `np.argmax(h, axis=0)`:
    ties go to the first row, and an all-zero ReLU column to row 0."""
    rng = np.random.default_rng(6)
    h = np.maximum(rng.normal(size=(500, 24)), 0.0).astype(dtype)
    h[:, 3] = 0.0  # a dead ReLU channel
    h[[7, 40, 300], 5] = h[:, 5].max() + 1.0  # a three-way tie
    h[:, 9] = np.round(h[:, 9])  # many ties at small integers
    h[-1, 11] = h[:, 11].max() + 1.0  # the last row wins
    arg = network_mod._column_argmax(h)
    assert np.array_equal(arg, np.argmax(h, axis=0))
    assert arg[3] == 0 and arg[5] == 7 and arg[11] == 499
