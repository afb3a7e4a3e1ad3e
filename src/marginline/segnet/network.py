"""Graph-constrained mesh segmentation network (numpy).

Forward pipeline: feature-transform module (FTM), per-cell MLP-1, graph
module GLM-1 (small-radius pooling), MLP-2, GLM-2 (small and large radii),
global max pooling broadcast back to cells, dense fusion MLP-3, and a
per-cell linear classifier with row softmax. The network follows
MeshSegNet (Lian et al., IEEE TMI 2020).

Two layers are computed by the row blocks of their weights rather than
on a concatenated input, which is the same math with a smaller working
set: GLM-2's [h, A_S h, A_L h] @ W is three products, so backward applies
A_S.T and A_L.T once each to the output gradient; and the global feature
broadcast to every cell enters MLP-3's first layer as one bias row,
global_feat @ W[k:]. The tensor names and shapes are those of the
concatenated form.

Gradients are exact analytic backprop; no framework involved. All
parameter tensors live in a flat name -> ndarray dict so training code and
checkpoints can stay generic. The weights' dtype is the compute dtype:
`forward` and `backward` cast their inputs to it, and `forward` returns
float64 probabilities whatever it is. ReLUs run in place and backward
takes their mask from the output; the FTM encoder keeps only the rows
that win its max pool, and `forward(..., want_cache=False)` keeps no
activations at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..archive import load_archive, save_archive


def _w(base, scale):
    return max(2, int(round(base * scale)))


def architecture(n_channels, scale=1.0):
    """Layer-width descriptor for a given input width and width scale."""
    c = int(n_channels)
    return {
        "n_channels": c,
        "scale": float(scale),
        "ftm_encoder": [_w(64, scale), _w(128, scale), _w(1024, scale)],
        "ftm_decoder": [_w(512, scale), _w(256, scale)],
        "mlp1": [_w(64, scale), _w(64, scale)],
        "glm1": _w(64, scale),
        "mlp2": [_w(64, scale), _w(128, scale), _w(512, scale)],
        "glm2": _w(512, scale),
        "mlp3": [_w(256, scale), _w(128, scale)],
        "n_classes": 2,
    }


def _dense_shapes(arch):
    """Ordered (name, in_dim, out_dim) for every affine layer."""
    c = arch["n_channels"]
    shapes = []
    d = c
    for i, w in enumerate(arch["ftm_encoder"]):
        shapes.append((f"ftm.enc{i}", d, w))
        d = w
    for i, w in enumerate(arch["ftm_decoder"]):
        shapes.append((f"ftm.dec{i}", d, w))
        d = w
    shapes.append(("ftm.out", d, c * c))
    d = c
    for i, w in enumerate(arch["mlp1"]):
        shapes.append((f"mlp1.{i}", d, w))
        d = w
    m1 = d
    shapes.append(("glm1.fuse", 2 * m1, arch["glm1"]))
    d = arch["glm1"]
    for i, w in enumerate(arch["mlp2"]):
        shapes.append((f"mlp2.{i}", d, w))
        d = w
    m2 = d
    shapes.append(("glm2.fuse", 3 * m2, arch["glm2"]))
    fused = m1 + arch["glm1"] + arch["glm2"] + arch["glm2"]
    d = fused
    for i, w in enumerate(arch["mlp3"]):
        shapes.append((f"mlp3.{i}", d, w))
        d = w
    shapes.append(("clf", d, arch["n_classes"]))
    return shapes


@dataclass
class NetworkParams:
    arch: dict
    tensors: dict  # name -> ndarray; "<name>.W" and "<name>.b"

    @staticmethod
    def init(n_channels, scale=1.0, seed=0):
        arch = architecture(n_channels, scale)
        rng = np.random.default_rng(seed)
        tensors = {}
        c = arch["n_channels"]
        for name, din, dout in _dense_shapes(arch):
            if name == "ftm.out":
                # identity-at-init feature transform
                tensors[name + ".W"] = rng.normal(0.0, 1e-4, size=(din, dout))
                tensors[name + ".b"] = np.eye(c).ravel().copy()
            else:
                std = np.sqrt(2.0 / din)
                tensors[name + ".W"] = rng.normal(0.0, std, size=(din, dout))
                tensors[name + ".b"] = np.zeros(dout)
        return NetworkParams(arch, tensors)

    def copy(self):
        return NetworkParams(
            dict(self.arch), {k: v.copy() for k, v in self.tensors.items()}
        )

    def n_parameters(self):
        return sum(v.size for v in self.tensors.values())

    @property
    def dtype(self):
        """The compute dtype: that of the (uniformly typed) weights."""
        return self.tensors["clf.W"].dtype

    def astype(self, dtype):
        return NetworkParams(
            dict(self.arch), {k: v.astype(dtype) for k, v in self.tensors.items()}
        )

    def zeros_like(self):
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    def save(self, path):
        """An archive (see `marginline.archive`) of the architecture as a
        JSON string and every tensor in its own dtype."""
        arch = np.array(json.dumps(self.arch, sort_keys=True))
        save_archive(path, {"arch": arch, **self.tensors})

    @staticmethod
    def load(path):
        return load_archive(path, _parse_checkpoint, "network checkpoint")


def _parse_checkpoint(members):
    tensors = {name: a for name, a in members.items() if name != "arch"}
    for name, tensor in tensors.items():
        if tensor.dtype not in (np.float32, np.float64):
            raise ValueError(f"tensor {name!r} of dtype {tensor.dtype} is not float")
    return NetworkParams(json.loads(str(members["arch"])), tensors)


class ShapeMismatch(ValueError):
    pass


def _check_width(name, got, expected):
    if got != expected:
        raise ShapeMismatch(f"stage {name}: input width {got} != expected {expected}")


def _affine(params, name, x):
    w = params.tensors[name + ".W"]
    _check_width(name, x.shape[1], w.shape[0])
    z = x @ w
    z += params.tensors[name + ".b"]
    return z


def _relu(z):
    """ReLU in place; `relu(z) > 0` exactly where `z > 0`, so backward
    takes its mask from the output."""
    return np.maximum(z, 0.0, out=z)


def _as_dtype(a, dtype):
    """`a` in `dtype`, copied only when it is not in it already."""
    if sp.issparse(a):
        return a.astype(dtype, copy=False)
    return np.asarray(a, dtype=dtype)


def _column_argmax(h):
    """Row of each column's first maximum, as `np.argmax(h, axis=0)` but
    in two passes along the rows of `h`, which on a tall activation beat
    its strided scan down each column. A column that holds a NaN gives
    row 0 rather than the NaN's row."""
    return (h == h.max(axis=0)).argmax(axis=0)


def _ftm_pool(params, x, cache):
    """The FTM encoder's (1, width) max pool over cells. With a `cache`,
    each encoder layer's (input, output) is kept at just the rows that
    win a channel, the only rows whose gradient is not exactly 0."""
    n_enc = len(params.arch["ftm_encoder"])
    hs = [x]
    for i in range(n_enc):
        h = _relu(_affine(params, f"ftm.enc{i}", hs[-1]))
        hs = hs + [h] if cache is not None else [h]
    arg = _column_argmax(h)
    pooled = h[arg, np.arange(h.shape[1])][None, :]
    if cache is not None:
        rows, cache["ftm_pool_pos"] = np.unique(arg, return_inverse=True)
        for i in range(n_enc):
            cache["acts"][f"ftm.enc{i}"] = (hs[i][rows], hs[i + 1][rows])
    return pooled


def forward(params: NetworkParams, x, adj, want_cache=False):
    """Row-stochastic (N, 2) float64 class probabilities for the (N, C)
    feature array `x`; `adj` is indexed as (A_S, A_L), so an AdjacencyPair
    or a plain pair of sparse or dense matrices. Every layer runs in the
    weights' dtype. Only `want_cache=True` keeps the activations that
    `backward` needs; the probabilities are the same bits either way.
    """
    a_s, a_l = adj[0], adj[1]
    if a_s.shape[0] != x.shape[0]:
        raise ShapeMismatch(
            f"stage adjacency: {a_s.shape[0]} rows for {x.shape[0]} cells"
        )
    dt = params.dtype
    x, a_s, a_l = _as_dtype(x, dt), _as_dtype(a_s, dt), _as_dtype(a_l, dt)
    arch = params.arch
    cache = {"x": x, "a_s": a_s, "a_l": a_l, "acts": {}} if want_cache else None

    def dense_relu(name, h):
        r = _relu(_affine(params, name, h))
        if want_cache:
            cache["acts"][name] = (h, r)
        return r

    # FTM
    g = _ftm_pool(params, x, cache)
    for i in range(len(arch["ftm_decoder"])):
        g = dense_relu(f"ftm.dec{i}", g)
    if want_cache:
        cache["acts"]["ftm.out"] = (g, None)
    c = arch["n_channels"]
    x1 = x @ _affine(params, "ftm.out", g).reshape(c, c)

    # MLP-1
    h = x1
    for i in range(len(arch["mlp1"])):
        h = dense_relu(f"mlp1.{i}", h)
    out1 = h

    # GLM-1
    g1 = dense_relu("glm1.fuse", np.concatenate([out1, a_s @ out1], axis=1))

    # MLP-2
    h = g1
    for i in range(len(arch["mlp2"])):
        h = dense_relu(f"mlp2.{i}", h)
    out2 = h

    # GLM-2: [out2, A_S out2, A_L out2] @ W as three products with W's
    # row blocks
    w = params.tensors["glm2.fuse.W"]
    m2 = out2.shape[1]
    _check_width("glm2.fuse", 3 * m2, w.shape[0])
    z = out2 @ w[:m2]
    z += (a_s @ out2) @ w[m2 : 2 * m2]
    z += (a_l @ out2) @ w[2 * m2 :]
    z += params.tensors["glm2.fuse.b"]
    g2 = _relu(z)

    # global max pool; its broadcast to every cell enters MLP-3 as a bias
    # row, global_feat @ W[k:]
    gmp_arg = _column_argmax(g2)
    global_feat = g2[gmp_arg, np.arange(g2.shape[1])]
    fused = np.concatenate([out1, g1, g2], axis=1)
    w = params.tensors["mlp3.0.W"]
    k = fused.shape[1]
    _check_width("mlp3.0", k + global_feat.size, w.shape[0])
    z = fused @ w[:k]
    z += global_feat @ w[k:] + params.tensors["mlp3.0.b"]
    h = _relu(z)
    if want_cache:
        cache["acts"]["glm2.fuse"] = (out2, g2)
        cache["acts"]["mlp3.0"] = (fused, h)
        cache["gmp_arg"] = gmp_arg
        cache["global_feat"] = global_feat
    for i in range(1, len(arch["mlp3"])):
        h = dense_relu(f"mlp3.{i}", h)
    if want_cache:
        cache["acts"]["clf"] = (h, None)
    # the (N, 2) softmax runs in float64 whatever the compute dtype
    logits = _affine(params, "clf", h).astype(np.float64)

    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    if want_cache:
        return probs, cache
    return probs


def backward(params: NetworkParams, cache, dlogits):
    """Parameter gradients given d(loss)/d(logits), in the weights'
    dtype. Returns a name -> ndarray dict matching params.tensors."""
    arch = params.arch
    acts = cache["acts"]
    grads = {}
    dlogits = np.asarray(dlogits, dtype=params.dtype)

    def back_affine(name, dout):
        h = acts[name][0]
        grads[name + ".W"] = h.T @ dout
        grads[name + ".b"] = dout.sum(axis=0)
        return dout @ params.tensors[name + ".W"].T

    def back_dense_relu(name, dout):
        r = acts[name][1]
        return back_affine(name, dout * (r > 0.0))

    dh = back_affine("clf", dlogits)
    for i in reversed(range(1, len(arch["mlp3"]))):
        dh = back_dense_relu(f"mlp3.{i}", dh)

    # MLP-3's first layer, with the global feature as its bias row
    fused, r = acts["mlp3.0"]
    d = dh * (r > 0.0)
    w = params.tensors["mlp3.0.W"]
    k = fused.shape[1]
    dsum = d.sum(axis=0)
    gw = np.empty_like(w)
    gw[:k] = fused.T @ d
    gw[k:] = np.outer(cache["global_feat"], dsum)
    grads["mlp3.0.W"], grads["mlp3.0.b"] = gw, dsum
    dfused = d @ w[:k].T
    dglobal = w[k:] @ dsum

    w1 = acts[f"mlp1.{len(arch['mlp1']) - 1}"][1].shape[1]
    wg1 = acts["glm1.fuse"][1].shape[1]
    dout1_a = dfused[:, :w1]
    dg1_a = dfused[:, w1 : w1 + wg1]
    dg2 = dfused[:, w1 + wg1 :].copy()
    # undo the global max pool
    dg2[cache["gmp_arg"], np.arange(dg2.shape[1])] += dglobal

    # GLM-2 by W's row blocks: A_S.T and A_L.T each apply once, to d
    out2, g2 = acts["glm2.fuse"]
    d = dg2 * (g2 > 0.0)
    w = params.tensors["glm2.fuse.W"]
    m2 = out2.shape[1]
    d_s = cache["a_s"].T @ d
    d_l = cache["a_l"].T @ d
    gw = np.empty_like(w)
    gw[:m2] = out2.T @ d
    gw[m2 : 2 * m2] = out2.T @ d_s
    gw[2 * m2 :] = out2.T @ d_l
    grads["glm2.fuse.W"], grads["glm2.fuse.b"] = gw, d.sum(axis=0)
    dout2 = d @ w[:m2].T
    dout2 += d_s @ w[m2 : 2 * m2].T
    dout2 += d_l @ w[2 * m2 :].T

    dh = dout2
    for i in reversed(range(len(arch["mlp2"]))):
        dh = back_dense_relu(f"mlp2.{i}", dh)
    dg1 = dh + dg1_a

    dglm1_in = back_dense_relu("glm1.fuse", dg1)
    m1 = acts["glm1.fuse"][0].shape[1] // 2
    dout1 = dglm1_in[:, :m1] + cache["a_s"].T @ dglm1_in[:, m1:] + dout1_a

    dh = dout1
    for i in reversed(range(len(arch["mlp1"]))):
        dh = back_dense_relu(f"mlp1.{i}", dh)
    dx1 = dh

    # FTM application x1 = x @ t
    dt = cache["x"].T @ dx1
    dg = back_affine("ftm.out", dt.reshape(1, -1))
    for i in reversed(range(len(arch["ftm_decoder"]))):
        dg = back_dense_relu(f"ftm.dec{i}", dg)
    # undo the FTM max pool, on the winning rows the forward kept
    n_enc = len(arch["ftm_encoder"])
    r = acts[f"ftm.enc{n_enc - 1}"][1]
    dh = np.zeros_like(r)
    dh[cache["ftm_pool_pos"], np.arange(r.shape[1])] = dg[0]
    for i in reversed(range(n_enc)):
        dh = back_dense_relu(f"ftm.enc{i}", dh)
    return grads
