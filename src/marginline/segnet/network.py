"""Graph-constrained mesh segmentation network (numpy).

Forward pipeline: feature-transform module (FTM), per-cell MLP-1, graph
module GLM-1 (small-radius pooling), MLP-2, GLM-2 (small and large radii),
global max pooling broadcast back to cells, dense fusion MLP-3, and a
per-cell linear classifier with row softmax.

Gradients are exact analytic backprop; no framework involved. All
parameter tensors live in a flat name -> ndarray dict so training code and
checkpoints can stay generic. The weights' dtype is the compute dtype:
`forward` and `backward` cast their inputs to it, and `forward` returns
float64 probabilities whatever it is.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


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


CHECKPOINT_V1 = "marginline-checkpoint-v1"  # every tensor float64
CHECKPOINT_V2 = "marginline-checkpoint-v2"  # each tensor's dtype in the header


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
        """Versioned container: JSON architecture header, listing each
        tensor's name, shape and dtype, then the raw little-endian
        tensors as they are."""
        names = sorted(self.tensors)
        dtypes = {n: self.tensors[n].dtype.newbyteorder("<") for n in names}
        header = {
            "format": CHECKPOINT_V2,
            "arch": self.arch,
            "tensors": [
                {
                    "name": n,
                    "shape": list(self.tensors[n].shape),
                    "dtype": dtypes[n].str,
                }
                for n in names
            ],
        }
        blob = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(struct.pack("<q", len(blob)))
            fh.write(blob)
            for n in names:
                fh.write(self.tensors[n].astype(dtypes[n], copy=False).tobytes())

    @staticmethod
    def load(path):
        """Tensors in the dtypes a v2 header lists; a v1 file carries none
        and is all float64."""
        with open(path, "rb") as fh:
            (hlen,) = struct.unpack("<q", fh.read(8))
            header = json.loads(fh.read(hlen).decode())
            fmt = header.get("format")
            if fmt not in (CHECKPOINT_V1, CHECKPOINT_V2):
                raise ValueError(f"{path}: unknown checkpoint format")
            tensors = {}
            for entry in header["tensors"]:
                code = entry["dtype"] if fmt == CHECKPOINT_V2 else "<f8"
                if code not in ("<f4", "<f8"):
                    raise ValueError(f"{path}: tensor dtype {code!r} is not float")
                shape = tuple(entry["shape"])
                size = int(np.prod(shape)) if shape else 1
                dtype = np.dtype(code)
                data = np.frombuffer(fh.read(dtype.itemsize * size), dtype=dtype)
                tensors[entry["name"]] = data.reshape(shape).copy()
        return NetworkParams(header["arch"], tensors)


class ShapeMismatch(ValueError):
    pass


def _affine(params, name, x):
    w = params.tensors[name + ".W"]
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatch(
            f"stage {name}: input width {x.shape[1]} != expected {w.shape[0]}"
        )
    return x @ w + params.tensors[name + ".b"]


def _as_dtype(a, dtype):
    """`a` in `dtype`, copied only when it is not in it already."""
    if sp.issparse(a):
        return a.astype(dtype, copy=False)
    return np.asarray(a, dtype=dtype)


def forward(params: NetworkParams, x, adj, want_cache=False):
    """Row-stochastic (N, 2) float64 class probabilities for the (N, C)
    feature array `x`; `adj` is indexed as (A_S, A_L), so an AdjacencyPair
    or a plain pair of sparse or dense matrices. Every layer runs in the
    weights' dtype.
    """
    a_s, a_l = adj[0], adj[1]
    if a_s.shape[0] != x.shape[0]:
        raise ShapeMismatch(
            f"stage adjacency: {a_s.shape[0]} rows for {x.shape[0]} cells"
        )
    dt = params.dtype
    x, a_s, a_l = _as_dtype(x, dt), _as_dtype(a_s, dt), _as_dtype(a_l, dt)
    arch = params.arch
    cache = {"x": x, "a_s": a_s, "a_l": a_l, "acts": {}}
    acts = cache["acts"]

    def dense_relu(name, h):
        z = _affine(params, name, h)
        r = np.maximum(z, 0.0)
        acts[name] = (h, z)
        return r

    # FTM
    h = x
    for i in range(len(arch["ftm_encoder"])):
        h = dense_relu(f"ftm.enc{i}", h)
    cache["ftm_pool_arg"] = np.argmax(h, axis=0)
    g = h[cache["ftm_pool_arg"], np.arange(h.shape[1])][None, :]
    for i in range(len(arch["ftm_decoder"])):
        g = dense_relu(f"ftm.dec{i}", g)
    acts["ftm.out"] = (g, None)
    c = arch["n_channels"]
    t = _affine(params, "ftm.out", g).reshape(c, c)
    cache["t"] = t
    x1 = x @ t

    # MLP-1
    h = x1
    for i in range(len(arch["mlp1"])):
        h = dense_relu(f"mlp1.{i}", h)
    out1 = h

    # GLM-1
    pooled1 = a_s @ out1
    cache["glm1_in"] = np.concatenate([out1, pooled1], axis=1)
    g1 = dense_relu("glm1.fuse", cache["glm1_in"])

    # MLP-2
    h = g1
    for i in range(len(arch["mlp2"])):
        h = dense_relu(f"mlp2.{i}", h)
    out2 = h

    # GLM-2
    cache["glm2_in"] = np.concatenate([out2, a_s @ out2, a_l @ out2], axis=1)
    g2 = dense_relu("glm2.fuse", cache["glm2_in"])

    # global max pool, broadcast back
    cache["gmp_arg"] = np.argmax(g2, axis=0)
    global_feat = g2[cache["gmp_arg"], np.arange(g2.shape[1])]
    broadcast = np.broadcast_to(global_feat, (x.shape[0], g2.shape[1]))

    fused = np.concatenate([out1, g1, g2, broadcast], axis=1)
    cache["fusion_widths"] = (out1.shape[1], g1.shape[1], g2.shape[1], g2.shape[1])
    h = fused
    for i in range(len(arch["mlp3"])):
        h = dense_relu(f"mlp3.{i}", h)
    acts["clf"] = (h, None)
    # the (N, 2) softmax runs in float64 whatever the compute dtype
    logits = _affine(params, "clf", h).astype(np.float64)
    cache["logits"] = logits

    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    cache["probs"] = probs
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
        z = acts[name][1]
        return back_affine(name, dout * (z > 0.0))

    dh = back_affine("clf", dlogits)
    for i in reversed(range(len(arch["mlp3"]))):
        dh = back_dense_relu(f"mlp3.{i}", dh)

    w1, wg1, wg2, wglob = cache["fusion_widths"]
    dout1_a = dh[:, :w1]
    dg1_a = dh[:, w1 : w1 + wg1]
    dg2_a = dh[:, w1 + wg1 : w1 + wg1 + wg2]
    dbroadcast = dh[:, w1 + wg1 + wg2 :]

    # undo broadcast of the global max pool
    dglobal = dbroadcast.sum(axis=0)
    dg2 = dg2_a.copy()
    dg2[cache["gmp_arg"], np.arange(wg2)] += dglobal

    dglm2_in = back_dense_relu("glm2.fuse", dg2)
    m2 = cache["glm2_in"].shape[1] // 3
    a_s, a_l = cache["a_s"], cache["a_l"]
    dout2 = (
        dglm2_in[:, :m2]
        + a_s.T @ dglm2_in[:, m2 : 2 * m2]
        + a_l.T @ dglm2_in[:, 2 * m2 :]
    )

    dh = dout2
    for i in reversed(range(len(arch["mlp2"]))):
        dh = back_dense_relu(f"mlp2.{i}", dh)
    dg1 = dh + dg1_a

    dglm1_in = back_dense_relu("glm1.fuse", dg1)
    m1 = cache["glm1_in"].shape[1] // 2
    dout1 = dglm1_in[:, :m1] + a_s.T @ dglm1_in[:, m1:] + dout1_a

    dh = dout1
    for i in reversed(range(len(arch["mlp1"]))):
        dh = back_dense_relu(f"mlp1.{i}", dh)
    dx1 = dh

    # FTM application x1 = x @ t
    x = cache["x"]
    t = cache["t"]
    dt = x.T @ dx1
    dg = back_affine("ftm.out", dt.reshape(1, -1))
    for i in reversed(range(len(arch["ftm_decoder"]))):
        dg = back_dense_relu(f"ftm.dec{i}", dg)
    # undo FTM max pool
    last_enc = f"ftm.enc{len(arch['ftm_encoder']) - 1}"
    n_enc_out = acts[last_enc][1].shape[1]
    denc = np.zeros_like(acts[last_enc][1])
    denc[cache["ftm_pool_arg"], np.arange(n_enc_out)] = dg[0]
    dh = denc * (acts[last_enc][1] > 0.0)
    dh = back_affine(last_enc, dh)
    for i in reversed(range(len(arch["ftm_encoder"]) - 1)):
        dh = back_dense_relu(f"ftm.enc{i}", dh)
    return grads
