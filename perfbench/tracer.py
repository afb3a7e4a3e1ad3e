"""Spans around the calls into `marginline`'s layers, recorded from
outside the package.

`Tracer.install()` replaces public entry points by module attribute with
timing wrappers; `uninstall()` puts the originals back. Each call
becomes a span (name, start, end, CPU seconds, parent span) kept in
memory, plus counts taken from its arguments and result. A target that
no longer exists is listed as missing and does not stop the run; so is
a count whose hook no longer fits the call.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

STAGES = (
    "preprocess", "labels", "features", "train",
    "predict", "refine", "extract", "evaluate",
)
PER_SAMPLE_LAYERS = ("ftm.dec", "ftm.out")  # applied to the pooled row only


def _cpu():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def dense_flops(params, n_cells):
    """Forward multiply-adds x2 of every affine layer plus the feature
    transform, from the parameter shapes `architecture()` defines."""
    total = 0.0
    for name, w in params.tensors.items():
        if not name.endswith(".W"):
            continue
        rows = 1 if name.startswith(PER_SAMPLE_LAYERS) else n_cells
        total += 2.0 * rows * w.shape[0] * w.shape[1]
    c = params.arch["n_channels"]
    return total + 2.0 * n_cells * c * c


def _rows(x):
    return (x.matrix if hasattr(x, "matrix") else x).shape[0]


def _forward_counts(args, kwargs, result, before):
    return {
        "segnet.forward_calls": 1,
        "segnet.forward_flop": dense_flops(args[0], _rows(args[1])),
    }


def _backward_counts(args, kwargs, result, before):
    n = args[2].shape[0]
    # weight and input gradients: twice the forward matmuls
    return {
        "segnet.backward_calls": 1,
        "segnet.train_cells": n,
        "segnet.backward_flop": 2.0 * dense_flops(args[0], n),
    }


def _had_no_bvh(args, kwargs):
    # TriangleMesh caches its BVH in `_bvh`: only the first call builds
    return getattr(args[0], "_bvh", None) is None


def _bvh_counts(args, kwargs, result, built):
    return {"bvh.build_faces": args[0].n_faces if built else 0}


def _saved_bytes(args, kwargs, result, before):
    return {"meshio.bytes_written": os.path.getsize(args[1])}


def _adjacency_counts(args, kwargs, result, before):
    return {
        "features.adjacency_calls": 1,
        "features.a_small_nnz": result.a_small.nnz / result.a_small.shape[0],
        "features.a_large_nnz": result.a_large.nnz / result.a_large.shape[0],
    }


def _spline_counts(args, kwargs, result, before):
    return {
        "spline.fits": 1,
        "spline.n_coef": result.n_coef,
        "spline.residual_over_bound_max": result.residual / result.bound,
    }


def _graph_cut_counts(args, kwargs, result, before):
    probs = np.asarray(args[1])
    return {
        "refine.faces": args[0].n_faces,
        "refine.flipped_faces": int(np.sum(result != probs.argmax(axis=1))),
    }


# (span name, module, attribute path, count hook, pre-call hook)
TARGETS = [
    (f"pipeline.{s}", "marginline.pipeline", f"stage_{s}", None, None)
    for s in STAGES
] + [
    ("segnet.forward", "marginline.segnet.train", "forward", _forward_counts, None),
    ("segnet.forward", "marginline.pipeline", "forward", _forward_counts, None),
    ("segnet.backward", "marginline.segnet.train", "backward", _backward_counts, None),
    ("segnet.adam", "marginline.segnet.train", "Adam.step", None, None),
    ("bvh.build", "marginline.mesh", "TriangleMesh.bvh", _bvh_counts, _had_no_bvh),
    ("bvh.query", "marginline.bvh", "TriangleBVH.closest_points",
     lambda a, k, r, b: {"bvh.queries": len(a[1])}, None),
    ("margin.extract", "marginline.pipeline", "extract_margin_line", None, None),
    ("margin.boundary", "marginline.margin", "extract_boundary_faces",
     lambda a, k, r, b: {"margin.boundary_points": len(r[0])}, None),
    ("spline.fit", "marginline.margin", "fit_smoothing_spline", _spline_counts, None),
    ("refine.graph_cut", "marginline.pipeline", "graph_cut_refine",
     _graph_cut_counts, None),
    ("refine.cleanup", "marginline.pipeline", "cleanup_components",
     lambda a, k, r, b: {"refine.cleanup_removed_faces": int(np.sum(a[0] != r))},
     None),
    ("decimate", "marginline.pipeline", "decimate",
     lambda a, k, r, b: {"decimate.faces_in": a[0].n_faces,
                         "decimate.faces_out": r.n_faces}, None),
    ("preprocess.obb_register", "marginline.pipeline", "obb_register", None, None),
    ("labeling.label_die", "marginline.pipeline", "label_die", None, None),
    ("labeling.map_margin_faces", "marginline.labeling", "map_margin_faces",
     None, None),
    ("labeling.split_regions", "marginline.labeling", "split_regions", None, None),
    ("meshio.load", "marginline.pipeline", "load_mesh", None, None),
    ("meshio.load", "marginline.pipeline", "load_labeled_ply", None, None),
    ("meshio.save", "marginline.pipeline", "save_stl_binary", _saved_bytes, None),
    ("meshio.save", "marginline.pipeline", "save_ply", _saved_bytes, None),
    ("features.cache_save", "marginline.pipeline", "save_feature_cache", None, None),
    ("features.cache_load", "marginline.pipeline", "load_feature_cache", None, None),
    ("features.curvature", "marginline.pipeline", "compute_mean_curvature",
     None, None),
    ("features.adjacency", "marginline.pipeline", "build_adjacency",
     _adjacency_counts, None),
]

MAX_COUNTS = {"spline.residual_over_bound_max"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.missing = []
        self.hook_errors = {}
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            yield record
        finally:
            record["start"], record["end"] = t0, time.perf_counter()
            record["cpu"] = _cpu() - cpu0
            self._stack.pop()

    def _wrap(self, name, fn, hook, pre):
        tracer = self

        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
            if hook is not None:
                try:
                    counts = hook(args, kwargs, result, before)
                except Exception as exc:  # the call's shape changed
                    tracer.hook_errors[name] = repr(exc)
                else:
                    record["counts"] = counts
                    tracer._add(counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def _add(self, counts):
        for key, value in counts.items():
            if key in MAX_COUNTS:
                self.counts[key] = max(self.counts.get(key, value), value)
            else:
                self.counts[key] += value

    def install(self):
        for name, module, attr, hook, pre in TARGETS:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                fn = vars(owner)[leaf]
            except (ImportError, AttributeError, KeyError):
                if f"{module}.{attr}" not in self.missing:
                    self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(name, fn, hook, pre))
            self._undo.append((owner, leaf, fn))

    def uninstall(self):
        while self._undo:
            owner, leaf, fn = self._undo.pop()
            setattr(owner, leaf, fn)

    def totals(self):
        """Summed wall and CPU seconds and call counts per span name."""
        wall, cpu, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for s in self.spans:
            wall[s["name"]] += s["end"] - s["start"]
            cpu[s["name"]] += s["cpu"]
            calls[s["name"]] += 1
        return wall, cpu, calls

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(tracer: Tracer, passes):
    """Per-layer metrics, per traced pass, as name -> (value, unit). A
    metric whose span or count source is missing is left out."""
    wall, cpu, calls = tracer.totals()
    counts = tracer.counts
    present = {name for name, module, attr, _, _ in TARGETS
               if f"{module}.{attr}" not in tracer.missing}
    broken = set(tracer.hook_errors)
    out = {}

    def put(name, value, unit, needs):
        # a time needs its span; a count or rate also needs a working hook
        counted = unit != "s"
        if all(n in present and not (counted and n in broken) for n in needs):
            out[name] = (float(value), unit)

    def per_pass(x):
        return x / passes

    def rate(num, den):
        return num / den if den > 0 else 0.0

    for s in STAGES:
        put(f"pipeline.{s}_s", per_pass(wall[f"pipeline.{s}"]), "s", [f"pipeline.{s}"])
        put(f"pipeline.{s}_cpu_s", per_pass(cpu[f"pipeline.{s}"]), "s",
            [f"pipeline.{s}"])

    seg = ["segnet.forward", "segnet.backward"]
    train_s = wall["segnet.forward"] + wall["segnet.backward"] + wall["segnet.adam"]
    flop = counts["segnet.forward_flop"] + counts["segnet.backward_flop"]
    put("segnet.forward_s", per_pass(wall["segnet.forward"]), "s", seg[:1])
    put("segnet.backward_s", per_pass(wall["segnet.backward"]), "s", seg[1:])
    put("segnet.forward_calls", per_pass(calls["segnet.forward"]), "count", seg[:1])
    put("segnet.backward_calls", per_pass(calls["segnet.backward"]), "count", seg[1:])
    put("segnet.adam_s", per_pass(wall["segnet.adam"]), "s", ["segnet.adam"])
    put("segnet.train_cells_per_s",
        rate(counts["segnet.train_cells"], train_s) if calls["segnet.backward"] else 0.0,
        "1/s", seg + ["segnet.adam"])
    put("segnet.gflop", per_pass(flop) / 1e9, "gflop", seg)
    put("segnet.gflop_per_s",
        rate(flop, wall["segnet.forward"] + wall["segnet.backward"]) / 1e9,
        "gflop/s", seg)

    put("bvh.build_s", per_pass(wall["bvh.build"]), "s", ["bvh.build"])
    put("bvh.build_faces", per_pass(counts["bvh.build_faces"]), "count", ["bvh.build"])
    put("bvh.query_s", per_pass(wall["bvh.query"]), "s", ["bvh.query"])
    put("bvh.queries", per_pass(counts["bvh.queries"]), "count", ["bvh.query"])
    put("bvh.queries_per_s", rate(counts["bvh.queries"], wall["bvh.query"]), "1/s",
        ["bvh.query"])

    put("margin.extract_s", per_pass(wall["margin.extract"]), "s", ["margin.extract"])
    put("margin.boundary_s", per_pass(wall["margin.boundary"]), "s",
        ["margin.boundary"])
    put("margin.boundary_points", per_pass(counts["margin.boundary_points"]), "count",
        ["margin.boundary"])
    put("spline.fit_s", per_pass(wall["spline.fit"]), "s", ["spline.fit"])
    put("spline.n_coef_mean", rate(counts["spline.n_coef"], counts["spline.fits"]),
        "count", ["spline.fit"])
    put("spline.residual_over_bound_max",
        counts.get("spline.residual_over_bound_max", 0.0), "ratio", ["spline.fit"])

    put("refine.graph_cut_s", per_pass(wall["refine.graph_cut"]), "s",
        ["refine.graph_cut"])
    put("refine.faces", per_pass(counts["refine.faces"]), "count", ["refine.graph_cut"])
    put("refine.flipped_faces", per_pass(counts["refine.flipped_faces"]), "count",
        ["refine.graph_cut"])
    put("refine.cleanup_s", per_pass(wall["refine.cleanup"]), "s", ["refine.cleanup"])
    put("refine.cleanup_removed_faces",
        per_pass(counts["refine.cleanup_removed_faces"]), "count", ["refine.cleanup"])

    put("decimate.s", per_pass(wall["decimate"]), "s", ["decimate"])
    put("decimate.faces_in", per_pass(counts["decimate.faces_in"]), "count",
        ["decimate"])
    put("decimate.faces_out", per_pass(counts["decimate.faces_out"]), "count",
        ["decimate"])
    put("preprocess.obb_register_s", per_pass(wall["preprocess.obb_register"]), "s",
        ["preprocess.obb_register"])
    put("labeling.label_die_s", per_pass(wall["labeling.label_die"]), "s",
        ["labeling.label_die"])
    put("labeling.map_margin_faces_s", per_pass(wall["labeling.map_margin_faces"]),
        "s", ["labeling.map_margin_faces"])
    put("labeling.split_regions_s", per_pass(wall["labeling.split_regions"]), "s",
        ["labeling.split_regions"])

    put("meshio.load_s", per_pass(wall["meshio.load"]), "s", ["meshio.load"])
    put("meshio.save_s", per_pass(wall["meshio.save"]), "s", ["meshio.save"])
    put("meshio.bytes_written", per_pass(counts["meshio.bytes_written"]), "bytes",
        ["meshio.save"])
    put("features.cache_save_s", per_pass(wall["features.cache_save"]), "s",
        ["features.cache_save"])
    put("features.cache_load_s", per_pass(wall["features.cache_load"]), "s",
        ["features.cache_load"])
    put("features.curvature_s", per_pass(wall["features.curvature"]), "s",
        ["features.curvature"])
    put("features.adjacency_s", per_pass(wall["features.adjacency"]), "s",
        ["features.adjacency"])
    n_adj = counts["features.adjacency_calls"]
    put("features.a_small_nnz_per_row", rate(counts["features.a_small_nnz"], n_adj),
        "nnz/row", ["features.adjacency"])
    put("features.a_large_nnz_per_row", rate(counts["features.a_large_nnz"], n_adj),
        "nnz/row", ["features.adjacency"])
    return out
