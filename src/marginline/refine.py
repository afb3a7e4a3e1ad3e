"""Graph-cut boundary refinement of a predicted labeling.

The energy is unary -log probability per face plus, for every adjacent
face pair with differing labels, an edge weight favoring cuts along
creases: (shared edge length / mean edge length) * exp(-theta / sigma)
with theta the exterior dihedral angle magnitude. Binary labels make the
exact global minimum reachable with one s-t min-cut.

The cut has float capacities, but scipy's max-flow (Dinic) takes only
integers, so the flow is found in phases on the float residual graph.
`bound` is an upper bound on the flow still to come: at first the smaller
of the capacity out of the source and into the sink, then the float
residual across the previous phase's integer min cut. Each phase clips
the residuals to `bound`, scales them by a power of two so the largest is
at most 2**29, floors them to int32 and runs Dinic. The integer flow fits
within the float capacities, so subtracting it (unscaled) keeps the float
flow feasible. 2**29 leaves headroom for int32: a capacity plus the flow
its reverse arc may return stays below 2**31. A phase shrinks `bound` by
about 2**29 over the number of cut arcs (three phases on a 10k-face die).
The loop stops when the source no longer reaches the sink over residuals
above 1e-12; what it still reaches is label 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .errors import EmptyRegionError
from .mesh import TriangleMesh, connected_components

_TOL = 1e-12  # a residual at or below this counts as saturated
_HEADROOM = 2.0**29  # largest integer capacity of a phase
_MAX_PHASES = 64


@dataclass
class GraphCutConfig:
    smoothness: float = 2.0  # lambda
    dihedral_sigma: float = 0.5  # radians
    # probabilities are clipped here before the -log unary
    prob_floor: ClassVar[float] = 1e-6

    def validate(self):
        if not self.smoothness >= 0:  # NaN fails these tests too
            raise ValueError("smoothness must be >= 0")
        if not self.dihedral_sigma > 0:
            raise ValueError("dihedral_sigma must be > 0")


def _pairwise_terms(mesh: TriangleMesh, config: GraphCutConfig):
    """(face_a, face_b, weight) for each interior edge."""
    ef, ev = mesh.adjacency().interior_edges()
    lengths = np.linalg.norm(
        mesh.vertices[ev[:, 0]] - mesh.vertices[ev[:, 1]], axis=1
    )
    mean_len = lengths.mean() if len(lengths) else 1.0
    normals = mesh.face_normals
    cos = np.einsum("ij,ij->i", normals[ef[:, 0]], normals[ef[:, 1]])
    theta = np.arccos(np.clip(cos, -1.0, 1.0))
    weights = (lengths / mean_len) * np.exp(-theta / config.dihedral_sigma)
    return ef[:, 0], ef[:, 1], weights


def cut_energy(mesh: TriangleMesh, probs, labels, config=None):
    """Total energy of a labeling under the refinement objective."""
    config = config or GraphCutConfig()
    labels = np.asarray(labels, dtype=np.int64)
    p = np.clip(np.asarray(probs), config.prob_floor, None)
    unary = -np.log(p[np.arange(len(labels)), labels]).sum()
    fa, fb, w = _pairwise_terms(mesh, config)
    cut = float(w[labels[fa] != labels[fb]].sum())
    return float(unary) + config.smoothness * cut


def graph_cut_refine(mesh: TriangleMesh, probs, config: GraphCutConfig = None):
    """Exact global minimizer of the cut energy via s-t max-flow."""
    config = config or GraphCutConfig()
    config.validate()
    probs = np.asarray(probs, dtype=np.float64)
    n = mesh.n_faces
    if probs.shape != (n, 2):
        raise ValueError(f"expected ({n}, 2) probabilities, got {probs.shape}")
    unary = -np.log(np.clip(probs, config.prob_floor, None))
    fa, fb, w = _pairwise_terms(mesh, config)
    labels, _, _ = _min_cut(unary, fa, fb, config.smoothness * w)
    return labels


def _reached_from(source, rows, cols, keep, n_nodes):
    """Mask of the nodes reachable from `source` over the arcs `keep`."""
    graph = csr_matrix(
        (np.ones(int(keep.sum()), dtype=np.int8), (rows[keep], cols[keep])),
        shape=(n_nodes, n_nodes),
    )
    reached = np.zeros(n_nodes, dtype=bool)
    reached[breadth_first_order(graph, source, return_predecessors=False)] = True
    return reached


def _min_cut(unary, fa, fb, pair_caps):
    """Minimal minimum s-t cut of the refinement graph in float capacities.

    Nodes: faces 0..n-1, source n, sink n+1. Returns (labels, capacity,
    flow): label 1 is the source side, and capacity and flow are (n+2,
    n+2) CSR matrices on one structure, flow antisymmetric."""
    n = len(unary)
    s, t, n_nodes = n, n + 1, n + 2
    faces = np.arange(n)
    tails = np.concatenate([np.full(n, s), faces, fa, fb])
    heads = np.concatenate([faces, np.full(n, t), fb, fa])
    arc_caps = np.concatenate([unary[:, 0], unary[:, 1], pair_caps, pair_caps])
    # every arc has its reverse in the structure, with zero capacity if
    # the graph has none; a face pair sharing two edges pays both weights
    capacity = coo_matrix(
        (
            np.concatenate([arc_caps, np.zeros_like(arc_caps)]),
            (np.concatenate([tails, heads]), np.concatenate([heads, tails])),
        ),
        shape=(n_nodes, n_nodes),
    ).tocsr()
    capacity.sum_duplicates()
    indptr, indices = capacity.indptr, capacity.indices
    rows = np.repeat(np.arange(n_nodes), np.diff(indptr))
    keys = rows * n_nodes + indices
    residual = capacity.data.copy()
    bound = min(unary[:, 0].sum(), unary[:, 1].sum())
    for _ in range(_MAX_PHASES):
        source_side = _reached_from(s, rows, indices, residual > _TOL, n_nodes)
        if not source_side[t]:
            break
        scale = 2.0 ** np.floor(np.log2(_HEADROOM / bound))
        int_caps = np.floor(np.minimum(residual, bound) * scale).astype(np.int32)
        # sparse matrices may share index arrays with their inputs, and
        # eliminate_zeros() rewrites them in place; `keys` needs them fixed
        phase = maximum_flow(
            csr_matrix(
                (int_caps, indices.copy(), indptr.copy()), shape=capacity.shape
            ),
            s,
            t,
            method="dinic",
        ).flow.tocoo()
        slots = np.searchsorted(keys, phase.row.astype(np.int64) * n_nodes + phase.col)
        int_flow = np.zeros(len(keys), dtype=np.int64)
        int_flow[slots] = phase.data
        residual -= int_flow / scale
        # the integer run's min cut bounds the flow still to come
        cut_side = _reached_from(s, rows, indices, int_caps > int_flow, n_nodes)
        bound = residual[cut_side[rows] & ~cut_side[indices]].sum()
    else:
        raise RuntimeError(f"max-flow did not converge in {_MAX_PHASES} phases")
    flow = csr_matrix(
        (capacity.data - residual, indices.copy(), indptr.copy()),
        shape=capacity.shape,
    )
    return source_side[:n].astype(np.int64), capacity, flow


def cleanup_components(labels, adjacency):
    """Keep the largest edge-connected label-1 component; flip islands."""
    labels = np.asarray(labels, dtype=np.int64)
    ones = np.nonzero(labels == 1)[0]
    if len(ones) == 0:
        raise EmptyRegionError("no label-1 faces to keep")
    out = np.zeros_like(labels)
    out[connected_components(ones, adjacency)[0]] = 1
    return out
