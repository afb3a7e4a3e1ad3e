"""Per-cell input features for the segmentation network: coordinates,
normals, discrete mean curvature, and the two row-normalized proximity
matrices A_S / A_L."""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .mesh import TriangleMesh

DEFAULT_R_SMALL = 0.1
DEFAULT_R_LARGE = 0.2


def _cotangents(mesh):
    """Per-face cotangents of the angles at vertices (0, 1, 2)."""
    tri = mesh.vertices[mesh.faces]
    cots = np.empty((len(tri), 3))
    for i in range(3):
        a = tri[:, (i + 1) % 3] - tri[:, i]
        b = tri[:, (i + 2) % 3] - tri[:, i]
        dot = np.einsum("ij,ij->i", a, b)
        crs = np.linalg.norm(np.cross(a, b), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cots[:, i] = np.where(crs > 1e-30, dot / np.where(crs > 1e-30, crs, 1.0), 0.0)
    return cots


def _mixed_voronoi_areas(mesh, cots):
    """Meyer mixed areas: Voronoi for non-obtuse triangles, area/2 at the
    obtuse corner and area/4 elsewhere otherwise."""
    f = mesh.faces
    nv = mesh.n_vertices
    areas = mesh.face_areas
    el = mesh.edge_lengths  # columns: |v1-v0|, |v2-v1|, |v0-v2|
    # squared length of the edge opposite each corner
    opp2 = np.stack([el[:, 1] ** 2, el[:, 2] ** 2, el[:, 0] ** 2], axis=1)
    obtuse = cots < 0.0
    any_obtuse = obtuse.any(axis=1)
    amix = np.zeros((len(f), 3))
    # Voronoi: A_corner = 1/8 * sum over the two adjacent edges of
    # |edge|^2 * cot(opposite angle)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        amix[:, i] = (opp2[:, j] * cots[:, j] + opp2[:, k] * cots[:, k]) / 8.0
    for i in range(3):
        amix[any_obtuse, i] = areas[any_obtuse] * np.where(
            obtuse[any_obtuse, i], 0.5, 0.25
        )
    vertex_area = np.zeros(nv)
    for i in range(3):
        np.add.at(vertex_area, f[:, i], amix[:, i])
    return vertex_area


def vertex_normals(mesh):
    n = np.zeros((mesh.n_vertices, 3))
    weighted = mesh.face_normals * mesh.face_areas[:, None]
    for i in range(3):
        np.add.at(n, mesh.faces[:, i], weighted)
    norm = np.linalg.norm(n, axis=1, keepdims=True)
    return n / np.where(norm > 0, norm, 1.0)


def _vertex_mean_curvature(mesh: TriangleMesh):
    """Unsmoothed per-vertex mean curvature: cotangent Laplace-Beltrami
    over mixed Voronoi areas, projected on the vertex normal."""
    cots = _cotangents(mesh)
    if np.any(mesh.face_areas <= 1e-30):
        warnings.warn("zero-area triangle(s): contributing zero weight")
    f = mesh.faces
    v = mesh.vertices
    K = np.zeros((mesh.n_vertices, 3))
    # angle at corner i weights the opposite edge (j, k)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        w = cots[:, i][:, None]
        d = v[f[:, j]] - v[f[:, k]]
        np.add.at(K, f[:, j], w * d)
        np.add.at(K, f[:, k], -w * d)
    area = _mixed_voronoi_areas(mesh, cots)
    safe = np.where(area > 1e-30, area, 1.0)
    K /= 2.0 * safe[:, None]
    return 0.5 * np.einsum("ij,ij->i", K, vertex_normals(mesh))


def _radius_average(points, values, radius):
    """Mean of `values` over the points within `radius` of each point,
    the point itself included: sums and counts over the point pairs
    within the radius, taken with `np.bincount`."""
    n = len(points)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    sums = values + np.bincount(i, values[j], n) + np.bincount(j, values[i], n)
    counts = 1 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    return sums / counts


def compute_mean_curvature(mesh: TriangleMesh, smoothing_radius=None):
    """Per-vertex discrete mean curvature in 1/mm, convex positive.

    Cotangent Laplace-Beltrami with mixed Voronoi areas, then averaged
    over all vertices within `smoothing_radius` (default: the maximum
    edge length of the mesh), the vertex itself included. Boundary
    vertices use the one-sided sums from their incident wedges.

    The average sums over vertex pairs, so it differs from a per-vertex
    mean over the same neighbours only in summation order (a few ulp).
    """
    if smoothing_radius is None:
        smoothing_radius = float(mesh.edge_lengths.max())
    return _radius_average(
        mesh.vertices, _vertex_mean_curvature(mesh), smoothing_radius
    )


N_CHANNELS = 18


@dataclass
class CellFeatures:
    """N x 18 per-face feature matrix, channels in MeshSegNet's order
    plus curvature: 9 vertex coordinates, 3 barycenter, 3 unit normal,
    3 vertex curvatures."""

    matrix: np.ndarray


def assemble_features(mesh: TriangleMesh, vertex_curvature) -> CellFeatures:
    """Feature rows ordered by face index; `vertex_curvature` holds one
    precomputed value per vertex."""
    return CellFeatures(
        np.concatenate(
            [
                mesh.vertices[mesh.faces].reshape(mesh.n_faces, 9),
                mesh.barycenters,
                mesh.face_normals,
                np.asarray(vertex_curvature)[mesh.faces],
            ],
            axis=1,
        )
    )


class AdjacencyPair(NamedTuple):
    """Row-stochastic face-proximity matrices at two radii (with
    self-loops); used for the network's symmetric average pooling."""

    a_small: sp.csr_matrix
    a_large: sp.csr_matrix
    r_small: float
    r_large: float


def _radius_matrix(barycenters, radius):
    n = len(barycenters)
    tree = cKDTree(barycenters)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n)])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(n)])
    vals = np.ones(len(rows))
    m = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    row_sums = np.asarray(m.sum(axis=1)).ravel()
    inv = sp.diags(1.0 / row_sums)
    return (inv @ m).tocsr()


def build_adjacency(
    barycenters, r_small=DEFAULT_R_SMALL, r_large=DEFAULT_R_LARGE
) -> AdjacencyPair:
    if not (0 < r_small <= r_large):
        raise ValueError("radii must satisfy 0 < r_small <= r_large")
    barycenters = np.asarray(barycenters, dtype=np.float64)
    return AdjacencyPair(
        _radius_matrix(barycenters, r_small),
        _radius_matrix(barycenters, r_large),
        float(r_small),
        float(r_large),
    )


# -- train-time cache -----------------------------------------------------

_MAGIC = b"MLFC\x01"
# the header's channel-group bits: vertex coords, barycenter, normal,
# curvature, all present in the one layout `assemble_features` builds
_ALL_GROUPS = 0b1111


def _write_sparse(fh, m):
    coo = m.tocoo()
    fh.write(struct.pack("<q", coo.nnz))
    fh.write(coo.row.astype("<i8").tobytes())
    fh.write(coo.col.astype("<i8").tobytes())
    fh.write(coo.data.astype("<f8").tobytes())


def _read_sparse(fh, n):
    (nnz,) = struct.unpack("<q", fh.read(8))
    rows = np.frombuffer(fh.read(8 * nnz), dtype="<i8")
    cols = np.frombuffer(fh.read(8 * nnz), dtype="<i8")
    vals = np.frombuffer(fh.read(8 * nnz), dtype="<f8")
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def save_feature_cache(path, features: CellFeatures, adj: AdjacencyPair, labels=None):
    """Binary container: dims header, row-major float64 features, sparse
    triplets for A_S and A_L, optional int64 labels."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        n, c = features.matrix.shape
        has_labels = 1 if labels is not None else 0
        fh.write(struct.pack("<qqqq", n, c, _ALL_GROUPS, has_labels))
        fh.write(struct.pack("<dd", adj.r_small, adj.r_large))
        fh.write(np.ascontiguousarray(features.matrix, dtype="<f8").tobytes())
        _write_sparse(fh, adj.a_small)
        _write_sparse(fh, adj.a_large)
        if labels is not None:
            fh.write(np.ascontiguousarray(labels, dtype="<i8").tobytes())


def load_feature_cache(path):
    """Returns (CellFeatures, AdjacencyPair, labels-or-None)."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not a feature cache file")
        n, c, group_bits, has_labels = struct.unpack("<qqqq", fh.read(32))
        if group_bits != _ALL_GROUPS or c != N_CHANNELS:
            raise ValueError(
                f"{path}: channel groups {group_bits:#b} and {c} channels are "
                f"not the {N_CHANNELS}-channel layout"
            )
        r_s, r_l = struct.unpack("<dd", fh.read(16))
        mat = np.frombuffer(fh.read(8 * n * c), dtype="<f8").reshape(n, c)
        a_s = _read_sparse(fh, n)
        a_l = _read_sparse(fh, n)
        labels = None
        if has_labels:
            labels = np.frombuffer(fh.read(8 * n), dtype="<i8")
    return (
        CellFeatures(mat.copy()),
        AdjacencyPair(a_s, a_l, r_s, r_l),
        None if labels is None else labels.copy(),
    )
