"""Per-cell input features for the segmentation network: coordinates,
normals, discrete mean curvature, and the two row-normalized proximity
matrices A_S / A_L."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .archive import load_archive, save_archive
from .mesh import TriangleMesh

# MeshSegNet's pooling radii, in normalized coordinates
R_SMALL = 0.1
R_LARGE = 0.2


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


def compute_mean_curvature(mesh: TriangleMesh):
    """Per-vertex discrete mean curvature in 1/mm, convex positive.

    Cotangent Laplace-Beltrami with mixed Voronoi areas, then averaged
    over all vertices within the maximum edge length of the mesh, the
    vertex itself included: the product with the row-normalized
    `_radius_matrix` of the vertices. Boundary vertices use the
    one-sided sums from their incident wedges.
    """
    values = _vertex_mean_curvature(mesh)  # its temporaries go before the matrix's
    return _radius_matrix(mesh.vertices, float(mesh.edge_lengths.max())) @ values


N_CHANNELS = 18


def assemble_features(mesh: TriangleMesh, vertex_curvature):
    """(N, 18) per-face feature rows ordered by face index, channels in
    MeshSegNet's order plus curvature: 9 vertex coordinates, 3
    barycenter, 3 unit normal, 3 vertex curvatures. `vertex_curvature`
    holds one precomputed value per vertex."""
    return np.concatenate(
        [
            mesh.vertices[mesh.faces].reshape(mesh.n_faces, 9),
            mesh.barycenters,
            mesh.face_normals,
            np.asarray(vertex_curvature)[mesh.faces],
        ],
        axis=1,
    )


class AdjacencyPair(NamedTuple):
    """Row-stochastic face-proximity matrices at two radii (with
    self-loops); used for the network's symmetric average pooling."""

    a_small: sp.csr_matrix
    a_large: sp.csr_matrix


def _radius_matrix(points, radius):
    """The neighbour-mean operator of `points` at `radius` (A_S and A_L
    over barycenters, the curvature smoothing over vertices) straight in
    canonical CSR: row i holds 1/count_i at each point within `radius`
    of point i (itself included), count_i being their number, in
    ascending column order: entries are sorted as the codes row * n + col."""
    n = len(points)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    codes = np.empty(2 * len(pairs) + n, dtype=np.int64)
    # each pair in both directions, then the self-loops
    for part, (i, j) in zip(np.split(codes[:-n], 2), ((0, 1), (1, 0))):
        np.multiply(pairs[:, i], n, out=part)
        part += pairs[:, j]
    del pairs, part
    codes[-n:] = np.arange(n) * (n + 1)
    codes.sort()
    indptr = np.searchsorted(codes, np.arange(n + 1) * n)
    np.remainder(codes, n, out=codes)  # now the column indices
    indices = codes.astype(np.int32)  # csr_matrix's dtype; codes go before data
    del codes
    counts = np.diff(indptr)
    data = np.repeat(1.0 / counts, counts)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def build_adjacency(barycenters) -> AdjacencyPair:
    """A_S and A_L of the face barycenters, at R_SMALL and R_LARGE."""
    barycenters = np.asarray(barycenters, dtype=np.float64)
    return AdjacencyPair(
        _radius_matrix(barycenters, R_SMALL), _radius_matrix(barycenters, R_LARGE)
    )


# -- train-time cache -----------------------------------------------------

_CSR_PARTS = ("data", "indices", "indptr")


def save_feature_cache(path, features, adj: AdjacencyPair, labels=None):
    """An archive (see `marginline.archive`) of the (N, 18) features and
    of A_S and A_L as CSR arrays, each in the dtype it is given in, plus
    int64 labels when known."""
    arrays = {"features": features}
    for name in ("a_small", "a_large"):
        m = sp.csr_matrix(getattr(adj, name))
        arrays.update((f"{name}.{part}", getattr(m, part)) for part in _CSR_PARTS)
    if labels is not None:
        arrays["labels"] = np.asarray(labels, dtype=np.int64)
    save_archive(path, arrays)


@dataclass
class CellFeatures:
    """A loaded cache's (N, 18) features as `.matrix`: the one place the
    array is wrapped, since `load_feature_cache` returns it so."""

    matrix: np.ndarray


def _parse_feature_cache(members):
    matrix = members["features"]
    if matrix.ndim != 2 or matrix.shape[1] != N_CHANNELS:
        raise ValueError(
            f"features of shape {matrix.shape} are not the "
            f"{N_CHANNELS}-channel layout"
        )
    n = len(matrix)
    adj = []
    for name in ("a_small", "a_large"):
        m = sp.csr_matrix(
            tuple(members[f"{name}.{part}"] for part in _CSR_PARTS), shape=(n, n)
        )
        m.check_format(full_check=True)
        # sorted columns, so each row's pooling sum has one fixed order
        m.sum_duplicates()
        adj.append(m)
    labels = members.get("labels")
    if labels is not None and labels.shape != (n,):
        raise ValueError(f"{labels.shape} labels for {n} cells")
    return CellFeatures(matrix), AdjacencyPair(*adj), labels


def load_feature_cache(path):
    """Returns (CellFeatures, AdjacencyPair, labels-or-None)."""
    return load_archive(path, _parse_feature_cache, "feature cache")
