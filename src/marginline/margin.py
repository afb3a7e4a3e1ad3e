"""Margin line generation: the graph-cut problem that cuts a decimated
die's label boundary again on the full-resolution scan within a narrow
band, a periodic smoothing spline through the scan's label-boundary
vertices, and the sampled surface loop."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .errors import BoundaryExtractionError, read_json
from .mesh import (
    TriangleMesh,
    closed_loops,
    compact_mesh,
    connected_components,
    extract_boundary_loops,
    nearest_face_labels,
)
from .spline import fit_smoothing_spline

# the band's half-width, in mean edge lengths of the decimated die, and
# the points sampled along each of its label-boundary edges
BAND_EDGES = 2.0
EDGE_SAMPLES = 5


def _label_boundary_edges(mesh: TriangleMesh, labels):
    """Vertex pairs of the mesh edges whose two faces carry different
    labels."""
    ef, ev = mesh.adjacency().interior_edges()
    return ev[labels[ef[:, 0]] != labels[ef[:, 1]]]


def extract_boundary_faces(mesh: TriangleMesh, labels):
    """Vertices of the longest closed loop of edges between label-1 and
    label-0 faces (`labels` one int per face of `mesh`), in loop order.

    Returns (points (k, 3), vertex ids (k,))."""
    ev = _label_boundary_edges(mesh, labels)
    if len(ev) == 0:
        raise BoundaryExtractionError("labels are uniform: no label boundary")
    loops = closed_loops(mesh, ev)
    if not loops:
        # the labels change an even number of times around an interior
        # vertex, so only the mesh boundary can end a chain
        ends = np.flatnonzero(np.bincount(ev.ravel()) % 2)
        raise BoundaryExtractionError(
            f"{len(ev)} label-boundary edges form no closed loop: the chain "
            f"is open, and its odd-degree ends (vertices {ends.tolist()}) lie "
            "on the mesh boundary, which the label-1 region reaches"
        )
    verts = loops[0][0]
    return mesh.vertices[verts], verts


def band_problem(mesh: TriangleMesh, labels, die: TriangleMesh):
    """The label boundary of `mesh` (a decimation of `die`, `labels` one
    int per face of `mesh`) as a graph-cut problem on `die`.

    The band is the faces of `die` whose barycenter lies within
    BAND_EDGES mean edges of `mesh` from a point on that boundary. Each
    connected component of the faces outside it takes one label: that of
    the barycenter of `mesh` nearest its lowest face id. The band's unary
    is flat, except on faces that share an edge with an outside face,
    which are held to that face's label, and on faces with an edge on
    `die`'s base (its longest boundary loop), which are held to 0: the
    open base is background, so the cut closes above it. Returns
    (labels of `die`'s faces, -1 in the band; the band's face ids,
    ascending; the band's submesh; its (len(ids), 2) unary
    probabilities)."""
    ev = _label_boundary_edges(mesh, labels)
    if len(ev) == 0:
        raise BoundaryExtractionError("labels are uniform: no label boundary")
    a, b = mesh.vertices[ev[:, 0]], mesh.vertices[ev[:, 1]]
    t = np.linspace(0.0, 1.0, EDGE_SAMPLES)[:, None, None]
    samples = (a + t * (b - a)).reshape(-1, 3)
    edges = mesh.adjacency().edge_vertices
    mean_edge = np.linalg.norm(
        mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1
    ).mean()
    dist, _ = cKDTree(samples).query(
        die.barycenters, distance_upper_bound=BAND_EDGES * mean_edge
    )
    band = np.isfinite(dist)
    out = np.full(die.n_faces, -1, dtype=np.int64)
    comps = connected_components(np.flatnonzero(~band), die.adjacency())
    firsts = die.barycenters[[comp[0] for comp in comps]]
    for comp, label in zip(comps, nearest_face_labels(mesh, labels, firsts)):
        out[comp] = label

    ids = np.flatnonzero(band)
    ef, _ = die.adjacency().interior_edges()
    ef = ef[band[ef[:, 0]] != band[ef[:, 1]]]
    inside = band[ef[:, 0]]
    rim = np.where(inside, ef[:, 0], ef[:, 1])
    outer = np.where(inside, ef[:, 1], ef[:, 0])
    unary = np.full((len(ids), 2), 0.5)
    unary[np.searchsorted(ids, rim)] = np.eye(2)[out[outer]]
    loops = extract_boundary_loops(die)
    if loops:
        on_base = np.zeros(die.n_faces, dtype=bool)
        on_base[die.adjacency().boundary_edges()[1][loops[0][1]]] = True
        unary[on_base[ids]] = (1.0, 0.0)
    return out, ids, compact_mesh(die.vertices, die.faces[ids]), unary


def save_margin_json(path, points, case_id):
    """Write the closed margin loop `points` ((n, 3) mm, in loop order)
    of case `case_id` as compact JSON."""
    payload = {
        "case_id": case_id,
        "n": len(points),
        "points": np.asarray(points, dtype=np.float64).tolist(),
        "closed": True,
    }
    Path(path).write_text(json.dumps(payload, separators=(",", ":")))


def save_margin_obj(path, points):
    """Write the closed margin loop `points` as OBJ vertices and one
    polyline that returns to its first vertex."""
    n = len(points)
    flat = np.asarray(points, dtype=np.float64).ravel().tolist()
    loop = " ".join(map(str, range(1, n + 1)))
    body = ("v %.9g %.9g %.9g\n" * n) % tuple(flat)
    Path(path).write_text(body + f"l {loop} 1\n")


def load_margin_json(path):
    """(points, case_id) of the margin loop `save_margin_json` wrote; a
    file without `points` raises a MarginlineError naming it."""
    data = read_json(path, "points")
    return np.asarray(data["points"], dtype=np.float64), data.get("case_id", "")


def _self_intersects_2d(points):
    """Cheap planarized self-intersection screen used only for warnings:
    tests the closed polygon through at most 200 evenly subsampled loop
    points (its chords) for crossings."""
    # project on the two largest-variance axes
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    flat = centered @ vt[:2].T
    p = flat[:: -(-len(flat) // 200)]  # step ceil(n / 200): <= 200 chords
    r = np.roll(p, -1, axis=0) - p
    m = len(p)
    i, j = np.arange(m)[:, None], np.arange(m)[None, :]
    # neighbouring chords share an endpoint
    skip = (np.abs(i - j) <= 1) | ((i == 0) & (j == m - 1)) | ((j == 0) & (i == m - 1))
    denom = r[:, None, 0] * r[None, :, 1] - r[:, None, 1] * r[None, :, 0]
    skip |= np.abs(denom) < 1e-30
    denom = np.where(skip, 1.0, denom)
    qp = p[None, :, :] - p[:, None, :]
    t = (qp[..., 0] * r[None, :, 1] - qp[..., 1] * r[None, :, 0]) / denom
    u = (qp[..., 0] * r[:, None, 1] - qp[..., 1] * r[:, None, 0]) / denom
    return bool(np.any(~skip & (0 < t) & (t < 1) & (0 < u) & (u < 1)))


def extract_margin_line(die: TriangleMesh, labels, n_samples, case_id=""):
    """The margin of `die` under `labels` (one int per face of `die`).

    A periodic smoothing spline is fitted to the vertices of the longest
    label-boundary loop, and its n_samples parameter-uniform samples are
    projected onto the faces that touch that loop. Returns those
    (n_samples, 3) points in loop order; `case_id` only names the case
    in a warning."""
    loop, verts = extract_boundary_faces(die, labels)
    spline = fit_smoothing_spline(loop)
    on_loop = np.zeros(len(die.vertices), dtype=bool)
    on_loop[verts] = True
    ring = compact_mesh(die.vertices, die.faces[on_loop[die.faces].any(axis=1)])
    on_surface, _, _ = ring.bvh().closest_points(spline.sample(n_samples))
    if _self_intersects_2d(on_surface):
        warnings.warn(f"margin line for case {case_id!r} self-intersects")
    return on_surface
