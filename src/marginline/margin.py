"""Margin line generation: label-boundary faces, full-resolution surface
projection, periodic smoothing spline, and the sampled surface loop."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .errors import BoundaryExtractionError
from .mesh import TriangleMesh, closed_loops
from .spline import fit_smoothing_spline


def _label_boundary_edges(mesh: TriangleMesh, labels):
    """Mesh edges separating label-1 from label-0 faces, with the label-1
    face of each edge."""
    ef, ev = mesh.adjacency().interior_edges()
    diff = labels[ef[:, 0]] != labels[ef[:, 1]]
    ef = ef[diff]
    ev = ev[diff]
    one_side = np.where(labels[ef[:, 0]] == 1, ef[:, 0], ef[:, 1])
    return ev, one_side


def extract_boundary_faces(mesh: TriangleMesh, labels):
    """Ordered centers of the label-1 faces adjacent to label-0 faces
    (`labels` one int per face of `mesh`), following the longest closed
    loop of label-boundary edges.

    Returns (centers (k, 3), face ids (k,))."""
    ev, one_side = _label_boundary_edges(mesh, labels)
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
    _, loop, _ = loops[0]
    faces = []
    for f in one_side[loop].tolist():
        if not faces or (f != faces[-1] and f != faces[0]):
            faces.append(f)
    face_ids = np.asarray(faces, dtype=np.int64)
    return mesh.barycenters[face_ids], face_ids


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
    """(points, case_id) of the margin loop `save_margin_json` wrote."""
    data = json.loads(Path(path).read_text())
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


def extract_margin_line(
    mesh: TriangleMesh,
    labels,
    original_die: TriangleMesh,
    n_samples,
    case_id="",
):
    """Boundary face centers of `mesh` under `labels` -> closest points
    on the original die -> periodic smoothing spline -> n_samples
    parameter-uniform samples, each projected back onto the die surface.
    Returns those (n_samples, 3) points in loop order; `case_id` only
    names the case in a warning."""
    centers, _ = extract_boundary_faces(mesh, labels)
    bvh = original_die.bvh()
    projected, _, _ = bvh.closest_points(centers)
    spline = fit_smoothing_spline(projected)
    sampled = spline.sample(n_samples)
    on_surface, _, _ = bvh.closest_points(sampled)
    if _self_intersects_2d(on_surface):
        warnings.warn(f"margin line for case {case_id!r} self-intersects")
    return on_surface
