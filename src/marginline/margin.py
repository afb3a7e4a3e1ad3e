"""Margin line generation: label-boundary faces, full-resolution surface
projection, periodic smoothing spline, and the sampled surface loop."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BoundaryExtractionError
from .labeling import LabeledMesh
from .mesh import TriangleMesh, loop_length, walk_closed_loops
from .spline import SmoothingSpline, fit_smoothing_spline

DEFAULT_SAMPLES = 5000


def _label_boundary_edges(labeled: LabeledMesh):
    """Mesh edges separating label-1 from label-0 faces, with the label-1
    face of each edge."""
    adjacency = labeled.mesh.adjacency()
    labels = labeled.labels
    interior = adjacency.edge_faces[:, 1] >= 0
    ef = adjacency.edge_faces[interior]
    ev = adjacency.edge_vertices[interior]
    diff = labels[ef[:, 0]] != labels[ef[:, 1]]
    ef = ef[diff]
    ev = ev[diff]
    one_side = np.where(labels[ef[:, 0]] == 1, ef[:, 0], ef[:, 1])
    return ev, one_side


def extract_boundary_faces(labeled: LabeledMesh):
    """Ordered centers of the label-1 faces adjacent to label-0 faces,
    following the longest closed loop of label-boundary edges.

    Returns (centers (k, 3), face ids (k,))."""
    ev, one_side = _label_boundary_edges(labeled)
    if len(ev) == 0:
        raise BoundaryExtractionError("labels are uniform: no label boundary")
    loops = walk_closed_loops(ev)
    if not loops:
        raise BoundaryExtractionError(
            f"{len(ev)} label-boundary edges form no closed loop"
        )
    lengths = [loop_length(labeled.mesh, verts) for verts, _ in loops]
    _, loop = loops[int(np.argmax(lengths))]
    faces = []
    for f in one_side[loop].tolist():
        if not faces or (f != faces[-1] and f != faces[0]):
            faces.append(f)
    face_ids = np.asarray(faces, dtype=np.int64)
    return labeled.mesh.barycenters[face_ids], face_ids


@dataclass
class MarginLine:
    """Ordered closed loop of points lying on the original die surface."""

    points: np.ndarray  # (n, 3) mm
    spline: SmoothingSpline
    case_id: str = ""

    @property
    def n_points(self):
        return len(self.points)

    def to_json_dict(self):
        return {
            "case_id": self.case_id,
            "n": int(self.n_points),
            "points": [[float(x) for x in p] for p in self.points],
            "closed": True,
        }

    def save_json(self, path):
        Path(path).write_text(
            json.dumps(self.to_json_dict(), separators=(",", ":"))
        )

    def save_obj(self, path):
        lines = [f"v {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}" for p in self.points]
        n = self.n_points
        lines.append("l " + " ".join(str(i) for i in range(1, n + 1)) + " 1")
        Path(path).write_text("\n".join(lines) + "\n")


def load_margin_json(path):
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
    labeled: LabeledMesh,
    original_die: TriangleMesh,
    n_samples=DEFAULT_SAMPLES,
    case_id="",
) -> MarginLine:
    """Boundary face centers -> closest points on the original die ->
    periodic smoothing spline -> n_samples parameter-uniform samples,
    each projected back onto the die surface."""
    centers, _ = extract_boundary_faces(labeled)
    bvh = original_die.bvh()
    projected, _, _ = bvh.closest_points(centers)
    spline = fit_smoothing_spline(projected)
    sampled = spline.sample(n_samples)
    on_surface, _, _ = bvh.closest_points(sampled)
    if _self_intersects_2d(on_surface):
        warnings.warn(f"margin line for case {case_id!r} self-intersects")
    return MarginLine(points=on_surface, spline=spline, case_id=case_id)
