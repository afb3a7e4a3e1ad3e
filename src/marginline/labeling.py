"""Ground-truth label transfer: crown-bottom boundary -> margin faces on
the die -> two-region per-face labeling."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, IncompleteMarginError, TopologyError
from .mesh import TriangleMesh, connected_components, extract_boundary_loops

ALIGNMENT_GUARD_MM = 1.0
MAX_GAP_DILATIONS = 2


@dataclass
class LabeledMesh:
    """Mesh plus per-face binary labels; 1 marks the crown-bottom region
    (margin faces included)."""

    mesh: TriangleMesh
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.labels) != self.mesh.n_faces:
            raise ValueError(
                f"label count {len(self.labels)} != face count {self.mesh.n_faces}"
            )


def extract_margin_points(crown_bottom: TriangleMesh):
    """Vertices of the longest boundary loop of the crown bottom, in loop
    order. Additional (shorter) loops are reported with a warning."""
    loops = extract_boundary_loops(crown_bottom)
    if not loops:
        raise TopologyError("crown bottom is closed: no boundary to extract")
    if len(loops) > 1:
        warnings.warn(
            f"crown bottom has {len(loops)} boundary loops; using the longest "
            f"({loops[0].length:.3f} mm), ignoring lengths "
            f"{[round(l.length, 3) for l in loops[1:]]}"
        )
    return crown_bottom.vertices[loops[0].vertices]


def resample_closed_polyline(points, spacing):
    """Arc-length uniform resampling of a closed polyline at roughly the
    requested spacing (never fewer points than given)."""
    points = np.asarray(points, dtype=np.float64)
    closed = np.vstack([points, points[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    total = float(seg.sum())
    if total <= 0:
        raise ValueError("degenerate polyline")
    n = max(len(points), int(np.ceil(total / spacing)))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, total, n, endpoint=False)
    idx = np.searchsorted(s, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seg) - 1)
    frac = (targets - s[idx]) / np.maximum(seg[idx], 1e-30)
    return closed[idx] + frac[:, None] * (closed[idx + 1] - closed[idx])


def map_margin_faces(die: TriangleMesh, margin_points):
    """Die faces closest to each margin point. Raises AlignmentError when
    any point is farther than 1 mm from the die surface.

    A margin point usually lies on a die edge or vertex, equally close to
    several faces; the tie goes to the face with the highest barycenter
    (the crown side, the same "up" that `split_regions` uses)."""
    margin_points = np.asarray(margin_points, dtype=np.float64)
    _, faces, dists = die.bvh().closest_points(
        margin_points, tie_score=die.barycenters[:, 2]
    )
    worst = int(np.argmax(dists))
    if dists[worst] > ALIGNMENT_GUARD_MM:
        raise AlignmentError(
            f"margin point {worst} is {dists[worst]:.3f} mm from the die "
            f"surface (> {ALIGNMENT_GUARD_MM} mm); crown and die frames disagree"
        )
    return set(int(f) for f in faces)


def _dilate(mask, adjacency):
    """The face mask grown by its edge-sharing one-ring."""
    ef = adjacency.edge_faces[adjacency.edge_faces[:, 1] >= 0]
    out = mask.copy()
    out[ef[mask[ef[:, 0]], 1]] = True
    out[ef[mask[ef[:, 1]], 0]] = True
    return out


def split_regions(die: TriangleMesh, margin_faces) -> LabeledMesh:
    """Remove the margin faces, split the rest by adjacency and label the
    component with the highest area-weighted barycenter (the crown side)
    1 together with the margin faces; everything else 0.

    Margin gaps are healed by dilating the margin set up to two rings
    before giving up with an IncompleteMarginError.
    """
    adjacency = die.adjacency()
    margin = np.zeros(die.n_faces, dtype=bool)
    margin[np.fromiter(margin_faces, dtype=np.int64)] = True
    bary_z = die.barycenters[:, 2]

    def _separated(rest, comps):
        # the margin ring must disconnect the top of the die from the
        # bottom; islands pinched off the ring do not count
        order = rest[np.argsort(bary_z[rest], kind="stable")]
        lowest, highest = order[0], order[-1]
        bottom = next(comp for comp in comps if lowest in comp)
        return highest not in bottom

    for attempt in range(MAX_GAP_DILATIONS + 1):
        rest = np.flatnonzero(~margin)
        comps = connected_components(rest, adjacency)
        if len(comps) >= 2 and _separated(rest, comps):
            break
        if attempt < MAX_GAP_DILATIONS:
            margin = _dilate(margin, adjacency)
    else:
        raise IncompleteMarginError(
            "margin faces do not disconnect the die after "
            f"{MAX_GAP_DILATIONS} dilation rounds",
            gaps=np.flatnonzero(margin)[:20].tolist(),
        )
    bary = die.barycenters
    areas = die.face_areas
    mean_z = [
        float(np.average(bary[comp, 2], weights=areas[comp])) for comp in comps
    ]
    labels = np.zeros(die.n_faces, dtype=np.int64)
    labels[comps[int(np.argmax(mean_z))]] = 1
    labels[margin] = 1
    return LabeledMesh(die, labels)


def label_die(die: TriangleMesh, crown_bottom: TriangleMesh) -> LabeledMesh:
    """Full transfer: crown-bottom boundary -> margin faces -> regions."""
    points = extract_margin_points(crown_bottom)
    # dense resampling keeps the mapped ring connected, so the healing
    # dilation (which widens the band) is almost never needed
    spacing = 0.25 * float(die.edge_lengths.mean())
    points = resample_closed_polyline(points, spacing)
    margin = map_margin_faces(die, points)
    return split_regions(die, margin)
