"""Triangle mesh representation, topology queries and proximity queries.

Coordinates are in millimeters throughout. Meshes are immutable after
construction; derived quantities (normals, barycenters, areas, adjacency,
spatial index) are computed lazily and cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyMeshError, TopologyError


class TriangleMesh:
    """Indexed triangle surface.

    vertices: (V, 3) float64, faces: (F, 3) int64. Faces must reference
    valid vertices and contain no repeated index.
    """

    def __init__(self, vertices, faces):
        vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
        if faces.shape[0] == 0:
            raise EmptyMeshError("mesh has no faces")
        if faces.min() < 0 or faces.max() >= len(vertices):
            raise TopologyError("face references a vertex out of range")
        degen = (
            (faces[:, 0] == faces[:, 1])
            | (faces[:, 1] == faces[:, 2])
            | (faces[:, 0] == faces[:, 2])
        )
        if degen.any():
            raise TopologyError(
                f"degenerate face(s) with repeated vertex index: "
                f"{np.nonzero(degen)[0][:5].tolist()}"
            )
        self.vertices = vertices
        self.faces = faces
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)
        self._face_normals = None
        self._barycenters = None
        self._face_areas = None
        self._adjacency = None
        self._bvh = None

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    def _cross(self):
        tri = self.vertices[self.faces]
        return np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])

    @property
    def face_normals(self):
        if self._face_normals is None:
            c = self._cross()
            norm = np.linalg.norm(c, axis=1, keepdims=True)
            safe = np.where(norm > 0.0, norm, 1.0)
            self._face_normals = c / safe
        return self._face_normals

    @property
    def barycenters(self):
        if self._barycenters is None:
            self._barycenters = self.vertices[self.faces].mean(axis=1)
        return self._barycenters

    @property
    def face_areas(self):
        if self._face_areas is None:
            self._face_areas = 0.5 * np.linalg.norm(self._cross(), axis=1)
        return self._face_areas

    @property
    def edge_lengths(self):
        tri = self.vertices[self.faces]
        return np.stack(
            [
                np.linalg.norm(tri[:, 1] - tri[:, 0], axis=1),
                np.linalg.norm(tri[:, 2] - tri[:, 1], axis=1),
                np.linalg.norm(tri[:, 0] - tri[:, 2], axis=1),
            ],
            axis=1,
        )

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def adjacency(self) -> "FaceAdjacency":
        if self._adjacency is None:
            self._adjacency = FaceAdjacency.build(self)
        return self._adjacency

    def bvh(self):
        from .bvh import TriangleBVH

        if self._bvh is None:
            self._bvh = TriangleBVH(self.vertices, self.faces)
        return self._bvh

    def closest_point(self, query):
        """Globally closest surface point to `query`.

        Returns (point, face_id, distance).
        """
        return self.bvh().closest_point(np.asarray(query, dtype=np.float64))

    def transformed(self, rotation=None, translation=None, scale=None):
        """New mesh with vertices v -> diag(scale) @ (R @ v) + t."""
        v = self.vertices
        if rotation is not None:
            v = v @ np.asarray(rotation, dtype=np.float64).T
        if scale is not None:
            v = v * np.asarray(scale, dtype=np.float64)
        if translation is not None:
            v = v + np.asarray(translation, dtype=np.float64)
        return TriangleMesh(v, self.faces)


@dataclass
class BoundaryLoop:
    """Ordered cyclic vertex loop along a surface boundary."""

    vertices: np.ndarray  # (k,) int64, cyclic order
    length: float  # total loop length in mm

    def points(self, mesh):
        return mesh.vertices[self.vertices]


class FaceAdjacency:
    """Edge table and face-to-face adjacency of a triangle mesh."""

    def __init__(self, neighbors, edge_faces, edge_vertices):
        self.neighbors = neighbors  # list[list[int]] per face
        self.edge_faces = edge_faces  # (E, 2) int64, -1 marks a boundary slot
        self.edge_vertices = edge_vertices  # (E, 2) int64, sorted pairs

    @staticmethod
    def build(mesh: TriangleMesh) -> "FaceAdjacency":
        f = mesh.faces
        n_faces = len(f)
        a = np.concatenate([f[:, 0], f[:, 1], f[:, 2]])
        b = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
        edges = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
        owner = np.concatenate([np.arange(n_faces)] * 3)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        owner = owner[order]
        new = np.ones(len(edges), dtype=bool)
        new[1:] = np.any(edges[1:] != edges[:-1], axis=1)
        start = np.flatnonzero(new)
        counts = np.diff(np.append(start, len(edges)))
        uniq = edges[start]
        bad = np.nonzero(counts > 2)[0]
        if len(bad):
            u, v = uniq[bad[0]]
            raise TopologyError(
                f"non-manifold edge ({u}, {v}) shared by {counts[bad[0]]} faces"
            )
        edge_faces = np.full((len(uniq), 2), -1, dtype=np.int64)
        edge_faces[:, 0] = owner[start]
        two = counts == 2
        edge_faces[two, 1] = owner[start[two] + 1]
        # each face's neighbours in edge order: both directions of every
        # interior edge, interleaved, grouped by face with a stable sort
        pairs = edge_faces[two]
        src = pairs.ravel()
        dst = pairs[:, ::-1].ravel()
        by_face = np.argsort(src, kind="stable")
        ends = np.cumsum(np.bincount(src, minlength=n_faces)).tolist()
        dst = dst[by_face].tolist()
        neighbors = [dst[a:b] for a, b in zip([0] + ends[:-1], ends)]
        return FaceAdjacency(neighbors, edge_faces, uniq)

    def boundary_edges(self):
        """Edges incident to exactly one face, as (E_b, 2) vertex pairs."""
        mask = self.edge_faces[:, 1] == -1
        return self.edge_vertices[mask], self.edge_faces[mask, 0]


def extract_boundary_loops(mesh: TriangleMesh) -> list[BoundaryLoop]:
    """All boundary loops, sorted by total length descending.

    Closed meshes return an empty list. Raises TopologyError on
    non-manifold edges (via adjacency construction).
    """
    adj = mesh.adjacency()
    bedges, _ = adj.boundary_edges()
    if len(bedges) == 0:
        return []
    nxt = {}
    for a, b in bedges:
        nxt.setdefault(int(a), []).append(int(b))
        nxt.setdefault(int(b), []).append(int(a))
    visited_edges = set()
    loops = []
    edge_set = {(min(a, b), max(a, b)) for a, b in bedges.tolist()}
    for a, b in sorted(edge_set):
        if (a, b) in visited_edges:
            continue
        loop = [a, b]
        visited_edges.add((a, b))
        while True:
            cur, prev = loop[-1], loop[-2]
            cands = [
                v
                for v in nxt[cur]
                if v != prev
                and (min(cur, v), max(cur, v)) not in visited_edges
            ]
            if not cands:
                break
            v = cands[0]
            visited_edges.add((min(cur, v), max(cur, v)))
            if v == loop[0]:
                break
            loop.append(v)
        if len(loop) < 3:
            continue
        verts = np.asarray(loop, dtype=np.int64)
        pts = mesh.vertices[verts]
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        loops.append(BoundaryLoop(vertices=verts, length=float(seg.sum())))
    loops.sort(key=lambda l: -l.length)
    return loops


def connected_components(face_subset, adjacency: FaceAdjacency):
    """Edge-connected components of a face subset, largest first."""
    subset = set(int(f) for f in face_subset)
    seen = set()
    comps = []
    for seed in sorted(subset):
        if seed in seen:
            continue
        comp = {seed}
        stack = [seed]
        seen.add(seed)
        while stack:
            f = stack.pop()
            for g in adjacency.neighbors[f]:
                if g in subset and g not in seen:
                    seen.add(g)
                    comp.add(g)
                    stack.append(g)
        comps.append(comp)
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps
