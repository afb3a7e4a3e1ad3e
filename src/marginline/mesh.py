"""Triangle mesh representation, topology queries and proximity queries.

Coordinates are in millimeters throughout. Meshes are immutable after
construction; derived quantities (normals, barycenters, areas, adjacency,
spatial index) are computed lazily and cached.

All topology comes from one edge table, `FaceAdjacency`: every edge's
sorted vertex pair and its one or two faces, built with a single stable
sort of integer edge codes (an edge shared by three or more faces raises
TopologyError there). Face components are scipy's connected components
over its interior edges, a one-ring is one pass over them, and mesh
boundaries and label boundaries are both closed loops of its edges,
walked by `walk_closed_loops` and ranked longest first by
`closed_loops`. Labels move between two meshes of one surface by
nearest barycenter (`nearest_face_labels`).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix, csgraph
from scipy.spatial import cKDTree

from .errors import EmptyMeshError, TopologyError


def repeated_vertex(faces):
    """Mask of the (F, 3) faces that name one vertex twice."""
    return (
        (faces[:, 0] == faces[:, 1])
        | (faces[:, 1] == faces[:, 2])
        | (faces[:, 0] == faces[:, 2])
    )


def edge_codes(faces, n_vertices):
    """u * n_vertices + v (u < v) of every face's (0, 1) edge, then every
    face's (1, 2) edge, then every face's (2, 0) edge."""
    a = np.concatenate([faces[:, 0], faces[:, 1], faces[:, 2]])
    b = np.concatenate([faces[:, 1], faces[:, 2], faces[:, 0]])
    return np.minimum(a, b) * n_vertices + np.maximum(a, b)


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
        degen = repeated_vertex(faces)
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

    def _normals_and_areas(self):
        """Fills both caches from one cross product: an area is half the
        norm that its face's normal is divided by."""
        tri = self.vertices[self.faces]
        c = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        del tri
        norm = np.linalg.norm(c, axis=1, keepdims=True)
        self._face_areas = 0.5 * norm[:, 0]
        self._face_normals = c / np.where(norm > 0.0, norm, 1.0)

    @property
    def face_normals(self):
        if self._face_normals is None:
            self._normals_and_areas()
        return self._face_normals

    @property
    def barycenters(self):
        if self._barycenters is None:
            self._barycenters = self.vertices[self.faces].mean(axis=1)
        return self._barycenters

    @property
    def face_areas(self):
        if self._face_areas is None:
            self._normals_and_areas()
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

    def adjacency(self) -> "FaceAdjacency":
        if self._adjacency is None:
            self._adjacency = FaceAdjacency.build(self)
        return self._adjacency

    def bvh(self):
        from .bvh import TriangleBVH

        if self._bvh is None:
            self._bvh = TriangleBVH(self.vertices, self.faces)
        return self._bvh

    def transformed(self, rotation, scale):
        """New mesh with vertices v -> diag(scale) @ (R @ v)."""
        v = self.vertices @ np.asarray(rotation, dtype=np.float64).T
        return TriangleMesh(v * np.asarray(scale, dtype=np.float64), self.faces)


def compact_mesh(vertices, faces):
    """The mesh of `faces` (rows of indices into `vertices`, kept in
    order) over only the vertices they use, in ascending order of their
    index in `vertices`."""
    used = np.zeros(len(vertices), dtype=bool)
    used[faces] = True
    new_index = np.cumsum(used) - 1
    return TriangleMesh(vertices[used], new_index[faces])


class FaceAdjacency:
    """Edge table of a triangle mesh: the one source of its topology.

    Row i of `edge_vertices` is the sorted vertex pair of the i-th edge,
    edges in lexicographic order; row i of `edge_faces` holds the faces
    on that edge in face-slot order (every face's (0, 1) edge, then
    (1, 2), then (2, 0)), -1 in the second slot of a boundary edge."""

    def __init__(self, n_faces, edge_faces, edge_vertices):
        self.n_faces = n_faces
        self.edge_faces = edge_faces  # (E, 2) int64, -1 marks a boundary slot
        self.edge_vertices = edge_vertices  # (E, 2) int64, sorted pairs

    @staticmethod
    def build(mesh: TriangleMesh) -> "FaceAdjacency":
        """Raises TopologyError on an edge shared by more than two faces."""
        n_faces, nv = mesh.n_faces, mesh.n_vertices
        codes = edge_codes(mesh.faces, nv)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        new = np.ones(len(codes), dtype=bool)
        new[1:] = codes[1:] != codes[:-1]
        start = np.flatnonzero(new)
        counts = np.diff(np.append(start, len(codes)))
        bad = np.flatnonzero(counts > 2)
        if len(bad):
            u, v = divmod(int(codes[start[bad[0]]]), nv)
            raise TopologyError(
                f"non-manifold edge ({u}, {v}) shared by {counts[bad[0]]} faces"
            )
        owner = order % n_faces
        edge_faces = np.full((len(start), 2), -1, dtype=np.int64)
        edge_faces[:, 0] = owner[start]
        two = counts == 2
        edge_faces[two, 1] = owner[start[two] + 1]
        edge_vertices = np.stack(divmod(codes[start], nv), axis=1)
        return FaceAdjacency(n_faces, edge_faces, edge_vertices)

    def boundary_edges(self):
        """Edges incident to exactly one face, as (E_b, 2) vertex pairs,
        and that face of each."""
        mask = self.edge_faces[:, 1] == -1
        return self.edge_vertices[mask], self.edge_faces[mask, 0]

    def interior_edges(self):
        """Edges shared by two faces, as (E_i, 2) face pairs and the
        (E_i, 2) vertex pairs of the same edges."""
        mask = self.edge_faces[:, 1] >= 0
        return self.edge_faces[mask], self.edge_vertices[mask]


def walk_closed_loops(edge_vertices):
    """Closed loops formed by distinct edges given as (E, 2) vertex pairs.

    Each walk starts at the first unused edge, goes from its first vertex
    to its second and at every vertex takes the first unused edge there,
    in the given order, until it is back at its start; a walk that gets
    stuck first is an open chain and is dropped. Returns one (vertices,
    edge ids) pair of int64 arrays per loop, edge k joining vertices k
    and k + 1 (cyclically)."""
    ends = edge_vertices.tolist()
    incident = {}
    for eid, (a, b) in enumerate(ends):
        incident.setdefault(a, []).append(eid)
        incident.setdefault(b, []).append(eid)
    used = [False] * len(ends)
    loops = []
    for start, (first, cur) in enumerate(ends):
        if used[start]:
            continue
        used[start] = True
        verts, edges = [first], [start]
        while cur != first:
            eid = next((e for e in incident[cur] if not used[e]), None)
            if eid is None:
                break
            used[eid] = True
            verts.append(cur)
            edges.append(eid)
            a, b = ends[eid]
            cur = b if a == cur else a
        else:
            loops.append(
                (np.asarray(verts, dtype=np.int64), np.asarray(edges, dtype=np.int64))
            )
    return loops


def closed_loops(mesh: TriangleMesh, edge_vertices):
    """The closed loops `walk_closed_loops` finds among `edge_vertices`,
    as (vertices, edge ids, length in mm) triples: longest first, in walk
    order among equal lengths."""
    loops = []
    for verts, edges in walk_closed_loops(edge_vertices):
        pts = mesh.vertices[verts]
        length = float(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).sum())
        loops.append((verts, edges, length))
    loops.sort(key=lambda loop: -loop[2])
    return loops


def extract_boundary_loops(mesh: TriangleMesh):
    """`closed_loops` of the mesh boundary; a closed mesh has none.
    Raises TopologyError on non-manifold edges (via adjacency
    construction)."""
    return closed_loops(mesh, mesh.adjacency().boundary_edges()[0])


def nearest_face_labels(mesh: TriangleMesh, labels, points):
    """`labels` (one per face of `mesh`) at the face whose barycenter is
    nearest each of the (n, 3) `points`: how a label field moves from
    one mesh of a surface to another mesh of it, or to a point set."""
    _, nearest = cKDTree(mesh.barycenters).query(points)
    return labels[nearest]


def first_positions(values, n):
    """Position of the first occurrence of each of 0..n-1 in `values`
    (len(values) where it does not occur): `np.unique(values,
    return_index=True)[1]` when every value occurs, at a small fraction
    of its sort's cost."""
    first = np.full(n, len(values), dtype=np.intp)
    np.minimum.at(first, values, np.arange(len(values)))
    return first


def connected_components(ids, adjacency: FaceAdjacency):
    """Edge-connected components of the faces `ids` (a sorted int64 array
    of distinct face ids), as sorted int64 id arrays: largest first, ties
    by smallest id."""
    if len(ids) == 0:
        return []
    local = np.full(adjacency.n_faces, -1, dtype=np.int64)
    local[ids] = np.arange(len(ids))
    ef, _ = adjacency.interior_edges()
    fa, fb = local[ef[:, 0]], local[ef[:, 1]]
    inside = (fa >= 0) & (fb >= 0)
    graph = coo_matrix(
        (np.ones(int(inside.sum()), dtype=np.int8), (fa[inside], fb[inside])),
        shape=(len(ids), len(ids)),
    )
    n_comp, comp = csgraph.connected_components(graph, directed=False)
    sizes = np.bincount(comp)
    first = first_positions(comp, n_comp)
    # lexsort is stable: each component's ids stay ascending
    order = np.lexsort((first[comp], -sizes[comp]))
    return np.split(ids[order], np.cumsum(np.sort(sizes)[::-1])[:-1])
