"""Procedural test meshes: icospheres, open cylinders and planar grids.

The package builds only the synthetic die (`marginline.shapes`); these
shapes are what the tests check mesh operations on."""

from __future__ import annotations

import numpy as np

from marginline.mesh import TriangleMesh


def icosahedron(radius=1.0):
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    v *= radius / np.linalg.norm(v[0])
    f = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return TriangleMesh(v, f)


def subdivide(mesh, project_radius=None):
    """One loop-style 1:4 split; optionally re-project vertices to a sphere."""
    v = list(map(tuple, mesh.vertices))
    index = {p: i for i, p in enumerate(v)}
    verts = [np.asarray(p) for p in v]
    midpoint_cache = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key in midpoint_cache:
            return midpoint_cache[key]
        m = (verts[i] + verts[j]) / 2.0
        if project_radius is not None:
            m = m / np.linalg.norm(m) * project_radius
        idx = len(verts)
        verts.append(m)
        midpoint_cache[key] = idx
        return idx

    faces = []
    for a, b, c in mesh.faces:
        ab = midpoint(a, b)
        bc = midpoint(b, c)
        ca = midpoint(c, a)
        faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    return TriangleMesh(np.asarray(verts), np.asarray(faces, dtype=np.int64))


def icosphere(subdivisions=3, radius=1.0):
    """Closed sphere with 20 * 4**subdivisions faces."""
    mesh = icosahedron(radius)
    for _ in range(subdivisions):
        mesh = subdivide(mesh, project_radius=radius)
    return mesh


def open_cylinder(radius=1.0, height=2.0, segments=32, rings=8):
    """Tube without caps, built vertex by vertex and quad by quad; two
    boundary loops with `segments` vertices each."""
    theta = np.linspace(0.0, 2 * np.pi, segments, endpoint=False)
    zs = np.linspace(0.0, height, rings + 1)
    verts = [[radius * np.cos(t), radius * np.sin(t), z] for z in zs for t in theta]
    faces = []
    for r in range(rings):
        for s in range(segments):
            a = r * segments + s
            b = r * segments + (s + 1) % segments
            c = (r + 1) * segments + s
            d = (r + 1) * segments + (s + 1) % segments
            faces.append([a, b, d])
            faces.append([a, d, c])
    return TriangleMesh(
        np.asarray(verts, dtype=np.float64), np.asarray(faces, dtype=np.int64)
    )


def grid_patch(n=10, spacing=1.0):
    """Flat square grid in the z=0 plane with (n+1)^2 vertices."""
    xs = np.arange(n + 1) * spacing
    verts = np.array([[x, y, 0.0] for y in xs for x in xs])
    faces = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b = a + 1
            c = a + (n + 1)
            d = c + 1
            faces.append([a, b, d])
            faces.append([a, d, c])
    return TriangleMesh(verts, np.asarray(faces))
