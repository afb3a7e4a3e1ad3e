"""Procedural test geometry: icospheres, cylinders, planar grids and the
lathed synthetic die (a bulging, tapered body under a domed crown stump)
used by the benchmark."""

from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh

# peak outward bulge (mm) of a synthetic die's body, half way up between
# base and crease: r(t) gains BODY_BULGE_MM * sin(pi t)
BODY_BULGE_MM = 0.35


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
    """Tube without caps; two boundary loops with `segments` vertices each."""
    zs = np.linspace(0.0, height, rings + 1)
    return lathe(
        np.column_stack([np.full(rings + 1, radius), zs]), segments, cap_top=False
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


def lathe(profile_rz, segments, scale_xy=(1.0, 1.0), cap_top=True):
    """Surface of revolution from an (r, z) polyline, elliptical in plan.

    The first profile point is the open base rim; the last, when cap_top
    is set, must sit on the axis (r == 0) and becomes the apex vertex.
    """
    profile_rz = np.asarray(profile_rz, dtype=np.float64)
    theta = np.linspace(0.0, 2 * np.pi, segments, endpoint=False)
    sx, sy = scale_xy
    n_rows = len(profile_rz) - (1 if cap_top else 0)
    r, z = profile_rz[:n_rows, 0, None], profile_rz[:n_rows, 1, None]
    # one row of `segments` vertices per profile point, row after row
    verts = np.stack(
        np.broadcast_arrays(sx * r * np.cos(theta), sy * r * np.sin(theta), z), axis=-1
    ).reshape(-1, 3)
    # the quad (a, b, d, c) between rows `row` and `row + 1` at segment s
    # splits into [a, b, d] and [a, d, c]
    s = np.arange(segments)
    s_next = (s + 1) % segments
    row = np.arange(n_rows - 1)[:, None] * segments
    a, b = row + s, row + s_next
    c, d = a + segments, b + segments
    faces = np.stack([a, b, d, a, d, c], axis=-1).reshape(-1, 3)
    if cap_top:
        apex = np.full(segments, len(verts))
        verts = np.vstack([verts, [0.0, 0.0, profile_rz[-1, 1]]])
        top = (n_rows - 1) * segments
        faces = np.vstack([faces, np.column_stack([top + s, top + s_next, apex])])
    return TriangleMesh(verts, faces)


def frustum_die(
    base_radius=5.5,
    margin_radius=4.0,
    margin_height=6.0,
    crown_height=4.5,
    scale_xy=(1.0, 0.82),
    segments=64,
    rows_below=14,
    rows_above=10,
):
    """Open synthetic die: tapered body, a crease (the margin) at
    `margin_height`, and a domed crown stump above it.

    Returns (mesh, crease_info) where crease_info holds the analytic
    margin: z level, radius and the plan-view scaling.
    """
    zs_below = np.linspace(0.0, margin_height, rows_below + 1)
    # body bulges slightly outward then necks in toward the margin crease
    t = zs_below / margin_height
    r_below = (
        base_radius
        + (margin_radius - base_radius) * t**1.6
        + BODY_BULGE_MM * np.sin(np.pi * t)
    )
    profile = [(r, z) for r, z in zip(r_below, zs_below)]
    # rounded crown stump: an ellipsoidal dome meeting the crease with a
    # vertical tangent, so the dihedral turn at the margin is sharp
    zs_above = np.linspace(margin_height, margin_height + crown_height, rows_above + 1)
    u = (zs_above - margin_height) / crown_height
    r_above = margin_radius * np.sqrt(np.maximum(1.0 - u**2, 0.0))
    for r, z in list(zip(r_above, zs_above))[1:-1]:
        profile.append((r, z))
    profile.append((0.0, margin_height + crown_height))
    mesh = lathe(np.asarray(profile), segments, scale_xy=scale_xy, cap_top=True)
    crease = {
        "z": margin_height,
        "radius": margin_radius,
        "scale_xy": scale_xy,
    }
    return mesh, crease


def crease_circle(crease, n=720):
    """Analytic margin curve of a frustum die, sampled as (n, 3) points."""
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    sx, sy = crease["scale_xy"]
    r = crease["radius"]
    return np.stack(
        [
            sx * r * np.cos(theta),
            sy * r * np.sin(theta),
            np.full(n, crease["z"]),
        ],
        axis=1,
    )
