"""The lathed synthetic die (a bulging, tapered body under a domed crown
stump) and its analytic crease, used by the benchmark."""

from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh

# peak outward bulge (mm) of a synthetic die's body, half way up between
# base and crease: r(t) gains BODY_BULGE_MM * sin(pi t)
BODY_BULGE_MM = 0.35


def lathe(profile_rz, segments, scale_xy=(1.0, 1.0)):
    """Surface of revolution from an (r, z) polyline, elliptical in plan.

    The first profile point is the open base rim; the last must sit on
    the axis (r == 0) and becomes the apex vertex that caps the top.
    """
    profile_rz = np.asarray(profile_rz, dtype=np.float64)
    theta = np.linspace(0.0, 2 * np.pi, segments, endpoint=False)
    sx, sy = scale_xy
    n_rows = len(profile_rz) - 1
    r, z = profile_rz[:n_rows, 0, None], profile_rz[:n_rows, 1, None]
    # one row of `segments` vertices per profile point but the apex, row
    # after row
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
    mesh = lathe(np.asarray(profile), segments, scale_xy=scale_xy)
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
