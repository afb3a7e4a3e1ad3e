import numpy as np
import pytest

from marginline.mesh import walk_closed_loops
from marginline.shapes import frustum_die, open_cylinder
from marginline.synthetic import generate_case


def _loop_lathe(profile_rz, segments, scale_xy=(1.0, 1.0), cap_top=True):
    """Reference: the surface of revolution built vertex by vertex and
    quad by quad."""
    profile_rz = np.asarray(profile_rz, dtype=np.float64)
    theta = np.linspace(0.0, 2 * np.pi, segments, endpoint=False)
    sx, sy = scale_xy
    verts = []
    n_rows = len(profile_rz) - (1 if cap_top else 0)
    for r, z in profile_rz[:n_rows]:
        for t in theta:
            verts.append([sx * r * np.cos(t), sy * r * np.sin(t), z])
    faces = []
    for row in range(n_rows - 1):
        for s in range(segments):
            a = row * segments + s
            b = row * segments + (s + 1) % segments
            c = (row + 1) * segments + s
            d = (row + 1) * segments + (s + 1) % segments
            faces.append([a, b, d])
            faces.append([a, d, c])
    if cap_top:
        apex = len(verts)
        verts.append([0.0, 0.0, profile_rz[-1, 1]])
        row = n_rows - 1
        for s in range(segments):
            a = row * segments + s
            b = row * segments + (s + 1) % segments
            faces.append([a, b, apex])
    return np.asarray(verts), np.asarray(faces, dtype=np.int64)


def _loop_cylinder(radius, height, segments, rings):
    """Reference: the tube built vertex by vertex and quad by quad."""
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
    return np.asarray(verts, dtype=np.float64), np.asarray(faces, dtype=np.int64)


def _same_bytes(mesh, verts, faces):
    assert mesh.vertices.dtype == verts.dtype and mesh.faces.dtype == faces.dtype
    assert mesh.vertices.tobytes() == verts.tobytes()
    assert mesh.faces.tobytes() == faces.tobytes()


def _loop_frustum_die(
    base_radius=5.5,
    margin_radius=4.0,
    margin_height=6.0,
    crown_height=4.5,
    scale_xy=(1.0, 0.82),
    segments=64,
    rows_below=14,
    rows_above=10,
    bulge=0.35,
):
    """Reference: the die's (r, z) profile point by point, then the loop
    lathe."""
    profile = []
    for z in np.linspace(0.0, margin_height, rows_below + 1):
        t = z / margin_height
        r = base_radius + (margin_radius - base_radius) * t**1.6
        profile.append((r + bulge * np.sin(np.pi * t), z))
    top = margin_height + crown_height
    for z in np.linspace(margin_height, top, rows_above + 1)[1:-1]:
        u = (z - margin_height) / crown_height
        profile.append((margin_radius * np.sqrt(max(1.0 - u**2, 0.0)), z))
    profile.append((0.0, top))
    return _loop_lathe(profile, segments, scale_xy)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        dict(segments=208, rows_below=56, rows_above=40),  # the 4x die
        dict(segments=61, rows_below=7, rows_above=5, scale_xy=(1.0, 0.85)),
    ],
    ids=["default", "4x", "odd"],
)
def test_frustum_die_matches_loop_reference(kwargs):
    _same_bytes(frustum_die(**kwargs)[0], *_loop_frustum_die(**kwargs))


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        dict(radius=3.0, height=6.0, segments=48, rings=12),
        dict(radius=2, segments=7, rings=1),
    ],
)
def test_open_cylinder_matches_loop_reference(kwargs):
    args = {"radius": 1.0, "height": 2.0, "segments": 32, "rings": 8, **kwargs}
    _same_bytes(open_cylinder(**args), *_loop_cylinder(**args))


@pytest.mark.parametrize("seed", [3, 7, 17])
def test_crown_bottom_is_the_die_above_the_crease(seed):
    """A synthetic case's crown bottom is the die's faces above the crease:
    the same triangles, coordinate for coordinate and in face order, and
    its one boundary loop is the die's crease ring."""
    die, crown, truth = generate_case(np.random.default_rng([seed, 0]))
    crease_z = truth[0, 2]
    # the nearest barycenters lie a third of a row off the crease
    above = die.barycenters[:, 2] > crease_z + 1e-6
    assert np.array_equal(crown.vertices[crown.faces], die.vertices[die.faces[above]])
    assert len(np.unique(crown.faces)) == crown.n_vertices

    (ring, _), *others = walk_closed_loops(crown.adjacency().boundary_edges()[0])
    assert others == []
    on_crease = np.abs(die.vertices[:, 2] - crease_z) < 1e-9
    ring_points = crown.vertices[ring]
    assert len(ring) == on_crease.sum()
    assert set(map(tuple, ring_points)) == set(map(tuple, die.vertices[on_crease]))
