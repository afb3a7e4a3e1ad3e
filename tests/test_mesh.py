import numpy as np
import pytest

from marginline.errors import EmptyMeshError, TopologyError
from marginline.mesh import (
    FaceAdjacency,
    TriangleMesh,
    connected_components,
    extract_boundary_loops,
)
from marginline.shapes import grid_patch, icosphere, open_cylinder


def test_counts_and_derived_quantities(unit_sphere):
    assert unit_sphere.n_vertices == 642
    assert unit_sphere.n_faces == 1280
    # Euler characteristic of a closed genus-0 surface
    n_edges = unit_sphere.n_faces * 3 // 2
    assert unit_sphere.n_vertices - n_edges + unit_sphere.n_faces == 2
    assert np.allclose(np.linalg.norm(unit_sphere.face_normals, axis=1), 1.0)
    # sphere area converges to 4 pi from below
    total = unit_sphere.face_areas.sum()
    assert 0.98 * 4 * np.pi < total < 4 * np.pi


def test_validation_errors():
    with pytest.raises(EmptyMeshError):
        TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    with pytest.raises(TopologyError):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))
    with pytest.raises(TopologyError):
        TriangleMesh(np.eye(3), np.array([[0, 1, 1]]))  # degenerate face


def test_boundary_loops_on_cylinder():
    cyl = open_cylinder(radius=2.0, height=5.0, segments=24, rings=4)
    loops = extract_boundary_loops(cyl)
    assert len(loops) == 2
    for loop in loops:
        assert len(loop.vertices) == 24
        # circumference of a 24-gon of radius 2
        expected = 24 * 2 * 2.0 * np.sin(np.pi / 24)
        assert loop.length == pytest.approx(expected, rel=1e-9)


def test_closed_mesh_has_no_boundary(unit_sphere):
    assert extract_boundary_loops(unit_sphere) == []


def test_nonmanifold_edge_rejected():
    # three faces sharing edge (0, 1)
    v = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]], dtype=float
    )
    f = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    mesh = TriangleMesh(v, f)
    with pytest.raises(TopologyError):
        mesh.adjacency()


def test_connected_components_order():
    patch = grid_patch(n=2)  # 8 faces, single component
    adjacency = patch.adjacency()
    comps = connected_components(set(range(patch.n_faces)), adjacency)
    assert len(comps) == 1 and len(comps[0]) == 8
    # split into two islands by withholding a separating set
    comps = connected_components({0, 1, 6, 7}, adjacency)
    assert len(comps) == 2
    assert len(comps[0]) >= len(comps[1])


def test_transformed_keeps_face_order(unit_sphere):
    rot = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    moved = unit_sphere.transformed(rotation=rot, scale=np.array([2.0, 2.0, 2.0]))
    assert np.array_equal(moved.faces, unit_sphere.faces)
    assert moved.face_areas.sum() == pytest.approx(
        4 * unit_sphere.face_areas.sum(), rel=1e-9
    )


def _adjacency_reference(mesh):
    """Edge table from a dict: faces listed per edge in slot order (every
    face's (0, 1) edge, then (1, 2), then (2, 0)), edges sorted."""
    faces = mesh.faces.tolist()
    per_edge = {}
    for i, j in ((0, 1), (1, 2), (2, 0)):
        for fi, f in enumerate(faces):
            a, b = sorted((f[i], f[j]))
            per_edge.setdefault((a, b), []).append(fi)
    keys = sorted(per_edge)
    edge_faces = [(per_edge[k] + [-1])[:2] for k in keys]
    return np.array(edge_faces), np.array(keys)


def test_adjacency_matches_dict_reference():
    cyl = open_cylinder(radius=2.0, height=3.0, segments=24, rings=6)
    order = np.random.default_rng(3).permutation(cyl.n_faces)
    mesh = TriangleMesh(cyl.vertices, cyl.faces[order])
    adj = FaceAdjacency.build(mesh)
    edge_faces, edge_vertices = _adjacency_reference(mesh)
    assert (edge_faces[:, 1] == -1).sum() == 48  # two rims
    assert np.array_equal(adj.edge_faces, edge_faces)
    assert np.array_equal(adj.edge_vertices, edge_vertices)
