import numpy as np
import pytest

from geometry import grid_patch, icosphere
from marginline.errors import NormalizationError, RegistrationError
from marginline.mesh import TriangleMesh
from marginline.preprocess import (
    RigidTransform,
    augment,
    normalize,
    obb_register,
    rotation_xyz,
)
from marginline.shapes import frustum_die


def _scrambled_die(seed=0):
    # squat proportions: variance ordering x > y > z is unambiguous
    mesh, crease = frustum_die(
        base_radius=6.2,
        margin_radius=4.0,
        margin_height=3.6,
        crown_height=2.6,
        scale_xy=(1.0, 0.86),
    )
    rng = np.random.default_rng(seed)
    rot = rotation_xyz(*rng.uniform(-np.pi, np.pi, size=3))
    moved = TriangleMesh(mesh.vertices @ rot.T + rng.uniform(-5, 5, 3), mesh.faces)
    return mesh, moved, crease


def test_registration_restores_canonical_pose():
    mesh, moved, crease = _scrambled_die(seed=1)
    registered, _ = obb_register(moved)
    # crown tip up: the topmost vertex is near the axis
    top = registered.vertices[np.argmax(registered.vertices[:, 2])]
    assert np.linalg.norm(top[:2]) < 1.0
    # base boundary loop at the bottom
    assert registered.vertices[:, 2].min() < -2.0
    # largest variance on x, smallest on z
    var = registered.vertices.var(axis=0)
    assert var[0] >= var[1] >= var[2]


def test_registration_is_pose_invariant():
    mesh, _, _ = _scrambled_die(seed=2)
    # break the lathe's mirror symmetry so the x-sign convention
    # (nonnegative skewness) is decided by geometry, not noise
    v = mesh.vertices.copy()
    v[:, 0] *= np.where(v[:, 0] > 0, 1.08, 1.0)
    mesh = TriangleMesh(v, mesh.faces)
    rng = np.random.default_rng(2)
    rot = rotation_xyz(*rng.uniform(-np.pi, np.pi, size=3))
    moved = TriangleMesh(v @ rot.T + rng.uniform(-5, 5, 3), mesh.faces)
    reg_a, _ = obb_register(mesh)
    reg_b, _ = obb_register(moved)
    # same rigid body in, same canonical coordinates out (up to rounding)
    assert np.allclose(reg_a.vertices, reg_b.vertices, atol=1e-6)


def test_closed_scan_puts_its_farthest_vertex_up():
    """With no boundary loop to put down, the vertex farthest from the
    centroid goes to +z, from either of two poses a half turn apart."""
    sphere = icosphere(2)
    v = sphere.vertices * [3.0, 2.0, 1.0]
    tip = np.argmax(v[:, 0] + 2 * v[:, 2])
    v[tip] *= 1.3  # lopsided: the farthest vertex, well off the xy-plane
    upright = TriangleMesh(v, sphere.faces)
    flipped = TriangleMesh(v @ rotation_xyz(np.pi, 0, 0).T, sphere.faces)
    for mesh in (upright, flipped):
        registered, _ = obb_register(mesh)
        far = registered.vertices[tip]
        assert np.argmax(np.linalg.norm(registered.vertices, axis=1)) == tip
        assert far[2] > 0.2 * np.linalg.norm(far)


def test_registration_transform_round_trip():
    mesh, moved, _ = _scrambled_die(seed=4)
    registered, transform = obb_register(moved)
    R, t = transform.rotation, transform.translation
    back = RigidTransform(R.T, -R.T @ t).apply(registered.vertices)
    assert np.allclose(back, moved.vertices, atol=1e-9)


def test_degenerate_input_raises():
    flat = grid_patch(n=3)
    with pytest.raises(RegistrationError):
        obb_register(flat)


def test_normalize_zero_mean_unit_std():
    mesh, _ = frustum_die()
    normalized = normalize(mesh)
    assert np.allclose(normalized.vertices.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(normalized.vertices.std(axis=0), 1.0, atol=1e-12)


def test_normalize_rejects_flat_geometry():
    flat = grid_patch(n=2)
    with pytest.raises(NormalizationError):
        normalize(flat)


def test_augmentation_count_matches_protocol():
    """41 dies with 20 random variants each give 861 training samples."""
    mesh, _ = frustum_die(segments=16, rows_below=4, rows_above=3)
    total = 0
    for index in range(41):
        total += len(augment(mesh, 20, 0, index))
    assert total == 861


def test_augmentation_deterministic_and_bounded():
    mesh, _ = frustum_die(segments=16, rows_below=4, rows_above=3)
    a = augment(mesh, 5, 12, 3)
    b = augment(mesh, 5, 12, 3)
    assert a[0] is mesh
    for va, vb in zip(a, b):
        assert np.array_equal(va.vertices, vb.vertices)
        # the face order is kept, so the mesh's labels hold for each copy
        assert np.array_equal(va.faces, mesh.faces)
    # scaling stays within the configured band
    base = mesh.face_areas.sum()
    for variant in a[1:]:
        ratio = variant.face_areas.sum() / base
        assert 0.9**2 * 0.999 <= ratio <= 1.1**2 * 1.001
