"""Canonical pose registration, coordinate normalization and training-set
augmentation.

Registration aligns the principal axes of the convex hull with the
coordinate axes (largest variance on x, smallest on z) and moves the
vertex barycenter to the origin. Sign conventions, which the raw PCA
leaves free, are fixed deterministically:

  * +z points away from the die base: if the mesh is open, the centroid
    of the largest boundary loop ends up at negative z; if closed, the
    vertex farthest from the centroid ends up at positive z.
  * +x is chosen so the third moment (skewness) of the x coordinates is
    nonnegative; when the skewness is negligible, the vertex with the
    largest |x| decides.
  * y completes a right-handed frame.

Upper-arch meshes receive an additional 180 degree rotation about x so
that all dies share one orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import NormalizationError, RegistrationError
from .mesh import TriangleMesh, extract_boundary_loops


@dataclass
class RigidTransform:
    rotation: np.ndarray  # (3, 3) orthonormal, det +1
    translation: np.ndarray  # (3,)

    def apply(self, points):
        return np.asarray(points) @ self.rotation.T + self.translation

    def inverse(self):
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)

    def compose(self, other):
        """Transform equal to applying `other` first, then self."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )


@dataclass
class NormalizationTransform:
    mean: np.ndarray  # (3,)
    std: np.ndarray  # (3,)

    def apply(self, points):
        return (np.asarray(points) - self.mean) / self.std

    def invert(self, points):
        return np.asarray(points) * self.std + self.mean


# ranges augmented copies draw their rotations (degrees) and per-axis
# scales from, uniformly
ROT_X_DEG = (-45.0, 45.0)
ROT_Y_DEG = (-45.0, 45.0)
ROT_Z_DEG = (-180.0, 180.0)
SCALE_RANGE = (0.9, 1.1)


@dataclass
class AugmentationSpec:
    samples_per_die: int = 20
    seed: int = 0


def rotation_xyz(rx, ry, rz):
    """Rotation applying x, then y, then z rotations (radians)."""
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return Rz @ Ry @ Rx


def obb_register(mesh: TriangleMesh, arch="lower"):
    """Canonical-pose registration; returns (registered mesh, transform)."""
    if arch not in ("upper", "lower"):
        raise ValueError(f"arch must be 'upper' or 'lower', got {arch!r}")
    try:
        hull = ConvexHull(mesh.vertices)
    except QhullError as exc:
        raise RegistrationError(f"degenerate convex hull: {exc}") from exc
    hv = mesh.vertices[hull.vertices]
    centered = hv - hv.mean(axis=0)
    cov = centered.T @ centered / len(centered)
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] <= 1e-12 * max(evals[-1], 1.0):
        raise RegistrationError("coplanar or collinear vertex set")
    # eigh returns ascending; we want variance-descending -> x, y, z
    axes = evecs[:, ::-1].T.copy()  # rows: x, y, z candidates

    center = mesh.vertices.mean(axis=0)
    proj = (mesh.vertices - center) @ axes.T

    # z sign: base (largest boundary loop) down, or farthest vertex up
    loops = extract_boundary_loops(mesh)
    if loops:
        base_z = proj[loops[0].vertices, 2].mean()
        if base_z > 0:
            axes[2] = -axes[2]
    else:
        far = np.argmax(np.linalg.norm(proj, axis=1))
        if proj[far, 2] < 0:
            axes[2] = -axes[2]
    # x sign: nonnegative skewness, falling back to max-|x| vertex
    x = proj[:, 0]
    skew = np.mean(x**3)
    if abs(skew) > 1e-9 * max(np.mean(x**2) ** 1.5, 1e-30):
        if skew < 0:
            axes[0] = -axes[0]
    else:
        if x[np.argmax(np.abs(x))] < 0:
            axes[0] = -axes[0]
    axes[1] = np.cross(axes[2], axes[0])

    rotation = axes
    transform = RigidTransform(rotation, -rotation @ center)
    if arch == "upper":
        flip = RigidTransform(rotation_xyz(np.pi, 0.0, 0.0), np.zeros(3))
        transform = flip.compose(transform)
    registered = TriangleMesh(transform.apply(mesh.vertices), mesh.faces)
    return registered, transform


def normalize(mesh: TriangleMesh):
    """Per-axis zero-mean unit-std coordinates; returns (mesh, transform)."""
    mean = mesh.vertices.mean(axis=0)
    std = mesh.vertices.std(axis=0)
    if np.any(std <= 0):
        raise NormalizationError(
            f"zero variance on axis {int(np.argmin(std))}"
        )
    transform = NormalizationTransform(mean, std)
    return TriangleMesh(transform.apply(mesh.vertices), mesh.faces), transform


def _augment_transform(rng):
    rx, ry, rz = (
        np.deg2rad(rng.uniform(*ROT_X_DEG)),
        np.deg2rad(rng.uniform(*ROT_Y_DEG)),
        np.deg2rad(rng.uniform(*ROT_Z_DEG)),
    )
    scale = rng.uniform(*SCALE_RANGE, size=3)
    return rotation_xyz(rx, ry, rz), scale


def augment(sample, spec: AugmentationSpec, sample_index=0):
    """Original sample plus spec.samples_per_die randomly transformed
    copies. Labels (and face order) are carried unchanged.

    `sample` is any object with `.mesh` and `.labels`; copies are built
    with the same type. Deterministic in (spec.seed, sample_index, copy).
    """
    out = [sample]
    for k in range(spec.samples_per_die):
        rng = np.random.default_rng([spec.seed, sample_index, k])
        rotation, scale = _augment_transform(rng)
        mesh = sample.mesh.transformed(rotation=rotation, scale=scale)
        out.append(type(sample)(mesh=mesh, labels=sample.labels.copy()))
    return out
