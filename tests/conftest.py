import os

# One BLAS thread per job, set before numpy loads its BLAS: this leaves
# the CPUs to `thread_map`, so the suite runs folds on threads as a
# pinned benchmark run does. An explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from geometry import icosphere
from marginline.decimate import decimate
from marginline.mesh import TriangleMesh
from marginline.preprocess import obb_register
from marginline.shapes import frustum_die
from marginline.synthetic import generate_case


def face_neighbors(adjacency):
    """Edge-sharing neighbours of every face, listed in edge-table order."""
    neighbors = [[] for _ in range(adjacency.n_faces)]
    for a, b in adjacency.edge_faces.tolist():
        if b >= 0:
            neighbors[a].append(b)
            neighbors[b].append(a)
    return neighbors


@pytest.fixture(scope="session")
def unit_sphere():
    return icosphere(subdivisions=3, radius=1.0)


@pytest.fixture(scope="session")
def standard_die():
    """Default synthetic die plus its analytic crease."""
    mesh, crease = frustum_die()
    return mesh, crease


@pytest.fixture(scope="session")
def hires_die():
    """A ~40k-face `frustum_die` at 4x the default row counts: the size
    of a full-resolution scan."""
    die, _ = frustum_die(segments=208, rows_below=56, rows_above=40)
    return die


@pytest.fixture(scope="session")
def decimated_hires_die(hires_die):
    """`hires_die` at the 10 000-face working budget."""
    return decimate(hires_die, 10000)


@pytest.fixture(scope="session")
def labeled_die_case():
    """One registered + decimated synthetic case with its crown shell,
    shared by labeling and margin tests."""
    die, crown_bottom, truth_points = generate_case(np.random.default_rng([99, 0]))
    registered, transform = obb_register(die)
    decimated = decimate(registered, 2000)
    crown = TriangleMesh(transform.apply(crown_bottom.vertices), crown_bottom.faces)
    truth = transform.apply(truth_points)
    return {
        "registered": registered,
        "decimated": decimated,
        "crown": crown,
        "truth_points": truth,
        "transform": transform,
    }
