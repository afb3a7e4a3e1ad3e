import numpy as np
import pytest

from marginline.decimate import decimate
from marginline.mesh import TriangleMesh
from marginline.preprocess import obb_register
from marginline.shapes import frustum_die, icosphere
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
def labeled_die_case():
    """One registered + decimated synthetic case with its crown shell,
    shared by labeling and margin tests."""
    rng = np.random.default_rng([99, 0])
    case = generate_case("fixture000", rng)
    registered, transform = obb_register(case.die)
    decimated = decimate(registered, 2000)
    crown = TriangleMesh(
        transform.apply(case.crown_bottom.vertices), case.crown_bottom.faces
    )
    truth = transform.apply(case.truth_points)
    return {
        "case": case,
        "registered": registered,
        "decimated": decimated,
        "crown": crown,
        "truth_points": truth,
        "transform": transform,
    }
