import numpy as np
import pytest

from marginline.errors import AlignmentError, TopologyError
from marginline.labeling import (
    extract_margin_points,
    label_die,
    map_margin_faces,
    resample_closed_polyline,
    split_regions,
)
from marginline.mesh import TriangleMesh
from marginline.shapes import crease_circle, icosphere


def test_crown_boundary_is_the_crease(labeled_die_case):
    crown = labeled_die_case["crown"]
    points = extract_margin_points(crown)
    truth = labeled_die_case["truth_points"]
    # every boundary vertex lies on the analytic crease ellipse
    from scipy.spatial import cKDTree

    d, _ = cKDTree(truth).query(points)
    assert d.max() < 0.05


def test_closed_mesh_has_no_margin(unit_sphere):
    with pytest.raises(TopologyError):
        extract_margin_points(unit_sphere)


def test_labels_match_height_threshold_oracle():
    """Transferred labels agree with a direct height split at the crease
    on all but a thin boundary band (< 1% of faces).

    Uses the standard working resolution (10k faces) because the band is
    one face wide and its share shrinks with resolution.
    """
    from marginline.decimate import decimate
    from marginline.shapes import frustum_die

    die, crease = frustum_die(
        base_radius=6.2,
        margin_radius=4.0,
        margin_height=3.6,
        crown_height=2.6,
        scale_xy=(1.0, 0.86),
        segments=128,
        rows_below=28,
        rows_above=20,
    )
    decimated = decimate(die, 10000)
    above = die.barycenters[:, 2] > crease["z"] + 1e-9
    from marginline.meshio import soup_to_mesh

    crown = soup_to_mesh(die.vertices[die.faces[above]].reshape(-1, 3))
    labels = label_die(decimated, extract_margin_points(crown))
    oracle = (decimated.barycenters[:, 2] > crease["z"]).astype(np.int64)
    mismatch = np.mean(labels != oracle)
    assert mismatch < 0.01


def test_margin_band_faces_near_crease(labeled_die_case):
    decimated = labeled_die_case["decimated"]
    labels = label_die(decimated, extract_margin_points(labeled_die_case["crown"]))
    # the label boundary faces straddle the crease within 2 edge lengths
    from scipy.spatial import cKDTree

    adjacency = decimated.adjacency()
    interior = adjacency.edge_faces[adjacency.edge_faces[:, 1] >= 0]
    disagree = labels[interior[:, 0]] != labels[interior[:, 1]]
    faces = np.unique(interior[disagree])
    d, _ = cKDTree(labeled_die_case["truth_points"]).query(
        decimated.barycenters[faces]
    )
    assert d.max() <= 2.0 * decimated.edge_lengths.mean()


def test_alignment_guard(labeled_die_case):
    decimated = labeled_die_case["decimated"]
    far = labeled_die_case["truth_points"] + np.array([0.0, 0.0, 5.0])
    with pytest.raises(AlignmentError):
        map_margin_faces(decimated, far)


def test_margin_ties_go_to_the_crown_side():
    # faces 0 (below) and 1 (above) share the edge (0,0,0)-(1,0,0)
    die = TriangleMesh(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, -1.0], [0.5, 0.3, 1.0]],
        [[0, 1, 2], [0, 1, 3]],
    )
    on_edge = np.array([[0.5, 0.0, 0.0]])
    # a plain query keeps the exact argmin, lowest face id on a tie
    assert die.bvh().closest_points(on_edge)[1].tolist() == [0]
    assert map_margin_faces(die, on_edge).tolist() == [1]
    # a rounding error's worth below the edge still counts as a tie
    below = np.array([[0.25, 0.0, -1e-12]])
    assert die.bvh().closest_points(below)[1].tolist() == [0]
    assert map_margin_faces(die, below).tolist() == [1]


def test_label_transfer_repeats_exactly():
    from marginline.decimate import decimate
    from marginline.synthetic import generate_case

    labels = []
    for _ in range(2):
        case = generate_case("rerun", np.random.default_rng([99, 1]))
        die = decimate(case.die, 2000)
        labels.append(label_die(die, extract_margin_points(case.crown_bottom)))
    assert np.array_equal(labels[0], labels[1])


def test_split_needs_a_separating_ring(unit_sphere):
    from marginline.errors import IncompleteMarginError

    # a handful of scattered faces cannot disconnect a sphere
    with pytest.raises(IncompleteMarginError):
        split_regions(unit_sphere, np.array([0, 5, 100]))


def test_resample_polyline_uniform_spacing():
    square = np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float
    )
    out = resample_closed_polyline(square, spacing=0.1)
    assert len(out) == 40
    seg = np.diff(np.vstack([out, out[:1]]), axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    assert np.allclose(lengths, 0.1, atol=1e-9)
