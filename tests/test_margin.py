"""Tests for margin line extraction: the label-boundary loop, the band cut
on the full-resolution die, the spline's samples on its surface, and
serialization."""

import json
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from geometry import icosphere
from marginline.errors import BoundaryExtractionError, MarginlineError
from marginline.margin import (
    _self_intersects_2d,
    extract_boundary_faces,
    extract_margin_line,
    load_margin_json,
    save_margin_json,
    save_margin_obj,
)
from marginline.mesh import TriangleMesh
from marginline.pipeline import _scan_labels
from marginline.refine import cleanup_components, graph_cut_refine
from marginline.shapes import crease_circle, frustum_die
from marginline.spline import fit_smoothing_spline


def _threshold_labels(mesh, z):
    return (mesh.barycenters[:, 2] > z).astype(np.int64)


def _margin(mesh, labels, die, n_samples, case_id=""):
    """The margin as `stage_extract` makes it: `labels` of `mesh` (a
    decimation of `die`) cut again on `die`, then walked and sampled."""
    return extract_margin_line(die, _scan_labels(mesh, labels, die), n_samples, case_id)


def test_boundary_faces_straddle_crease(labeled_die_case):
    """The boundary loop's vertices are decimated vertices on the crease:
    within a tenth of a mean edge of the analytic margin curve, where a
    boundary face's center would sit about a third of a face off it."""
    mesh = labeled_die_case["decimated"]
    labels = _threshold_labels(mesh, labeled_die_case["truth_points"][:, 2].mean())
    points, vertex_ids = extract_boundary_faces(mesh, labels)
    assert len(points) == len(vertex_ids) == len(np.unique(vertex_ids))
    assert np.array_equal(points, mesh.vertices[vertex_ids])
    edges = mesh.vertices[mesh.faces[:, [0, 1]]]
    mean_edge = float(np.linalg.norm(edges[:, 0] - edges[:, 1], axis=1).mean())
    d = cKDTree(labeled_die_case["truth_points"]).query(points)[0]
    assert d.max() <= 0.1 * mean_edge


def test_uniform_labels_raise():
    sphere = icosphere(3)
    with pytest.raises(BoundaryExtractionError):
        extract_boundary_faces(sphere, np.zeros(sphere.n_faces, int))


def test_scattered_labels_raise():
    """Isolated positive faces produce no closed boundary loop."""
    sphere = icosphere(2)
    labels = np.zeros(sphere.n_faces, dtype=np.int64)
    labels[::97] = 1  # sparse, mostly non-adjacent faces
    try:
        extract_boundary_faces(sphere, labels)
    except BoundaryExtractionError:
        pass  # acceptable: no loop at all


def test_label_region_reaching_the_base_names_the_open_chain():
    """A die labelled by x > 0: the label boundary runs up one side, over
    the top and down to the open base, so it is an open chain."""
    die, _ = frustum_die()
    labels = (die.barycenters[:, 0] > 0).astype(np.int64)
    with pytest.raises(BoundaryExtractionError) as info:
        extract_boundary_faces(die, labels)
    message = str(info.value)
    assert "the chain is open" in message
    assert "odd-degree ends" in message
    assert "lie on the mesh boundary" in message


def test_extract_margin_line_close_to_analytic():
    """The band cut puts the line on the crease: 4.8 um max on the default
    die, against 150 um for a spline through boundary face centers."""
    die, crease = frustum_die()
    labels = _threshold_labels(die, crease["z"])
    points = _margin(die, labels, die, n_samples=2000, case_id="die")
    assert len(points) == 2000
    truth = crease_circle(crease, n=4096)
    d = cKDTree(truth).query(points)[0]
    assert d.max() <= 0.010


@pytest.mark.parametrize("offset", [-0.3, -0.15, 0.0, 0.15, 0.3])
def test_band_cut_snaps_to_the_crease_from_an_offset_boundary(
    standard_die, hires_die, decimated_hires_die, offset
):
    """Decimated labels whose boundary runs up to about a face (0.31 mm
    mean edge) above or below the crease: the cut on the full-resolution
    die finds the crease (0.41 um max for every offset)."""
    crease = standard_die[1]  # the hires die's crease too
    labels = _threshold_labels(decimated_hires_die, crease["z"] + offset)
    points = _margin(decimated_hires_die, labels, hires_die, n_samples=2000)
    d = cKDTree(crease_circle(crease, n=65536)).query(points)[0]
    assert d.max() <= 1e-3


def test_band_cut_of_a_boundary_off_the_crease_closes_on_the_surface(
    standard_die, hires_die, decimated_hires_die
):
    """A boundary tilted across the crease: the band holds the crease only
    where the two cross. The cut's boundary still closes on the full die,
    and the samples lie on its surface."""
    crease = standard_die[1]  # the hires die's crease too
    mesh = decimated_hires_die
    labels = (
        mesh.barycenters[:, 2] > crease["z"] + 0.4 * mesh.barycenters[:, 0]
    ).astype(np.int64)
    points = _margin(mesh, labels, hires_die, n_samples=500)
    assert points.shape == (500, 3)
    _, _, dist = hires_die.bvh().closest_points(points)
    assert np.max(np.abs(dist)) < 1e-9


@pytest.mark.parametrize("offset", [-0.3, -0.15, 0.0, 0.15, 0.3])
def test_band_cut_seeded_by_the_vote_equals_one_seeded_by_a_decimated_cut(
    standard_die, hires_die, decimated_hires_die, offset
):
    """The band cut on the full-resolution die gives the same labels
    whether it starts from the ensemble's vote (argmax, islands removed)
    or from a graph cut of the same field on the decimated die. A 0.6/0.4
    field makes the decimated cut move 52-260 faces at offsets -0.15,
    0.15 and 0.3 mm."""
    crease = standard_die[1]  # the hires die's crease too
    mesh = decimated_hires_die
    above = _threshold_labels(mesh, crease["z"] + offset)
    probs = np.where(above[:, None] == 1, [0.4, 0.6], [0.6, 0.4])
    vote = cleanup_components(probs.argmax(axis=1), mesh.adjacency())
    cut = cleanup_components(graph_cut_refine(mesh, probs), mesh.adjacency())
    from_vote = _scan_labels(mesh, vote, hires_die)
    assert np.array_equal(from_vote, _scan_labels(mesh, cut, hires_die))


@pytest.mark.parametrize("cut", [True, False], ids=("scan", "decimated"))
def test_projection_onto_the_loops_faces_equals_the_whole_die(
    standard_die, hires_die, decimated_hires_die, cut
):
    """Projecting the spline's samples onto the faces that touch the loop
    gives the whole die's closest points, byte for byte: on the
    full-resolution die under the band cut's labels, and on a decimated
    die under labels of its own."""
    crease = standard_die[1]  # the hires die's crease too
    die = decimated_hires_die
    labels = _threshold_labels(die, crease["z"] + 0.15)
    if cut:
        die, labels = hires_die, _scan_labels(die, labels, hires_die)
    points = extract_margin_line(die, labels, n_samples=2000)
    loop, _ = extract_boundary_faces(die, labels)
    samples = fit_smoothing_spline(loop).sample(2000)
    whole, _, _ = die.bvh().closest_points(samples)
    assert points.tobytes() == whole.tobytes()


def test_margin_points_lie_on_surface():
    die, crease = frustum_die()
    labels = _threshold_labels(die, crease["z"])
    points = _margin(die, labels, die, n_samples=500)
    _, _, dist = die.bvh().closest_points(points)
    assert np.max(np.abs(dist)) < 1e-9


def test_json_round_trip(tmp_path):
    die, crease = frustum_die()
    labels = _threshold_labels(die, crease["z"])
    margin = _margin(die, labels, die, n_samples=256, case_id="rt")
    path = tmp_path / "m.json"
    save_margin_json(path, margin, "rt")
    points, case_id = load_margin_json(path)
    assert case_id == "rt"
    np.testing.assert_allclose(points, margin, atol=1e-12)
    data = json.loads(path.read_text())
    assert data["closed"] is True
    assert data["n"] == 256


def test_json_without_points_names_the_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"case_id": "rt"}))
    with pytest.raises(MarginlineError) as error:
        load_margin_json(path)
    assert str(error.value) == f"{path}: no 'points'"


def test_obj_export(tmp_path):
    die, crease = frustum_die()
    labels = _threshold_labels(die, crease["z"])
    margin = _margin(die, labels, die, n_samples=100)
    path = tmp_path / "m.obj"
    save_margin_obj(path, margin)
    lines = path.read_text().strip().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    polys = [l for l in lines if l.startswith("l ")]
    assert len(verts) == 100
    assert len(polys) == 1
    indices = polys[0].split()[1:]
    assert indices[0] == "1" and indices[-1] == "1"  # closed loop
    assert len(indices) == 101


def _loop_json_and_obj(points, case_id):
    """Reference: the per-point JSON dict and OBJ f-string writers; returns
    (JSON text, OBJ text)."""
    data = {
        "case_id": case_id,
        "n": len(points),
        "points": [[float(x) for x in p] for p in points],
        "closed": True,
    }
    lines = [f"v {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}" for p in points]
    n = len(points)
    lines.append("l " + " ".join(str(i) for i in range(1, n + 1)) + " 1")
    return json.dumps(data, separators=(",", ":")), "\n".join(lines) + "\n"


def test_writers_match_loop_reference(tmp_path):
    rng = np.random.default_rng(4)
    scale = rng.choice([1e-8, 1.0, 1e5], size=(1000, 1))
    points = rng.normal(size=(1000, 3)) * scale
    points[0, 2] = -0.0
    save_margin_json(tmp_path / "m.json", points, "die07")
    save_margin_obj(tmp_path / "m.obj", points)
    ref_json, ref_obj = _loop_json_and_obj(points, "die07")
    assert (tmp_path / "m.json").read_bytes() == ref_json.encode()
    assert (tmp_path / "m.obj").read_bytes() == ref_obj.encode()


def _self_intersects_loop(points):
    """Pairwise-loop reference for `_self_intersects_2d`: the chords
    between every step-th loop point, step = ceil(n / 200)."""
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    flat = centered @ vt[:2].T
    n = len(flat)
    step = (n + 199) // 200
    poly = [flat[k] for k in range(0, n, step)]
    m = len(poly)
    for i in range(m):
        for j in range(m):
            if abs(i - j) <= 1 or (i == 0 and j == m - 1) or (j == 0 and i == m - 1):
                continue
            p, r = poly[i], poly[(i + 1) % m] - poly[i]
            q, s = poly[j], poly[(j + 1) % m] - poly[j]
            denom = r[0] * s[1] - r[1] * s[0]
            if abs(denom) < 1e-30:
                continue
            qp = q - p
            t = (qp[0] * s[1] - qp[1] * s[0]) / denom
            u = (qp[0] * r[1] - qp[1] * r[0]) / denom
            if 0 < t < 1 and 0 < u < 1:
                return True
    return False


def _planar_loop(x, y, tilt=0.3):
    return np.stack([x, y, tilt * x + 2.0], axis=1)


def test_self_intersection_screen():
    for n in (50, 180, 400, 1000, 5000):
        t = 2 * np.pi * (np.arange(n) + 0.5) / n
        ellipse = _planar_loop(3.0 * np.cos(t), 2.0 * np.sin(t))
        figure_eight = _planar_loop(3.0 * np.cos(t), 2.0 * np.sin(t) * np.cos(t))
        assert not _self_intersects_2d(ellipse)
        assert _self_intersects_2d(figure_eight)
    # subsampled screens give the loop reference's answer
    rng = np.random.default_rng(3)
    for n in (5000, 1001, 399, 37):
        t = 2 * np.pi * np.arange(n) / n
        for k in range(3):
            wobble = rng.uniform(0.0, 1.5) * np.sin(rng.integers(2, 9) * t)
            loop = _planar_loop((3.0 + wobble) * np.cos(t), (2.0 + wobble) * np.sin(t))
            loop += rng.normal(0.0, 0.02, loop.shape)
            assert _self_intersects_2d(loop) == _self_intersects_loop(loop)


def _ribbon(curve):
    """Three rows of vertices, `curve` (n, 3) lowered by 0.2 mm, as given
    and raised by 0.2 mm, joined in two closed strips: the lower labelled
    0 and the upper 1, so the label boundary is `curve`. Returns (mesh,
    labels)."""
    n = len(curve)
    rows = np.concatenate([curve + [0.0, 0.0, dz] for dz in (-0.2, 0.0, 0.2)])
    k, k1 = np.arange(n), (np.arange(n) + 1) % n
    faces = []
    for r in (0, n):
        a, b, c, d = r + k, r + k1, r + n + k, r + n + k1
        faces += [np.stack([a, b, d], axis=1), np.stack([a, d, c], axis=1)]
    return TriangleMesh(rows, np.concatenate(faces)), np.repeat([0, 1], 2 * n)


@pytest.mark.parametrize("n", [50, 400, 5000])
@pytest.mark.parametrize("shape", ["ellipse", "figure_eight"])
def test_a_margin_that_crosses_itself_in_plan_warns(n, shape):
    """A label boundary that is a figure-eight in plan (its branches pass
    1 mm apart in z where they cross) gives a margin line that warns,
    naming the case; an ellipse does not."""
    t = 2 * np.pi * (np.arange(n) + 0.5) / n
    y = {"ellipse": 2.0 * np.sin(t), "figure_eight": np.sin(2 * t)}[shape]
    mesh, labels = _ribbon(np.stack([3.0 * np.cos(t), y, 0.5 * np.sin(t)], axis=1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = extract_margin_line(mesh, labels, n_samples=500, case_id="eight")
    assert points.shape == (500, 3)
    messages = [str(w.message) for w in caught]
    expected = ["margin line for case 'eight' self-intersects"]
    assert messages == (expected if shape == "figure_eight" else [])
