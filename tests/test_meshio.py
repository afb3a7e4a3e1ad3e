import numpy as np
import pytest

from marginline.errors import MeshParseError
from marginline.meshio import (
    WELD_TOL,
    _weld,
    load_mesh,
    save_ply,
    save_stl_ascii,
    save_stl_binary,
    soup_to_mesh,
)
from marginline.shapes import icosphere


def test_binary_stl_round_trip(tmp_path, unit_sphere):
    path = tmp_path / "sphere.stl"
    save_stl_binary(unit_sphere, path)
    back = load_mesh(path)
    assert back.n_faces == unit_sphere.n_faces
    assert back.n_vertices == unit_sphere.n_vertices
    # welding restores an indexed mesh; areas agree to float32 precision
    assert back.face_areas.sum() == pytest.approx(
        unit_sphere.face_areas.sum(), rel=1e-6
    )


def test_ascii_stl_round_trip(tmp_path):
    mesh = icosphere(subdivisions=1, radius=2.0)
    path = tmp_path / "mesh.stl"
    save_stl_ascii(mesh, path)
    back = load_mesh(path)
    assert back.n_faces == mesh.n_faces
    assert back.n_vertices == mesh.n_vertices


def test_binary_stl_starting_with_solid(tmp_path, unit_sphere):
    """Binary files whose 80-byte header begins with 'solid' must still be
    detected as binary."""
    path = tmp_path / "tricky.stl"
    save_stl_binary(unit_sphere, path)
    raw = bytearray(path.read_bytes())
    raw[:5] = b"solid"
    path.write_bytes(bytes(raw))
    back = load_mesh(path)
    assert back.n_faces == unit_sphere.n_faces


def test_ascii_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.stl"
    path.write_text("solid x\nfacet normal 0 0 1\nouter loop\nvertex 0 0\n")
    with pytest.raises(MeshParseError):
        load_mesh(path)


def test_ply_face_rows_carry_labels(tmp_path, unit_sphere):
    labels = (unit_sphere.barycenters[:, 2] > 0).astype(np.int64)
    path = tmp_path / "labeled.ply"
    save_ply(unit_sphere, path, labels)
    rows = path.read_text().splitlines()
    face_rows = rows[rows.index("end_header") + 1 + unit_sphere.n_vertices :]
    cols = np.array([row.split() for row in face_rows], dtype=np.int64)
    assert np.array_equal(cols[:, 1:4], unit_sphere.faces)
    assert np.array_equal(cols[:, 4], labels)
    assert load_mesh(path).n_faces == unit_sphere.n_faces


def test_soup_welding_merges_shared_vertices():
    tri = np.array(
        [
            [0, 0, 0], [1, 0, 0], [0, 1, 0],
            [1, 0, 0], [1, 1, 0], [0, 1, 0],
        ],
        dtype=float,
    )
    mesh = soup_to_mesh(tri)
    assert mesh.n_vertices == 4
    assert mesh.n_faces == 2


def test_weld_tolerance_collapses_near_duplicates():
    eps = 1e-8  # below the 1e-6 mm welding grid
    tri = np.array(
        [
            [0, 0, 0], [1, 0, 0], [0, 1, 0],
            [1, 0, eps], [1, 1, 0], [0, 1, -eps],
        ],
        dtype=float,
    )
    assert soup_to_mesh(tri).n_vertices == 4


def _weld_loop(raw_vertices):
    """Reference weld: row-wise unique keys, first occurrence by a loop."""
    key = np.round(raw_vertices / WELD_TOL).astype(np.int64)
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    first = np.full(len(uniq), -1, dtype=np.int64)
    for i, k in enumerate(inverse.ravel()):
        if first[k] < 0:
            first[k] = i
    return raw_vertices[first], inverse.ravel()


def test_weld_matches_row_unique_reference():
    rng = np.random.default_rng(11)
    base = rng.uniform(-5.0, 5.0, size=(300, 3))
    base[:40, 0] = -base[:40, 0]  # negative and positive keys side by side
    base[40:60] = np.round(base[40:60])  # exact small integers, zeros too
    soup = base[rng.integers(0, len(base), size=3000)]
    jitter = rng.uniform(-0.01, 0.01, size=soup.shape) * WELD_TOL
    soup = np.where(rng.random((len(soup), 1)) < 0.3, soup + jitter, soup)
    vertices, inverse = _weld(soup)
    ref_vertices, ref_inverse = _weld_loop(soup)
    assert len(vertices) < len(soup)
    assert np.array_equal(vertices, ref_vertices)
    assert np.array_equal(inverse, ref_inverse)
