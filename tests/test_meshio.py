import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geometry import icosphere
from marginline.errors import MarginlineError, MeshParseError
from marginline.meshio import (
    WELD_TOL,
    _weld,
    load_mesh,
    save_stl_binary,
    soup_to_mesh,
)


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
    _loop_save_stl_ascii(mesh, path)
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


@pytest.mark.parametrize("suffix", [".ply", ".PLY"])
def test_load_mesh_refuses_a_path_that_is_not_stl(tmp_path, unit_sphere, suffix):
    """Only STL is read: valid STL bytes under a `.ply` name are refused
    by their suffix, with the path named, while the suffix check ignores
    case."""
    path = tmp_path / f"die{suffix}"
    save_stl_binary(unit_sphere, path)
    with pytest.raises(MeshParseError, match=re.escape(str(path))):
        load_mesh(path)
    save_stl_binary(unit_sphere, tmp_path / "die.STL")
    assert load_mesh(tmp_path / "die.STL").n_faces == unit_sphere.n_faces


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e30])
def test_binary_stl_refuses_non_finite_or_huge_coordinates(tmp_path, value):
    path = tmp_path / "bad.stl"
    save_stl_binary(icosphere(subdivisions=0), path)
    data = bytearray(path.read_bytes())
    # the first facet's second vertex's y: header, count, normal, vertex
    data[84 + 12 + 12 + 4 : 84 + 12 + 12 + 8] = np.float32(value).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(MeshParseError, match="non-finite or out-of-range"):
        load_mesh(path)


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


@pytest.mark.parametrize("shifted_first", [False, True])
def test_weld_keeps_the_first_occurrence(shifted_first):
    """Copies 0.4 of the welding grid (0.4 nm) apart weld into one vertex
    at the position that comes first in the soup."""
    shift = np.array([0.4, -0.4, 0.4]) * WELD_TOL
    a, b = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    first, later = (a + shift, b + shift), (a, b)
    if not shifted_first:
        first, later = later, first
    soup = np.array([[0.0, 0.0, 0.0], *first, [1.0, 1.0, 0.0], later[1], later[0]])
    mesh = soup_to_mesh(soup)
    assert mesh.n_vertices == 4
    # the second triangle reuses the first one's vertices, where they are
    assert np.array_equal(mesh.faces[1, 1:], mesh.faces[0, [2, 1]])
    assert mesh.vertices[mesh.faces[0, 1:]].tobytes() == np.array(first).tobytes()


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


def _loop_save_stl_ascii(mesh, path):
    """ASCII STL bytes for the reader's tests, one f-string per line:
    the package writes only binary STL."""
    buf = io.StringIO()
    buf.write("solid mesh\n")
    for tri, n in zip(mesh.vertices[mesh.faces], mesh.face_normals):
        buf.write(f"facet normal {n[0]:.9e} {n[1]:.9e} {n[2]:.9e}\n")
        buf.write("  outer loop\n")
        for v in tri:
            buf.write(f"    vertex {v[0]:.9e} {v[1]:.9e} {v[2]:.9e}\n")
        buf.write("  endloop\nendfacet\n")
    buf.write("endsolid mesh\n")
    Path(path).write_text(buf.getvalue())


@pytest.fixture(scope="module")
def mesh_files(tmp_path_factory):
    """Small valid files of every format `load_mesh` reads."""
    root = tmp_path_factory.mktemp("valid")
    mesh = icosphere(subdivisions=0)
    _loop_save_stl_ascii(mesh, root / "ascii.stl")
    save_stl_binary(mesh, root / "binary.stl")
    return [p.read_bytes() for p in sorted(root.iterdir())]


_EDIT = st.tuples(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from(("overwrite", "insert", "delete")),
    st.sampled_from(b"0123456789 -.\nex" + bytes(range(0, 256, 37))),
)


@pytest.mark.filterwarnings("error:invalid value encountered in cast")
@given(st.integers(0, 1), st.lists(_EDIT, min_size=1, max_size=6))
@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_mesh_bytes_raise_only_package_errors(
    mesh_files, tmp_path, which, edits
):
    """An STL file with characters overwritten, inserted or deleted
    either loads or raises a MarginlineError or ValueError, never an
    IndexError or other internal failure."""
    data = bytearray(mesh_files[which])
    for where, op, byte in edits:
        at = int(where * len(data))
        if op == "overwrite":
            data[at] = byte
        elif op == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    path = tmp_path / "mutated.stl"
    path.write_bytes(data)
    try:
        load_mesh(path)
    except (MarginlineError, ValueError):
        pass
