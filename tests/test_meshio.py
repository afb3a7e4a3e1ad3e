import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from marginline.errors import MarginlineError, MeshParseError
from marginline.mesh import TriangleMesh
from marginline.meshio import (
    _LABEL_COLORS,
    WELD_TOL,
    _weld,
    load_mesh,
    save_ply,
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


_PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex 3\n"
    "property float x\nproperty float y\nproperty float z\n"
    "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
)


@pytest.mark.parametrize(
    "text, line",
    [
        ("ply\nformat ascii 1.0\nelement vertex\nend_header\n", 3),
        ("ply\nformat\nelement vertex 3\nend_header\n", 2),
        ("ply\nformat ascii 1.0\nelement face -1\nend_header\n", 3),
        (_PLY_HEADER + "0 0 0\n1 0\n0 1 0\n3 0 1 2\n", 11),
        (_PLY_HEADER + "0 0 0\n1 0 0\n0 1 x\n3 0 1 2\n", 12),
        (_PLY_HEADER + "0 0 0\n1 0 0\n\n0 1 0\n3 0 1\n", 14),
        (_PLY_HEADER + "0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n", 13),
        (_PLY_HEADER + "0 0 0\n1 0 0\n0 1 0\n4 0 1 2 0\n", 13),
    ],
)
def test_ply_parse_errors_carry_their_line(text, line):
    with pytest.raises(MeshParseError) as info:
        load_mesh(text.encode())
    assert info.value.offset == line
    assert f"line {line}" in str(info.value)


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


@pytest.mark.parametrize("row", ["nan 0 0", "1 inf 0", "0 0 -inf", "1e300 0 0"])
def test_ply_refuses_non_finite_or_huge_coordinates(row):
    text = _PLY_HEADER + f"0 0 0\n{row}\n0 1 0\n3 0 1 2\n"
    with pytest.raises(MeshParseError, match="non-finite or out-of-range"):
        load_mesh(text.encode())


def test_minimal_ply_loads():
    """The valid form of the broken files above."""
    mesh = load_mesh((_PLY_HEADER + "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n").encode())
    assert mesh.n_faces == 1


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


def _loop_save_ply(mesh, path, labels=None):
    """Reference: the per-row f-string PLY writer."""
    buf = io.StringIO()
    buf.write("ply\nformat ascii 1.0\n")
    buf.write(f"element vertex {mesh.n_vertices}\n")
    buf.write("property float x\nproperty float y\nproperty float z\n")
    buf.write(f"element face {mesh.n_faces}\n")
    buf.write("property list uchar int vertex_indices\n")
    if labels is not None:
        buf.write("property int label\n")
        buf.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
    buf.write("end_header\n")
    for v in mesh.vertices:
        buf.write(f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
    if labels is None:
        for f in mesh.faces:
            buf.write(f"3 {f[0]} {f[1]} {f[2]}\n")
    else:
        for f, lab in zip(mesh.faces, labels):
            r, g, b = _LABEL_COLORS.get(int(lab), (255, 255, 255))
            buf.write(f"3 {f[0]} {f[1]} {f[2]} {int(lab)} {r} {g} {b}\n")
    Path(path).write_text(buf.getvalue())


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
def awkward_mesh():
    """A sphere whose coordinates span many magnitudes and signs,
    including -0.0."""
    sphere = icosphere(subdivisions=2, radius=3.0)
    rng = np.random.default_rng(8)
    scale = rng.choice([1e-7, 1.0, 1234.5678, -1e6], size=(sphere.n_vertices, 1))
    vertices = sphere.vertices * scale
    vertices[0, 0] = -0.0
    return TriangleMesh(vertices, sphere.faces)


@pytest.mark.parametrize("labeling", ["none", "binary", "outside"])
def test_ply_writer_matches_loop_reference(tmp_path, awkward_mesh, labeling):
    labels = {
        "none": None,
        "binary": (awkward_mesh.barycenters[:, 2] > 0).astype(np.int64),
        "outside": np.arange(awkward_mesh.n_faces) % 4 - 1,  # -1, 0, 1, 2
    }[labeling]
    save_ply(awkward_mesh, tmp_path / "got.ply", labels)
    _loop_save_ply(awkward_mesh, tmp_path / "ref.ply", labels)
    assert (tmp_path / "got.ply").read_bytes() == (tmp_path / "ref.ply").read_bytes()


@pytest.fixture(scope="module")
def mesh_files(tmp_path_factory):
    """Small valid files of every format `load_mesh` reads."""
    root = tmp_path_factory.mktemp("valid")
    mesh = icosphere(subdivisions=0)
    save_ply(mesh, root / "plain.ply")
    save_ply(mesh, root / "labeled.ply", np.arange(mesh.n_faces) % 2)
    _loop_save_stl_ascii(mesh, root / "ascii.stl")
    save_stl_binary(mesh, root / "binary.stl")
    return [p.read_bytes() for p in sorted(root.iterdir())]


_EDIT = st.tuples(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from(("overwrite", "insert", "delete")),
    st.sampled_from(b"0123456789 -.\nex" + bytes(range(0, 256, 37))),
)


@pytest.mark.filterwarnings("error:invalid value encountered in cast")
@given(st.integers(0, 3), st.lists(_EDIT, min_size=1, max_size=6))
@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_mesh_bytes_raise_only_package_errors(mesh_files, which, edits):
    """Bytes from a valid PLY or STL with characters overwritten,
    inserted or deleted either load or raise a MarginlineError or
    ValueError, never an IndexError or other internal failure."""
    data = bytearray(mesh_files[which])
    for where, op, byte in edits:
        at = int(where * len(data))
        if op == "overwrite":
            data[at] = byte
        elif op == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    try:
        load_mesh(bytes(data))
    except (MarginlineError, ValueError):
        pass
