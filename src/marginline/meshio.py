"""STL and PLY reading/writing: STL is read in ASCII or binary form and
written binary, PLY read and written in ASCII.

STL stores a triangle soup; on load, vertices closer than the welding
tolerance (1e-6 mm) are merged into a single indexed vertex. PLY export
optionally carries a per-face integer `label` plus RGB for inspection.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path

import numpy as np

from .errors import EmptyMeshError, MeshParseError
from .mesh import TriangleMesh, repeated_vertex

WELD_TOL = 1e-6  # mm
# coordinates must be finite and small enough that their weld keys fit
# in int64
_MAX_COORD = 2.0**62 * WELD_TOL

_LABEL_COLORS = {0: (170, 170, 170), 1: (170, 60, 190)}

# one binary STL facet: normal, three vertices, attribute; 50 bytes packed
_STL_RECORD = np.dtype([("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])


def _weld(raw_vertices):
    """Merge vertices within WELD_TOL; returns (vertices, index_map).

    Welded vertices come in lexicographic order of their rounded keys,
    each at the position of its first occurrence."""
    # one row of int64 keys per coordinate, built and compared a row at a
    # time; rint is what np.round does at 0 decimals
    n = len(raw_vertices)
    key = np.empty((3, n), dtype=np.int64)
    for k in range(3):
        np.rint(raw_vertices[:, k] / WELD_TOL, out=key[k], casting="unsafe")
    order = np.lexsort(key[::-1])
    # a sorted key starts a new vertex where any row differs from the key
    # before it
    new = np.zeros(n, dtype=bool)
    new[0] = True
    sorted_row = np.empty(n, dtype=np.int64)
    for k in range(3):
        # mode="clip" writes straight into `out`; every index is in range
        np.take(key[k], order, out=sorted_row, mode="clip")
        new[1:] |= sorted_row[1:] != sorted_row[:-1]
    del key, sorted_row
    vertex_of_sorted = np.cumsum(new)
    vertex_of_sorted -= 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = vertex_of_sorted
    return raw_vertices[order[new]], inverse


def _check_coordinates(vertices):
    # NaN fails the comparisons too: max and min propagate it
    if not (
        vertices.max(initial=0.0) < _MAX_COORD
        and vertices.min(initial=0.0) > -_MAX_COORD
    ):
        raise MeshParseError("non-finite or out-of-range vertex coordinate")


def soup_to_mesh(raw_vertices):
    """Indexed mesh from an (3F, 3) triangle soup, welding duplicates."""
    raw_vertices = np.asarray(raw_vertices, dtype=np.float64).reshape(-1, 3)
    if len(raw_vertices) == 0:
        raise EmptyMeshError("no triangles in input")
    _check_coordinates(raw_vertices)
    vertices, inverse = _weld(raw_vertices)
    faces = inverse.reshape(-1, 3)
    faces = faces[~repeated_vertex(faces)]
    if len(faces) == 0:
        raise EmptyMeshError("all triangles degenerate after welding")
    return TriangleMesh(vertices, faces)


def _load_stl_binary(data):
    if len(data) < 84:
        raise MeshParseError("binary STL shorter than 84-byte header", offset=len(data))
    (count,) = struct.unpack_from("<I", data, 80)
    expected = 84 + 50 * count
    if len(data) < expected:
        raise MeshParseError(
            f"binary STL truncated: {count} facets declared, "
            f"{(len(data) - 84) // 50} present",
            offset=len(data),
        )
    if count == 0:
        raise EmptyMeshError("binary STL declares zero facets")
    rec = np.frombuffer(data, dtype=_STL_RECORD, count=count, offset=84)
    return soup_to_mesh(rec["v"].astype(np.float64).reshape(-1, 3))


def _numbers(tok, count, lineno, parse=float):
    """The tokens `tok` of line `lineno`, which must be `count` numbers."""
    try:
        if len(tok) == count:
            return [parse(t) for t in tok]
    except ValueError:
        pass
    raise MeshParseError(f"expected {count} numbers at line {lineno}", offset=lineno)


def _load_stl_ascii(text):
    tris = []
    cur = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "vertex":
            cur.append(_numbers(tok[1:], 3, lineno))
        elif tok[0] == "endfacet":
            if len(cur) != 3:
                raise MeshParseError(
                    f"facet with {len(cur)} vertices ending at line {lineno}",
                    offset=lineno,
                )
            tris.extend(cur)
            cur = []
    if cur:
        raise MeshParseError("truncated facet record at end of file")
    if not tris:
        raise EmptyMeshError("ASCII STL contains no facets")
    return soup_to_mesh(np.asarray(tris))


def _load_ply_ascii(text):
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise MeshParseError("missing 'ply' magic line", offset=1)
    counts = {}
    # i ends as end_header's line number: the index of the line after it
    for i, tok in enumerate(map(str.split, lines), 1):
        head = tok[0] if tok else None
        if head == "end_header":
            break
        if head == "format" and tok[1:2] != ["ascii"]:
            raise MeshParseError(f"line {i}: only ASCII PLY is supported", offset=i)
        if head == "element":
            if len(tok) < 3 or not tok[2].isdecimal():
                raise MeshParseError(f"element line {i} has no count", offset=i)
            counts[tok[1]] = int(tok[2])
    else:
        raise MeshParseError("PLY header without end_header")
    n_vert = counts.get("vertex", 0)
    n_face = counts.get("face", 0)
    if n_face == 0:
        raise EmptyMeshError("PLY declares zero faces")
    # (line number, tokens) of each non-blank body line
    body = [(k, tok) for k, tok in enumerate(map(str.split, lines[i:]), i + 1) if tok]
    if len(body) < n_vert + n_face:
        raise MeshParseError(
            f"PLY body truncated ({len(body)} rows, need {n_vert + n_face})",
            offset=i + len(body),
        )
    verts = np.reshape([_numbers(tok[:3], 3, k) for k, tok in body[:n_vert]], (-1, 3))
    _check_coordinates(verts)
    faces = [_numbers(tok[:4], 4, k, int) for k, tok in body[n_vert : n_vert + n_face]]
    for (lineno, _), (corners, *face) in zip(body[n_vert:], faces):
        if corners != 3 or not all(0 <= v < n_vert for v in face):
            raise MeshParseError(
                f"face at line {lineno} is not a triangle of listed vertices",
                offset=lineno,
            )
    return TriangleMesh(verts, np.asarray(faces)[:, 1:])


def load_mesh(source):
    """Load a mesh from a path, whose suffix names the format ('stl' or
    'ply'), or from bytes, whose format is sniffed (as for a path
    without a suffix)."""
    if isinstance(source, bytes):
        data, fmt = source, None
    else:
        data = Path(source).read_bytes()
        fmt = Path(source).suffix.lstrip(".").lower() or None
    if fmt is None:
        fmt = "ply" if data[:3] == b"ply" else "stl"
    if fmt == "ply":
        return _load_ply_ascii(data.decode("ascii", errors="replace"))
    if fmt == "stl":
        head = data[:5]
        if head == b"solid":
            # some binary files start with 'solid'; require 'facet' to confirm
            try:
                text = data.decode("ascii")
            except UnicodeDecodeError:
                return _load_stl_binary(data)
            if "facet" in text or "endsolid" in text:
                return _load_stl_ascii(text)
        return _load_stl_binary(data)
    raise MeshParseError(f"unknown mesh format {fmt!r}")


def save_stl_binary(mesh, path):
    tris = mesh.vertices[mesh.faces].astype("<f4")
    normals = mesh.face_normals.astype("<f4")
    rec = np.zeros(len(tris), dtype=_STL_RECORD)
    rec["n"] = normals
    rec["v"] = tris
    with open(path, "wb") as fh:
        fh.write(b"\x00" * 80)
        fh.write(struct.pack("<I", len(tris)))
        fh.write(rec.tobytes())


def save_ply(mesh, path, labels=None):
    """ASCII PLY; when labels are given, faces carry `label` and RGB."""
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
    buf.write(
        ("%.9g %.9g %.9g\n" * mesh.n_vertices) % tuple(mesh.vertices.ravel().tolist())
    )
    if labels is None:
        rows, fmt = mesh.faces, "3 %d %d %d\n"
    else:
        labels = np.asarray(labels).astype(np.int64)
        colors = np.full((mesh.n_faces, 3), 255, dtype=np.int64)
        for label, rgb in _LABEL_COLORS.items():
            colors[labels == label] = rgb
        rows = np.column_stack([mesh.faces, labels, colors])
        fmt = "3 %d %d %d %d %d %d %d\n"
    buf.write((fmt * len(rows)) % tuple(rows.ravel().tolist()))
    Path(path).write_text(buf.getvalue())
