"""Mesh files: STL is read in ASCII or binary form and written binary;
no other format is read or written.

STL stores a triangle soup; on load, vertices closer than the welding
tolerance (1e-6 mm) are merged into a single indexed vertex.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import EmptyMeshError, MeshParseError
from .mesh import TriangleMesh, repeated_vertex

WELD_TOL = 1e-6  # mm
# coordinates must be finite and small enough that their weld keys fit
# in int64
_MAX_COORD = 2.0**62 * WELD_TOL

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


def soup_to_mesh(raw_vertices):
    """Indexed mesh from an (3F, 3) triangle soup, welding duplicates."""
    raw_vertices = np.asarray(raw_vertices, dtype=np.float64).reshape(-1, 3)
    if len(raw_vertices) == 0:
        raise EmptyMeshError("no triangles in input")
    # NaN fails the comparisons too: max and min propagate it
    if not (
        raw_vertices.max(initial=0.0) < _MAX_COORD
        and raw_vertices.min(initial=0.0) > -_MAX_COORD
    ):
        raise MeshParseError("non-finite or out-of-range vertex coordinate")
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


def _numbers(tok, count, lineno):
    """The tokens `tok` of line `lineno`, which must be `count` numbers."""
    try:
        if len(tok) == count:
            return [float(t) for t in tok]
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


def load_mesh(path):
    """Load an STL mesh, ASCII or binary, from `path`. A path whose
    suffix is not '.stl' (in any case) is refused."""
    if Path(path).suffix.lower() != ".stl":
        raise MeshParseError(f"{path}: not an STL file")
    data = Path(path).read_bytes()
    if data[:5] == b"solid":
        # some binary files start with 'solid'; require 'facet' to confirm
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError:
            return _load_stl_binary(data)
        if "facet" in text or "endsolid" in text:
            return _load_stl_ascii(text)
    return _load_stl_binary(data)


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

