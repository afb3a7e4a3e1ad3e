"""STL and PLY reading/writing.

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
from .mesh import TriangleMesh

WELD_TOL = 1e-6  # mm

_LABEL_COLORS = {0: (170, 170, 170), 1: (170, 60, 190)}


def _weld(raw_vertices):
    """Merge vertices within WELD_TOL; returns (vertices, index_map).

    Welded vertices come in lexicographic order of their rounded keys,
    each at the position of its first occurrence."""
    key = np.round(raw_vertices / WELD_TOL).astype(np.int64)
    order = np.lexsort(key.T[::-1])
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = np.any(key[1:] != key[:-1], axis=1)
    inverse = np.empty(len(key), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return raw_vertices[order[new]], inverse


def soup_to_mesh(raw_vertices):
    """Indexed mesh from an (3F, 3) triangle soup, welding duplicates."""
    raw_vertices = np.asarray(raw_vertices, dtype=np.float64).reshape(-1, 3)
    if len(raw_vertices) == 0:
        raise EmptyMeshError("no triangles in input")
    vertices, inverse = _weld(raw_vertices)
    faces = inverse.reshape(-1, 3)
    keep = ~(
        (faces[:, 0] == faces[:, 1])
        | (faces[:, 1] == faces[:, 2])
        | (faces[:, 0] == faces[:, 2])
    )
    faces = faces[keep]
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
    rec = np.frombuffer(data, dtype=np.uint8, count=50 * count, offset=84)
    rec = rec.reshape(count, 50)[:, :48].copy()
    floats = rec.view("<f4").reshape(count, 12)
    tris = floats[:, 3:12].astype(np.float64).reshape(-1, 3)
    return soup_to_mesh(tris)


def _load_stl_ascii(text):
    tris = []
    cur = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "vertex":
            if len(tok) != 4:
                raise MeshParseError(
                    f"malformed vertex record at line {lineno}", offset=lineno
                )
            try:
                cur.append([float(t) for t in tok[1:4]])
            except ValueError:
                raise MeshParseError(
                    f"non-numeric vertex at line {lineno}", offset=lineno
                ) from None
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
    n_vert = n_face = None
    i = 1
    elements = []  # (name, count)
    while i < len(lines):
        tok = lines[i].split()
        i += 1
        if not tok:
            continue
        if tok[0] == "format" and tok[1] != "ascii":
            raise MeshParseError("only ASCII PLY is supported", offset=i)
        if tok[0] == "element":
            elements.append((tok[1], int(tok[2])))
        if tok[0] == "end_header":
            break
    else:
        raise MeshParseError("PLY header without end_header")
    counts = dict(elements)
    n_vert = counts.get("vertex", 0)
    n_face = counts.get("face", 0)
    if n_face == 0:
        raise EmptyMeshError("PLY declares zero faces")
    body = [l for l in lines[i:] if l.strip()]
    if len(body) < n_vert + n_face:
        raise MeshParseError(
            f"PLY body truncated ({len(body)} rows, need {n_vert + n_face})",
            offset=i + len(body),
        )
    verts = np.array(
        [[float(x) for x in body[j].split()[:3]] for j in range(n_vert)]
    )
    faces = []
    for j in range(n_vert, n_vert + n_face):
        tok = body[j].split()
        k = int(tok[0])
        if k != 3:
            raise MeshParseError(f"non-triangular PLY face at row {j}", offset=j)
        faces.append([int(t) for t in tok[1:4]])
    return TriangleMesh(verts, np.asarray(faces))


def load_mesh(source, fmt=None):
    """Load a mesh from a path or bytes. fmt: 'stl' | 'ply' | None (sniff)."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
        if fmt is None:
            fmt = Path(source).suffix.lstrip(".").lower() or None
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
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
    rec = np.zeros(
        len(tris),
        dtype=np.dtype(
            [("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")]
        ),
    )
    rec["n"] = normals
    rec["v"] = tris
    with open(path, "wb") as fh:
        fh.write(b"\x00" * 80)
        fh.write(struct.pack("<I", len(tris)))
        fh.write(rec.tobytes())


def save_stl_ascii(mesh, path):
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
