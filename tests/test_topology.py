"""Face-graph queries read from the edge table, compared with the
neighbour-list and set walkers they replaced: components, one-ring
dilation, mesh boundary loops and label-boundary loops."""

import numpy as np
import pytest

from conftest import face_neighbors
from geometry import grid_patch
from marginline.decimate import decimate
from marginline.errors import BoundaryExtractionError
from marginline.labeling import _dilate, extract_margin_points, label_die
from marginline.margin import _label_boundary_edges, extract_boundary_faces
from marginline.mesh import (
    TriangleMesh,
    connected_components,
    extract_boundary_loops,
    walk_closed_loops,
)
from marginline.shapes import frustum_die
from marginline.synthetic import generate_case

# -- references: breadth-first search, sets and dictionary walks -----------


def components_reference(face_subset, neighbors):
    """Edge-connected components as sets, largest first, ties by smallest
    face id."""
    subset = set(int(f) for f in face_subset)
    seen = set()
    comps = []
    for seed in sorted(subset):
        if seed in seen:
            continue
        comp = {seed}
        stack = [seed]
        seen.add(seed)
        while stack:
            f = stack.pop()
            for g in neighbors[f]:
                if g in subset and g not in seen:
                    seen.add(g)
                    comp.add(g)
                    stack.append(g)
        comps.append(comp)
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def dilate_reference(faces, neighbors):
    out = set(faces)
    for f in faces:
        out.update(neighbors[f])
    return out


def edge_loops_reference(edge_vertices):
    """Closed loops of edges as lists of edge ids."""
    incident = {}
    for eid, (a, b) in enumerate(edge_vertices.tolist()):
        incident.setdefault(a, []).append(eid)
        incident.setdefault(b, []).append(eid)
    used = set()
    loops = []
    for start in range(len(edge_vertices)):
        if start in used:
            continue
        loop = [start]
        used.add(start)
        a, b = edge_vertices[start]
        first, cur = int(a), int(b)
        closed = False
        while True:
            nxt = [e for e in incident[cur] if e not in used]
            if not nxt:
                closed = cur == first
                break
            eid = nxt[0]
            used.add(eid)
            loop.append(eid)
            u, v = edge_vertices[eid]
            cur = int(v) if int(u) == cur else int(u)
            if cur == first:
                closed = True
                break
        if closed and len(loop) >= 3:
            loops.append(loop)
    return loops


def boundary_loops_reference(mesh):
    """Vertex loops of the mesh boundary with their lengths, longest
    first, walked over a vertex dictionary."""
    bedges, _ = mesh.adjacency().boundary_edges()
    nxt = {}
    for a, b in bedges:
        nxt.setdefault(int(a), []).append(int(b))
        nxt.setdefault(int(b), []).append(int(a))
    visited_edges = set()
    loops = []
    for a, b in sorted({(min(a, b), max(a, b)) for a, b in bedges.tolist()}):
        if (a, b) in visited_edges:
            continue
        loop = [a, b]
        visited_edges.add((a, b))
        while True:
            cur, prev = loop[-1], loop[-2]
            cands = [
                v
                for v in nxt[cur]
                if v != prev and (min(cur, v), max(cur, v)) not in visited_edges
            ]
            if not cands:
                break
            v = cands[0]
            visited_edges.add((min(cur, v), max(cur, v)))
            if v == loop[0]:
                break
            loop.append(v)
        if len(loop) < 3:
            continue
        pts = mesh.vertices[loop]
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        loops.append((loop, float(seg.sum())))
    loops.sort(key=lambda l: -l[1])
    return loops


def boundary_vertices_reference(mesh, labels):
    """Vertices of the longest closed label-boundary loop, in walk order
    from its first edge's first vertex."""
    ev = _label_boundary_edges(mesh, labels)
    if len(ev) == 0:
        raise BoundaryExtractionError("labels are uniform: no label boundary")
    loops = edge_loops_reference(ev)
    if not loops:
        raise BoundaryExtractionError("no closed loop")
    verts = mesh.vertices
    lengths = [
        sum(float(np.linalg.norm(verts[ev[e, 0]] - verts[ev[e, 1]])) for e in loop)
        for loop in loops
    ]
    loop = loops[int(np.argmax(lengths))]
    walk = [int(ev[loop[0], 0])]
    for eid in loop:
        a, b = (int(v) for v in ev[eid])
        walk.append(b if a == walk[-1] else a)
    assert walk[-1] == walk[0]
    return np.asarray(walk[:-1], dtype=np.int64)


# -- comparisons ------------------------------------------------------------


def _assert_matches_references(mesh, labels):
    neighbors = face_neighbors(mesh.adjacency())
    for value in (1, 0):
        ids = np.flatnonzero(labels == value)
        comps = connected_components(ids, mesh.adjacency())
        assert [set(c.tolist()) for c in comps] == components_reference(ids, neighbors)
        assert all(np.array_equal(c, np.sort(c)) for c in comps)

    mask = labels == 1
    grown = _dilate(mask, mesh.adjacency())
    assert set(np.flatnonzero(grown).tolist()) == dilate_reference(
        np.flatnonzero(mask).tolist(), neighbors
    )

    ev = _label_boundary_edges(mesh, labels)
    walked = walk_closed_loops(ev)
    assert [e.tolist() for _, e in walked] == edge_loops_reference(ev)
    for verts, edges in walked:  # edge k joins vertices k and k + 1
        pairs = np.sort(np.stack([verts, np.roll(verts, -1)], axis=1), axis=1)
        assert np.array_equal(pairs, ev[edges])

    try:
        expected = boundary_vertices_reference(mesh, labels)
    except BoundaryExtractionError:
        with pytest.raises(BoundaryExtractionError):
            extract_boundary_faces(mesh, labels)
    else:
        points, vertex_ids = extract_boundary_faces(mesh, labels)
        assert np.array_equal(vertex_ids, expected)
        assert np.array_equal(points, mesh.vertices[expected])


def _assert_boundary_loops_match(mesh):
    loops = extract_boundary_loops(mesh)
    expected = boundary_loops_reference(mesh)
    assert [v.tolist() for v, _, _ in loops] == [v for v, _ in expected]
    assert [length for _, _, length in loops] == [length for _, length in expected]


@pytest.fixture(scope="module")
def transferred_dies():
    """Three synthetic dies at 2000 faces with their transferred labels."""
    dies = []
    for seed in (3, 29, 41):
        die, crown, _ = generate_case(np.random.default_rng([seed, 0]))
        die = decimate(die, 2000)
        labels = label_die(die, extract_margin_points(crown))
        dies.append((die, labels))
    return dies


def test_transferred_labels_match_references(transferred_dies):
    for die, labels in transferred_dies:
        _assert_boundary_loops_match(die)
        _assert_matches_references(die, labels)


def test_flipped_labels_match_references(transferred_dies):
    rng = np.random.default_rng(60)
    for die, labels in transferred_dies:
        for _ in range(4):
            flipped = labels.copy()
            flipped[rng.choice(die.n_faces, 60, replace=False)] ^= 1
            _assert_matches_references(die, flipped)


def test_full_resolution_die_matches_references():
    die, crease = frustum_die()
    _assert_boundary_loops_match(die)
    for z in (crease["z"], crease["z"] - 0.7):
        _assert_matches_references(die, (die.barycenters[:, 2] > z).astype(np.int64))


def _grid_labels(n, squares):
    """grid_patch(n) labels with the faces of the given (i, j) squares 1."""
    labels = np.zeros(2 * n * n, dtype=np.int64)
    for i, j in squares:
        labels[2 * (j * n + i) : 2 * (j * n + i) + 2] = 1
    return labels


@pytest.mark.parametrize(
    "squares",
    [[(2, 2), (3, 3)], [(3, 2), (2, 3)], [(1, 1), (2, 1), (3, 2), (3, 3)]],
)
def test_pinch_vertex_label_boundary(squares):
    """Two label-1 regions that meet at one vertex: four label-boundary
    edges share it."""
    patch = grid_patch(n=6)
    labels = _grid_labels(6, squares)
    ev = _label_boundary_edges(patch, labels)
    assert np.bincount(ev.ravel()).max() == 4
    _assert_matches_references(patch, labels)
    assert sum(len(e) for _, e in walk_closed_loops(ev)) == len(ev)


def test_bowtie_boundary_loops():
    """Two triangles joined at one vertex: two boundary loops through it."""
    mesh = TriangleMesh(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -2, 0]],
        [[0, 1, 2], [0, 3, 4]],
    )
    _assert_boundary_loops_match(mesh)
    loops = extract_boundary_loops(mesh)
    assert sorted(v.tolist() for v, _, _ in loops) == [[0, 1, 2], [0, 3, 4]]
    _assert_boundary_loops_match(grid_patch(n=4))


def test_open_label_boundary_has_no_loop():
    """A label boundary running from rim to rim closes no loop."""
    patch = grid_patch(n=6)
    labels = (patch.barycenters[:, 0] > 3.0).astype(np.int64)
    ev = _label_boundary_edges(patch, labels)
    assert len(ev) > 0
    assert walk_closed_loops(ev) == [] == edge_loops_reference(ev)
    with pytest.raises(BoundaryExtractionError, match="form no closed loop"):
        extract_boundary_faces(patch, labels)
