import importlib
import tracemalloc
import warnings

import numpy as np
import pytest

from marginline.decimate import decimate
from marginline.errors import TopologyError
from marginline.mesh import TriangleMesh, extract_boundary_loops
from marginline.preprocess import obb_register
from marginline.shapes import frustum_die, icosphere, open_cylinder
from marginline.synthetic import generate_case

# the package re-exports the function under the module's name
decimate_module = importlib.import_module("marginline.decimate")


class SequentialDecimator:
    """Reference: one collapse at a time, with set-based link and flip
    checks, over the same edge ranking as the batched passes. Each pass
    walks the ranked edges in cost order and skips an edge whose endpoints
    an earlier collapse of the pass touched."""

    def __init__(self, mesh):
        _, _, self.quadrics, self.boundary = decimate_module._initial_state(mesh)
        self.vx = mesh.vertices[:, 0].tolist()
        self.vy = mesh.vertices[:, 1].tolist()
        self.vz = mesh.vertices[:, 2].tolist()
        self.faces = [list(f) for f in mesh.faces.tolist()]
        self.face_alive = [True] * len(self.faces)
        self.n_alive = len(self.faces)
        self.vertex_faces = [set() for _ in range(mesh.n_vertices)]
        for fi, f in enumerate(self.faces):
            for w in f:
                self.vertex_faces[w].add(fi)
        self.version = [0] * mesh.n_vertices

    def neighbors(self, u):
        out = {w for fi in self.vertex_faces[u] for w in self.faces[fi]}
        out.discard(u)
        return out

    def shared_faces(self, u, v):
        return self.vertex_faces[u] & self.vertex_faces[v]

    def link_condition(self, u, v):
        shared = self.shared_faces(u, v)
        if not (1 <= len(shared) <= 2):
            return False
        third = {w for fi in shared for w in self.faces[fi] if w not in (u, v)}
        return (self.neighbors(u) & self.neighbors(v)) == third

    def would_flip(self, u, v, pos):
        """True if moving u (and v) to pos flips any surviving face."""
        def normal(p):
            (ax, ay, az), (bx, by, bz), (cx, cy, cz) = p
            return (
                (by - ay) * (cz - az) - (bz - az) * (cy - ay),
                (bz - az) * (cx - ax) - (bx - ax) * (cz - az),
                (bx - ax) * (cy - ay) - (by - ay) * (cx - ax),
            )

        for vert in (u, v):
            for fi in self.vertex_faces[vert]:
                f = self.faces[fi]
                if u in f and v in f:
                    continue  # face dies in the collapse
                old = [(self.vx[w], self.vy[w], self.vz[w]) for w in f]
                new = [pos if w in (u, v) else p for w, p in zip(f, old)]
                n0, n1 = normal(old), normal(new)
                if n0[0] * n1[0] + n0[1] * n1[1] + n0[2] * n1[2] <= 0:
                    return True
        return False

    def collapse(self, u, v, pos):
        for fi in self.shared_faces(u, v):
            self.face_alive[fi] = False
            self.n_alive -= 1
            for w in self.faces[fi]:
                self.vertex_faces[w].discard(fi)
        for fi in list(self.vertex_faces[v]):
            self.faces[fi] = [u if w == v else w for w in self.faces[fi]]
            self.vertex_faces[u].add(fi)
        self.vertex_faces[v].clear()
        self.vx[u], self.vy[u], self.vz[u] = pos
        self.quadrics[u] += self.quadrics[v]
        self.boundary[u] |= self.boundary[v]
        self.version[u] += 1
        self.version[v] += 1

    def live_faces(self):
        return np.asarray(
            [f for f, alive in zip(self.faces, self.face_alive) if alive],
            dtype=np.int64,
        )

    def run(self, target_faces):
        while self.n_alive > target_faces:
            before = self.n_alive
            points = np.stack([self.vx, self.vy, self.vz], axis=1)
            codes, counts = decimate_module._edge_table(
                self.live_faces(), len(points)
            )
            u, v, pos, _ = decimate_module._rank_edges(
                codes, counts, points, self.quadrics, self.boundary
            )
            version = list(self.version)
            for a, b, p in zip(u.tolist(), v.tolist(), pos.tolist()):
                if self.n_alive <= target_faces:
                    break
                if self.version[a] != version[a] or self.version[b] != version[b]:
                    continue
                if not self.link_condition(a, b) or self.would_flip(a, b, tuple(p)):
                    continue
                self.collapse(a, b, tuple(p))
            if self.n_alive == before:
                break
        faces = self.live_faces()
        used = np.unique(faces)
        remap = np.full(len(self.vx), -1, dtype=np.int64)
        remap[used] = np.arange(len(used))
        points = np.stack([self.vx, self.vy, self.vz], axis=1)
        return TriangleMesh(points[used], remap[faces])


def euler_characteristic(mesh):
    edges = np.unique(
        np.sort(mesh.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1),
        axis=0,
    )
    return mesh.n_vertices - len(edges) + mesh.n_faces


def test_sphere_decimation_accuracy():
    sphere = icosphere(subdivisions=4, radius=10.0)  # 5120 faces
    out = decimate(sphere, 1000)
    assert out.n_faces <= 1005
    assert out.n_faces >= 900
    assert extract_boundary_loops(out) == []
    # all vertices stay near the sphere
    r = np.linalg.norm(out.vertices, axis=1)
    assert np.abs(r - 10.0).max() < 0.2


def test_boundary_edges_preserved():
    cyl = open_cylinder(radius=3.0, height=6.0, segments=48, rings=12)
    out = decimate(cyl, 400)
    loops_in = extract_boundary_loops(cyl)
    loops_out = extract_boundary_loops(out)
    assert len(loops_out) == 2
    for (_, _, a), (_, _, b) in zip(loops_in, loops_out):
        # rim length shrinks only slightly under collapse
        assert b == pytest.approx(a, rel=0.05)


def test_noop_above_current_count(unit_sphere):
    with pytest.warns(UserWarning):
        out = decimate(unit_sphere, unit_sphere.n_faces * 2)
    assert out.n_faces == unit_sphere.n_faces


def test_rejects_tiny_target(unit_sphere):
    with pytest.raises(ValueError):
        decimate(unit_sphere, 3)


def test_face_normals_stay_outward():
    sphere = icosphere(subdivisions=3, radius=1.0)
    out = decimate(sphere, 300)
    dots = np.einsum("ij,ij->i", out.face_normals, out.barycenters)
    assert (dots > 0).all()


def test_full_resolution_die_keeps_topology_and_orientation():
    die, _ = frustum_die(segments=208, rows_below=56, rows_above=40)
    assert die.n_faces > 39000
    out = decimate(die, 10000)
    assert abs(out.n_faces - 10000) <= 50
    assert euler_characteristic(out) == euler_characteristic(die)
    assert len(extract_boundary_loops(out)) == len(extract_boundary_loops(die))
    # no face is turned over against the surface it replaces (a flipped
    # face reads near -1; at the dome's pole one face stands near 90
    # degrees, dot -0.008, as with the one-collapse-at-a-time loop)
    _, nearest, _ = die.bvh().closest_points(out.barycenters)
    dots = np.einsum("ij,ij->i", out.face_normals, die.face_normals[nearest])
    assert dots.min() > -0.5
    assert np.mean(dots > 0.5) > 0.999


def test_working_set_stays_bounded_on_a_full_resolution_die():
    """Peak traced allocation of decimating the 39 728-face die: 36.8 MB
    with the whole edge table ranked and every collapse of a batch
    checked at once, 14.1 MB with both done in fixed-size blocks."""
    die, _ = frustum_die(segments=208, rows_below=56, rows_above=40)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        decimate(die, 10000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 20e6


def _registered_case(seed):
    die, _, _ = generate_case(np.random.default_rng([seed, 0]))
    registered, _ = obb_register(die)
    return registered


REFERENCE_MESHES = pytest.mark.parametrize(
    "mesh, target",
    [
        (icosphere(subdivisions=4, radius=10.0), 1000),
        (icosphere(subdivisions=3, radius=1.0), 300),
        (open_cylinder(radius=3.0, height=6.0, segments=48, rings=12), 400),
        (_registered_case(1), 2000),
        (_registered_case(2), 2000),
        (_registered_case(3), 1000),
    ],
    ids=["ico4", "ico3", "cylinder", "die1", "die2", "die3"],
)


@REFERENCE_MESHES
def test_batched_matches_sequential_reference(mesh, target):
    expected = SequentialDecimator(mesh).run(target)
    out = decimate(mesh, target)
    assert np.array_equal(out.faces, expected.faces)
    assert np.array_equal(out.vertices, expected.vertices)


@REFERENCE_MESHES
def test_tiny_blocks_decimate_byte_identical(mesh, target, monkeypatch):
    # each of these meshes fits in one block of either kind by default
    expected = decimate(mesh, target)
    monkeypatch.setattr(decimate_module, "_RANK_BLOCK", 5)
    monkeypatch.setattr(decimate_module, "_CHECK_BLOCK", 3)
    out = decimate(mesh, target)
    assert out.faces.tobytes() == expected.faces.tobytes()
    assert out.vertices.tobytes() == expected.vertices.tobytes()


def _scanned_die(segments, squash, spin):
    """A full-resolution die spun, shifted and stored in float32 the way a
    scan arrives, then registered: unlike the symmetric die above, some
    collapses on it fail the flip test."""
    die, _ = frustum_die(
        segments=segments, rows_below=56, rows_above=40, scale_xy=(1.0, squash)
    )
    c, s = np.cos(spin), np.sin(spin)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    vertices = die.vertices @ rotation.T + [1.0, -2.0, 0.5]
    scan = TriangleMesh(vertices.astype(np.float32), die.faces)
    return obb_register(scan)[0]


def _triangles(mesh):
    return {tuple(sorted(map(tuple, t))) for t in mesh.vertices[mesh.faces].tolist()}


def test_scanned_die_stays_close_to_sequential_reference():
    die = _scanned_die(208, 0.86, 1.0)
    expected = SequentialDecimator(die).run(10000)
    out = decimate(die, 10000)
    assert out.n_faces == expected.n_faces
    shared = len(_triangles(out) & _triangles(expected)) / out.n_faces
    assert shared > 0.99


def _random_matching(mesh, rng, noise):
    """Vertex-disjoint edges in random order, with target positions
    scattered around the edge midpoints."""
    codes, _ = decimate_module._edge_table(mesh.faces, mesh.n_vertices)
    used = np.zeros(mesh.n_vertices, dtype=bool)
    u, v = [], []
    for code in rng.permutation(codes).tolist():
        a, b = divmod(code, mesh.n_vertices)
        if not (used[a] or used[b]):
            used[a] = used[b] = True
            u.append(a)
            v.append(b)
    u, v = np.asarray(u), np.asarray(v)
    mid = 0.5 * (mesh.vertices[u] + mesh.vertices[v])
    spacing = mesh.edge_lengths.mean()
    return u, v, mid + rng.normal(scale=noise * spacing, size=mid.shape)


def _stepwise_checks(mesh, u, v, pos, drop=()):
    """Reference outcome of each collapse of a batch, on the mesh that the
    earlier collapses (all applied, failed or not) leave; `drop` lists
    collapses left out of the batch."""
    ref = SequentialDecimator(mesh)
    out = {}
    for k, (a, b, p) in enumerate(zip(u.tolist(), v.tolist(), pos.tolist())):
        if k in drop:
            continue
        link = ref.link_condition(a, b)
        flip = ref.would_flip(a, b, tuple(p))
        out[k] = (link, flip)
        ref.collapse(a, b, tuple(p))
    return out


# coarse meshes: their low-valence vertices make link failures likely
COARSE = pytest.mark.parametrize(
    "mesh",
    [
        decimate(icosphere(subdivisions=3), 200),
        decimate(open_cylinder(segments=24, rings=8), 120),
    ],
    ids=["sphere", "cylinder"],
)


@COARSE
def test_batch_checks_match_stepwise_reference(mesh):
    rng = np.random.default_rng(8)
    n_link = n_flip = 0
    for _ in range(25):
        u, v, pos = _random_matching(mesh, rng, noise=0.4)
        ok = decimate_module._Decimator(mesh)._check(u, v, pos, 0)
        expected = _stepwise_checks(mesh, u, v, pos)
        assert ok.tolist() == [link and not flip for link, flip in expected.values()]
        n_link += sum(not link for link, _ in expected.values())
        n_flip += sum(flip for _, flip in expected.values())
    assert n_link > 0 and n_flip > 0  # both checks were exercised


@COARSE
def test_checks_in_tiny_blocks_after_first_match_stepwise_reference(
    mesh, monkeypatch
):
    # collapses before `first` are taken as passed; the rest are checked
    # three at a time, so a batch's checks cross many block edges
    monkeypatch.setattr(decimate_module, "_CHECK_BLOCK", 3)
    rng = np.random.default_rng(10)
    for _ in range(25):
        u, v, pos = _random_matching(mesh, rng, noise=0.4)
        first = int(rng.integers(1, len(u)))
        ok = decimate_module._Decimator(mesh)._check(u, v, pos, first)
        expected = _stepwise_checks(mesh, u, v, pos)
        assert ok.tolist() == [
            k < first or (link and not flip)
            for k, (link, flip) in expected.items()
        ]


@COARSE
def test_failed_collapses_are_dropped_until_the_batch_passes(mesh):
    rng = np.random.default_rng(9)
    most_rounds = 0
    for _ in range(40):
        u, v, pos = _random_matching(mesh, rng, noise=0.4)
        dead = np.full(len(u), 2)
        done, failed = decimate_module._Decimator(mesh)._collapse_batch(
            u, v, pos, dead, target_faces=0
        )
        drop, rounds = set(), 0
        while True:  # drop every failure, check the rest again
            checks = _stepwise_checks(mesh, u, v, pos, drop)
            bad = {k for k, (link, flip) in checks.items() if flip or not link}
            if not bad:
                break
            drop |= bad
            rounds += 1
        most_rounds = max(most_rounds, rounds)
        assert done.tolist() == sorted(checks)
        assert np.flatnonzero(failed).tolist() == sorted(drop)
    assert most_rounds >= 2  # some drop changed a later collapse's outcome


def test_pass_goes_on_when_its_whole_matching_fails(monkeypatch):
    # every collapse of the first matching is rejected: the edges they
    # blocked are matched again in the same pass instead of stalling
    check = decimate_module._Decimator._check
    calls = []

    def reject_first_batch(self, u, v, pos, first):
        calls.append(len(u))
        ok = check(self, u, v, pos, first)
        return ok & (len(calls) > 1)

    monkeypatch.setattr(decimate_module._Decimator, "_check", reject_first_batch)
    sphere = icosphere(subdivisions=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no stall warning
        out = decimate(sphere, 300)
    assert out.n_faces <= 300


def test_guard_drops_collapse_that_leaves_an_edge_with_four_faces(monkeypatch):
    # middle ring of a three-sided tube: collapsing one of its edges merges
    # the two edges to the ring's third vertex, which is not on a shared face
    tube = open_cylinder(segments=3, rings=2)
    dec = decimate_module._Decimator(tube)
    u, v = np.array([3]), np.array([4])
    pos = 0.5 * (tube.vertices[u] + tube.vertices[v])
    assert not dec._check(u, v, pos, 0)[0]  # the link condition fails
    monkeypatch.setattr(
        decimate_module._Decimator, "_check",
        lambda self, u, v, pos, first: np.ones(len(u), dtype=bool),
    )
    done, failed = dec._collapse_batch(u, v, pos, np.array([2]), target_faces=0)
    assert len(done) == 0 and failed.tolist() == [True]
    assert dec.n_alive == tube.n_faces


def test_rejects_edge_shared_by_three_faces():
    vertices = np.array(
        [
            [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
            [5, 0, 0], [6, 0, 0], [5, 1, 0],
        ],
        dtype=float,
    )
    faces = [[0, 1, 2], [1, 0, 3], [0, 1, 4], [5, 6, 7], [2, 3, 4]]
    with pytest.raises(TopologyError, match=r"\(0, 1\) shared by 3 faces"):
        decimate(TriangleMesh(vertices, faces), 4)
